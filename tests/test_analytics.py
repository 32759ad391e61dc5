"""Incomplete gamma evaluation and the closed-form selected-SNR curves."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, special

from helpers import distance_average_plain, log_grid_200, unconditional_quad

from d2dsched import analytics, simcore
from d2dsched.channel import GammaSnrCdf
from d2dsched.cli import PRESETS, TABLE5_SHAPES
from d2dsched.grouping import fixed_grouping, with_cellular_singletons
from d2dsched.model import SystemConfig
from d2dsched.weights import ecs_weights, solve_group_weights


def _clear_tables():
    analytics._start_row.cache_clear()
    analytics._run_rows.cache_clear()


@pytest.fixture(autouse=True)
def _fresh_tables():
    # a row refused or built under a patched constant must not be served to later tests
    yield
    _clear_tables()


def _lower_gamma(a, x):
    return analytics.regularized_gamma_p(a, x) * math.gamma(a)


def test_lower_gamma_closed_forms():
    assert _lower_gamma(1.0, 1.0) == pytest.approx(0.6321206, abs=1e-7)
    assert _lower_gamma(3.0, 0.0) == 0.0
    assert analytics.regularized_gamma_p(2.5, 0.0) == 0.0


def test_lower_gamma_against_quadrature():
    for a, x in [(0.5, 2.0), (1.7, 0.3), (4.0, 9.5), (0.6, 0.01), (10.0, 3.0)]:
        ref, err = integrate.quad(lambda t: t ** (a - 1.0) * math.exp(-t), 0.0, x,
                                  epsabs=1e-13, epsrel=1e-13)
        assert abs(_lower_gamma(a, x) - ref) < 1e-10


def test_gamma_domain_errors():
    with pytest.raises(ValueError):
        analytics.regularized_gamma_p(0.0, 1.0)
    with pytest.raises(ValueError):
        analytics.regularized_gamma_p(1.0, -0.1)


@pytest.mark.parametrize("fn, a, x, name", [
    (analytics.regularized_gamma_p, math.nan, 1.0, "shape"),
    (analytics.regularized_gamma_p, math.inf, 1.0, "shape"),
    (analytics.regularized_gamma_p, [2.0, math.inf], 1.0, "shape"),
    (analytics.regularized_gamma_p, 2.0, math.nan, "x"),
    (analytics.regularized_gamma_p, 2.5, [1.0, math.nan], "x"),
    (analytics.regularized_gamma_p_inv, math.nan, 0.5, "shape"),
    (analytics.regularized_gamma_p_inv, math.inf, 0.5, "shape"),
])
def test_gamma_non_finite_arguments_raise(fn, a, x, name):
    with pytest.raises(ValueError, match=name):
        fn(a, x)


@pytest.mark.parametrize("a", [0.75, 2.0, 2.5, 200.5])
def test_gamma_at_infinity_is_one(a):
    assert analytics.regularized_gamma_p(a, math.inf) == special.gammainc(a, math.inf) == 1.0
    out = analytics.regularized_gamma_p(a, np.array([0.5 * a, math.inf, 3.0 * a]))
    assert out[1] == 1.0
    assert np.allclose(out, special.gammainc(a, [0.5 * a, math.inf, 3.0 * a]), rtol=0, atol=1e-13)


def test_gamma_vectorized_shapes():
    x = np.linspace(0.0, 12.0, 7)[:, None]
    for a in (0.7, 2.0, 6.0):
        out = analytics.regularized_gamma_p(a, x)
        assert out.shape == (7, 1)
        for i in range(7):
            assert out[i, 0] == pytest.approx(
                analytics.regularized_gamma_p(a, float(x[i, 0])), abs=1e-13)


@pytest.mark.parametrize("fn", [analytics.regularized_gamma_p, analytics.regularized_gamma_p_inv])
def test_gamma_takes_one_shape_per_call(fn):
    # cells of several shapes go through regularized_gamma_p_inv_runs, which the error names
    for a in ([2.0], np.array([2.0, 2.5]), np.full((2, 1), 3.0)):
        with pytest.raises(ValueError, match="regularized_gamma_p_inv_runs"):
            fn(a, 0.5)
    assert fn(np.float64(2.5), 0.5) == fn(np.array(2.5), 0.5) == fn(2.5, 0.5)


def _gamma_x_points(a):
    return np.concatenate(([0.0, 1e-300, 1e-12], np.linspace(0.0, 3.0 * a + 30.0, 301)[1:]))


def test_gamma_integer_shapes_match_scipy():
    for a in range(1, 61):
        x = _gamma_x_points(a)
        err = np.max(np.abs(analytics.regularized_gamma_p(float(a), x) - special.gammainc(a, x)))
        assert err < 1e-13, a


def test_gamma_fractional_shapes_match_scipy():
    for a in np.random.default_rng(17).uniform(0.5, 60.0, 40):
        x = _gamma_x_points(a)
        err = np.max(np.abs(analytics.regularized_gamma_p(a, x) - special.gammainc(a, x)))
        assert err < 1e-13, a


def test_gamma_large_arguments():
    # e^-750 underflows: a plain Erlang sum times e^-x gives 1.0 here
    assert abs(analytics.regularized_gamma_p(800.0, 750.0) - 0.0363945091) < 1e-10
    assert abs(analytics.regularized_gamma_p(1000.0, 1000.0) - 0.5042052442) < 1e-10
    for a, x in ((800.0, 750.0), (1000.0, 1000.0), (170.0, 650.0), (5.0, 1e4)):
        assert abs(analytics.regularized_gamma_p(a, x) - special.gammainc(a, x)) < 1e-13


def test_gamma_broadcast_mixed_shapes_match_scipy():
    a = np.array([1.0, 8.0, 2.5, 6.0, 0.7, 3.0, 8.0, 2.5, 9.0, 1.0])
    x = a * np.random.default_rng(3).gamma(a, 1.0 / a, size=(500, a.size))
    for j, aj in enumerate(a.tolist()):
        col = analytics.regularized_gamma_p(aj, x[:, j])
        assert np.max(np.abs(col - special.gammainc(aj, x[:, j]))) < 1e-13
    assert analytics.regularized_gamma_p(2.5, x).shape == x.shape
    assert isinstance(analytics.regularized_gamma_p(3.0, 2.0), float)
    assert isinstance(analytics.regularized_gamma_p(2.5, 2.0), float)


def test_gamma_non_convergence_raises():
    # the series needs about 1800 terms here; at 600 it returned 0.49831 (scipy: 0.49967)
    with pytest.raises(analytics.GammaNotConverged, match=r"a=40000\.5.* 1 of 1 points"):
        analytics.regularized_gamma_p(40000.5, 40000.0)


# shapes of the inverse's oracle check, and its largest error relative to scipy's gammaincinv
INV_SHAPES = (0.5, 0.75, 1.0, 2.0, 2.5, 8.0, 9.0, 20.0)
INV_RTOL = 1e-11


def test_gamma_inverse_matches_scipy():
    # both tails down to 1e-12: u on a log grid, and 1 - u
    u = np.geomspace(1e-12, 0.5, 241)
    for a in INV_SHAPES:
        for p in (u, 1.0 - u):
            want = special.gammaincinv(a, p)
            rel = np.max(np.abs(analytics.regularized_gamma_p_inv(a, p) - want) / want)
            assert rel < INV_RTOL, a
    # every shape in one call, a run of cells each, as the simulator calls it
    counts = np.full(len(INV_SHAPES), u.size)
    p = np.tile(1.0 - u, len(INV_SHAPES))
    want = special.gammaincinv(np.repeat(INV_SHAPES, counts), p)
    x = analytics.regularized_gamma_p_inv_runs(INV_SHAPES, counts, p)
    assert np.max(np.abs(x - want) / want) < INV_RTOL
    grid = analytics.regularized_gamma_p_inv_runs([1.0, 2.5, 8.0], [2, 2, 2], np.tile([0.0, 1.0], 3))
    assert np.array_equal(grid, [0.0, np.inf] * 3)
    assert isinstance(analytics.regularized_gamma_p_inv(2.5, 0.3), float)
    assert analytics.regularized_gamma_p_inv(2.5, np.ones(0)).shape == (0,)
    with pytest.raises(ValueError):
        analytics.regularized_gamma_p_inv(0.0, 0.5)
    with pytest.raises(ValueError):
        analytics.regularized_gamma_p_inv(2.0, 1.5)
    with pytest.raises(ValueError):
        analytics.regularized_gamma_p_inv(2.0, np.nan)


@pytest.mark.parametrize("a", [analytics.MAX_SHAPE - 0.5, analytics.MAX_SHAPE])
def test_gamma_at_the_shape_bound_matches_scipy(a):
    # the largest shapes SystemConfig accepts, over x = a +- 10 sqrt(a): P within 1e-10 of
    # its smaller tail, plus a rounding of 1 - Q (the series' prefactor loses about
    # log10(a) digits: 1.03e-11 measured), and the inverse within INV_RTOL
    x = np.linspace(a - 10.0 * math.sqrt(a), a + 10.0 * math.sqrt(a), 2001)
    lower, upper = special.gammainc(a, x), special.gammaincc(a, x)
    err = np.abs(analytics.regularized_gamma_p(a, x) - lower)
    assert np.all(err <= 1e-10 * np.minimum(lower, upper) + 2.0 ** -52)
    p = lower[lower < 1.0]
    want = special.gammaincinv(a, p)
    assert np.max(np.abs(analytics.regularized_gamma_p_inv(a, p) - want) / want) < INV_RTOL


@pytest.mark.parametrize("a, p", [(0.75, 1e-300), (0.5, 1e-200), (0.9, 1e-320), (2.5, 1e-300)])
def test_gamma_inverse_far_lower_tail_matches_scipy(a, p):
    # below shape 1 the first three roots underflow to scipy's 0: no Halley step starts
    # from 0, so nothing divides by it; a cell beside them takes its steps as usual
    ps = np.array([p, 1e-100])
    want = special.gammaincinv(a, ps)
    got = analytics.regularized_gamma_p_inv(a, ps)
    for x, w in zip(got, want):
        assert x == w if w == 0.0 else abs(x - w) < INV_RTOL * w


def test_gamma_inverse_non_convergence_raises(monkeypatch):
    # P's series cannot converge near x = 40000 at this shape, so neither can its inverse
    with pytest.raises(analytics.GammaNotConverged, match=r"series for a=40000\.5"):
        analytics.regularized_gamma_p_inv(40000.5, 0.5)
    # every point still unsettled after the last Halley step is counted, whatever its shape.
    # At log-odds 32.2, off the tabulated start, every point starts from DiDonato & Morris,
    # which one step does not settle; no row is read or built, so neither does a built one
    shapes, counts = np.array([2.0, 2.5, 0.75]), [1, 1, 1]
    _clear_tables()
    for table in ("cold", "warm"):
        with monkeypatch.context() as patched:
            patched.setattr(analytics, "_HALLEY_MAX_ITER", 1)
            with pytest.raises(analytics.GammaNotConverged, match=r"Halley .* 3 of 3 points"):
                analytics.regularized_gamma_p_inv_runs(shapes, counts, np.full(3, 1.0 - 1e-14))
        analytics.regularized_gamma_p_inv_runs(shapes, counts, np.full(3, 0.5))  # builds the rows
    assert analytics._start_row.cache_info().currsize == 3


# the tabulated start's check: every Erlang shape but 1, and non-integer shapes
TABLE_SHAPES = tuple(float(m) for m in range(2, 171)) + (0.5, 0.75, 2.5, 40.5)


def _table_ps(rng):
    """p on every fourth node of the table and halfway to the node after it, at
    random, and the doubles just inside and just outside its edge |t| = 30 in
    each tail."""
    t = analytics._T_NODES[::4]
    t = np.concatenate([t, t[:-1] + 0.5 / analytics._T_PER_UNIT])
    lo, hi = special.expit(-30.0), special.expit(30.0)
    edges = np.concatenate([lo * (1.0 + np.linspace(-1e-9, 1e-9, 5)),
                            hi + np.arange(-3, 4) * np.spacing(hi)])
    inside = np.abs(np.log(edges / (1.0 - edges))) <= 30.0
    assert inside.any() and not inside.all()
    return np.concatenate([special.expit(t), rng.random(100), edges])


def test_gamma_inverse_tabulated_start_matches_scipy():
    p = _table_ps(np.random.default_rng(9))
    counts = np.full(len(TABLE_SHAPES), p.size)
    p = np.tile(p, len(TABLE_SHAPES))
    want = special.gammaincinv(np.repeat(TABLE_SHAPES, counts), p)
    x = analytics.regularized_gamma_p_inv_runs(TABLE_SHAPES, counts, p)
    assert np.max(np.abs(x - want) / want) < INV_RTOL
    # a shape whose row cannot be built (its lower tail underflows) starts its cells
    # from DiDonato & Morris instead
    assert analytics._start_row(0.02) is None
    assert analytics.regularized_gamma_p_inv(0.02, 0.3) == pytest.approx(
        special.gammaincinv(0.02, 0.3), rel=INV_RTOL)


def test_gamma_inverse_is_pure():
    # P^-1(a, p) depends on a and p alone: not on a cold or warm table, the other
    # cells of the call or their order.  Both tails, off the table too, and the
    # lower tails where the Erlang sum cancels at different term counts
    rng = np.random.default_rng(4)
    shapes, counts = np.array([0.75, 2.0, 2.5, 9.0, 40.5, 170.0]), np.full(6, 40)
    p = rng.random(counts.sum())
    p[::5], p[1::7], p[2::11] = 1e-10, 1.0 - 1e-14, 1e-15
    _clear_tables()
    cold = analytics.regularized_gamma_p_inv_runs(shapes, counts, p)
    assert np.array_equal(analytics.regularized_gamma_p_inv_runs(shapes, counts, p), cold)
    # the runs in another order, each with its cells in another order
    order = rng.permutation(shapes.size)
    cells = np.concatenate([40 * j + rng.permutation(40) for j in order])
    moved = analytics.regularized_gamma_p_inv_runs(shapes[order], counts, p[cells])
    assert np.array_equal(moved, cold[cells])
    _clear_tables()
    single = [analytics.regularized_gamma_p_inv(a, pi) for a, pi in zip(shapes.repeat(counts), p)]
    assert np.array_equal(single, cold)
    # the same runs split across two calls, one of them cut inside a run
    head = analytics.regularized_gamma_p_inv_runs(shapes[:3], [40, 40, 13], p[:93])
    tail = analytics.regularized_gamma_p_inv_runs(shapes[2:], [27, 40, 40, 40], p[93:])
    assert np.array_equal(np.concatenate([head, tail]), cold)


# runs of the equivalence check: zero-cell runs, shape 2.5 in two runs, shape 1
# between tabled shapes, and the far shapes 0.5, 171.5 and 4000
RUN_SHAPES = (2.5, 0.5, 9.0, 1.0, 2.0, 3.0, 2.5, 171.5, analytics.MAX_SHAPE, 0.75)
RUN_COUNTS = (5000, 0, 2100, 2600, 0, 1800, 4000, 700, 900, 1500)


def _run_ps(rng, n):
    """p at random, with p = 0, 1 - 2^-53 and 1, and cells off the table
    (|log-odds| > 30) in both tails, spread over the runs."""
    p = rng.random(n)
    p[::97], p[1::101], p[2::103] = 0.0, 1.0 - 2.0 ** -53, 1.0
    p[3::89] = special.expit(-rng.uniform(30.5, 36.0, p[3::89].size))
    p[4::83] = special.expit(rng.uniform(30.5, 36.0, p[4::83].size))
    return p


def test_gamma_inverse_runs_equal_per_cell_shapes():
    # the runs entry gives the bits of one scalar-shape call per run, over three
    # _INV_BLOCK blocks; the runs of shapes 1 and 4000 cross their edges
    counts = np.array(RUN_COUNTS)
    ends = np.cumsum(counts)
    crossing = [a for a, s, e in zip(RUN_SHAPES, ends - counts, ends)
                if s // analytics._INV_BLOCK != (e - 1) // analytics._INV_BLOCK]
    assert crossing == [1.0, analytics.MAX_SHAPE] and ends[-1] > 2 * analytics._INV_BLOCK
    p = _run_ps(np.random.default_rng(21), ends[-1])
    x = analytics.regularized_gamma_p_inv_runs(RUN_SHAPES, counts, p)
    per_run = [analytics.regularized_gamma_p_inv(a, p[e - n:e])
               for a, n, e in zip(RUN_SHAPES, counts, ends)]
    assert np.array_equal(x, np.concatenate(per_run))
    assert np.all(x[p == 0.0] == 0.0) and np.all(x[p == 1.0] == np.inf)
    # a C-contiguous out shaped like p receives the result; p of any shape is read
    # in C order
    out = np.empty((2, p.size // 2))
    assert analytics.regularized_gamma_p_inv_runs(RUN_SHAPES, counts, p.reshape(out.shape),
                                                  out=out) is out
    assert np.array_equal(out.ravel(), x)


@pytest.mark.parametrize("shapes, counts, p, out, match", [
    ([2.0, 0.0], [1, 1], [0.5, 0.5], None, "shape"),
    ([2.0, math.nan], [1, 1], [0.5, 0.5], None, "shape"),
    ([2.0, math.inf], [1, 1], [0.5, 0.5], None, "shape"),
    ([2.0, 3.0], [1, 2], [0.5, 0.5], None, "counts"),
    ([2.0, 3.0], [3, -1], [0.5, 0.5], None, "counts"),
    ([2.0, 3.0], [1], [0.5, 0.5], None, "equal length"),
    ([2.0, 3.0], [1, 1], [0.5, math.nan], None, "p must"),
    ([2.0, 3.0], [1, 1], [0.5, 1.5], None, "p must"),
    ([2.0, 3.0], [1, 1], [0.5, 0.5], np.empty(3), "out"),
    ([2.0, 3.0], [1, 1], [0.5, 0.5], np.empty((2, 2))[:, 0], "out"),
])
def test_gamma_inverse_runs_refuse_bad_arguments(shapes, counts, p, out, match):
    with pytest.raises(ValueError, match=match):
        analytics.regularized_gamma_p_inv_runs(shapes, counts, np.array(p), out=out)


def test_contender_set_builds_one_table():
    # calls over the table-5 contender shapes build one stacked table, whichever
    # contenders got cells; a table per subset of shapes that got cells would
    # build four for these count vectors
    shapes = np.array(TABLE5_SHAPES, dtype=float)
    rng = np.random.default_rng(8)
    _clear_tables()
    for zeros in ((), (0,), (3, 4, 5), (1, 2, 10, 11, 12), tuple(range(1, 14))):
        counts = rng.integers(1, 40, shapes.size)
        counts[list(zeros)] = 0
        analytics.regularized_gamma_p_inv_runs(shapes, counts, rng.random(counts.sum()))
    info = analytics._run_rows.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_tabulated_cells_take_no_halley_step(monkeypatch):
    # a cell on the table is answered from its shape's row with no residual evaluated;
    # the doubles just outside |t| = 30 still take Halley steps
    rng = np.random.default_rng(6)
    counts = np.full(len(TABLE_SHAPES), 20)
    p = special.expit(rng.uniform(-30.0, 30.0, counts.sum()))
    lo, hi = special.expit(-30.0), special.expit(30.0)
    outside = np.concatenate([lo * (1.0 - 1e-9 * np.arange(1, 4)),
                              hi + np.arange(1, 4) * np.spacing(hi)])
    assert np.all(np.abs(np.log(outside / (1.0 - outside))) > 30.0)
    analytics.regularized_gamma_p_inv_runs(TABLE_SHAPES, counts, p)     # builds the rows
    evaluated = []
    residual = analytics._tail_residual

    def counted(a, x, p, q):
        evaluated.append(x.size)
        return residual(a, x, p, q)

    monkeypatch.setattr(analytics, "_tail_residual", counted)
    analytics.regularized_gamma_p_inv_runs(TABLE_SHAPES, counts, p)
    assert evaluated == []
    cells = np.concatenate([p, outside])
    shapes, counts = TABLE_SHAPES + (2.5,), np.append(counts, outside.size)
    x = analytics.regularized_gamma_p_inv_runs(shapes, counts, cells)
    assert evaluated and evaluated[0] == outside.size
    want = special.gammaincinv(np.repeat(shapes, counts), cells)
    assert np.max(np.abs(x - want) / want) < INV_RTOL


def test_row_missing_its_bound_is_refused(monkeypatch):
    # a row whose interpolant misses the bound at a midpoint is refused, and its
    # shape's cells take Halley steps from DiDonato & Morris, to the same accuracy.
    # No double-precision row meets a bound of 1e-300 relative
    p = _table_ps(np.random.default_rng(12))
    _clear_tables()
    with monkeypatch.context() as patched:
        patched.setattr(analytics, "_ROW_RTOL", 1e-300)
        assert analytics._start_row(2.5) is None
        for shapes in ([2.5], [2.5, 2.0]):
            counts = np.full(len(shapes), p.size)
            cells = np.tile(p, len(shapes))
            want = special.gammaincinv(np.repeat(shapes, counts), cells)
            x = analytics.regularized_gamma_p_inv_runs(shapes, counts, cells)
            assert np.max(np.abs(x - want) / want) < INV_RTOL
    # at the real bound shape 0.3 is refused too, though its nodes solve
    assert analytics._start_row(0.3) is None
    want = special.gammaincinv(0.3, p)
    assert np.max(np.abs(analytics.regularized_gamma_p_inv(0.3, p) - want) / want) < INV_RTOL
    monkeypatch.setattr(analytics, "_ROW_RTOL", 1.0)
    assert analytics._start_row.__wrapped__(0.3) is not None


def test_row_with_unsettled_nodes_is_refused(monkeypatch):
    # one Halley step from DiDonato & Morris settles no node at this shape: the
    # steps leave NaN there, and no row is built from the unsettled values
    p, q = analytics._tails(analytics._T_NODES)
    monkeypatch.setattr(analytics, "_HALLEY_MAX_ITER", 1)
    assert np.isnan(analytics._halley(2.5, p, q)).any()
    assert analytics._start_row.__wrapped__(2.5) is None


# bound of the series take-over, fixed before the run: the series' prefactor
# exp(a log x - x - log Gamma(a+1)) is good to about 1e-16 times |a log x|
ERLANG_CANCEL_RTOL = 1e-12


@pytest.mark.parametrize("a", [2.0, 9.0, 40.0, 170.0])
def test_tail_residual_where_erlang_p_cancels_matches_scipy(a):
    # where P < 1e-4 (1 - e^-x) the Erlang P = (1 - e^-x) - e^-x sum_j x^j/j! has lost
    # four or more digits, so both P and the residual take P from the series instead
    x = a * np.geomspace(1e-12, 1.0, 600)
    want = special.gammainc(a, x)
    cancels = (want > 1e-300) & (want < 1e-4 * -np.expm1(-x))
    x, want = x[cancels], want[cancels]
    assert x.size >= 50
    erlang = -np.expm1(-x) - analytics._erlang_sum(int(a), x)
    assert np.max(np.abs(erlang - want) / want) > 1e-6
    got = analytics.regularized_gamma_p(a, x)
    assert np.max(np.abs(got - want) / want) < ERLANG_CANCEL_RTOL
    p = 0.5 * want
    got = analytics._tail_residual(a, x, p, 1.0 - p) + p
    assert np.max(np.abs(got - want) / want) < ERLANG_CANCEL_RTOL


@pytest.mark.parametrize("a", [0.75, 2.0, 2.5, 8.0, 40.5])
def test_row_derivatives_match_finite_differences(a):
    # the closed forms of dy/dt and d2y/dt2 at every node but the last, y = log P^-1(a, p)
    # and t = log(p / (1 - p)), against central differences of scipy's inverse with one
    # Richardson step (truncation O(d^4)); each tail from the inverse in that tail,
    # so p = expit(t) loses no digits near 1.  Tolerance fixed beforehand: 1e-8
    # absolute, where |d2y/dt2| reaches 0.2 and a wrong term moves it by 1e-3 or more
    def y(t):
        return np.log(np.where(t <= 0.0, special.gammaincinv(a, special.expit(t)),
                               special.gammainccinv(a, special.expit(-t))))

    def richardson(diff, d):
        return (4.0 * diff(d / 2.0) - diff(d)) / 3.0

    t = analytics._T_NODES[:-1]
    h = 1.0 / analytics._T_PER_UNIT
    row = analytics._start_row(a)
    slope = richardson(lambda d: (y(t + d) - y(t - d)) / (2.0 * d), h)
    curve = richardson(lambda d: (y(t + d) - 2.0 * y(t) + y(t - d)) / d ** 2, h)
    assert np.max(np.abs(row[1] / h - slope)) < 1e-8
    assert np.max(np.abs(2.0 * row[2] / h ** 2 - curve)) < 1e-8


class _UniformBase:
    """The uniform CDF on [0, 1], whose quantile function is the identity."""

    def __call__(self, s):
        return np.clip(np.asarray(s, dtype=float), 0.0, 1.0)

    def quantile(self, p):
        return p


_uniform_base = _UniformBase()
# every curve of the uniform base shares its log grid from 1e-4 to 1 - 1e-4
U = analytics.make_log_grid(_uniform_base.quantile)


def test_power_curve_trivial_cases():
    ident = analytics.bcs_selected_cdf(_uniform_base, 1)
    assert np.array_equal(ident.grid, U)
    assert np.allclose(ident.values, U)
    squared = analytics.bcs_selected_cdf(_uniform_base, 2)
    assert np.allclose(squared.values, U ** 2)
    with pytest.raises(ValueError):
        analytics.bcs_selected_cdf(_uniform_base, 0)


def test_threshold_policy_curves():
    cell, d2d = analytics.cfs_selected_cdfs(_uniform_base, _uniform_base, 4, 2)
    # below the threshold the cellular curve is clamped at zero; it reaches 1 at u = 1
    u_th = analytics.cfs_threshold(4, 2)
    assert np.all(cell.values[U < 0.9 * u_th] == 0.0)
    assert np.allclose(cell.values, np.maximum(0.0, 2.0 * U ** 4 - 1.0))
    assert np.allclose(d2d.values, U)                 # D2D users keep their base CDF
    nocfs, _ = analytics.cfs_selected_cdfs(_uniform_base, _uniform_base, 4, 0)
    assert np.allclose(nocfs.values, U ** 4)          # no pairs: plain power curve


def test_pair_competition_curves():
    cell, d2d = analytics.dfs_selected_cdfs(_uniform_base, _uniform_base, 8)
    assert np.allclose(cell.values, U ** 8)
    assert np.allclose(d2d.values, U ** 4)
    _, one_pair = analytics.dfs_selected_cdfs(_uniform_base, _uniform_base, 2)
    assert np.allclose(one_pair.values, U)
    # pair competition dominates the threshold policy for D2D users
    _, cfs_d2d = analytics.cfs_selected_cdfs(_uniform_base, _uniform_base, 4, 2)
    assert np.all(d2d.values <= cfs_d2d.values + 1e-12)


def test_group_member_curve():
    singleton = analytics.gfs_selected_cdf(_uniform_base, 1, 3.0)
    assert np.allclose(singleton.values, U ** 3.0)
    member = analytics.gfs_selected_cdf(_uniform_base, 4, 6.0)
    # mu (m-1) / (m (mu-1)) u + (mu-m) / (m (mu-1)) u^mu, which reaches 1 at u = 1
    assert np.allclose(member.values, 0.9 * U + 0.1 * U ** 6.0)
    assert np.all(np.diff(member.values) >= 0.0)
    # smaller groups see a better (stochastically larger) selected SNR
    assert np.all(singleton.values <= member.values + 1e-12)
    with pytest.raises(ValueError):
        analytics.gfs_selected_cdf(_uniform_base, 2, 1.0)
    # a lone singleton group is granted every slot: its member sees the base CDF
    assert np.array_equal(analytics.gfs_selected_cdf(_uniform_base, 1, 1.0).values, U)
    for mu in (0.5, float("nan")):
        with pytest.raises(ValueError):
            analytics.gfs_selected_cdf(_uniform_base, 1, mu)


def test_selected_maps_per_contender():
    # three cellular users and two pairs, contender-major: each contender's law is
    # its class's, the same map the public curve functions tabulate
    cs = simcore.ContenderSet(np.array([False] * 3 + [True] * 2), np.ones(5), np.ones(5),
                              ((0,), (1,), (2,), (3, 4), (5, 6)))

    def values(policy, structure=None, weights=None):
        maps = analytics.selected_maps(policy, cs, structure, weights)
        assert len(maps) == 5
        return [m.curve(_uniform_base).values for m in maps]

    for v in values("bcs"):
        assert np.allclose(v, U ** 5)
    dfs = values("dfs")
    assert all(np.allclose(v, U ** 7) for v in dfs[:3])
    assert all(np.allclose(v, U ** 3.5) for v in dfs[3:])
    cell, d2d = analytics.cfs_selected_cdfs(_uniform_base, _uniform_base, 3, 2)
    cfs = values("cfs")
    assert all(np.array_equal(v, cell.values) for v in cfs[:3])
    assert all(np.array_equal(v, d2d.values) for v in cfs[3:])
    assert all(np.array_equal(v, U) for v in values("grr"))
    structure = with_cellular_singletons(fixed_grouping([2], 2, id_offset=3), 3)
    for policy, weights in (("gfs", solve_group_weights(structure)),
                            ("ecs", ecs_weights(structure))):
        mu = weights.mu
        got = values(policy, structure, weights)
        for j, g in enumerate([0, 1, 2, 3, 3]):
            want = analytics.gfs_selected_cdf(_uniform_base, structure.groups[g].size, mu[g])
            assert np.array_equal(got[j], want.values)
    assert analytics.selected_maps("pfs", cs) is None
    with pytest.raises(ValueError):
        analytics.selected_maps("fifo", cs)


def test_selected_maps_keep_the_curve_provenance():
    # the maps carry the provenance of the public curve functions' curves
    cs = simcore.ContenderSet(np.array([False, True]), np.ones(2), np.ones(2), ((0,), (1, 2)))
    cell, d2d = analytics.selected_maps("cfs", cs)
    assert cell.provenance == {"kind": "cfs-selected-cellular", "K1": 1, "K2": 1}
    assert d2d.provenance == {"kind": "cfs-selected-d2d"}
    assert [m.provenance for m in analytics.selected_maps("dfs", cs)] == [
        {"kind": "dfs-selected-cellular", "K": 3}, {"kind": "dfs-selected-d2d", "K": 3}]
    assert analytics.bcs_selected_cdf(_uniform_base, 2).provenance == \
        analytics.selected_maps("bcs", cs)[0].provenance == {"kind": "bcs-selected", "K": 2}


def test_unconditional_curves_basics():
    cfg = SystemConfig()
    cell, d2d = analytics.dfs_unconditional_cdfs(cfg, 8, n_grid=128)
    for curve in (cell, d2d):
        assert np.all(curve.values >= 0.0) and np.all(curve.values <= 1.0)
        assert np.all(np.diff(curve.values) >= 0.0)
        assert curve.values[-1] > 0.99
    with pytest.raises(ValueError):
        analytics.dfs_unconditional_cdfs(replace(cfg, fading_shape_m=2.0), 8)


@pytest.mark.parametrize("K", [50, 100])
def test_unconditional_curves_large_K_match_quadrature(K):
    cfg = SystemConfig(K1=20, K2=15)
    cell, d2d = analytics.dfs_unconditional_cdfs(cfg, K, n_grid=64)
    cdfs = analytics.dfs_unconditional_mixtures(cfg, K)
    cell_ref, d2d_ref = unconditional_quad(cfg, K)
    for curve, cdf, ref in ((cell, cdfs[0], cell_ref), (d2d, cdfs[1], d2d_ref)):
        err = max(abs(v - ref(s)) for s, v in zip(curve.grid, curve.values))
        assert err < 1e-8
        # off the grid, the mixture itself is the curve
        mid = np.sqrt(curve.grid[:-1] * curve.grid[1:])[::8]
        assert max(abs(v - ref(s)) for s, v in zip(mid, cdf(mid))) < 1e-8


def test_curve_evaluate_interpolates():
    with pytest.raises(ValueError):
        analytics.AnalyticCurve(np.array([1.0, 2.0]), np.array([0.5]))


@pytest.mark.parametrize("shape_m, mean_snr", [(1.0, 1.0), (2.0, 300.0), (0.5, 3e-3),
                                              (7.5, 40.0)])
def test_conditional_grid_ends_match_scipy(monkeypatch, shape_m, mean_snr):
    # a conditional curve's grid comes from its base's closed-form quantile, never the bisection
    def no_bisection(cdf, p):
        raise AssertionError("conditional curves must not bisect their base")

    monkeypatch.setattr(analytics, "_quantile", no_bisection)
    base = GammaSnrCdf(shape_m, mean_snr)
    grid = analytics.bcs_selected_cdf(base, 3).grid
    want = mean_snr / shape_m * special.gammaincinv(shape_m, [1e-4, 1.0 - 1e-4])
    assert grid.size == 2048 and np.all(np.diff(grid) > 0)
    assert abs(grid[0] - want[0]) < INV_RTOL * want[0]
    assert abs(grid[-1] - want[1]) < INV_RTOL * want[1]


def test_log_grid_spans_quantiles():
    # the unconditional curves have no closed-form inverse: their grids search the CDF
    for cdf in analytics.dfs_unconditional_mixtures(SystemConfig(), 8):
        grid = analytics.make_log_grid(functools.partial(analytics._quantile, cdf), n=100)
        assert cdf(grid[0]) == pytest.approx(1e-4, rel=0.05)
        assert cdf(grid[-1]) == pytest.approx(1.0 - 1e-4, rel=0.05)
        assert np.all(np.diff(grid) > 0)
        # the search returns what all 200 bisection steps return
        assert np.array_equal(grid, log_grid_200(cdf, 100))
        for p in (1e-4, 1.0 - 1e-4):
            calls = []
            analytics._quantile(lambda s: calls.append(s) or cdf(s), p)
            # the geometric bisection took its doubling steps and up to 80 more
            assert len(calls) <= 40


def _table2(scale):
    return SystemConfig(**PRESETS["table2-orthogonal"][scale])


@pytest.mark.parametrize("scale", ["desk", "full"])
@pytest.mark.parametrize("K", [2, 3, 9, 20, 50, 100])
def test_quantile_matches_full_bisection(scale, K):
    total = 0
    for cdf in analytics.dfs_unconditional_mixtures(_table2(scale), K):
        grid = analytics.make_log_grid(functools.partial(analytics._quantile, cdf), n=100)
        assert np.array_equal(grid, log_grid_200(cdf, 100))
        for p in (1e-4, 1.0 - 1e-4):
            calls = []
            q = analytics._quantile(lambda s: calls.append(s) or cdf(s), p)
            # the smallest double that reaches p
            assert cdf(q) >= p > cdf(np.nextafter(q, 0.0))
            assert len(calls) <= 40
            total += len(calls)
    # both curves' grid ends: 309 evaluations by the geometric bisection at K = 20
    assert total <= 150


def test_quantile_without_upper_bracket_raises():
    # a CDF that tops out below 1 - 1e-4, as the empirical CDF of 3000 samples does at
    # 3000/3001: its grid used to end in inf
    def capped(s):
        return 3000.0 / 3001.0 * -np.expm1(-np.asarray(s, dtype=float))

    with pytest.raises(ValueError, match="upper bracket"):
        analytics._quantile(capped, 1.0 - 1e-4)


def test_quantile_without_lower_bracket_raises():
    # a CDF with an atom at 0 reaches 1e-4 at the lower bracket 1e-30: its grid used
    # to start at 1e-30 without a word
    def atom(s):
        return 0.5 - 0.5 * np.expm1(-np.asarray(s, dtype=float))

    with pytest.raises(ValueError, match="lower bracket"):
        analytics._quantile(atom, 1e-4)


@pytest.mark.parametrize("K", [1, 0, -2])
def test_unconditional_curves_refuse_K_below_2(K):
    # K = 1 would give the pairs k = 1/2; K = -2 used to return a grid of 1e-30s
    with pytest.raises(ValueError, match="K must be >= 2"):
        analytics.dfs_unconditional_cdfs(SystemConfig(), K, n_grid=64)


def _distance_mixtures(config):
    """(A, eta, lo, hi, density) of the cellular and the pair distance averages, as
    dfs_unconditional_cdfs sets them up."""
    A_c = config.noise_power_mw / (config.pathloss_const_cellular * config.tx_power_dl_mw)
    A_d = config.noise_power_mw / (config.pathloss_const_d2d * config.tx_power_d2d_mw)
    R, d_min, d_max = config.cell_radius_m, config.d2d_min_m, config.d2d_max_m
    return ((A_c, config.pathloss_exp_cellular, 1e-8 * R, R, lambda d: 2.0 * d / R ** 2),
            (A_d, config.pathloss_exp_d2d, d_min, d_max, lambda d: 1.0 / (d_max - d_min)))


@pytest.mark.parametrize("scale", ["desk", "full"])
@pytest.mark.parametrize("k", [1.0, 1.5, 2.0, 4.5, 10.0, 20.0, 50.0])
def test_distance_average_matches_plain_kernel(scale, k):
    s = np.geomspace(1e-30, 1e12, 401)
    for A, eta, lo, hi, density in _distance_mixtures(_table2(scale)):
        cdf = analytics._distance_average(A, eta, k, lo, hi, density)
        want = distance_average_plain(A, eta, k, lo, hi, density)(s)
        assert np.array_equal(cdf(s), want)
        # one s at a time, as the quantile search calls it
        assert [cdf(v) for v in s[::8]] == want[::8].tolist()
        if k >= 20.0:
            # the sweep crosses the subnormal values of the CDF
            assert np.any((want > 0.0) & (want < np.finfo(float).tiny))


@pytest.mark.parametrize("k", [1.0, 1.5, 2.0, 4.5, 10.0, 20.0, 50.0, 1000.0])
def test_zero_power_floor(k):
    floor = analytics._zero_power_floor(k)
    # the 4096 doubles just below the floor give a power of exactly 0.0
    below = (np.array(floor).view(np.int64) - np.arange(1, 4097)).view(float)
    below = below[below >= 0.0]
    assert np.all(below ** k == 0.0) and np.all(np.power(below, k) == 0.0)
    assert all(h ** k == 0.0 for h in below[::256].tolist())
    if floor > 0.0:
        # and the floor is within a factor 4 on the power of the smallest subnormal
        assert (floor * 2.0 ** (2.0 / k)) ** k > 0.0


def test_index_references():
    assert np.allclose(analytics.upi_reference("bcs", K=9), 0.2)
    # without pairs the threshold vanishes and the cellular value matches the
    # plain-competition one
    ref = analytics.upi_reference("cfs", K1=7, K2=0)
    assert ref["cellular"] == pytest.approx(2.0 / 8.0, abs=1e-12)
    assert ref["d2d"] is None
    ref2 = analytics.upi_reference("cfs", K1=5, K2=2)
    u_th = analytics.cfs_threshold(5, 2)
    assert ref2["cellular"] == pytest.approx(2.0 * (1.0 - u_th ** 6) / 6.0, rel=1e-12)
    # the group policies' index is weights.upi_closed_form, not a second copy here
    for policy in ("grr", "gfs"):
        with pytest.raises(ValueError):
            analytics.upi_reference(policy)
