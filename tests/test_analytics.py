"""Incomplete gamma evaluation and the closed-form selected-SNR curves."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, special

from helpers import log_grid_200, unconditional_quad

from d2dsched import analytics
from d2dsched.channel import GammaSnrCdf
from d2dsched.model import SystemConfig


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
    a = np.array([0.7, 2.0, 6.0])
    x = np.linspace(0.0, 12.0, 7)[:, None]
    out = analytics.regularized_gamma_p(a, x)
    assert out.shape == (7, 3)
    for i in range(7):
        for j in range(3):
            assert out[i, j] == pytest.approx(
                analytics.regularized_gamma_p(a[j], float(x[i, 0])), abs=1e-13)


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
    out = analytics.regularized_gamma_p(a, x)
    assert out.shape == x.shape
    assert np.max(np.abs(out - special.gammainc(a, x))) < 1e-13
    # a down the rows instead of along the trailing axis
    rows = analytics.regularized_gamma_p(a[:, None], x[0])
    assert np.max(np.abs(rows - special.gammainc(a[:, None], x[0]))) < 1e-13
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
    # one shape per cell in one call, as the simulator calls it
    a = np.repeat(INV_SHAPES, u.size)
    p = np.tile(1.0 - u, len(INV_SHAPES))
    want = special.gammaincinv(a, p)
    assert np.max(np.abs(analytics.regularized_gamma_p_inv(a, p) - want) / want) < INV_RTOL
    grid = analytics.regularized_gamma_p_inv(np.array([1.0, 2.5, 8.0]), np.array([[0.0], [1.0]]))
    assert np.array_equal(grid, [[0.0] * 3, [np.inf] * 3])
    assert isinstance(analytics.regularized_gamma_p_inv(2.5, 0.3), float)
    assert analytics.regularized_gamma_p_inv(np.ones(0), np.ones(0)).shape == (0,)
    with pytest.raises(ValueError):
        analytics.regularized_gamma_p_inv(0.0, 0.5)
    with pytest.raises(ValueError):
        analytics.regularized_gamma_p_inv(2.0, 1.5)
    with pytest.raises(ValueError):
        analytics.regularized_gamma_p_inv(2.0, np.nan)


def test_gamma_inverse_non_convergence_raises(monkeypatch):
    # P's series cannot converge near x = 40000 at this shape, so neither can its inverse
    with pytest.raises(analytics.GammaNotConverged, match=r"series for a=40000\.5"):
        analytics.regularized_gamma_p_inv(40000.5, 0.5)
    # every point still unsettled after the last Halley step is counted, whatever its shape.
    # At log-odds 32.2, off the tabulated start, every point starts from DiDonato & Morris,
    # which one step does not settle; no row is read or built, so neither does a built one
    shapes, p = np.array([2.0, 2.5, 0.75]), 1.0 - 1e-14
    analytics._start_row.cache_clear()
    for table in ("cold", "warm"):
        with monkeypatch.context() as patched:
            patched.setattr(analytics, "_HALLEY_MAX_ITER", 1)
            with pytest.raises(analytics.GammaNotConverged, match=r"Halley .* 3 of 3 points"):
                analytics.regularized_gamma_p_inv(shapes, p)
        analytics.regularized_gamma_p_inv(shapes, 0.5)      # builds the three rows
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
    a = np.repeat(TABLE_SHAPES, p.size)
    p = np.tile(p, len(TABLE_SHAPES))
    want = special.gammaincinv(a, p)
    assert np.max(np.abs(analytics.regularized_gamma_p_inv(a, p) - want) / want) < INV_RTOL
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
    a = np.repeat([0.75, 2.0, 2.5, 9.0, 40.5, 170.0], 40)
    p = rng.random(a.size)
    p[::5], p[1::7], p[2::11] = 1e-10, 1.0 - 1e-14, 1e-15
    analytics._start_row.cache_clear()
    cold = analytics.regularized_gamma_p_inv(a, p)
    assert np.array_equal(analytics.regularized_gamma_p_inv(a, p), cold)
    order = rng.permutation(a.size)
    assert np.array_equal(analytics.regularized_gamma_p_inv(a[order], p[order]), cold[order])
    analytics._start_row.cache_clear()
    single = [analytics.regularized_gamma_p_inv(ai, pi) for ai, pi in zip(a, p)]
    assert np.array_equal(single, cold)


def test_tabulated_cells_take_one_halley_step(monkeypatch):
    # a start from the table is close enough that one Halley step settles every cell
    rng = np.random.default_rng(6)
    a = np.repeat(TABLE_SHAPES, 20)
    p = special.expit(rng.uniform(-30.0, 30.0, a.size))
    analytics.regularized_gamma_p_inv(a, p)          # builds the rows
    evaluated = []
    residual = analytics._tail_residual

    def counted(*args):
        evaluated.append(args[3].size)
        return residual(*args)

    monkeypatch.setattr(analytics, "_tail_residual", counted)
    analytics.regularized_gamma_p_inv(a, p)
    assert evaluated == [a.size]


def _uniform_base(s):
    return np.clip(np.asarray(s, dtype=float), 0.0, 1.0)


# every curve of the uniform base shares its log grid from 1e-4 to 1 - 1e-4
U = analytics.make_log_grid(_uniform_base)


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
    cell_ref, d2d_ref = unconditional_quad(cfg, K)
    for curve, ref in ((cell, cell_ref), (d2d, d2d_ref)):
        err = max(abs(v - ref(s)) for s, v in zip(curve.grid, curve.values))
        assert err < 1e-8
        # off the grid, evaluate() computes the curve rather than interpolating it
        mid = np.sqrt(curve.grid[:-1] * curve.grid[1:])[::8]
        assert max(abs(v - ref(s)) for s, v in zip(mid, curve.evaluate(mid))) < 1e-8


def test_curve_evaluate_interpolates():
    curve = analytics.AnalyticCurve(np.array([1.0, 2.0]), np.array([0.2, 0.6]))
    assert curve.evaluate(1.5) == pytest.approx(0.4)
    assert curve.evaluate(0.0) == 0.0 and curve.evaluate(5.0) == 1.0
    with pytest.raises(ValueError):
        analytics.AnalyticCurve(np.array([1.0, 2.0]), np.array([0.5]))


def test_log_grid_spans_quantiles():
    cell, d2d = analytics.dfs_unconditional_cdfs(SystemConfig(), 8, n_grid=64)
    cdfs = [GammaSnrCdf(1.0, 1.0), GammaSnrCdf(2.0, 300.0), GammaSnrCdf(0.5, 3e-3),
            GammaSnrCdf(7.5, 40.0), cell.exact, d2d.exact]
    for cdf in cdfs:
        grid = analytics.make_log_grid(cdf, n=100)
        assert cdf(grid[0]) == pytest.approx(1e-4, rel=0.05)
        assert cdf(grid[-1]) == pytest.approx(1.0 - 1e-4, rel=0.05)
        assert np.all(np.diff(grid) > 0)
        # stopping once the bracket stops moving returns what all 200 steps return
        assert np.array_equal(grid, log_grid_200(cdf, 100))
        for p in (1e-4, 1.0 - 1e-4):
            calls = []
            q = analytics._quantile(lambda s: calls.append(s) or cdf(s), p)
            # cdf(1), cdf(2), ... up to the first power of two above q, then the bisection
            doubling = 1 + max(0, math.ceil(math.log2(q)))
            assert len(calls) - doubling <= 80


def test_quantile_without_upper_bracket_raises():
    # a CDF that tops out below 1 - 1e-4, as the empirical CDF of 3000 samples does at
    # 3000/3001: its grid used to end in inf
    def capped(s):
        return 3000.0 / 3001.0 * -np.expm1(-np.asarray(s, dtype=float))

    with pytest.raises(ValueError, match="upper bracket"):
        analytics.bcs_selected_cdf(capped, 3)


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
