"""Max-min group weight solver and the closed-form index / access formulas."""

import math

import numpy as np
import pytest
from scipy import optimize

from d2dsched import weights
from d2dsched.grouping import Group, GroupStructure, fixed_grouping
from d2dsched.weights import (PolicyWeights, WeightsNotConverged, ecs_weights, group_access_prob,
                              normalized_weights, solve_group_weights, upi_closed_form)

ROOT_12 = (3.0 - math.sqrt(3.0)) / 2.0     # tight max-min level for sizes [1, 2]


def test_equal_groups_closed_form():
    # G equal groups of size m with equal weights: index (m+1)/(G m + 1)
    st = fixed_grouping([1, 1, 1, 1], nu=1.0)
    pw = normalized_weights(st, [1.0] * 4)
    for gi in range(4):
        assert upi_closed_form(gi, st, pw) == pytest.approx(0.4, abs=1e-12)
    st2 = fixed_grouping([3, 3], nu=1.0)
    pw2 = normalized_weights(st2, [1.0, 1.0])
    for gi in range(2):
        assert upi_closed_form(gi, st2, pw2) == pytest.approx(4.0 / 7.0, abs=1e-12)


def test_solver_two_groups():
    st = fixed_grouping([1, 2], nu=1.0)
    pw = solve_group_weights(st)
    assert pw.common_upi == pytest.approx(ROOT_12, abs=1e-9)
    assert pw.w[0] == pytest.approx(0.4641016, abs=1e-5)
    assert pw.w[1] == pytest.approx(0.2679492, abs=1e-5)
    for gi in range(2):
        assert upi_closed_form(gi, st, pw) == pytest.approx(0.633975, abs=1e-5)
    p = group_access_prob(st, pw)
    assert p[0] == pytest.approx(0.46410, abs=1e-4)
    assert p[1] == pytest.approx(0.53590, abs=1e-4)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_solver_two_groups_not_beaten_by_grid():
    # dense sweep over the access-share simplex: no feasible point exceeds the
    # solver's min-index level by more than numerical slack
    st = fixed_grouping([1, 2], nu=1.0)
    c = solve_group_weights(st).common_upi
    p1 = np.linspace(1e-6, 1.0 - 1e-6, 20001)
    w = np.stack([p1 / 1.0, (1.0 - p1) / 2.0])        # sum(m w) = 1
    mu = 1.0 / w
    upis = np.stack([(1.0 + 1.0) / (mu[0] + 1.0), (2.0 + 1.0) / (mu[1] + 1.0)])
    best = np.max(np.min(upis, axis=0))
    assert best <= c + 1e-4


def test_solver_four_groups():
    st = fixed_grouping([1, 7, 2, 4], nu=1.0)
    pw = solve_group_weights(st)
    upis = [upi_closed_form(gi, st, pw) for gi in range(4)]
    assert max(upis) - min(upis) < 1e-9
    p = group_access_prob(st, pw)
    order = np.argsort(st.sizes)
    assert np.all(np.diff(p[order]) > 0)              # larger groups get more air time


@pytest.mark.parametrize("sizes", [[1], [3], [1, 1], [1, 1, 1], [1] * 7])
def test_solver_closed_form_levels(sizes):
    # one group: c = 1; G singletons at nu = 1: G c / (2 - c) = 1, so c = 2 / (G + 1)
    pw = solve_group_weights(fixed_grouping(sizes, nu=1.0))
    want = 1.0 if len(sizes) == 1 else 2.0 / (len(sizes) + 1.0)
    assert pw.common_upi == pytest.approx(want, abs=1e-12)


def test_solver_single_group():
    st = fixed_grouping([3], nu=1.0)
    pw = solve_group_weights(st)
    assert group_access_prob(st, pw)[0] == pytest.approx(1.0)
    # mu = 1/w = m, so the index is (m+1)/(m+1) ... with sum(m w) = 1: w = 1/3
    assert pw.mu[0] == pytest.approx(3.0, abs=1e-9)
    assert upi_closed_form(0, st, pw) == pytest.approx(1.0, abs=1e-9)


def test_selection_factors_are_computed_once_and_read_only():
    pw = solve_group_weights(fixed_grouping([1, 2, 3, 2], nu=1.0))
    mu = pw.mu
    assert pw.mu is mu and not mu.flags.writeable
    assert np.array_equal(mu, 1.0 / pw.w)


def test_mixed_nu_solver_levels_equal():
    st = fixed_grouping([1, 1], nu=1.0)
    d2d = fixed_grouping([3], nu=0.5, id_offset=2)
    from d2dsched.grouping import GroupStructure
    mixed = GroupStructure(st.groups + d2d.groups)
    pw = solve_group_weights(mixed)
    upis = [upi_closed_form(gi, mixed, pw) for gi in range(3)]
    assert max(upis) - min(upis) < 1e-9
    assert upis[0] == pytest.approx(pw.common_upi, abs=1e-9)


def test_ecs_weights_equal_access():
    st = fixed_grouping([1, 7, 2, 4], nu=1.0)
    p = group_access_prob(st, ecs_weights(st))
    assert np.allclose(p, 0.25, atol=1e-12)


def test_weight_validation():
    st = fixed_grouping([1, 2], nu=1.0)
    with pytest.raises(ValueError):
        normalized_weights(st, [1.0])
    for w in ([0.5, -0.1], [0.5, 0.0], [0.5, np.nan], [np.inf, 0.5]):
        # a NaN weight made mws_select index past the last group
        with pytest.raises(ValueError, match="positive and finite"):
            PolicyWeights(np.array(w), 0.5)
    # a fairness factor nu = 0 or nan used to give nan for every weight
    from d2dsched.grouping import Group, GroupStructure
    for nu in (0.0, -0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="nu"):
            solve_group_weights(GroupStructure((Group((0,), nu), Group((1, 2), 1.0))))


def _structure(sizes, nus):
    starts = np.cumsum([0, *sizes]).tolist()
    return GroupStructure(tuple(Group(tuple(range(starts[g], starts[g + 1])), float(nu))
                                for g, nu in enumerate(nus)))


def _random_structure(rng, G):
    sizes = rng.integers(1, 13, G).tolist()
    kind = rng.integers(3)
    nus = (np.full(G, 1.0), rng.choice([0.5, 1.0], G), rng.uniform(0.1, 2.0, G))[kind]
    return _structure(sizes, nus)


def _brentq_weights(structure):
    """The max-min level and weights from scipy's brentq on the same residual."""
    m, cap = structure.sizes.astype(float), structure.nus * (structure.sizes + 1.0)
    c = optimize.brentq(lambda c: np.sum(m * c / (cap - c)) - 1.0, 0.0, cap.min() * (1 - 1e-15),
                        xtol=1e-300, rtol=4 * np.finfo(float).eps)
    w = c / (cap - c)
    return PolicyWeights(w / np.sum(m * w), c)


def _assert_matches_brentq(structure):
    got, want = solve_group_weights(structure), _brentq_weights(structure)
    assert got.common_upi == pytest.approx(want.common_upi, rel=1e-12, abs=0)
    np.testing.assert_allclose(got.w, want.w, rtol=1e-12, atol=0)
    groups = range(structure.n_groups)
    np.testing.assert_allclose([upi_closed_form(g, structure, got) for g in groups],
                               [upi_closed_form(g, structure, want) for g in groups],
                               rtol=1e-12, atol=0)


def test_solver_matches_brentq():
    # G from 1 to 60, sizes 1-12, nu all 1, mixed 1/2 and 1, or uniform on (0.1, 2)
    rng = np.random.default_rng(31)
    for _ in range(200):
        _assert_matches_brentq(_random_structure(rng, int(rng.integers(1, 61))))


@pytest.mark.parametrize("G", [300, 1000, 5000])
def test_solver_matches_brentq_many_groups(G):
    _assert_matches_brentq(_random_structure(np.random.default_rng(G), G))


def test_solver_reports_non_convergence(monkeypatch):
    # one Newton step from c = 0 overshoots the root and leaves |r| far above the tolerance
    monkeypatch.setattr(weights, "_MAX_STEPS", 1)
    with pytest.raises(WeightsNotConverged, match=r"1 steps .* sizes \[1, 2\], nus \[1.0, 0.5\]"):
        solve_group_weights(_structure([1, 2], [1.0, 0.5]))


@pytest.mark.parametrize("sizes,want", [([3], 1.0), ([1] * 7, 0.25), ([1, 2], ROOT_12)])
def test_solver_stops_at_adjacent_doubles(monkeypatch, sizes, want):
    # with no residual small enough, the bracket closes onto the doubles around the root
    monkeypatch.setattr(weights, "_RESIDUAL_TOL", 0.0)
    c = solve_group_weights(fixed_grouping(sizes, nu=1.0)).common_upi
    assert abs(c - want) <= 2 * math.ulp(want)
    # and it keeps the end of smaller |r|: no neighbouring double has a smaller one
    m = np.array(sizes, dtype=float)

    def r(x):
        return abs(x * float(np.add.reduce(m / (m + 1.0 - x))) - 1.0)

    assert r(c) <= min(r(math.nextafter(c, 0.0)), r(math.nextafter(c, 2.0)))
