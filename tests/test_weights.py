"""Max-min group weight solver and the closed-form index / access formulas."""

import math

import numpy as np
import pytest

from d2dsched.grouping import fixed_grouping
from d2dsched.weights import (PolicyWeights, ecs_weights, group_access_prob,
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

