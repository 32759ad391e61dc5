"""Per-slot winner selection for each policy, at the u-matrix level."""

import numpy as np
import pytest

from helpers import first_realization_contenders, ks_uniform, lone_contenders, mws_select_reps, \
    pfs_select_numpy

from d2dsched import policies, simcore
from d2dsched.analytics import cfs_threshold
from d2dsched.cli import TABLE5_SIZES
from d2dsched.channel import GammaSnrCdf
from d2dsched.grouping import Group, GroupStructure, fixed_grouping
from d2dsched.model import SystemConfig, sample_spatial
from d2dsched.weights import PolicyWeights, ecs_weights, normalized_weights, \
    solve_group_weights, upi_closed_form

# groups with interleaved, non-contiguous members, as greedy coloring produces them:
# three cellular singletons, then D2D groups listed out of order of their lowest member
INTERLEAVED = GroupStructure((Group((0,), 1.0), Group((1,), 1.0), Group((2,), 1.0),
                              Group((4, 7), 0.5), Group((3, 6, 9), 0.5), Group((5, 8), 0.5)))
# group maps for proportional-fair blocks: contiguous groups, INTERLEAVED, and groups
# scattered across the whole contender range
PF_MAPS = {"contiguous": fixed_grouping([1, 3, 2, 4], nu=1.0),
           "interleaved": INTERLEAVED,
           "scattered": GroupStructure((Group((0, 9), 0.5), Group((1,), 1.0), Group((2, 5, 6), 0.5),
                                        Group((3,), 1.0), Group((4, 8), 0.5), Group((7,), 1.0)))}
SLOT_COUNTS = [1, 2047, 2048, 2049, 5000]
# slot counts on either side of the selection kernel's blocks, and contender counts
# past 255, which a one-byte rank could not number
KERNEL_SHAPES = [(1, 15), (policies._BLOCK - 1, 15), (policies._BLOCK, 15),
                 (policies._BLOCK + 1, 15), (2 * policies._BLOCK + 37, 15), (1000, 300),
                 (policies._BLOCK + 1, 300)]


def _scores(n, C, seed, zeros=False):
    u = np.random.default_rng(seed).random((n, C))
    if zeros:
        # exact zeros (log -> -inf) in about a third of the cells, none in column n % C
        rng = np.random.default_rng(seed + 1)
        u[rng.random((n, C)) < 0.3] = 0.0
        u[:, n % C] = np.random.default_rng(seed + 2).random(n)
    return u


def test_cdf_map_values():
    # u = F(snr), the probability-integral transform feeding every policy
    cdf = GammaSnrCdf(1.0, 1.0)
    assert cdf.evaluate(0.0) == 0.0
    assert cdf.evaluate(np.log(2.0)) == pytest.approx(0.5, abs=1e-12)
    # the simulator draws u and maps a granted cell back to snr = F^-1(u); a lone
    # contender, or pfs's lone group of one, is granted every slot, so it reports
    # every u it drew
    lone = GroupStructure((Group((0,), 0.5),))
    for policy, structure in (("bcs", None), ("pfs", lone)):
        for m in (1.0, 2.5):
            config, means = lone_contenders([3.0], m, policy=policy, slots_per_realization=25)
            (res,) = simcore.simulate_block(config, [(means, np.random.default_rng(4), structure)])
            u = np.random.default_rng(4).random(25)
            assert res.user_u_sum[0] == pytest.approx(u.sum(), rel=1e-15)
            snr = res.selected_snr[0][0]
            assert np.allclose(GammaSnrCdf(m, 3.0).evaluate(snr), u, rtol=0, atol=1e-12)


def test_cdf_map_uniformity():
    cdf = GammaSnrCdf(1.0, 3.0)
    rng = np.random.default_rng(1)
    snr = rng.exponential(3.0, size=1_000_000)
    assert ks_uniform(cdf.evaluate(snr)) < 0.005


def test_single_user_always_selected():
    u = np.random.default_rng(0).random((1000, 1))
    win = policies.bcs_select(u, np.array([1.0]))
    assert np.all(win == 0)


def test_weight_sum_validated():
    with pytest.raises(ValueError):
        policies.bcs_select(np.random.random((10, 3)), np.array([0.5, 0.5, 0.5]))


def _winners(rng, columns, select, slots=1_000_000, chunk=100_000):
    """select's winners over a (slots, columns) score matrix drawn from rng, chunk rows
    at a time: the rows and winners of one draw, without holding the whole matrix."""
    return np.concatenate([select(rng.random((chunk, columns))) for _ in range(slots // chunk)])


def test_equal_weight_access_frequencies():
    rng = np.random.default_rng(42)
    win = _winners(rng, 8, lambda u: policies.bcs_select(u, np.full(8, 1.0 / 8.0)))
    freqs = np.bincount(win, minlength=8) / win.size
    assert np.all(np.abs(freqs - 1.0 / 8.0) < 0.002)


def test_unequal_weight_access_frequencies():
    rng = np.random.default_rng(43)
    win = _winners(rng, 2, lambda u: policies.bcs_select(u, np.array([1.0 / 3.0, 2.0 / 3.0])))
    freqs = np.bincount(win, minlength=2) / win.size
    assert abs(freqs[0] - 1.0 / 3.0) < 0.003
    assert abs(freqs[1] - 2.0 / 3.0) < 0.003


def test_threshold_value():
    assert cfs_threshold(40, 15) == pytest.approx((30.0 / 70.0) ** (1.0 / 40.0), rel=1e-12)
    with pytest.raises(ValueError):
        cfs_threshold(0, 5)


def test_cellular_threshold_policy_access():
    # every slot names one contender: each cellular user wins 1/K of the slots and
    # each pair, served for its two users, 2/K
    K1, K2 = 40, 15
    K = K1 + 2 * K2
    rng = np.random.default_rng(44)
    below = [0]                             # one rotation across the chunks

    def select(u):
        win = policies.cfs_select(u, K1, K2, offset=below[0])
        below[0] += int(np.count_nonzero(win >= K1))
        return win

    win = _winners(rng, K1, select)
    freq = np.bincount(win, minlength=K1 + K2) / win.size
    assert freq.size == K1 + K2
    assert np.all(np.abs(freq[:K1] - 1.0 / K) < 0.002)
    assert np.all(np.abs(freq[K1:] - 2.0 / K) < 0.002)
    # the accounts serve the D2D users round-robin: each user its 1/K of the slots
    # (five binomial standard errors), and no user more than one grant ahead of another
    K1, K2, slots = 4, 3, 100_000
    K = K1 + 2 * K2
    config = SystemConfig(K1=K1, K2=K2, policy="cfs", slots_per_realization=slots)
    means, _ = first_realization_contenders(config)
    (record,) = simcore.simulate_block(config, [(means, np.random.default_rng(44), None)])
    access = record.user_grants / slots
    assert np.all(np.abs(access - 1.0 / K) < 5 * np.sqrt((1.0 / K) * (1 - 1.0 / K) / slots))
    d2d = record.user_grants[K1:]
    assert d2d.max() - d2d.min() <= 1


def test_threshold_policy_round_robin_order():
    # below the threshold the rotation names pairs 0, 0, 1, 1, 0, 0 (users 0..3, 0, 1),
    # and the accounts grant the users in that order, one slot at a time
    u = np.zeros((6, 2))                             # never clears the threshold
    win = policies.cfs_select(u, 2, 2)
    assert list(win) == [2, 2, 3, 3, 2, 2]
    # the rotation resumes at its offset, the below-threshold slots before the call
    assert list(policies.cfs_select(u[:2], 2, 2, offset=6)) == [3, 3]
    for split in range(7):
        assert list(policies.cfs_select(u[:split], 2, 2)) \
            + list(policies.cfs_select(u[split:], 2, 2, offset=split)) == list(win)
    record = simcore._Accounts(SystemConfig(K1=2, K2=2, policy="cfs", slots_per_realization=6),
                               np.ones(4), np.random.default_rng(0), None, lambda structure: None)
    order = []
    scores = np.full((6, 4), 0.5)           # every row read: the accounts draw no score
    for t in range(6):
        before = record.user_grants.copy()
        record.add(win[t:t + 1], scores[t:t + 1])
        (uid,) = np.flatnonzero(record.user_grants != before)
        order.append(uid - 2)
    assert order == [0, 1, 2, 3, 0, 1]


def test_threshold_policy_degenerate_cases():
    # without cellular users every slot goes to the rotation; without pairs the
    # threshold is 0, so the best cellular user wins every slot and the offset is unread
    win = policies.cfs_select(np.zeros((8, 0)), 0, 2, offset=1)
    assert list(win) == [0, 1, 1, 0, 0, 1, 1, 0]     # users 1, 2, 3, 0, ... of the pairs
    assert list(policies.cfs_select(np.zeros((8, 0)), 0, 2, offset=9)) == list(win)
    for split in range(9):
        first = policies.cfs_select(np.zeros((split, 0)), 0, 2, offset=1)
        rest = policies.cfs_select(np.zeros((8 - split, 0)), 0, 2, offset=1 + split)
        assert list(first) + list(rest) == list(win)
    u = np.random.default_rng(9).random((50, 3))
    for offset in (0, 7):
        assert np.array_equal(policies.cfs_select(u, 3, 0, offset=offset), np.argmax(u, axis=1))
    with pytest.raises(ValueError):
        policies.cfs_select(np.zeros((2, 0)), 0, 0)


def test_pair_double_weight_access():
    K1, K2 = 2, 1
    rng = np.random.default_rng(45)
    u = rng.random((1_000_000, K1 + K2))
    win = policies.dfs_select(u, K1, K2)
    freqs = np.bincount(win, minlength=3) / win.size
    assert abs(freqs[0] - 0.25) < 0.003
    assert abs(freqs[1] - 0.25) < 0.003
    assert abs(freqs[2] - 0.50) < 0.003


def test_singleton_groups_reduce_to_plain_competition():
    st = fixed_grouping([1, 1, 1], nu=1.0)
    pw = normalized_weights(st, [1.0, 1.0, 1.0])
    rng = np.random.default_rng(46)
    u = rng.random((20_000, 3))
    assert np.array_equal(policies.mws_select(u, st, pw),
                          policies.bcs_select(u, np.full(3, 1.0 / 3.0)))


def test_group_selection_access_shares():
    st = fixed_grouping([1, 2], nu=1.0)
    pw = solve_group_weights(st)
    rng = np.random.default_rng(47)
    u = rng.random((1_000_000, 3))
    win = policies.mws_select(u, st, pw)
    freqs = np.bincount(win, minlength=2) / win.size
    assert abs(freqs[0] - 0.46410) < 0.003
    assert abs(freqs[1] - 0.53590) < 0.003


def test_equal_access_group_selection():
    st = fixed_grouping([1, 3], nu=1.0)
    rng = np.random.default_rng(48)
    u = rng.random((400_000, 4))
    win = policies.mws_select(u, st, ecs_weights(st))
    freqs = np.bincount(win, minlength=2) / win.size
    assert np.all(np.abs(freqs - 0.5) < 0.005)


def test_group_index_matches_closed_form_for_arbitrary_weights():
    # a member's index is 2 E[u; its group wins], since the whole winning group is granted
    st = fixed_grouping([1, 2], nu=1.0)
    rng = np.random.default_rng(8)
    for _ in range(20):
        pw = normalized_weights(st, rng.uniform(0.2, 3.0, size=2))
        u = np.random.default_rng(int(rng.integers(1 << 30))).random((100_000, 3))
        win = policies.mws_select(u, st, pw)
        for gi in range(2):
            want = upi_closed_form(gi, st, pw)
            got = 2.0 * np.mean(u[:, st.groups[gi].members[0]] * (win == gi))
            assert abs(got - want) < 0.02


def test_round_robin_rotation():
    win = policies.grr_select(4000, 4)
    assert np.all(np.bincount(win) == 1000)
    assert np.all(policies.grr_select(10, 1) == 0)
    assert np.array_equal(win[:8], [0, 1, 2, 3, 0, 1, 2, 3])
    cont = policies.grr_select(5, 4, offset=3)
    assert np.array_equal(cont, [3, 0, 1, 2, 3])


def test_proportional_fair_first_slot_and_symmetry():
    st = fixed_grouping([1, 1], nu=1.0)
    group = policies.group_index(st, 2)[None]         # one realization
    state = policies.PfState(t_c=1000.0)
    first = policies.pfs_select(np.array([[[2.0, 1.0]]]), group, state)
    assert first[0, 0] == 0                           # raw metric decides the first slot
    rng = np.random.default_rng(49)
    X = rng.exponential(1.0, size=(200_000, 1, 2))
    X[:, :, 1] *= 10.0                                # scaled but equally shaped metric
    win = policies.pfs_select(X, group, state)
    freqs = np.bincount(win[:, 0], minlength=2) / win.shape[0]
    assert np.all(np.abs(freqs - 0.5) < 0.01)
    assert state.xbar is not None and np.all(state.xbar > 0)


@pytest.mark.parametrize("t_c, lead", [
    pytest.param(50.0, "contiguous", id="50.0"),
    pytest.param(1000.0, "contiguous", id="1000.0"),
    pytest.param(50.0, "interleaved", id="interleaved-50.0"),
    pytest.param(1000.0, "interleaved", id="interleaved-1000.0"),
])
def test_proportional_fair_matches_numpy_loop(t_c, lead):
    # three realizations in lockstep, each with its own group map as greedy coloring
    # gives them, the lead map in the first row: every row picks the winners and leaves
    # the averages of the numpy loop run on that row alone, with the state carried
    # across two calls
    maps = [PF_MAPS[lead]] + [st for name, st in PF_MAPS.items() if name != lead]
    group = np.array([policies.group_index(st, 10) for st in maps])
    rng = np.random.default_rng(5)
    X = np.log1p(rng.gamma(2.0, 0.5, size=(6000, 3, 10)) * np.geomspace(1.0, 40.0, 10)) / np.log(2.0)
    state = policies.PfState(t_c=t_c)
    got = np.concatenate([policies.pfs_select(X[:2501], group, state),
                          policies.pfs_select(X[2501:], group, state)])
    assert got.shape == (6000, 3)
    for r, st in enumerate(maps):
        ref = policies.PfState(t_c=t_c)
        want = np.concatenate([pfs_select_numpy(X[:2501, r], st, ref),
                               pfs_select_numpy(X[2501:, r], st, ref)])
        assert np.array_equal(got[:, r], want)
        assert np.array_equal(state.xbar[r], ref.xbar)
        assert np.bincount(got[:, r], minlength=st.n_groups).min() > 0


@pytest.mark.parametrize("zeros", [False, True])
@pytest.mark.parametrize("n", SLOT_COUNTS)
def test_contender_selection_matches_log_score_argmax(n, zeros):
    # bcs (equal weights), bcs with unequal weights and dfs against argmax(log(u)/w)
    # over the whole matrix at once
    u = _scores(n, 10, n, zeros)
    uneven = np.random.default_rng(n).random(10) + 0.1
    uneven /= uneven.sum()
    for w, got in ((np.full(10, 0.1), policies.bcs_select(u, np.full(10, 0.1))),
                   (uneven, policies.bcs_select(u, uneven)),
                   (policies.dfs_weights(4, 6), policies.dfs_select(u, 4, 6))):
        with np.errstate(divide="ignore"):
            want = np.argmax(np.log(u) / w, axis=1)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("zeros", [False, True])
@pytest.mark.parametrize("n", SLOT_COUNTS)
@pytest.mark.parametrize("structure", [fixed_grouping([1, 1, 1, 3, 2, 2], nu=1.0), INTERLEAVED],
                         ids=["contiguous", "interleaved"])
def test_group_selection_matches_per_group_maxima(structure, n, zeros):
    u = _scores(n, 10, n + 17, zeros)
    for weights in (solve_group_weights(structure), ecs_weights(structure)):
        assert np.array_equal(policies.mws_select(u, structure, weights),
                              mws_select_reps(u, structure, weights))


def _kernel_scores(n, C, seed, layout):
    """(n, C) scores that stress the selection kernel: exact zeros in about a third of
    the cells, an all-zero row every 11 slots from slot 7, and each fifth row's maximum
    copied to two more contenders, so that several contenders hold it.  C-ordered
    ("slot-major"), or the transposed view of a contender-major (C, n) array, as the
    simulator draws them."""
    rng = np.random.default_rng(seed)
    u = rng.random((n, C))
    u[rng.random((n, C)) < 0.3] = 0.0
    tied = np.arange(0, n, 5)
    top = u[tied].max(axis=1)
    for _ in range(2):
        u[tied, rng.integers(C, size=tied.size)] = top
    u[7::11] = 0.0
    return u if layout == "slot-major" else np.ascontiguousarray(u.T).T


@pytest.mark.parametrize("layout", ["slot-major", "contender-major"])
@pytest.mark.parametrize("n, C", KERNEL_SHAPES)
def test_selection_kernel_matches_argmax(n, C, layout):
    # bcs (equal and all-distinct weights), dfs, mws and cfs's cellular pick against
    # numpy's argmax, which takes the first maximum: a tie goes to the lowest contender
    # id and an all-zero row, all scores -inf, to contender 0
    u = _kernel_scores(n, C, n + C, layout)
    K1 = C // 3
    K2 = C - K1
    uneven = np.random.default_rng(C).random(C) + 0.1
    uneven /= uneven.sum()
    weights, classes, _ = policies._weight_classes(uneven.tobytes())       # all distinct
    assert weights.shape == (C, 1) and classes == tuple(((j, j + 1),) for j in range(C))
    with np.errstate(divide="ignore"):
        log_u = np.log(u)
    for w, got in ((np.full(C, 1.0 / C), policies.bcs_select(u, np.full(C, 1.0 / C))),
                   (uneven, policies.bcs_select(u, uneven)),
                   (policies.dfs_weights(K1, K2), policies.dfs_select(u, K1, K2))):
        assert np.array_equal(got, np.argmax(log_u / w, axis=1))
        assert np.all(got[7::11] == 0)
    structure = fixed_grouping([1, 2, 3] * (C // 6) + [1] * (C % 6), nu=1.0)
    group = policies.group_index(structure, C)
    weights = ecs_weights(structure)
    assert np.array_equal(policies.mws_select(u, structure, weights),
                          group[np.argmax(log_u / weights.w[group], axis=1)])
    best = np.argmax(u[:, :K1], axis=1)
    granted = u[np.arange(n), best] >= cfs_threshold(K1, K2)
    win = policies.cfs_select(u[:, :K1], K1, K2)
    assert np.array_equal(win[granted], best[granted])
    assert np.array_equal(win[~granted], K1 + np.arange(np.sum(~granted)) % (2 * K2) // 2)


def test_group_ties_break_toward_lowest_contender():
    # a probability-zero event: the group holding the lowest tied contender wins,
    # whatever the order the groups are listed in
    pw = normalized_weights(INTERLEAVED, np.ones(6))
    u = np.full((3, 10), 0.5)
    u[0, [4, 9]] = 0.9                               # groups 3 and 4 tie: contender 4 first
    u[1, [3, 7]] = 0.9                               # contender 3 is in group 4
    u[2] = 0.0                                       # every score is -inf
    assert list(policies.mws_select(u, INTERLEAVED, pw)) == [3, 4, 0]


def test_group_structure_must_cover_the_scores():
    st = fixed_grouping([1, 2], nu=1.0)              # contenders 0, 1, 2
    pw = solve_group_weights(st)
    u = np.random.default_rng(50).random((20, 4))
    with pytest.raises(ValueError, match="contender 3"):
        policies.mws_select(u, st, pw)
    config, means = lone_contenders([1.0] * 4, policy="pfs", slots_per_realization=20)
    with pytest.raises(ValueError, match="contender 3"):
        simcore.simulate_block(config, [(means, np.random.default_rng(50), st)])
    gap = GroupStructure((Group((0,), 1.0), Group((1, 2, 4), 0.5)))
    with pytest.raises(ValueError, match="contender 3"):
        policies.mws_select(u, gap, solve_group_weights(gap))
    wide = fixed_grouping([1, 4], nu=1.0)            # contender 4 has no column
    with pytest.raises(ValueError, match="covers 5 contenders"):
        policies.mws_select(u, wide, solve_group_weights(wide))
    with pytest.raises(ValueError, match="covers 5 contenders"):
        simcore.simulate_block(config, [(means, np.random.default_rng(50), wide)])


def test_one_weight_per_group_required():
    st = fixed_grouping([1, 2], nu=1.0)
    u = np.random.default_rng(51).random((20, 3))
    one = PolicyWeights(np.array([1.0]), float("nan"))
    with pytest.raises(ValueError, match="1 weights for 2 groups"):
        policies.mws_select(u, st, one)
    with pytest.raises(ValueError, match="2 weights for 3 contenders"):
        policies.bcs_select(u, np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="2 weights for 3 contenders"):
        policies.dfs_select(u, 1, 1)


@pytest.mark.parametrize("w", [[1.5, -0.5, 0.0], [0.5, 0.5, 0.0], [0.5, 0.5, -0.0],
                               [0.5, 0.5, float("nan")], [float("inf"), 0.5, 0.5]])
def test_selection_weights_must_be_positive_and_finite(w):
    # [1.5, -0.5, 0.0] sums to 1, and log(u)/w with a negative or zero weight would
    # hand the slot to the wrong contender
    u = np.random.default_rng(52).random((20, 3))
    with pytest.raises(ValueError, match="positive and finite"):
        policies.bcs_select(u, w)


def test_weight_classes_partition():
    # classes by first contender, each with its contiguous runs of contenders; a
    # contender alone in its weight (b, e) is a class of one run
    a, b, c, d, e = 0.05, 0.1, 0.15, 0.2, 0.25
    w = np.array([c, a, d, a, a, b, e, d, c])
    weights, classes, rank = policies._weight_classes(w.tobytes())
    assert weights[:, 0].tolist() == [c, a, d, b, e]
    assert classes == (((0, 1), (8, 9)), ((1, 2), (3, 5)), ((2, 3), (7, 8)), ((5, 6),),
                       ((6, 7),))
    assert rank[:, 0].tolist() == list(range(9, 0, -1))
    weights, classes, _ = policies._weight_classes(np.full(4, 0.25).tobytes())
    assert weights.shape == (1, 1) and classes == (((0, 4),),)
    # the table-5 gfs weights, groups of 1, 7, 2 and 4: contender 0 is alone in its weight
    structure = fixed_grouping(TABLE5_SIZES, nu=1.0)
    group = policies.group_index(structure, structure.n_contenders)
    weights, classes, _ = policies._weight_classes(
        solve_group_weights(structure).w[group].tobytes())
    assert weights.shape == (4, 1)
    assert classes == (((0, 1),), ((1, 8),), ((8, 10),), ((10, 14),))


def _log_argmax(u, w):
    with np.errstate(divide="ignore"):
        return np.argmax(np.log(u) / w, axis=1)


@pytest.mark.parametrize("n", [1, policies._BLOCK + 3])
def test_ties_across_weight_classes_go_to_the_lowest_contender(n):
    # log(0.5)/(1/3) == log(0.25)/(2/3) exactly, for lone contenders in both column
    # orders and for classes of two contenders each, whatever column holds the maxima
    for w, u in (((1 / 3, 2 / 3), (0.5, 0.25)), ((2 / 3, 1 / 3), (0.25, 0.5))):
        w, u = np.array(w), np.tile(u, (n, 1))
        assert np.array_equal(_log_argmax(u, w), np.zeros(n, dtype=int))
        assert np.array_equal(policies.bcs_select(u, w), np.zeros(n, dtype=int))
    w = np.array([1 / 6, 1 / 3, 1 / 6, 1 / 3])
    rows = np.array([[0.5, 0.25, 0.1, 0.2], [0.1, 0.25, 0.5, 0.2], [0.1, 0.2, 0.5, 0.25],
                     [0.5, 0.1, 0.5, 0.25], [0.1, 0.25, 0.1, 0.25], [0.3, 0.25, 0.1, 0.2]])
    u = np.tile(rows, (n // rows.shape[0] + 1, 1))[:n]
    want = _log_argmax(u, w)
    assert list(want[:6]) == [0, 1, 2, 0, 1, 1][:n]
    assert np.array_equal(policies.bcs_select(u, w), want)


@pytest.mark.parametrize("layout", ["slot-major", "contender-major"])
@pytest.mark.parametrize("n", [5000, 2 * policies._BLOCK + 37])
def test_group_selection_with_scattered_weight_classes(n, layout):
    # greedy coloring of a sampled layout: two groups of five pairs share a weight
    # class whose members are not contiguous, as do two lone pairs
    config = SystemConfig(K1=4, K2=12, policy="gfs", rng_seed=4)
    structure = simcore.build_structure(config, sample_spatial(config, np.random.default_rng(4)))
    group = policies.group_index(structure, 16)
    u = _kernel_scores(n, 16, n, layout)
    for policy in ("gfs", "ecs"):
        weights = simcore.policy_weights(policy, structure)
        shared = policies._weight_classes(weights.w[group].tobytes())[1]
        assert sum(len(runs) > 1 for runs in shared) >= 2
        assert np.array_equal(policies.mws_select(u, structure, weights),
                              group[_log_argmax(u, weights.w[group])])


def test_class_of_zero_scores_loses_to_any_positive_class():
    # a class whose every u is 0 scores -inf: the other class wins, and a slot of
    # zeros goes to contender 0
    K1, K2, n = 3, 2, 4000
    u = _scores(n, K1 + K2, 53)
    u[: n // 2, :K1] = 0.0
    u[n // 2:, K1:] = 0.0
    u[::7] = 0.0
    for w, got in ((policies.dfs_weights(K1, K2), policies.dfs_select(u, K1, K2)),
                   (np.array([0.25, 0.25, 0.25, 0.125, 0.125]),
                    policies.bcs_select(u, [0.25, 0.25, 0.25, 0.125, 0.125]))):
        want = _log_argmax(u, w)
        assert np.array_equal(got, want)
        assert np.all(got[1:n // 2][(np.arange(1, n // 2) % 7) != 0] >= K1)
        assert np.all(got[n // 2:][(np.arange(n // 2, n) % 7) != 0] < K1)
        assert np.all(got[::7] == 0)
