"""Monte Carlo engine: accounting, aggregation, and the KS verification metric."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from helpers import first_realization_contenders, reference_accounting

from d2dsched import simcore
from d2dsched.analytics import AnalyticCurve, bcs_selected_cdf
from d2dsched.channel import GammaSnrCdf, mean_snr
from d2dsched.cli import TABLE5_SHAPES
from d2dsched.grouping import fixed_grouping
from d2dsched.model import ConfigError, SystemConfig, cellular_downlink, d2d_direct, \
    sample_spatial


def test_round_robin_exact_shares():
    st = fixed_grouping([1, 1, 1, 1], nu=1.0)
    rep = simcore.run_standalone([1.0] * 4, [1.0] * 4, st, "grr", 4000, seed=1)
    assert np.allclose(rep.group_access_prob, 0.25)
    assert np.allclose(rep.access_prob, 0.25)


def test_index_estimate_bounds():
    # user 0 is granted every slot with u = 1, user 1 never
    cs = simcore.standalone_contenders([1.0, 1.0], [1.0, 1.0])
    res = simcore.SimResult(100, np.array([100, 0]), np.array([100.0, 0.0]),
                            np.array([50.0, 0.0]), None, [[], []], None)
    rep = simcore._reduce([(res, cs)], "bcs", 0)
    assert rep.upi[0] == pytest.approx(2.0) and rep.upi[1] == 0.0
    assert list(rep.access_prob) == [1.0, 0.0]
    assert list(rep.selected_rate) == [0.5, 0.0]
    with pytest.raises(ValueError):
        simcore.run_standalone([1.0], [1.0], None, "bcs", 0, seed=1)


def test_plain_competition_small():
    rep = simcore.run_standalone([2.0] * 4, [1.0] * 4, None, "bcs", 1_000_000, seed=2)
    assert np.all(np.abs(rep.upi - 0.4) < 0.005)
    assert np.all(np.abs(rep.access_prob - 0.25) < 0.002)
    assert rep.access_prob.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("policy,chunk", [("dfs", 200_000), ("dfs", 7),
                                          ("cfs", 200_000), ("cfs", 7)])
def test_pair_members_alternate(monkeypatch, policy, chunk):
    # an odd chunk flips the pair's turn each chunk, so the turn must carry over
    monkeypatch.setattr(simcore, "CHUNK_SLOTS", chunk)
    cs = simcore.ContenderSet(np.array([True]), np.array([1.0]), np.array([5.0]), ((0, 1),))
    rng = np.random.default_rng(3)
    res = simcore.simulate_policy(cs, policy, 1001, rng)
    assert res.user_grants[0] == 501 and res.user_grants[1] == 500


@pytest.mark.parametrize("shapes", [1.0, TABLE5_SHAPES + (2,)], ids=["m1", "table5"])
@pytest.mark.parametrize("group_sizes", [(5,), None], ids=["fixed", "greedy"])
@pytest.mark.parametrize("chunk", [simcore.CHUNK_SLOTS, 700], ids=["one-chunk", "chunked"])
@pytest.mark.parametrize("policy", ["bcs", "dfs", "cfs", "gfs", "ecs", "grr", "pfs"])
def test_accounting_matches_reference(monkeypatch, policy, chunk, group_sizes, shapes):
    # the flat gathers, the scalar shape and the two-row sums give the same bits as
    # the cell-by-cell accounting; 700 puts chunk boundaries inside the run
    monkeypatch.setattr(simcore, "CHUNK_SLOTS", chunk)
    cfg = SystemConfig(K1=10, K2=5, group_sizes=group_sizes, fading_shape_m=shapes, rng_seed=8,
                       interference_radius_m=600.0)
    cs, spatial = first_realization_contenders(cfg)
    structure = simcore.build_structure(cfg, spatial)
    slots = 900 if policy == "pfs" else 3000
    res = simcore.simulate_policy(cs, policy, slots, np.random.default_rng(17), structure=structure)
    grants, u_sum, rate_sum, group_grants, snr = reference_accounting(
        cs, policy, slots, np.random.default_rng(17), structure=structure)
    assert np.array_equal(res.user_grants, grants)
    assert np.array_equal(res.user_u_sum, u_sum)
    assert np.array_equal(res.user_rate_sum, rate_sum)
    if policy in simcore.GROUP_POLICIES:
        assert np.array_equal(res.group_grants, group_grants)
    for j in range(cs.n_contenders):
        kept = np.concatenate(res.selected_snr[j]) if res.selected_snr[j] else np.empty(0)
        assert np.array_equal(kept, snr[j])


@pytest.mark.parametrize("policy", ["bcs", "pfs"])
def test_long_member_sums_match_reference(policy):
    # two contenders of 20k grants each: every member's sums span many summation blocks
    cs = simcore.standalone_contenders([3.0, 8.0], [1.0, 1.0])
    structure = fixed_grouping([1, 1], nu=1.0)
    slots = 40_000 if policy == "bcs" else 4000
    res = simcore.simulate_policy(cs, policy, slots, np.random.default_rng(23), structure=structure)
    grants, u_sum, rate_sum, _, _ = reference_accounting(cs, policy, slots, np.random.default_rng(23),
                                                         structure=structure)
    assert np.array_equal(res.user_grants, grants)
    assert np.array_equal(res.user_u_sum, u_sum)
    assert np.array_equal(res.user_rate_sum, rate_sum)


def test_pfs_unit_shape_draw_is_the_exponential_stream():
    # at m = 1 pfs draws standard_exponential for the Gamma(1, 1) gains: the same numbers
    shape = np.ones(15)
    gamma = np.random.default_rng(31).gamma(shape, 1.0 / shape, size=(200_000, 15))
    expo = np.random.default_rng(31).standard_exponential((200_000, 15))
    assert np.array_equal(gamma, expo)


def test_import_starts_no_process_pool():
    # the pool is imported only for runs with more than one worker
    code = ("import sys, d2dsched.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    src = os.path.dirname(os.path.dirname(simcore.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("policy,rule", [("gfs", "solve_group_weights"), ("ecs", "ecs_weights")])
@pytest.mark.parametrize("group_sizes,solves", [((2, 3), 1), (None, 3)], ids=["fixed", "greedy"])
def test_weights_solved_once_per_fixed_structure(monkeypatch, policy, rule, group_sizes, solves):
    # fixed groups are solved once for the run, greedy groups once per realization,
    # and the run equals one whose every realization solves its own weights
    cfg = SystemConfig(K1=3, K2=5, policy=policy, group_sizes=group_sizes,
                       slots_per_realization=300, spatial_realizations=3, rng_seed=8)
    own = simcore._reduce([simcore._realization_task((cfg, r, None)) for r in range(3)],
                          policy, cfg.rng_seed, cfg.digest())
    solver = getattr(simcore, rule)
    calls = []
    monkeypatch.setattr(simcore, rule, lambda structure: calls.append(structure) or solver(structure))
    rep = simcore.run_experiment(cfg)
    assert len(calls) == solves
    for field in ("access_prob", "upi", "selected_rate", "group_access_prob"):
        assert np.array_equal(getattr(rep, field), getattr(own, field))


def test_grant_conservation():
    cfg = SystemConfig(K1=3, K2=2, policy="dfs", slots_per_realization=5000,
                       spatial_realizations=2, rng_seed=4)
    rep = simcore.run_experiment(cfg)
    assert int(rep.access_prob.sum() * rep.total_slots + 0.5) == rep.total_slots
    cfg_g = replace(cfg, policy="gfs", group_sizes=(2,))
    rep_g = simcore.run_experiment(cfg_g)
    assert rep_g.group_access_prob.sum() == pytest.approx(1.0)


def test_group_outputs_need_one_structure():
    # greedy coloring gives 7 groups in each realization but different partitions
    cfg = SystemConfig(K1=4, K2=12, policy="gfs", slots_per_realization=500,
                       spatial_realizations=3, rng_seed=15)
    structures = [simcore.build_structure(cfg, sample_spatial(cfg, simcore.realization_rng(15, r)))
                  for r in range(3)]
    assert {s.n_groups for s in structures} == {7} and len(set(structures)) > 1
    rep = simcore.run_experiment(cfg)
    assert rep.group_access_prob is None and rep.structure is None
    assert np.all(rep.user_group == -1)


def test_bad_thread_count_names_the_variable(monkeypatch):
    monkeypatch.setenv("D2DSCHED_THREADS", "abc")
    with pytest.raises(ConfigError, match="D2DSCHED_THREADS"):
        simcore.run_experiment(SystemConfig(K1=2, K2=1, slots_per_realization=10))


def test_contender_mapping_and_kinds():
    cfg = SystemConfig(K1=2, K2=2)
    cs, sp = first_realization_contenders(cfg)
    assert cs.members == ((0,), (1,), (2, 3), (4, 5))
    assert cs.user_kinds() == ["cellular", "cellular", "d2d", "d2d", "d2d", "d2d"]
    # mean SNR falls with distance within one link class
    order = np.argsort(sp.cellular_distances)
    assert np.all(np.diff(cs.mean_snr[:2][order]) <= 0)


@pytest.mark.parametrize("settings", [
    dict(),
    dict(pathloss_const_cellular_db=-35.5, pathloss_const_d2d_db=-28.0,
         pathloss_exp_cellular=3.7, pathloss_exp_d2d=2.6, noise_power_dbm=-96.0,
         tx_power_dl_dbm=43.0, tx_power_d2d_dbm=12.5),
])
def test_contender_means_equal_the_link_model(settings):
    # simcore builds the means without link objects; they must be the same doubles
    cfg = SystemConfig(K1=6, K2=4, **settings)
    for seed in (1, 2, 3, 4, 5):
        spatial = sample_spatial(cfg, np.random.default_rng(seed))
        cs = simcore.contenders_from_spatial(cfg, spatial)
        links = [cellular_downlink(cfg, d) for d in spatial.cellular_distances]
        links += [d2d_direct(cfg, d) for d in spatial.pair_direct_distances]
        assert cs.mean_snr.tolist() == [mean_snr(link, cfg) for link in links]


def test_non_integer_shapes_selected_snr():
    # bounds fixed before the run: each user gets about 5e4 of the 2e5 slots, and the
    # KS distance of 5e4 exact draws exceeds 0.012 with probability about 1e-6;
    # 0.005 is five binomial standard errors of the access probability
    means, shapes = [2.0, 5.0, 1.0, 3.0], [2.5, 0.75, 2.5, 0.75]
    rep = simcore.run_standalone(means, shapes, None, "bcs", 200_000, seed=61)
    assert np.all(np.abs(rep.access_prob - 0.25) < 0.005)
    for j in range(4):
        curve = bcs_selected_cdf(GammaSnrCdf(shapes[j], means[j]), 4)
        assert simcore.ks_distance(rep.selected_snr[j], curve) < 0.012


def test_ks_distance_cases():
    grid = np.linspace(0.0, 1.0, 512)
    curve = AnalyticCurve(grid, grid)
    rng = np.random.default_rng(5)
    same = rng.random(100_000)
    assert simcore.ks_distance(same, curve) < 0.01
    # exponential samples against a uniform reference: sup gap is e^-1 at s = 1
    expo = rng.exponential(1.0, 2_000_000)
    assert simcore.ks_distance(expo, curve) == pytest.approx(np.exp(-1.0), abs=0.005)
    with pytest.raises(ValueError):
        simcore.ks_distance(np.array([1.0]), curve)


def test_reservoir_merge_caps_and_preserves():
    rng = np.random.default_rng(6)
    small = simcore._merge_reservoir([np.arange(10.0)], 100, rng)
    assert np.array_equal(small, np.arange(10.0))
    big = simcore._merge_reservoir([rng.random(5000), rng.random(5000)], 1000, rng)
    assert big.size == 1000
    assert simcore._merge_reservoir([], 10, rng).size == 0


def test_same_seed_reports_identical():
    cfg = SystemConfig(K1=2, K2=2, policy="gfs", group_sizes=(2,),
                       slots_per_realization=2000, spatial_realizations=3, rng_seed=9)
    a = simcore.run_experiment(cfg)
    b = simcore.run_experiment(cfg)
    assert np.array_equal(a.access_prob, b.access_prob)
    assert np.array_equal(a.upi, b.upi)
    for x, y in zip(a.selected_snr, b.selected_snr):
        assert np.array_equal(x, y)


def test_unknown_policy_and_missing_structure():
    cs = simcore.standalone_contenders([1.0, 2.0], [1.0, 1.0])
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        simcore.simulate_policy(cs, "fifo", 10, rng)
    with pytest.raises(ValueError):
        simcore.simulate_policy(cs, "gfs", 10, rng)
