"""Monte Carlo engine: accounting, aggregation, and the KS verification metric."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy import special

from helpers import first_realization_contenders, lone_contenders, reference_accounting, \
    table5_config

from d2dsched import simcore
from d2dsched.analytics import MAX_SHAPE, AnalyticCurve, bcs_selected_cdf
from d2dsched.channel import GammaSnrCdf, mean_snr
from d2dsched.cli import TABLE5_MEANS, TABLE5_SHAPES
from d2dsched.grouping import fixed_grouping
from d2dsched.model import POLICIES, ConfigError, SystemConfig, cellular_downlink, d2d_direct, \
    sample_spatial


def given_means(means, shapes=1.0, **settings):
    """A config of one user per contender with the given linear mean SNRs."""
    return SystemConfig(K1=len(means), K2=0, mean_snr=tuple(means), fading_shape_m=shapes,
                        **settings)


def test_round_robin_exact_shares():
    cfg = given_means([1.0] * 4, group_sizes=(1, 1, 1, 1), policy="grr",
                      slots_per_realization=4000, rng_seed=1)
    rep = simcore.run_experiment(cfg)
    assert rep.structure == fixed_grouping([1, 1, 1, 1], nu=1.0)
    assert np.allclose(rep.group_access_prob, 0.25)
    assert np.allclose(rep.access_prob, 0.25)


def test_index_estimate_bounds():
    # user 0 is granted every slot with u = 1, user 1 never
    cs = lone_contenders([1.0, 1.0], [1.0, 1.0])
    config = given_means([1.0, 1.0], slots_per_realization=100)
    record = simcore._Accounts(config, cs, np.random.default_rng(1), None, lambda structure: None)
    record.user_grants[0], record.user_u_sum[0], record.user_rate_sum[0] = 100, 100.0, 50.0
    record.selected_snr = [[np.full(100, 3.0)], [np.empty(0)]]
    rep = simcore._reduce(config, [record])
    assert [a.size for a in rep.selected_snr] == [100, 0]
    assert rep.upi[0] == pytest.approx(2.0) and rep.upi[1] == 0.0
    assert list(rep.access_prob) == [1.0, 0.0]
    assert list(rep.selected_rate) == [0.5, 0.0]


@pytest.mark.parametrize("settings,name", [
    (dict(K1=2, mean_snr=(1.0, float("nan"))), "mean_snr"),
    (dict(K1=2, mean_snr=(1.0, -3.0)), "mean_snr"),
    (dict(K1=2, mean_snr=(1.0, float("inf"))), "mean_snr"),
    (dict(K1=3, mean_snr=(1.0, 2.0)), "mean_snr"),
    (dict(K1=1, mean_snr=(1.0, 2.0)), "mean_snr"),
    (dict(K1=2, K2=1, mean_snr=(1.0, 2.0)), "mean_snr"),
    (dict(K1=3, mean_snr=(1.0, 2.0, 3.0), group_sizes=(1, 1)), "group_sizes"),
    (dict(K1=2, mean_snr=(1.0, 1.0), fading_shape_m=(1.0, 0.2)), "fading_shape_m"),
    (dict(K1=2, mean_snr=(1.0, 1.0), fading_shape_m=(1.0, MAX_SHAPE + 0.5)), "fading_shape_m"),
    (dict(K1=8, mean_snr=(1.0,) * 8, fading_shape_m=(1.0,) * 3), "fading_shape_m"),
], ids=["nan-mean", "negative-mean", "infinite-mean", "too-few-means", "too-many-means",
        "with-pairs", "group-sum", "small-shape", "large-shape", "short-shapes"])
def test_standalone_refuses_malformed_scenarios(settings, name):
    # a config that gives the means: positive finite means, one per user and no pairs,
    # fixed groups over its K1 users, and the incomplete gamma's shapes, one per mean
    with pytest.raises(ConfigError, match=name):
        SystemConfig(**{"K2": 0, **settings})


@pytest.mark.parametrize("policy", POLICIES)
def test_shapes_beyond_the_gamma_bound_are_refused_before_any_draw(monkeypatch, policy):
    # at m = 6000 the incomplete gamma's series stops short of convergence: bcs used to
    # finish while dfs raised mid-run.  Both entries refuse the shape before drawing
    def no_draw(*args):
        raise AssertionError("drew a stream for a refused shape")

    monkeypatch.setattr(simcore, "realization_rng", no_draw)
    setup = dict(K1=10, K2=5, policy=policy, group_sizes=(5,), slots_per_realization=2000,
                 rng_seed=3)
    with pytest.raises(ConfigError, match="fading_shape_m"):
        SystemConfig(fading_shape_m=6000.0, **setup)
    with pytest.raises(ConfigError, match="fading_shape_m"):
        simcore.run_experiment(given_means([1.0, 2.0], (1.0, 6000.0), group_sizes=(1, 1),
                                           policy=policy, slots_per_realization=2000, rng_seed=3))
    monkeypatch.undo()
    # at the bound itself the run completes, and every kept SNR of a Gamma(4000) channel
    # lies within 10 % of its contender's mean (6 standard deviations)
    config = SystemConfig(fading_shape_m=MAX_SHAPE, **setup)
    rep = simcore.run_experiment(config)
    cs, _ = first_realization_contenders(config)
    for snr, mean in zip(rep.selected_snr, cs.mean_snr):
        assert snr.size and np.all(np.abs(snr / mean - 1.0) < 0.1)


def test_plain_competition_small():
    rep = simcore.run_experiment(given_means([2.0] * 4, policy="bcs",
                                             slots_per_realization=1_000_000, rng_seed=2))
    assert np.all(np.abs(rep.upi - 0.4) < 0.005)
    assert np.all(np.abs(rep.access_prob - 0.25) < 0.002)
    assert rep.access_prob.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("policy,chunk", [("dfs", 200_000), ("dfs", 7),
                                          ("cfs", 200_000), ("cfs", 7)])
def test_pair_members_alternate(monkeypatch, policy, chunk):
    # an odd chunk flips the pair's turn each chunk, so the turn must carry over
    monkeypatch.setattr(simcore, "CHUNK_SLOTS", chunk)
    cs = simcore.ContenderSet(np.array([True]), np.array([1.0]), np.array([5.0]), ((0, 1),))
    config = SystemConfig(K1=0, K2=1, policy=policy, slots_per_realization=1001)
    (res,) = simcore.simulate_block(config, [(cs, np.random.default_rng(3), None)])
    assert res.user_grants[0] == 501 and res.user_grants[1] == 500


@pytest.mark.parametrize("shapes", [1.0, TABLE5_SHAPES + (2,)], ids=["m1", "table5"])
@pytest.mark.parametrize("group_sizes", [(5,), None], ids=["fixed", "greedy"])
@pytest.mark.parametrize("chunk", [simcore.CHUNK_SLOTS, 700], ids=["one-chunk", "chunked"])
@pytest.mark.parametrize("policy", ["bcs", "dfs", "cfs", "gfs", "ecs", "grr", "pfs"])
def test_accounting_matches_reference(monkeypatch, policy, chunk, group_sizes, shapes):
    # the flat gathers, the scalar shape, pfs's one map buffer and the two-row sums
    # give the same bits as the cell-by-cell accounting, for a block of three
    # realizations; 700 puts chunk boundaries inside the run.  The score policies
    # interleave the realizations in 700-slot chunks of their 3000 slots; pfs steps
    # them in lockstep in 233-slot chunks, which do not divide its 900 slots.  The
    # chunks fix the order of each user's sums, so the reference sums over the same
    # chunks
    monkeypatch.setattr(simcore, "CHUNK_SLOTS", chunk)
    cfg = SystemConfig(K1=10, K2=5, group_sizes=group_sizes, fading_shape_m=shapes, rng_seed=8,
                       interference_radius_m=600.0)
    runs = []
    for r in range(3):
        spatial = sample_spatial(cfg, simcore.realization_rng(cfg.rng_seed, r))
        runs.append((simcore.contenders_from_spatial(cfg, spatial),
                     simcore.build_structure(cfg, spatial), 17 + r))
    slots = 900 if policy == "pfs" else 3000
    config = replace(cfg, policy=policy, slots_per_realization=slots,
                     spatial_realizations=len(runs))
    results = simcore.simulate_block(config, [(cs, np.random.default_rng(seed), structure)
                                              for cs, structure, seed in runs])
    chunk = simcore.CHUNK_SLOTS // len(runs) if policy == "pfs" else simcore.CHUNK_SLOTS
    for res, (cs, structure, seed) in zip(results, runs):
        grants, u_sum, rate_sum, group_grants, snr = reference_accounting(
            cs, policy, slots, np.random.default_rng(seed), structure=structure, chunk=chunk)
        assert np.array_equal(res.user_grants, grants)
        assert np.array_equal(res.user_u_sum, u_sum)
        assert np.array_equal(res.user_rate_sum, rate_sum)
        if policy in simcore.GROUP_POLICIES:
            assert np.array_equal(res.group_grants, group_grants)
        for j in range(cs.n_contenders):
            kept = np.concatenate(res.selected_snr[j]) if res.selected_snr[j] else np.empty(0)
            assert np.array_equal(kept, snr[j])


@pytest.mark.parametrize("chunk", [simcore.CHUNK_SLOTS, 700], ids=["one-chunk", "chunked"])
def test_every_chunk_ends_where_a_full_draw_does(monkeypatch, chunk):
    # grr draws only its granted cells and cfs its cellular rows and its pairs' granted
    # cells, then each steps over the rest of the (C, n) draw: after every chunk its
    # stream stands where bcs's does, and cfs's cellular scores are bcs's first K1 rows
    monkeypatch.setattr(simcore, "CHUNK_SLOTS", chunk)
    states, scores = {}, {}
    grant = simcore._grant_scores

    def recorded(acc, n):
        grant(acc, n)
        states.setdefault(acc.policy, []).append(acc.rng.bit_generator.state)

    def reading(select, policy):
        return lambda u, *args: scores.setdefault(policy, []).append(u.copy()) or select(u, *args)

    monkeypatch.setattr(simcore, "_grant_scores", recorded)
    monkeypatch.setattr(simcore.policies, "bcs_select", reading(simcore.policies.bcs_select, "bcs"))
    monkeypatch.setattr(simcore.policies, "cfs_select", reading(simcore.policies.cfs_select, "cfs"))
    cfg = SystemConfig(K1=10, K2=5, group_sizes=(5,), rng_seed=8, slots_per_realization=3000)
    for policy in ("bcs", "cfs", "grr"):
        run = replace(cfg, policy=policy)
        simcore.simulate_block(run, [simcore.realization(run, 0)])
    assert len(states["bcs"]) == (1 if chunk > 3000 else 5)
    assert states["cfs"] == states["bcs"] and states["grr"] == states["bcs"]
    for cell, every in zip(scores["cfs"], scores["bcs"]):
        assert np.array_equal(cell, every[:, :cfg.K1])


@pytest.mark.parametrize("policy", ["bcs", "pfs"])
def test_long_member_sums_match_reference(policy):
    # two contenders of 20k grants each: every member's sums span many summation blocks
    cs = lone_contenders([3.0, 8.0], [1.0, 1.0])
    structure = fixed_grouping([1, 1], nu=1.0)
    slots = 40_000 if policy == "bcs" else 4000
    config = given_means([3.0, 8.0], policy=policy, slots_per_realization=slots)
    (res,) = simcore.simulate_block(config, [(cs, np.random.default_rng(23), structure)])
    grants, u_sum, rate_sum, _, _ = reference_accounting(cs, policy, slots, np.random.default_rng(23),
                                                         structure=structure)
    assert np.array_equal(res.user_grants, grants)
    assert np.array_equal(res.user_u_sum, u_sum)
    assert np.array_equal(res.user_rate_sum, rate_sum)


def test_import_starts_no_process_pool():
    # the pool is imported only for runs with more than one worker, and scipy, which
    # is no runtime dependency, never
    code = ("import sys, d2dsched.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing', 'scipy')))")
    src = os.path.dirname(os.path.dirname(simcore.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("policy", ["dfs", "gfs"])
def test_realization_replays_the_layout_and_stream(policy):
    # realization r: the contender set of its layout, its rng just after the layout
    # draw, and a structure for a group policy only
    cfg = SystemConfig(K1=3, K2=4, policy=policy, rng_seed=5)
    for r in (0, 2):
        cs, rng, structure = simcore.realization(cfg, r)
        replay = simcore.realization_rng(5, r)
        spatial = sample_spatial(cfg, replay)
        assert np.array_equal(cs.mean_snr, simcore.contenders_from_spatial(cfg, spatial).mean_snr)
        assert np.array_equal(rng.random(8), replay.random(8))
        assert structure == (simcore.build_structure(cfg, spatial) if policy == "gfs" else None)
    if policy == "dfs":
        cs, _ = first_realization_contenders(cfg)
        assert np.array_equal(simcore.realization(cfg, 0)[0].mean_snr, cs.mean_snr)


@pytest.mark.parametrize("policy,rule", [("gfs", "solve_group_weights"), ("ecs", "ecs_weights")])
@pytest.mark.parametrize("group_sizes,solves", [((2, 3), 1), (None, 2)], ids=["fixed", "greedy"])
def test_weights_solved_once_per_fixed_structure(monkeypatch, policy, rule, group_sizes, solves):
    # a block solves the weights once per distinct structure: once for fixed groups,
    # and under greedy coloring at seed 8 twice, since realizations 0 and 2 color
    # alike as (1, 1, 1, 5); the run equals one whose every realization solves its own
    cfg = SystemConfig(K1=3, K2=5, policy=policy, group_sizes=group_sizes,
                       slots_per_realization=300, spatial_realizations=3, rng_seed=8)
    structures = [simcore.build_structure(cfg, sample_spatial(cfg, simcore.realization_rng(8, r)))
                  for r in range(3)]
    own = simcore._reduce(cfg, [record for r in range(3)
                                for record in simcore._realization_task((cfg, range(r, r + 1)))])
    solver = getattr(simcore, rule)
    calls = []
    monkeypatch.setattr(simcore, rule, lambda structure: calls.append(structure) or solver(structure))
    rep = simcore.run_experiment(cfg)
    assert len(calls) == len(set(structures)) == solves
    for field in ("access_prob", "upi", "selected_rate", "group_access_prob"):
        assert np.array_equal(getattr(rep, field), getattr(own, field))


@pytest.mark.parametrize("group_sizes", [(5,), None], ids=["fixed", "greedy"])
@pytest.mark.parametrize("policy", ["pfs", "cfs", "gfs"])
def test_blocks_and_workers_change_no_report(monkeypatch, policy, group_sizes):
    # 1, 2, 5 and 8 workers run blocks of 5, 3 + 2, 1 each and 1 each (no empty
    # block): the blocks reduce to the same report, to the bit.  pfs steps a block
    # in lockstep; cfs keeps a cursor and greedy gfs its weights per realization
    cfg = SystemConfig(K1=10, K2=5, policy=policy, group_sizes=group_sizes,
                       slots_per_realization=400, spatial_realizations=5, rng_seed=31,
                       interference_radius_m=600.0)
    one = simcore.run_experiment(cfg, n_workers=1)
    for workers in (2, 5, 8):
        rep = simcore.run_experiment(cfg, n_workers=workers)
        for field in ("access_prob", "upi", "selected_rate", "effective_rate", "user_group"):
            assert np.array_equal(getattr(rep, field), getattr(one, field)), (workers, field)
        if group_sizes is None:
            assert rep.group_access_prob is None and one.group_access_prob is None
        else:
            assert np.array_equal(rep.group_access_prob, one.group_access_prob)
        assert all(np.array_equal(a, b) for a, b in zip(rep.selected_snr, one.selected_snr))
    # with chunk boundaries inside every policy's run (pfs: 150 // 5 = 30-slot
    # chunks, the score policies 150-slot chunks of the 400 slots) every split into
    # blocks gives each realization the same bits
    monkeypatch.setattr(simcore, "CHUNK_SLOTS", 150)
    splits = ([range(5)], [range(3), range(3, 5)], [range(r, r + 1) for r in range(5)])
    runs = [[record for block in split for record in simcore._realization_task((cfg, block))]
            for split in splits]
    for other in runs[1:]:
        for a, b in zip(runs[0], other):
            assert np.array_equal(a.user_grants, b.user_grants)
            assert np.array_equal(a.user_u_sum, b.user_u_sum)
            assert np.array_equal(a.user_rate_sum, b.user_rate_sum)
            assert np.array_equal(a.group_grants, b.group_grants)
            assert all(np.array_equal(np.concatenate(x), np.concatenate(y))
                       for x, y in zip(a.selected_snr, b.selected_snr) if x)


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
    cfg = SystemConfig(K1=2, K2=2, slots_per_realization=10)
    cs, sp = first_realization_contenders(cfg)
    assert cs.members == ((0,), (1,), (2, 3), (4, 5))
    assert simcore.run_experiment(cfg).user_kinds == ["cellular", "cellular", "d2d", "d2d",
                                                      "d2d", "d2d"]
    assert simcore.run_experiment(given_means([1.0, 2.0], slots_per_realization=10)).user_kinds \
        == ["cellular", "cellular"]
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
    # simcore builds its means through the link model: the same doubles
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
    rep = simcore.run_experiment(given_means(means, tuple(shapes), policy="bcs",
                                             slots_per_realization=200_000, rng_seed=61))
    assert np.all(np.abs(rep.access_prob - 0.25) < 0.005)
    for j in range(4):
        curve = bcs_selected_cdf(GammaSnrCdf(shapes[j], means[j]), 4)
        assert simcore.ks_distance(rep.selected_snr[j], curve) < 0.012


@pytest.mark.parametrize("policy", ["gfs", "bcs", "pfs"])
def test_granted_snrs_invert_their_own_u(monkeypatch, policy):
    # at the table-5 shapes the inverse maps each cell to gammaincinv(m, u) within
    # 1e-11 relative, m the shape of the cell's contender.  The cells of its call for
    # the accounts are the granted cells of the realization's first draw, in slot
    # order, contender by contender, and each granted SNR is mean/m times its cell's
    # map.  pfs first maps every cell of the draw, contender-major, to select on rates,
    # and its granted SNRs are the very doubles of that map
    slots, seed = 6000, 23
    seen = []
    inverse = simcore.regularized_gamma_p_inv_runs

    def recorded(shapes, counts, u, out=None):
        x = inverse(shapes, counts, u, out=out)
        seen.append((np.repeat(shapes, counts), u.ravel().copy(), x.ravel().copy()))
        return x

    monkeypatch.setattr(simcore, "regularized_gamma_p_inv_runs", recorded)
    rep = simcore.run_experiment(table5_config(policy=policy, slots_per_realization=slots,
                                               rng_seed=seed))
    for m, u, x in seen:
        want = special.gammaincinv(m, u)
        assert np.max(np.abs(x - want) / want) < 1e-11
    drawn = simcore.realization_rng(seed).random((len(TABLE5_MEANS), slots))
    if policy == "pfs":
        (m, u, x), *seen = seen
        assert np.array_equal(m, np.repeat(TABLE5_SHAPES, slots))
        assert np.array_equal(u, drawn.ravel())
        for j, (mean, shape) in enumerate(zip(TABLE5_MEANS, TABLE5_SHAPES)):
            row = x[j * slots:(j + 1) * slots] * (mean / shape)
            assert np.all(np.isin(rep.selected_snr[j], row))
    ((m, u, x),) = seen
    start = 0
    for j, (mean, shape) in enumerate(zip(TABLE5_MEANS, TABLE5_SHAPES)):
        snr = rep.selected_snr[j]
        cells = slice(start, start + snr.size)
        start += snr.size
        assert np.all(m[cells] == shape)
        assert np.array_equal(drawn[j, np.isin(drawn[j], u[cells])], u[cells])
        assert np.array_equal(snr, x[cells] * (mean / shape))
    assert start == u.size


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


def test_reservoir_merge_caps_and_preserves(monkeypatch):
    # dfs at K = 6 grants each cellular user about 1000 and each pair about 2000 of the
    # 6000 slots: under a cap of 1500 a cellular user keeps every granted SNR, and a
    # pair exactly 1500 of its grants in realization and slot order, evenly spaced
    # (index steps of n // 1500 or one more), whatever the workers
    cfg = SystemConfig(K1=2, K2=2, policy="dfs", slots_per_realization=2000,
                       spatial_realizations=3, rng_seed=12)
    full = simcore.run_experiment(cfg).selected_snr
    cap = 1500
    monkeypatch.setattr(simcore, "RESERVOIR_CAPACITY", cap)
    one, two = (simcore.run_experiment(cfg, n_workers=w).selected_snr for w in (1, 2))
    assert all(np.array_equal(a, b) for a, b in zip(one, two))
    for j, (kept, every) in enumerate(zip(one, full)):
        if every.size <= cap:
            assert j < cfg.K1 and np.array_equal(kept, every)
            continue
        assert j >= cfg.K1 and kept.size == cap
        position = {x: i for i, x in enumerate(every.tolist())}
        steps = np.diff([0] + [position[x] for x in kept.tolist()])
        assert steps[0] == 0 and set(steps[1:]) <= {every.size // cap, every.size // cap + 1}


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
    with pytest.raises(ConfigError, match="fifo"):
        given_means([1.0, 2.0], policy="fifo", slots_per_realization=10)
    cs = lone_contenders([1.0, 2.0], [1.0, 1.0])
    config = given_means([1.0, 2.0], policy="gfs", slots_per_realization=10)
    with pytest.raises(ValueError, match="group structure"):
        simcore.simulate_block(config, [(cs, np.random.default_rng(0), None)])
