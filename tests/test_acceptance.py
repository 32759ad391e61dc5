"""End-to-end acceptance checks.

Each test verifies one headline claim of the scheduler library at its stated
tolerance and prints a single PASS line (visible with `pytest -s` or on
failure) naming the criterion.
"""

import math

import numpy as np
from scipy import integrate

from helpers import first_realization_contenders, ks_uniform, unconditional_quad

from d2dsched import analytics, cli, simcore
from d2dsched.channel import GammaSnrCdf, analytic_snr_cdf, draw_fading, snr_from_gain
from d2dsched.cli import TABLE5_MEANS, TABLE5_SHAPES, TABLE5_SIZES
from d2dsched.grouping import build_conflict_graph, fixed_grouping, greedy_coloring
from d2dsched.model import FadingSpec, SystemConfig, cellular_downlink, cellular_uplink, \
    d2d_direct, sample_spatial
from d2dsched.weights import group_access_prob, solve_group_weights, upi_closed_form


def test_criterion_1_equal_index_and_access(bcs8_report):
    rep = bcs8_report
    assert np.all(np.abs(rep.upi - 2.0 / 9.0) < 0.005)
    assert np.all(np.abs(rep.access_prob - 1.0 / 8.0) < 0.002)
    print("PASS criterion 1: equal per-user index 2/9 +- 0.005 and access 1/8 +- 0.002")


def test_criterion_2_selected_snr_power_curve(bcs8_report):
    base = GammaSnrCdf(1.0, 4.0)
    curve = analytics.bcs_selected_cdf(base, 8)
    worst = 0.0
    for samples in bcs8_report.selected_snr:
        worst = max(worst, simcore.ks_distance(samples, curve))
    assert worst < 0.01
    print(f"PASS criterion 2: selected-SNR KS vs F^8 = {worst:.4f} < 0.01 for all 8 users")


def test_criterion_3_threshold_policy_fairness(cfs_setup):
    config, rep = cfs_setup
    assert np.all(np.abs(rep.access_prob - 1.0 / 9.0) < 0.003)
    ref = analytics.upi_reference("cfs", K1=5, K2=2)["cellular"]
    assert np.all(np.abs(rep.upi[:5] - ref) < 0.005)
    cs, _ = first_realization_contenders(config)
    worst = 0.0
    for j in (5, 6):                                  # the two pair contenders
        base = GammaSnrCdf(1.0, cs.mean_snr[j])
        _, d2d_curve = analytics.cfs_selected_cdfs(base, base, 5, 2)
        worst = max(worst, simcore.ks_distance(rep.selected_snr[j], d2d_curve))
    assert worst < 0.01
    print(f"PASS criterion 3: access 1/9 +- 0.003, cellular index {ref:.4f} +- 0.005, "
          f"D2D selected CDF = base CDF (KS {worst:.4f} < 0.01)")


def test_criterion_4_pair_competition_curves(dfs_setup):
    config, rep = dfs_setup
    cs, _ = first_realization_contenders(config)
    worst_c = worst_d = 0.0
    for j in range(6):
        base = GammaSnrCdf(1.0, cs.mean_snr[j])
        cell, d2d = analytics.dfs_selected_cdfs(base, base, 8)
        if j < 4:
            worst_c = max(worst_c, simcore.ks_distance(rep.selected_snr[j], cell))
        else:
            worst_d = max(worst_d, simcore.ks_distance(rep.selected_snr[j], d2d))
    assert worst_c < 0.01 and worst_d < 0.01
    print(f"PASS criterion 4: selected-SNR KS cellular {worst_c:.4f}, pair {worst_d:.4f}, "
          "both < 0.01")


def test_criterion_5_unconditional_curves(uncond_setup):
    config, rep = uncond_setup
    cell, d2d = analytics.dfs_unconditional_cdfs(config, 20, n_grid=512)
    pooled_c = np.concatenate([rep.selected_snr[j] for j in range(10)])
    pooled_d = np.concatenate([rep.selected_snr[j] for j in range(10, 15)])
    ks_c = simcore.ks_distance(pooled_c, cell)
    ks_d = simcore.ks_distance(pooled_d, d2d)
    assert ks_c <= 0.02 and ks_d <= 0.02
    _, odd = analytics.dfs_unconditional_cdfs(config, 9, n_grid=64)
    _, odd_ref = unconditional_quad(config, 9)
    err = max(abs(v - odd_ref(s)) for s, v in zip(odd.grid, odd.values))
    assert err < 1e-10
    print(f"PASS criterion 5: position-averaged KS cellular {ks_c:.4f}, D2D {ks_d:.4f} "
          f"<= 0.02; odd-K D2D curve within {err:.1e} < 1e-10 of quadrature")


def test_criterion_6_weight_solver_optimality():
    st = fixed_grouping([1, 2], nu=1.0)
    c12 = solve_group_weights(st).common_upi
    root = (3.0 - math.sqrt(3.0)) / 2.0               # root of 2c^2 - 6c + 3 = 0
    assert abs(c12 - root) < 1e-9

    st4 = fixed_grouping(TABLE5_SIZES, nu=1.0)
    pw4 = solve_group_weights(st4)
    upis = np.array([upi_closed_form(gi, st4, pw4) for gi in range(4)])
    assert upis.max() - upis.min() < 1e-9

    # randomized search over feasible weightings never beats the solver level
    rng = np.random.default_rng(77)
    excess = 0.0
    for _ in range(10):
        G = int(rng.integers(2, 5))
        sizes = rng.integers(1, 7, size=G)
        stg = fixed_grouping(sizes.tolist(), nu=1.0)
        c = solve_group_weights(stg).common_upi
        shares = rng.dirichlet(np.ones(G), size=10_000)    # m_i w_i samples
        mu = sizes / shares                                # mu_i = 1 / w_i
        upi_all = (sizes + 1.0) / (mu + 1.0)
        excess = max(excess, float(np.max(np.min(upi_all, axis=1)) - c))
    assert excess <= 1e-3
    print(f"PASS criterion 6: solver level matches the closed root to 1e-9, four-group "
          f"levels equal to 1e-9, 10^5-point search excess {excess:.2e} <= 1e-3")


def test_criterion_7_group_policy_agreement(tab5_structure, tab5_gfs):
    rep = tab5_gfs
    pw = solve_group_weights(tab5_structure)
    p_ref = group_access_prob(tab5_structure, pw)
    assert np.all(np.abs(rep.group_access_prob - p_ref) < 0.005)
    assert np.all(np.abs(rep.upi - pw.common_upi) < 0.01)
    worst = 0.0
    for j, gi in ((0, 0), (1, 1)):                    # a size-1 and a size-7 member
        base = GammaSnrCdf(TABLE5_SHAPES[j], TABLE5_MEANS[j])
        curve = analytics.gfs_selected_cdf(base, tab5_structure.groups[gi].size,
                                           float(pw.mu[gi]))
        worst = max(worst, simcore.ks_distance(rep.selected_snr[j], curve))
    assert worst < 0.01
    print(f"PASS criterion 7: group access within 0.005 of closed form, per-user index "
          f"within 0.01 of {pw.common_upi:.4f}, member selected-SNR KS {worst:.4f} < 0.01")


def test_criterion_8_policy_orderings(sec4c_reports, tab5_structure, tab5_ecs, tab5_gfs):
    _, reports = sec4c_reports
    d2d_ids = np.arange(10, 20)
    assert np.all(reports["gfs"].effective_rate >= reports["bcs"].effective_rate)
    assert np.all(reports["dfs"].effective_rate[d2d_ids]
                  >= reports["cfs"].effective_rate[d2d_ids])
    assert np.all(reports["gfs"].selected_rate >= reports["grr"].selected_rate)
    assert np.all(np.abs(tab5_ecs.group_access_prob - 0.25) < 0.005)
    sizes = tab5_structure.sizes
    order = np.argsort(sizes)
    assert np.all(np.diff(tab5_gfs.group_access_prob[order]) > 0)
    print("PASS criterion 8: max-min grouping beats plain competition per user, pair "
          "competition beats the threshold policy for D2D, grouping beats round-robin, "
          "equal-access weights give 1/G per group while solved weights favor larger groups")


def test_criterion_9a_transform_uniformity():
    cfg = SystemConfig()
    links = [cellular_downlink(cfg, 400.0), cellular_uplink(cfg, 400.0), d2d_direct(cfg, 25.0)]
    worst = 0.0
    rng = np.random.default_rng(88)
    for link in links:
        for m in (1.0, 3.0):
            spec = FadingSpec(m)
            snr = snr_from_gain(link, cfg, draw_fading(spec, rng, size=1_000_000))
            u = analytic_snr_cdf(link, spec, cfg).evaluate(snr)
            worst = max(worst, ks_uniform(u))
    assert worst < 0.005
    print(f"PASS criterion 9a: CDF-transform uniformity KS {worst:.4f} < 0.005 "
          "for every link kind and fading shape")


def test_criterion_9b_coloring_always_proper():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        cfg = SystemConfig(K1=0, K2=n)
        sp = sample_spatial(cfg, np.random.default_rng(int(rng.integers(1 << 30))))
        graph = build_conflict_graph(sp, cfg.interference_radius_m)
        st = greedy_coloring(graph)
        assert sorted(m for g in st.groups for m in g.members) == list(range(n))
        for g in st.groups:
            mem = np.array(g.members)
            assert not np.any(graph.adjacency[np.ix_(mem, mem)])
    print("PASS criterion 9b: greedy grouping is a proper coloring on 100 random layouts")


def test_criterion_9c_worker_count_invariance(tmp_path):
    cfg = SystemConfig(K1=3, K2=2, policy="gfs", group_sizes=(2,),
                       slots_per_realization=3000, spatial_realizations=4, rng_seed=111)
    rep1 = simcore.run_experiment(cfg, n_workers=1)
    rep3 = simcore.run_experiment(cfg, n_workers=3)
    assert np.array_equal(rep1.access_prob, rep3.access_prob)
    assert np.array_equal(rep1.upi, rep3.upi)
    assert np.array_equal(rep1.effective_rate, rep3.effective_rate)
    assert np.array_equal(rep1.group_access_prob, rep3.group_access_prob)
    for a, b in zip(rep1.selected_snr, rep3.selected_snr):
        assert np.array_equal(a, b)
    cli._write_report(rep1, str(tmp_path / "w1"))
    cli._write_report(rep3, str(tmp_path / "w3"))
    for name in ("report.csv", "group_access.csv"):
        with open(tmp_path / "w1" / name, "rb") as f1, open(tmp_path / "w3" / name, "rb") as f2:
            assert f1.read() == f2.read()
    print("PASS criterion 9c: one worker and three workers produce byte-identical reports")


def test_criterion_9d_gamma_against_quadrature():
    # compare on the regularized scale: the raw integral reaches ~4e7 for
    # a ~ 12, where quadrature itself cannot deliver 1e-10 absolute accuracy
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(50):
        a = float(rng.uniform(0.5, 12.0))
        x = float(rng.uniform(0.0, 25.0))
        ref, _ = integrate.quad(lambda t: t ** (a - 1.0) * math.exp(-t), 0.0, x,
                                epsabs=1e-14, epsrel=1e-14, limit=200)
        worst = max(worst, abs(analytics.regularized_gamma_p(a, x) - ref / math.gamma(a)))
    assert worst < 1e-10
    print(f"PASS criterion 9d: incomplete-gamma vs quadrature max error {worst:.1e} < 1e-10")
