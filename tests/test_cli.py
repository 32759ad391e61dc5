"""Command-line front end: subcommands, CSV artifacts, error handling."""

import os
import re

import numpy as np
import pytest

from helpers import first_realization_contenders

from d2dsched import analytics, cli, simcore
from d2dsched.channel import GammaSnrCdf
from d2dsched.grouping import build_conflict_graph, fixed_grouping, greedy_coloring
from d2dsched.model import SystemConfig
from d2dsched.weights import solve_group_weights


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


@pytest.fixture
def small_config(tmp_path):
    p = tmp_path / "scenario.cfg"
    p.write_text("K1 = 3\nK2 = 2\npolicy = dfs\n"
                 "slots_per_realization = 2000\nspatial_realizations = 2\nrng_seed = 11\n")
    return str(p)


def test_run_report_shape(small_config, tmp_path):
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", small_config, "--out", out]) == 0
    header, rows = _read_csv(os.path.join(out, "report.csv"))
    assert header == ["user_id", "class", "group_id", "access_prob", "upi",
                      "selected_rate", "effective_rate"]
    assert len(rows) == 7                       # K1 + 2 K2 users
    assert [r[1] for r in rows] == ["cellular"] * 3 + ["d2d"] * 4
    assert os.path.exists(os.path.join(out, "run_meta.txt"))


def test_rerun_byte_identical(small_config, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    cli.main(["run", "--config", small_config, "--out", out1])
    cli.main(["run", "--config", small_config, "--out", out2])
    with open(os.path.join(out1, "report.csv"), "rb") as f1, \
            open(os.path.join(out2, "report.csv"), "rb") as f2:
        assert f1.read() == f2.read()


def test_weights_subcommand(tmp_path, capsys):
    out = str(tmp_path / "w")
    assert cli.main(["weights", "--sizes", "1,7,2,4", "--out", out]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert printed[0].split(",")[0] == "group_id"
    upis = [float(ln.split(",")[-1]) for ln in printed[1:]]
    assert len(upis) == 4
    assert max(upis) - min(upis) < 1e-9
    header, rows = _read_csv(os.path.join(out, "weights.csv"))
    assert header[-1] == "upi" and len(rows) == 4


def test_group_subcommand(tmp_path):
    out = str(tmp_path / "g")
    assert cli.main(["group", "--set", "K1=0", "--set", "K2=12", "--out", out]) == 0
    header, rows = _read_csv(os.path.join(out, "grouping.csv"))
    assert header == ["pair_id", "group_id", "centroid_x", "centroid_y"]
    assert len(rows) == 12


def test_group_colors_the_layout_of_realization_0(tmp_path, monkeypatch):
    # group draws its layout through simcore, the one route of realization 0's layout:
    # the coloring of the layout that the experiment's first realization replays
    config = SystemConfig(K1=3, K2=9, rng_seed=7)
    draws = []
    sample = simcore.sample_spatial
    monkeypatch.setattr(simcore, "sample_spatial",
                        lambda cfg, rng: draws.append(cfg) or sample(cfg, rng))
    out = str(tmp_path / "g")
    assert cli.main(["group", "--set", "K1=3", "--set", "K2=9", "--set", "rng_seed=7",
                     "--out", out]) == 0
    assert draws == [config]
    _, spatial = first_realization_contenders(config)
    colored = greedy_coloring(build_conflict_graph(spatial, config.interference_radius_m))
    group_of, xy = colored.group_of(), spatial.centroid_xy()
    want = [cli._csv_line(["pair_id", "group_id", "centroid_x", "centroid_y"])]
    want += [cli._csv_line((p, group_of[p], xy[p, 0], xy[p, 1])) for p in range(9)]
    with open(os.path.join(out, "grouping.csv"), encoding="utf-8") as fh:
        assert fh.read().splitlines() == want


@pytest.mark.parametrize("curve,files", [
    ("bcs", ["curve_cellular.csv", "curve_d2d.csv"]),
    ("dfs", ["curve_cellular.csv", "curve_d2d.csv"]),
    ("dfs-unconditional", ["curve_cellular.csv", "curve_d2d.csv"]),
])
def test_analytic_curves_monotone(tmp_path, curve, files):
    out = str(tmp_path / curve)
    args = ["analytic", "--curve", curve, "--set", "K1=4", "--set", "K2=2", "--out", out]
    assert cli.main(args) == 0
    for name in files:
        header, rows = _read_csv(os.path.join(out, name))
        assert header == ["s_linear", "s_db", "f"]
        f = np.array([float(r[2]) for r in rows])
        assert np.all(np.diff(f) >= 0.0)
        assert 0.0 <= f[0] and f[-1] <= 1.0


def _curve_lines(curve):
    """The lines `analytic` writes for a curve."""
    return [cli._csv_line(["s_linear", "s_db", "f"])] + [
        cli._csv_line(row) for row in zip(curve.grid, 10.0 * np.log10(curve.grid), curve.values)]


def _file_curve(path):
    _, rows = _read_csv(path)
    return analytics.AnalyticCurve(np.array([float(r[0]) for r in rows]),
                                   np.array([float(r[2]) for r in rows]))


def _dkw_bound(samples):
    # the DKW bound at p = 1e-6, fixed before any run
    return np.sqrt(np.log(2e6) / (2 * samples.size))


def test_analytic_curves_use_first_realization_layout(tmp_path):
    # each file is the public curve function's, line for line, of the bases of
    # contender 0 and contender K1 in the independently replayed first layout
    for curve in ("bcs", "cfs", "dfs", "gfs"):
        for m in (1.0, 2.5):
            out = str(tmp_path / f"{curve}-{m}")
            assert cli.main(["analytic", "--curve", curve, "--set", "K1=4", "--set", "K2=2",
                             "--set", "group_sizes=2", "--set", f"fading_shape_m={m}",
                             "--set", "rng_seed=21", "--out", out]) == 0
            config = SystemConfig(K1=4, K2=2, group_sizes=(2,), fading_shape_m=m, rng_seed=21)
            means, spatial = first_realization_contenders(config)
            base_c, base_d = GammaSnrCdf(m, means[0]), GammaSnrCdf(m, means[4])
            if curve == "bcs":
                want = (analytics.bcs_selected_cdf(base_c, 6),
                        analytics.bcs_selected_cdf(base_d, 6))
            elif curve == "cfs":
                want = analytics.cfs_selected_cdfs(base_c, base_d, 4, 2)
            elif curve == "dfs":
                want = analytics.dfs_selected_cdfs(base_c, base_d, 8)
            else:
                mu = solve_group_weights(simcore.build_structure(config, spatial)).mu
                want = (analytics.gfs_selected_cdf(base_c, 1, float(mu[0])),
                        analytics.gfs_selected_cdf(base_d, 2, float(mu[4])))
            assert sorted(os.listdir(out)) == ["curve_cellular.csv", "curve_d2d.csv"]
            for name, expected in zip(("cellular", "d2d"), want):
                with open(os.path.join(out, f"curve_{name}.csv"), encoding="utf-8") as fh:
                    assert fh.read().splitlines() == _curve_lines(expected), (curve, m, name)


@pytest.mark.parametrize("curve,files", [
    ("bcs", ["curve_cellular.csv", "curve_d2d.csv"]),
    ("cfs", ["curve_cellular.csv", "curve_d2d.csv"]),
    ("dfs", ["curve_cellular.csv", "curve_d2d.csv"]),
    ("gfs", ["curve_cellular.csv", "curve_d2d.csv"]),
    ("ecs", ["curve_cellular.csv", "curve_d2d.csv"]),
    ("grr", ["curve_cellular.csv", "curve_d2d.csv"]),
])
def test_analytic_curves_match_run(tmp_path, curve, files):
    # `analytic` describes the system that `run` simulates in its first realization:
    # at shapes 1 and 2.5, each curve file against the selected SNRs of the same
    # contender in a 40k-slot run of that policy, and so every contender's law from
    # `selected_maps`.  The groups are one of three pairs and a lone pair beside the
    # cellular singletons
    for m in (1.0, 2.5):
        out = str(tmp_path / f"{curve}-{m}")
        assert cli.main(["analytic", "--curve", curve, "--set", "K1=4", "--set", "K2=4",
                         "--set", "group_sizes=3,1", "--set", f"fading_shape_m={m}",
                         "--set", "rng_seed=21", "--out", out]) == 0
        config = SystemConfig(K1=4, K2=4, group_sizes=(3, 1), fading_shape_m=m, rng_seed=21,
                              policy=curve, slots_per_realization=40_000)
        report = simcore.run_experiment(config)
        assert sorted(os.listdir(out)) == files
        for name in files:
            samples = report.selected_snr[0 if name == "curve_cellular.csv" else config.K1]
            assert simcore.ks_distance(samples, _file_curve(os.path.join(out, name))) \
                < _dkw_bound(samples), (m, name)
        means, _, structure = simcore.realization(config, 0)
        maps = analytics.selected_maps(config, structure, simcore.policy_weights(curve, structure))
        for j, law in enumerate(maps):
            samples = report.selected_snr[j]
            assert simcore.ks_distance(samples, law.curve(GammaSnrCdf(m, means[j]))) \
                < _dkw_bound(samples), (m, j)


def test_analytic_lone_singleton_group_sees_its_base_curve(tmp_path):
    # one pair and no cellular users: its singleton group is granted every slot
    # (mu_i = m_i = 1).  Checked against a 40k-slot gfs run by the DKW bound at p = 1e-6
    out = str(tmp_path / "gfs")
    assert cli.main(["analytic", "--curve", "gfs", "--set", "K1=0", "--set", "K2=1",
                     "--set", "rng_seed=21", "--out", out]) == 0
    assert os.listdir(out) == ["curve_d2d.csv"]
    config = SystemConfig(K1=0, K2=1, rng_seed=21, policy="gfs", slots_per_realization=40_000)
    samples = simcore.run_experiment(config).selected_snr[0]
    assert samples.size == 40_000
    assert simcore.ks_distance(samples, _file_curve(os.path.join(out, "curve_d2d.csv"))) \
        < _dkw_bound(samples)


def test_analytic_gfs_curve_from_solved_weights(tmp_path):
    # the curve is the one the solver's weight for the D2D group gives, line for line
    out = str(tmp_path / "gfs")
    assert cli.main(["analytic", "--curve", "gfs", "--set", "group_sizes=5", "--out", out]) == 0
    config = SystemConfig(group_sizes=(5,))
    means, spatial = first_realization_contenders(config)
    structure = simcore.build_structure(config, spatial)
    g = structure.group_of()[config.K1]
    mu = float(solve_group_weights(structure).mu[g])
    curve = analytics.gfs_selected_cdf(GammaSnrCdf(config.fading_shape_m, means[config.K1]),
                                       structure.groups[g].size, mu)
    with open(os.path.join(out, "curve_d2d.csv"), encoding="utf-8") as fh:
        assert fh.read().splitlines() == _curve_lines(curve)


def test_failed_analytic_leaves_no_output_directory(tmp_path, capsys, monkeypatch):
    # the base CDF's inverse, which places the curve's grid, does not converge at this
    # shape (its series raises), so the settings refuse it
    with pytest.raises(analytics.GammaNotConverged):
        GammaSnrCdf(40000.5, 1.0).quantile(1e-4)
    out = str(tmp_path / "bcs")
    assert cli.main(["analytic", "--curve", "bcs", "--set", "fading_shape_m=40000.5",
                     "--out", out]) == 1
    assert "fading_shape_m" in capsys.readouterr().err
    assert not os.path.exists(out)

    # a curve that does not converge after the settings are checked writes nothing either
    def unsettled(*args, **kwargs):
        raise analytics.GammaNotConverged("regularized_gamma_p: series for a=2.5 did not "
                                          "converge in 600 iterations at 1 of 1 points")

    monkeypatch.setattr(analytics.SelectedMap, "curve", unsettled)
    assert cli.main(["analytic", "--curve", "bcs", "--out", out]) == 1
    assert "did not converge" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("curve,files", [("dfs", ["curve_d2d.csv"]),
                                         ("dfs-unconditional", ["curve_d2d.csv"]),
                                         ("cfs", ["curve_d2d.csv"])])
def test_analytic_without_cellular_users_writes_pair_curves_only(tmp_path, curve, files):
    out = str(tmp_path / curve)
    assert cli.main(["analytic", "--curve", curve, "--set", "K1=0", "--set", "K2=3",
                     "--out", out]) == 0
    assert sorted(os.listdir(out)) == files


@pytest.mark.parametrize("curve,K1,K2,name", [
    ("bcs", 0, 3, "curve_d2d.csv"),
    ("cfs", 10, 0, "curve_cellular.csv"),
    ("dfs", 10, 0, "curve_cellular.csv"),
    ("gfs", 10, 0, "curve_cellular.csv"),
], ids=["bcs-no-cellular-users", "cfs-no-pairs", "dfs-no-pairs", "gfs-no-pairs"])
def test_analytic_writes_the_curve_of_the_class_a_config_has(tmp_path, curve, K1, K2, name):
    # a system of one class gets that class's curve, which matches a 40k-slot run of
    # its first contender by the DKW bound at p = 1e-6
    out = str(tmp_path / curve)
    assert cli.main(["analytic", "--curve", curve, "--set", f"K1={K1}", "--set", f"K2={K2}",
                     "--set", "rng_seed=21", "--out", out]) == 0
    assert os.listdir(out) == [name]
    config = SystemConfig(K1=K1, K2=K2, rng_seed=21, policy=curve, slots_per_realization=40_000)
    samples = simcore.run_experiment(config).selected_snr[0]
    assert simcore.ks_distance(samples, _file_curve(os.path.join(out, name))) < _dkw_bound(samples)


def _unconditional_curve_of_one_class(tmp_path, monkeypatch, settings, kind):
    """Run analytic --curve dfs-unconditional on a config of one class of users:
    one log grid is made, and its one file is the curve a config with both
    classes writes for that class at the same K."""
    K = SystemConfig(**settings).n_users
    want = analytics.dfs_unconditional_cdfs(SystemConfig(K1=1, K2=1), K)[kind]
    grids = []
    make_grid = analytics.make_log_grid
    monkeypatch.setattr(analytics, "make_log_grid", lambda *a: grids.append(a) or make_grid(*a))
    out = str(tmp_path / "dfs-unconditional")
    argv = ["analytic", "--curve", "dfs-unconditional", "--out", out]
    for key, value in settings.items():
        argv += ["--set", f"{key}={value}"]
    assert cli.main(argv) == 0
    name = ("curve_cellular.csv", "curve_d2d.csv")[kind]
    assert len(grids) == 1 and os.listdir(out) == [name]
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        assert fh.read().splitlines() == _curve_lines(want)


def test_analytic_unconditional_curve_without_pairs(tmp_path, monkeypatch):
    # the same rule for the layout-averaged curves: no pairs, no pair curve, and
    # none tabulated
    _unconditional_curve_of_one_class(tmp_path, monkeypatch, dict(K2=0), 0)


def test_analytic_unconditional_curve_without_cellular_users(tmp_path, monkeypatch):
    _unconditional_curve_of_one_class(tmp_path, monkeypatch, dict(K1=0, K2=3), 1)


def test_run_emits_theory_curves_for_two_users_or_more(tmp_path):
    # the unconditional curves need K >= 2: a lone user's CDF file carries no theory
    for K1, has_theory in ((1, False), (2, True)):
        out = str(tmp_path / f"K1_{K1}")
        assert cli.main(["run", "--set", f"K1={K1}", "--set", "K2=0", "--set", "policy=dfs",
                         "--set", "slots_per_realization=3000", "--set", "spatial_realizations=1",
                         "--emit-cdfs", "--out", out]) == 0
        header, rows = _read_csv(os.path.join(out, "cdf_0.csv"))
        assert header == ["s_db", "f_emp", "f_theory", "abs_diff"] and len(rows) == 512
        theory = np.array([float(r[2]) for r in rows])
        assert np.all(np.isfinite(theory)) if has_theory else np.all(np.isnan(theory))


def test_run_theory_curves_tabulate_nothing(monkeypatch, tmp_path):
    # f_theory is the distance mixture itself at the empirical grid: no log grid and
    # no quantile search runs
    def unread(*args):
        raise AssertionError("run tabulates a curve that nothing reads")

    monkeypatch.setattr(analytics, "make_log_grid", unread)
    monkeypatch.setattr(analytics, "_quantile", unread)
    out = str(tmp_path / "run")
    assert cli.main(["run", "--set", "K1=2", "--set", "K2=1", "--set", "policy=dfs",
                     "--set", "slots_per_realization=8000", "--set", "spatial_realizations=1",
                     "--emit-cdfs", "--out", out]) == 0
    for j in (0, 2):                            # a cellular user and the pair
        _, rows = _read_csv(os.path.join(out, f"cdf_{j}.csv"))
        assert np.all(np.isfinite([float(r[2]) for r in rows]))


def test_sweep_emits_one_report_per_value(small_config, tmp_path):
    # a value names its directory without the blanks around it
    out = str(tmp_path / "sweep")
    assert cli.main(["sweep", "--config", small_config, "--out", out,
                     "--sweep-key", "K2", "--sweep-values", "1, 2"]) == 0
    assert sorted(os.listdir(out)) == ["K2_1", "K2_2"]
    for val in ("1", "2"):
        assert os.path.exists(os.path.join(out, f"K2_{val}", "report.csv"))


@pytest.mark.parametrize("key,values", [("policy", "bcs,foo"), ("K1", "2,2.5"),
                                        ("rng_seed", "1,-1"), ("K2", "2,2"), ("K2", "2, 2")])
def test_failed_sweep_value_leaves_no_output(small_config, tmp_path, capsys, key, values):
    # every value's config is built before any value runs: a bad value, or two values
    # that would write one directory, exits 1 with an error that names the key and
    # leaves no directory, not even for the good values before it
    out = str(tmp_path / "sweep")
    assert cli.main(["sweep", "--config", small_config, "--out", out,
                     "--sweep-key", key, "--sweep-values", values]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and key in err
    assert not os.path.exists(out)


def test_emit_cdfs_skips_contenders_of_few_kept_snrs(tmp_path):
    # a contender with fewer than 1000 kept SNRs gets no cdf_<j>.csv: two equal users
    # share 1500 slots (about 750 each, 13 standard deviations under 1000) or 3000
    # (about 1500 each, 18 over)
    for slots, files in ((1500, set()), (3000, {"cdf_0.csv", "cdf_1.csv"})):
        out = str(tmp_path / str(slots))
        assert cli.main(["run", "--set", "K1=2", "--set", "K2=0", "--set", "mean_snr=1,1",
                         "--set", f"slots_per_realization={slots}", "--emit-cdfs",
                         "--out", out]) == 0
        assert {f for f in os.listdir(out) if f.startswith("cdf_")} == files


def test_errors_exit_nonzero(small_config, tmp_path, capsys):
    out = str(tmp_path / "e")
    assert cli.main(["run", "--set", "bogus=1", "--out", out]) == 1
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.csv"))
    assert cli.main(["run", "--config", small_config, "--preset", "table2-orthogonal",
                     "--out", out]) == 1
    assert cli.main(["weights", "--sizes", "1,2", "--nu", "1.0"]) == 1
    capsys.readouterr()
    # a list that does not parse names its flag
    assert cli.main(["weights", "--sizes", "1,a"]) == 1
    assert "--sizes" in capsys.readouterr().err
    assert cli.main(["weights", "--sizes", "1,2", "--nu", "1,x"]) == 1
    assert "--nu" in capsys.readouterr().err
    # a fairness factor that is not positive and finite is refused, not solved into nan
    for nus in ("0,1", "nan,1"):
        assert cli.main(["weights", "--sizes", "1,2", "--nu", nus]) == 1
        captured = capsys.readouterr()
        assert "nu" in captured.err and "nan" not in captured.out
    # a shape beyond the incomplete gamma's reach is refused and named
    assert cli.main(["analytic", "--curve", "bcs", "--set", "fading_shape_m=40000.5",
                     "--out", out]) == 1
    assert "fading_shape_m" in capsys.readouterr().err


def test_other_arithmetic_errors_propagate(tmp_path, monkeypatch):
    # only the incomplete gamma's non-convergence is a user-facing error; a bug keeps its traceback
    def broken(*args, **kwargs):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(analytics.SelectedMap, "curve", broken)
    with pytest.raises(ZeroDivisionError):
        cli.main(["analytic", "--curve", "bcs", "--out", str(tmp_path / "z")])


def test_preset_standalone_run(tmp_path):
    out = str(tmp_path / "p")
    assert cli.main(["run", "--preset", "table5-gfs", "--scale", "desk",
                     "--set", "slots_per_realization=2000", "--out", out]) == 0
    header, rows = _read_csv(os.path.join(out, "report.csv"))
    assert len(rows) == 14
    gheader, grows = _read_csv(os.path.join(out, "group_access.csv"))
    assert [int(r[1]) for r in grows] == [1, 7, 2, 4]


def test_non_group_policy_writes_no_group_outputs(tmp_path):
    out = str(tmp_path / "bcs")
    assert cli.main(["run", "--preset", "table5-gfs", "--set", "policy=bcs",
                     "--set", "slots_per_realization=1000", "--out", out]) == 0
    assert not os.path.exists(os.path.join(out, "group_access.csv"))
    _, rows = _read_csv(os.path.join(out, "report.csv"))
    assert {r[2] for r in rows} == {"-1"}


@pytest.mark.parametrize("preset,setting,key", [
    ("table5-gfs", "slots_per_realization", "slots_per_realization"),
    ("table5-gfs", "slots_per_realization=abc", "slots_per_realization"),
    ("sec4c-comparison", "bogus=1", "bogus"),
    ("sec4c-comparison", "pf_time_const=0", "pf_time_const"),
    ("sec4c-comparison", "pathloss_exp_cellular=nan", "pathloss_exp_cellular"),
    ("sec4c-comparison", "rate_log_base=nan", "rate_log_base"),
    ("sec4c-comparison", "interference_radius_m=-5", "interference_radius_m"),
    ("sec4c-comparison", "cell_radius_m=inf", "cell_radius_m"),
    ("sec4c-comparison", "fading_shape_m=inf", "fading_shape_m"),
])
def test_bad_set_names_the_setting(tmp_path, capsys, preset, setting, key):
    out = str(tmp_path / "e")
    assert cli.main(["run", "--preset", preset, "--set", setting, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and ("--set" in err or key in err)
    assert not os.path.exists(os.path.join(out, "report.csv"))


@pytest.mark.parametrize("argv,named", [
    (["group", "--preset", "table5-gfs"], "K2 >= 1"),
    (["run", "--preset", "table5-gfs", "--config", "missing.cfg"], "--config"),
    (["analytic", "--preset", "table5-gfs", "--set", "fading_shape_m=1",
      "--curve", "dfs-unconditional"], "mean_snr"),
], ids=["group", "config", "dfs-unconditional"])
def test_table5_preset_refusals(tmp_path, capsys, argv, named):
    # table5-gfs is an ordinary preset of no pairs: it has nothing to color, a
    # preset does not mix with a config file, and its given means have no layout
    # for the unconditional curves to average over
    out = str(tmp_path / "t5")
    assert cli.main(argv + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not os.path.exists(out)


def test_analytic_bcs_curve_of_table5(tmp_path):
    # user 0 of table 5 is a Rayleigh channel of mean SNR 100 among 14 contenders
    out = str(tmp_path / "t5")
    assert cli.main(["analytic", "--preset", "table5-gfs", "--curve", "bcs", "--out", out]) == 0
    _, rows = _read_csv(os.path.join(out, "curve_cellular.csv"))
    want = analytics.bcs_selected_cdf(GammaSnrCdf(1, 100), 14)
    assert np.array_equal([float(r[0]) for r in rows], [float(cli._fmt(s)) for s in want.grid])
    assert np.array_equal([float(r[2]) for r in rows], [float(cli._fmt(f)) for f in want.values])


def test_analytic_gfs_curve_of_table5(tmp_path):
    # user 0 of table 5 is the lone member of its group: F^mu_0, mu_0 of the
    # max-min weights of the groups of 1, 7, 2 and 4 users
    out = str(tmp_path / "t5")
    assert cli.main(["analytic", "--preset", "table5-gfs", "--curve", "gfs", "--out", out]) == 0
    assert os.listdir(out) == ["curve_cellular.csv"]
    mu_0 = float(solve_group_weights(fixed_grouping(cli.TABLE5_SIZES, nu=1.0)).mu[0])
    want = analytics.gfs_selected_cdf(GammaSnrCdf(1, 100), 1, mu_0)
    with open(os.path.join(out, "curve_cellular.csv"), encoding="utf-8") as fh:
        assert fh.read().splitlines() == _curve_lines(want)


def test_analytic_of_given_means_draws_no_layout(tmp_path, monkeypatch):
    # like run, analytic builds a config of mean_snr without sampling a layout
    plain = str(tmp_path / "plain")
    assert cli.main(["analytic", "--preset", "table5-gfs", "--curve", "bcs", "--out", plain]) == 0

    def no_layout(*args):
        raise AssertionError("a config of mean_snr has no layout to sample")

    monkeypatch.setattr(simcore, "sample_spatial", no_layout)
    out = str(tmp_path / "patched")
    assert cli.main(["analytic", "--preset", "table5-gfs", "--curve", "bcs", "--out", out]) == 0
    assert _files(out) == _files(plain)


def test_analytic_gfs_weights_come_from_simcore(tmp_path, monkeypatch):
    # analytic takes the gfs weights where run takes them, and writes the same curve
    plain = str(tmp_path / "plain")
    args = ["analytic", "--curve", "gfs", "--set", "group_sizes=5"]
    assert cli.main([*args, "--out", plain]) == 0
    asked = []
    weights = simcore.policy_weights

    def recorded(policy, structure):
        asked.append(policy)
        return weights(policy, structure)

    monkeypatch.setattr(simcore, "policy_weights", recorded)
    out = str(tmp_path / "patched")
    assert cli.main([*args, "--out", out]) == 0
    assert asked == ["gfs"] and _files(out) == _files(plain)


def _files(out):
    """Every file a run wrote but its timestamped run_meta.txt, by name."""
    files = {}
    for name in sorted(set(os.listdir(out)) - {"run_meta.txt"}):
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    return files


def _meta(out):
    """A run's run_meta.txt, as a dict of its `key = value` lines."""
    with open(os.path.join(out, "run_meta.txt"), encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split(" = ", 1) for line in fh)


@pytest.mark.parametrize("preset", ["table2-orthogonal", "table5-gfs"])
def test_seed_is_shorthand_for_rng_seed(tmp_path, capsys, preset):
    def run(name, *flags):
        out = str(tmp_path / name)
        code = cli.main(["run", "--preset", preset, "--set", "slots_per_realization=2000",
                         "--out", out, *flags])
        return code, out

    _, seeded = run("seed", "--seed", "7")
    _, setting = run("set", "--set", "rng_seed=7")
    _, default = run("default")
    assert _files(seeded) == _files(setting) != _files(default)
    with open(os.path.join(seeded, "run_meta.txt"), encoding="utf-8") as fh:
        assert "seed = 7\n" in fh.read()
    code, out = run("both", "--seed", "7", "--set", "rng_seed=8")
    assert code == 1 and "--seed" in capsys.readouterr().err
    assert not os.path.exists(out)
    # a negative seed is refused by the setting's name, before any output
    code, out = run("negative", "--seed", "-1")
    assert code == 1 and "rng_seed" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("setup", [
    ["--preset", "table5-gfs", "--set", "fading_shape_m=1", "--set", "slots_per_realization=30000"],
    ["--preset", "table5-gfs", "--set", "slots_per_realization=30000"],
    ["--preset", "table2-orthogonal", "--set", "fading_shape_m=2",
     "--set", "slots_per_realization=24000", "--set", "spatial_realizations=1"],
], ids=["given-means-m1", "given-means-table5", "layout-m2"])
def test_emit_cdfs_writes_no_theory_the_curves_refuse(tmp_path, setup):
    # the unconditional curves average over a layout at unit shape: a config of given
    # means has no layout, and m = 2 is not unit shape, so f_theory is NaN, the run
    # succeeds, and analytics gives the reason the curves refuse
    out = str(tmp_path / "run")
    assert cli.main(["run", *setup, "--set", "policy=dfs", "--emit-cdfs", "--out", out]) == 0
    config = cli._build_config(cli.build_parser().parse_args(["run", *setup]))
    refusal = analytics.dfs_unconditional_refusal(config, config.n_users)
    assert refusal is not None
    with pytest.raises(ValueError, match=re.escape(refusal)):
        analytics.dfs_unconditional_mixtures(config, config.n_users)
    for j in range(config.n_contenders):
        _, rows = _read_csv(os.path.join(out, f"cdf_{j}.csv"))
        assert np.all(np.isnan([float(r[2]) for r in rows]))


def test_sweep_of_table5_equals_its_runs(tmp_path):
    out = str(tmp_path / "sweep")
    assert cli.main(["sweep", "--preset", "table5-gfs", "--set", "slots_per_realization=3000",
                     "--sweep-key", "policy", "--sweep-values", "gfs,ecs", "--out", out]) == 0
    for policy in ("gfs", "ecs"):
        run = str(tmp_path / policy)
        assert cli.main(["run", "--preset", "table5-gfs", "--set", "slots_per_realization=3000",
                         "--set", f"policy={policy}", "--out", run]) == 0
        assert _files(os.path.join(out, f"policy_{policy}")) == _files(run)


def test_config_file_of_mean_snr_reproduces_the_table5_preset(tmp_path):
    cfg = tmp_path / "table5.cfg"
    cfg.write_text("K1 = 14\nK2 = 0\npolicy = gfs\nslots_per_realization = 3000\n"
                   "mean_snr = 100, 60, 70, 5, 16, 40, 20, 2, 4, 40, 36, 80, 7, 40\n"
                   "fading_shape_m = 1, 8, 2, 6, 7, 3, 7, 5, 3, 3, 2, 9, 9, 4\n"
                   "group_sizes = 1, 7, 2, 4\n")
    preset, config = str(tmp_path / "preset"), str(tmp_path / "config")
    assert cli.main(["run", "--preset", "table5-gfs", "--set", "slots_per_realization=3000",
                     "--out", preset]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", config]) == 0
    assert _files(preset) == _files(config)
    assert set(_files(config)) == {"report.csv", "group_access.csv"}
    # the preset's int-spelled means and shapes digest as the file's floats
    assert _meta(preset)["config_digest"] == _meta(config)["config_digest"]
