"""Command-line front end: parse config, dispatch subcommands, write CSV artifacts."""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import os
import sys

import numpy as np

from d2dsched import analytics, channel, simcore
from d2dsched.grouping import GroupStructure, build_conflict_graph, fixed_grouping, \
    greedy_coloring
from d2dsched.model import ConfigError, SystemConfig, load_config, parse_config_text, \
    parse_setting
from d2dsched.weights import group_access_prob, solve_group_weights, upi_closed_form

# the four-group scenario of fixed channels: per-user linear mean SNR and Nakagami shape
TABLE5_MEANS = (100, 60, 70, 5, 16, 40, 20, 2, 4, 40, 36, 80, 7, 40)
TABLE5_SHAPES = (1, 8, 2, 6, 7, 3, 7, 5, 3, 3, 2, 9, 9, 4)
TABLE5_SIZES = (1, 7, 2, 4)
_TABLE5 = {"K1": len(TABLE5_MEANS), "K2": 0, "mean_snr": TABLE5_MEANS,
           "fading_shape_m": TABLE5_SHAPES, "group_sizes": TABLE5_SIZES, "policy": "gfs"}

PRESETS = {
    "table2-orthogonal": {
        "desk": {"K1": 10, "K2": 5, "spatial_realizations": 20, "slots_per_realization": 5000,
                 "policy": "dfs"},
        "full": {"K1": 20, "K2": 15, "spatial_realizations": 100, "slots_per_realization": 10000,
                 "policy": "dfs"},
    },
    "sec4c-comparison": {
        "desk": {"K1": 10, "K2": 5, "group_sizes": (5,), "spatial_realizations": 20,
                 "slots_per_realization": 10000, "policy": "gfs"},
        "full": {"K1": 50, "K2": 25, "group_sizes": (5, 5, 5, 5, 5), "spatial_realizations": 150,
                 "slots_per_realization": 12000, "policy": "gfs"},
    },
    "table5-gfs": {"desk": {**_TABLE5, "slots_per_realization": 200_000},
                   "full": {**_TABLE5, "slots_per_realization": 2_000_000}},
}


def _fmt(x) -> str:
    return f"{float(x):.10g}"


def _csv_line(cells) -> str:
    return ",".join(str(c) if isinstance(c, (str, int)) else _fmt(c) for c in cells)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_csv_line(header) + "\n")
        for row in rows:
            fh.write(_csv_line(row) + "\n")


def _parse_overrides(pairs) -> dict[str, str]:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _build_config(args) -> SystemConfig:
    overrides = _parse_overrides(getattr(args, "set", None))
    if getattr(args, "seed", None) is not None:
        if "rng_seed" in overrides:
            raise ConfigError("give either --seed or --set rng_seed, not both")
        overrides["rng_seed"] = str(args.seed)
    preset = getattr(args, "preset", None)
    if preset:
        if args.config:
            raise ConfigError("give either --preset or --config, not both")
        values = dict(PRESETS[preset][args.scale])
        values.update((key, parse_setting(key, raw)) for key, raw in overrides.items())
        return SystemConfig(**values)
    if args.config:
        return load_config(args.config, overrides)
    return parse_config_text("", overrides)


def _report_rows(report: simcore.ExperimentReport):
    for uid in range(report.config.n_users):
        yield (uid, report.user_kinds[uid], int(report.user_group[uid]),
               report.access_prob[uid], report.upi[uid],
               report.selected_rate[uid], report.effective_rate[uid])


def _write_report(report: simcore.ExperimentReport, out_dir: str,
                  emit_cdfs: bool = False) -> None:
    config = report.config
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "report.csv"),
               ["user_id", "class", "group_id", "access_prob", "upi", "selected_rate",
                "effective_rate"],
               _report_rows(report))
    with open(os.path.join(out_dir, "run_meta.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"timestamp = {datetime.datetime.now().isoformat()}\n")
        fh.write(f"policy = {config.policy}\n")
        fh.write(f"seed = {config.rng_seed}\n")
        fh.write(f"total_slots = {report.total_slots}\n")
        fh.write(f"config_digest = {config.digest()}\n")
    if report.group_access_prob is not None:
        _write_csv(os.path.join(out_dir, "group_access.csv"),
                   ["group_id", "size", "access_prob"],
                   [(gi, report.structure.groups[gi].size, p)
                    for gi, p in enumerate(report.group_access_prob)])
    if not emit_cdfs:
        return
    # dfs theory unless the curves refuse: the cellular mixture below K1, the pair's above
    mixtures = None
    if (config.policy == "dfs"
            and analytics.dfs_unconditional_refusal(config, config.n_users) is None):
        mixtures = analytics.dfs_unconditional_mixtures(config, config.n_users)
    for j, samples in enumerate(report.selected_snr):
        if samples.size < 1000:
            continue
        grid = np.quantile(samples, np.linspace(0.001, 0.999, 512))
        emp = np.searchsorted(np.sort(samples), grid, side="right") / samples.size
        theory = np.full_like(grid, np.nan)
        if mixtures is not None:
            theory = np.clip(mixtures[0 if j < config.K1 else 1](grid), 0.0, 1.0)
        _write_csv(os.path.join(out_dir, f"cdf_{j}.csv"),
                   ["s_db", "f_emp", "f_theory", "abs_diff"],
                   zip(10.0 * np.log10(grid), emp, theory, np.abs(emp - theory)))


def cmd_run(args) -> int:
    _write_report(simcore.run_experiment(_build_config(args)), args.out, args.emit_cdfs)
    return 0


def _parse_list(flag: str, text: str, kind) -> list:
    try:
        return [kind(t) for t in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag}: cannot parse {text!r}") from None


def cmd_weights(args) -> int:
    sizes = _parse_list("--sizes", args.sizes, int)
    nus = _parse_list("--nu", args.nu, float) if args.nu else [1.0] * len(sizes)
    if len(nus) != len(sizes):
        raise ConfigError("--nu must list one factor per group")
    structure = GroupStructure(tuple(dataclasses.replace(g, nu=nu) for g, nu in
                                     zip(fixed_grouping(sizes).groups, nus)))
    pw = solve_group_weights(structure)
    probs = group_access_prob(structure, pw)
    header = ["group_id", "size", "nu", "w", "mu", "access_prob", "upi"]
    rows = [(gi, sizes[gi], nus[gi], pw.w[gi], pw.mu[gi], probs[gi],
             upi_closed_form(gi, structure, pw)) for gi in range(len(sizes))]
    print("\n".join(_csv_line(row) for row in [header, *rows]))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_csv(os.path.join(args.out, "weights.csv"), header, rows)
    return 0


def cmd_group(args) -> int:
    config = _build_config(args)
    if config.K2 < 1:
        raise ConfigError("grouping requires K2 >= 1")
    spatial, _ = simcore.layout(config, 0)
    colored = greedy_coloring(build_conflict_graph(spatial, config.interference_radius_m))
    group_of = colored.group_of()
    xy = spatial.centroid_xy()
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "grouping.csv"),
               ["pair_id", "group_id", "centroid_x", "centroid_y"],
               [(p, group_of[p], xy[p, 0], xy[p, 1]) for p in range(config.K2)])
    return 0


def cmd_analytic(args) -> int:
    config = _build_config(args)
    if args.curve == "dfs-unconditional":
        curves = analytics.dfs_unconditional_cdfs(config, config.n_users)
    else:
        # the system of the experiment's first realization, as `run` simulates it:
        # contender 0 is the first cellular user, contender K1 the first pair
        config = dataclasses.replace(config, policy=args.curve)
        means, _, structure = simcore.realization(config, 0)
        maps = analytics.selected_maps(config, structure,
                                       simcore.policy_weights(args.curve, structure))
        shapes = config.shapes_per_contender()
        curves = [maps[j].curve(channel.GammaSnrCdf(shapes[j], means[j])) if n else None
                  for j, n in ((0, config.K1), (config.K1, config.K2))]
    # the directory only once the curves exist, so a failed run leaves nothing behind
    os.makedirs(args.out, exist_ok=True)
    for name, curve in zip(("cellular", "d2d"), curves):
        if curve is not None:
            _write_csv(os.path.join(args.out, f"curve_{name}.csv"), ["s_linear", "s_db", "f"],
                       zip(curve.grid, 10.0 * np.log10(curve.grid), curve.values))
    return 0


def cmd_sweep(args) -> int:
    # every value's config first, so a value that fails leaves no directory behind
    runs = {}
    for val in (v.strip() for v in args.sweep_values.split(",")):
        out = os.path.join(args.out, f"{args.sweep_key}_{val}")
        if out in runs:
            raise ConfigError(f"--sweep-values: two values would write {out}")
        sub = argparse.Namespace(**vars(args))
        sub.set = list(args.set or []) + [f"{args.sweep_key}={val}"]
        runs[out] = _build_config(sub)
    for out, config in runs.items():
        _write_report(simcore.run_experiment(config), out, args.emit_cdfs)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing leaves it as it is."""
    parser = argparse.ArgumentParser(prog="d2dsched",
                                     description="cellular + D2D scheduling simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--preset", choices=sorted(PRESETS),
                       help="built-in scenario instead of a config file")
        p.add_argument("--scale", choices=("desk", "full"), default="desk")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--out", default="out", help="output directory")

    p_run = sub.add_parser("run", help="run a Monte Carlo experiment")
    common(p_run)
    p_run.add_argument("--emit-cdfs", action="store_true",
                       help="also write per-contender selected-SNR CDF files")
    p_run.add_argument("--seed", type=int, help="shorthand for --set rng_seed=SEED")
    p_run.set_defaults(func=cmd_run)

    p_w = sub.add_parser("weights", help="solve max-min group weights")
    p_w.add_argument("--sizes", required=True, help="comma list of group sizes")
    p_w.add_argument("--nu", help="comma list of fairness factors (default all 1)")
    p_w.add_argument("--out", default=None)
    p_w.set_defaults(func=cmd_weights)

    p_g = sub.add_parser("group", help="sample a layout and color its conflict graph")
    common(p_g)
    p_g.set_defaults(func=cmd_group)

    p_a = sub.add_parser("analytic", help="emit closed-form selected-SNR curves")
    common(p_a)
    p_a.add_argument("--curve", required=True,
                     choices=("dfs-unconditional", *analytics.MAPPED_POLICIES))
    p_a.set_defaults(func=cmd_analytic)

    p_s = sub.add_parser("sweep", help="repeat run over a grid of one config key")
    common(p_s)
    p_s.add_argument("--emit-cdfs", action="store_true")
    p_s.add_argument("--sweep-key", required=True)
    p_s.add_argument("--sweep-values", required=True, help="comma list of values")
    p_s.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, analytics.GammaNotConverged, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
