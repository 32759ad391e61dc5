"""The benchmark's workloads: inputs made from a seed, and one timed pass over them.

Every pass of a workload repeats the same work on the same inputs, so passes
are comparable and their outputs must be identical.  Layers are always called
through their module (``simcore.run_experiment``), never through a name bound
here, so the span recorder sees every call.

Why each workload exists:

* ``rayleigh-policies``: all seven policies at the sec4c desk geometry with
  Nakagami m = 1.  The u-map is the cheap ``expm1`` path, so time goes to the
  fading draw, grant accounting and selection; it also retains the most
  grants, so the reducer and memory show up here.
* ``nakagami-policies``: the same seven runs with per-contender shapes
  (the table-5 shapes plus one), plus the ``table5-gfs`` desk preset through
  the CLI.  Any m != 1 sends the u-map through
  ``analytics.regularized_gamma_p`` on large arrays.  It is the only workload
  that covers ``run_standalone`` and the CLI writer.
* ``closed-form``: no simulator.  Unconditional dfs curves at K=20 (table2
  desk), conditional bcs/cfs/dfs/gfs curves over m = 1 and m != 1 bases, the
  weight solver over fixed group-size vectors and greedy coloring of sampled
  layouts at larger K2.  Here ``analytics.regularized_gamma_p`` is called on
  scalars tens of times per grid point, so a change that helps the array use
  of that layer and costs the scalar use shows up as a difference from
  ``nakagami-policies``.
* ``known-defects``: the closed-form outputs that the program gets wrong
  today, under the same checks and tolerances: the unconditional dfs curves
  at K=50 (table2 full), where the alternating series cancels, and the
  weight solver on group sizes (1, 1, 1), where an exact bisection hit
  returns the wrong max-min level.  It reports ``correct: false`` until the
  program is fixed.  BENCHMARK.json does not list it, because a benchmarked
  workload must be one on which no operation fails.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from d2dsched import analytics, channel, cli, grouping, model, simcore, weights

POLICIES = ("bcs", "cfs", "dfs", "gfs", "ecs", "grr", "pfs")
WORKLOADS = ("rayleigh-policies", "nakagami-policies", "closed-form", "known-defects")

# sec4c desk geometry: K1=10 cellular users, K2=5 pairs in one sharing group
K1, K2, GROUP_SIZES = 10, 5, (5,)
NAKAGAMI_SHAPES = (1, 8, 2, 6, 7, 3, 7, 5, 3, 3, 2, 9, 9, 4, 2)   # table-5 shapes plus one

# run lengths per pass: (realizations, slots, pfs slots); pfs loops per slot in Python
SIM_SIZES = {
    "rayleigh-policies": (20, 20_000, 500),
    "nakagami-policies": (10, 5_000, 250),
}
TABLE5_SLOTS = 20_000

UNCOND_GRID = 64                         # points per unconditional curve
# unconditional curves per workload: (task name, table2-orthogonal scale)
UNCOND_CURVES = {"closed-form": (("uncond-K20", "desk"),),
                 "known-defects": (("uncond-K50", "full"),)}
COND_SHAPES = ((1.0, 1.0), (2.0, 3.0))   # (cellular m, D2D m) of the conditional bases
# group sizes of the weight solver's structures, all groups at nu = 1
WEIGHT_SIZE_VECTORS = {
    "closed-form": ((1, 7, 2, 4), (5,), (2, 3, 5, 7, 11), (4, 4, 4, 4), (1, 9),
                    (3, 1, 4, 1, 5, 9, 2, 6), (6, 6), (2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
                    (12, 1, 1, 1)),
    "known-defects": ((1, 1, 1),),
}
MIXED_SIZE_VECTORS = ((1, 7, 2, 4), (5,), (1, 1, 1))   # D2D groups beside cellular singletons
COLORING_K2 = (50, 100, 200)             # pairs per sampled layout
COLORING_LAYOUTS = 4                     # layouts per K2

# calibrate() seconds at the reference speed: about its mean on the 2-vCPU
# Xeon host of perfbench/BASELINE.md.  Pass times are reported at this speed.
CAL_REF_S = 0.025


@dataclass
class Inputs:
    """Everything a pass needs, built once per run (this is what setup_s times)."""

    workload: str
    seed: int
    out_dir: str
    configs: dict = field(default_factory=dict)        # task name -> SystemConfig
    structure: object = None                           # mixed group structure (sim workloads)
    weights: dict = field(default_factory=dict)        # policy -> PolicyWeights
    table5_structure: object = None
    table5_weights: object = None
    weight_structures: list = field(default_factory=list)

    def digests(self) -> dict:
        return {name: cfg.digest() for name, cfg in self.configs.items()}


@dataclass
class PassResult:
    outputs: dict = field(default_factory=dict)   # task name -> output object
    task_s: dict = field(default_factory=dict)    # task name -> wall seconds
    work: dict = field(default_factory=dict)      # task name -> slots or curve points
    cal_s: list = field(default_factory=list)     # calibration seconds: one, then one after each task

    @property
    def wall_s(self) -> float:
        """Wall time of the pass's tasks, calibration excluded."""
        return sum(self.task_s.values())

    def scaled_task_s(self) -> dict:
        """Each task's seconds at the reference speed.

        A task is scaled by the mean of the two calibration samples taken
        right before and right after it: the host's speed flips within
        seconds, so a sample taken next to a task tracks it better than the
        run's mean (quartile spread of 4-pass closed-form means 0.046 against
        0.053 in one process, 0.034 against 0.059 over 6 passes).
        """
        return {name: t * 2.0 * CAL_REF_S / (self.cal_s[i] + self.cal_s[i + 1])
                for i, (name, t) in enumerate(self.task_s.items())}

    @property
    def scaled_wall_s(self) -> float:
        return sum(self.scaled_task_s().values())


def mixed_structure():
    """Cellular singletons plus the fixed D2D group, as the simulator builds it."""
    d2d = grouping.fixed_grouping(GROUP_SIZES, K2, nu=0.5, id_offset=K1)
    return grouping.with_cellular_singletons(d2d, K1)


def build_inputs(workload: str, seed: int, out_dir: str) -> Inputs:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    inp = Inputs(workload, seed, out_dir)
    if workload in SIM_SIZES:
        realizations, slots, pfs_slots = SIM_SIZES[workload]
        shapes = 1.0 if workload == "rayleigh-policies" else NAKAGAMI_SHAPES
        for p in POLICIES:
            inp.configs[p] = model.SystemConfig(
                K1=K1, K2=K2, group_sizes=GROUP_SIZES, fading_shape_m=shapes, policy=p,
                spatial_realizations=realizations,
                slots_per_realization=pfs_slots if p == "pfs" else slots, rng_seed=seed)
        inp.structure = mixed_structure()
        inp.weights = {"gfs": weights.solve_group_weights(inp.structure),
                       "ecs": weights.ecs_weights(inp.structure)}
        if workload == "nakagami-policies":
            inp.table5_structure = grouping.fixed_grouping(
                cli.TABLE5_SIZES, len(cli.TABLE5_MEANS), nu=1.0)
            inp.table5_weights = weights.solve_group_weights(inp.table5_structure)
    else:
        table2 = cli.PRESETS["table2-orthogonal"]
        for _, scale in UNCOND_CURVES[workload]:
            inp.configs[f"table2-{scale}"] = model.SystemConfig(**{**table2[scale], "rng_seed": seed})
        for sizes in WEIGHT_SIZE_VECTORS[workload]:
            inp.weight_structures.append(grouping.fixed_grouping(sizes, nu=1.0))
        if workload == "closed-form":
            for k2 in COLORING_K2:
                inp.configs[f"coloring-K2-{k2}"] = model.SystemConfig(K1=K1, K2=k2, rng_seed=seed)
            for sizes in MIXED_SIZE_VECTORS:
                d2d = grouping.fixed_grouping(sizes, nu=0.5, id_offset=K1)
                inp.weight_structures.append(grouping.with_cellular_singletons(d2d, K1))
    return inp


# ---------------------------------------------------------------------------
# passes

def calibrate() -> float:
    """Seconds taken by a fixed reference kernel that does not use d2dsched.

    The host's speed drifts by tens of percent over minutes.  The kernel
    mixes an interpreter loop over small numpy operations (like the scalar
    analytics) with whole-array draws and reductions (like the simulator), so
    its time follows the host's speed; perfbench/BASELINE.md gives how well.
    """
    t0 = time.perf_counter()
    a = np.arange(16.0)
    total = 0.0
    for i in range(1500):
        total += float((a * 1.5 + i).sum())
    g = np.random.default_rng(0).gamma(2.0, 0.5, size=(20_000, 15))
    np.argmax(np.log1p(g), axis=1)
    return time.perf_counter() - t0


def _timed(res: PassResult, name: str, fn):
    """Run one task, record its wall time, then take one calibration sample."""
    t0 = time.perf_counter()
    out = fn()
    res.task_s[name] = time.perf_counter() - t0
    res.cal_s.append(calibrate())
    return out


def _policy_pass(inp: Inputs, res: PassResult) -> None:
    for p in POLICIES:
        cfg = inp.configs[p]
        res.outputs[p] = _timed(res, p, lambda: simcore.run_experiment(cfg, n_workers=1))
        res.work[p] = cfg.spatial_realizations * cfg.slots_per_realization
    if inp.workload == "nakagami-policies":
        out = os.path.join(inp.out_dir, "table5")
        argv = ["run", "--preset", "table5-gfs", "--scale", "desk", "--out", out,
                "--seed", str(inp.seed), "--set", f"slots_per_realization={TABLE5_SLOTS}"]
        code = _timed(res, "table5", lambda: cli.main(argv))
        if code != 0:
            raise RuntimeError(f"table5-gfs preset exited with code {code}")
        res.outputs["table5"] = out
        res.work["table5"] = TABLE5_SLOTS


def _conditional_curves(cfg, seed: int) -> dict:
    """Conditional curves over bases taken from one layout sampled from the seed."""
    rng = np.random.default_rng(seed)
    spatial = model.sample_spatial(cfg, rng)
    mean_c = channel.mean_snr(model.cellular_downlink(cfg, spatial.cellular_distances[0]), cfg)
    mean_d = channel.mean_snr(model.d2d_direct(cfg, spatial.pair_direct_distances[0]), cfg)
    K = cfg.K1 + 2 * cfg.K2
    mu_d2d = float(weights.solve_group_weights(mixed_structure()).mu[-1])
    curves = {}
    for mc, md in COND_SHAPES:
        base_c = channel.GammaSnrCdf(mc, mean_c)
        base_d = channel.GammaSnrCdf(md, mean_d)
        tag = f"m{mc:g}-{md:g}"
        curves[f"bcs-{tag}"] = (analytics.bcs_selected_cdf(base_c, K), base_c)
        cell, d2d = analytics.cfs_selected_cdfs(base_c, base_d, cfg.K1, cfg.K2)
        curves[f"cfs-cell-{tag}"], curves[f"cfs-d2d-{tag}"] = (cell, base_c), (d2d, base_d)
        cell, d2d = analytics.dfs_selected_cdfs(base_c, base_d, K)
        curves[f"dfs-cell-{tag}"], curves[f"dfs-d2d-{tag}"] = (cell, base_c), (d2d, base_d)
        curves[f"gfs-{tag}"] = (analytics.gfs_selected_cdf(base_d, GROUP_SIZES[0], mu_d2d), base_d)
    return curves


def _colorings(inp: Inputs) -> list:
    out = []
    for k2 in COLORING_K2:
        cfg = inp.configs[f"coloring-K2-{k2}"]
        rng = np.random.default_rng(np.random.SeedSequence(entropy=inp.seed, spawn_key=(k2,)))
        for _ in range(COLORING_LAYOUTS):
            graph = grouping.build_conflict_graph(model.sample_spatial(cfg, rng),
                                                  cfg.interference_radius_m)
            out.append((graph, grouping.greedy_coloring(graph)))
    return out


def _closed_form_pass(inp: Inputs, res: PassResult) -> None:
    """Unconditional curves and weights; closed-form adds conditional curves and coloring."""
    for name, scale in UNCOND_CURVES[inp.workload]:
        cfg = inp.configs[f"table2-{scale}"]
        K = cfg.K1 + 2 * cfg.K2
        cell, d2d = _timed(res, name,
                           lambda: analytics.dfs_unconditional_cdfs(cfg, K, n_grid=UNCOND_GRID))
        res.outputs[name] = (cfg, K, cell, d2d)
        res.work[name] = cell.grid.size + d2d.grid.size
    if inp.workload == "closed-form":
        curves = _timed(res, "conditional",
                        lambda: _conditional_curves(inp.configs["table2-desk"], inp.seed))
        res.outputs["conditional"] = curves
        res.work["conditional"] = sum(c.grid.size for c, _ in curves.values())
    res.outputs["weights"] = _timed(res, "weights", lambda: [
        weights.solve_group_weights(s) for s in inp.weight_structures])
    if inp.workload == "closed-form":
        res.outputs["coloring"] = _timed(res, "coloring", lambda: _colorings(inp))


def run_pass(inp: Inputs) -> PassResult:
    res = PassResult(cal_s=[calibrate()])
    if inp.workload in SIM_SIZES:
        _policy_pass(inp, res)
    else:
        _closed_form_pass(inp, res)
    return res


# ---------------------------------------------------------------------------
# rates: the workload-specific end-to-end figures, from means over passes

def speed_factor(passes: list[PassResult]) -> float:
    """CAL_REF_S over the mean calibration time: scales the traced runs' layer
    times, which do not map onto tasks, to the reference speed.

    The mean, not the median: the host flips between a fast and a slow state
    within seconds, so the kernel's times are bimodal, and their median jumps
    from one mode to the other between runs while the tasks see a mix of both.
    """
    return CAL_REF_S / float(np.mean([c for p in passes for c in p.cal_s]))


def rates(inp: Inputs, passes: list[PassResult]) -> dict:
    """kslot/s per policy and overall, table5 kslot/s and curve points/s, at
    the reference speed.  Rates a workload does not exercise are 0.
    """
    scaled = [p.scaled_task_s() for p in passes]

    def mean_s(tasks):
        return float(np.mean([sum(s[t] for t in tasks) for s in scaled]))

    work = passes[0].work
    out = {"kslot_per_s": 0.0, "kslot_per_s.table5": 0.0, "curve_points_per_s": 0.0}
    out.update({f"kslot_per_s.{p}": 0.0 for p in POLICIES})
    if inp.workload in SIM_SIZES:
        for p in POLICIES:
            out[f"kslot_per_s.{p}"] = work[p] / mean_s([p]) / 1e3
        out["kslot_per_s"] = sum(work[p] for p in POLICIES) / mean_s(POLICIES) / 1e3
        if "table5" in work:
            out["kslot_per_s.table5"] = work["table5"] / mean_s(["table5"]) / 1e3
    else:
        tasks = [t for t in work if t.startswith("uncond-") or t == "conditional"]
        out["curve_points_per_s"] = sum(work[t] for t in tasks) / mean_s(tasks)
    return out


# ---------------------------------------------------------------------------
# output digests: passes on the same inputs must produce identical bytes

def _hash_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def output_digests(inp: Inputs, outputs: dict) -> dict:
    """One digest per output item: per-policy report arrays, report.csv bytes, curves."""
    out = {}
    for name, val in outputs.items():
        if name in POLICIES:
            r = val
            out[name] = _hash_arrays(
                np.array([r.total_slots]), r.user_group, r.access_prob, r.upi, r.selected_rate,
                r.effective_rate,
                np.empty(0) if r.group_access_prob is None else r.group_access_prob,
                *r.selected_snr)
        elif name == "table5":
            with open(os.path.join(val, "report.csv"), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()[:16]
        elif name.startswith("uncond-"):
            _, _, cell, d2d = val
            out[name] = _hash_arrays(cell.grid, cell.values, d2d.grid, d2d.values)
        elif name == "conditional":
            for cname, (curve, _) in val.items():
                out[f"conditional/{cname}"] = _hash_arrays(curve.grid, curve.values)
        elif name == "weights":
            out[name] = _hash_arrays(*[pw.w for pw in val])
        elif name == "coloring":
            out[name] = _hash_arrays(*[np.array(g.members) for _, c in val for g in c.groups])
    return out
