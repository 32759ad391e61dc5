"""d2dsched benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload in this process and thread, from the d2dsched sources in
``src/`` of the checkout this file sits in.  Passes of the workload repeat
until ``--seconds`` have elapsed (the pass in progress finishes); a
``--trace 0`` run makes at least three passes.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; lines before it start with ``#`` and give the
per-task figures and any failed check.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: ``setup_s``
(median of fresh-process set-ups), ``wall_s`` (mean pass wall time) and
``peak_rss_mb`` (``ru_maxrss`` after the passes, before scipy is imported).
Times are scaled to a reference host speed: a fixed calibration kernel runs
at the start of each pass and after each task, and each task's time (in
``wall_s`` and the rates) is multiplied by ``workloads.CAL_REF_S`` over the
mean of the two samples around it.  Each set-up probe
times the kernel itself right after its set-up and is scaled by that
sample.  The raw times and the factor are printed on the ``#`` lines.
The run and its probes use one BLAS thread, so numpy's import starts no
thread pool.

``--trace 1`` spends half the time on untraced passes and half on passes
under the span recorder, reports the per-layer metrics, checks that traced
and untraced outputs are byte-identical, and writes the spans to
``perfbench/out/<workload>-seed<n>/spans.jsonl``.

Checks against closed forms and scipy run after the timed passes, on the
first pass's outputs; passes on the same inputs must also produce identical
output digests.  Every check is an attempted operation; a miss is a failed one.
The ``known-defects`` workload, which BENCHMARK.json does not list, runs the
outputs the program is known to get wrong and fails until they are fixed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 21
MIN_PASSES = 3          # untraced passes per --trace 0 run that wall_s averages

# per-layer metrics from the traced passes (see BENCHMARK.json for units)
SELF_S = (
    "simcore.simulate_policy", "simcore.run_experiment", "simcore.run_standalone", "cli.main",
    "simcore.contenders_from_spatial", "simcore.build_structure",
    "policies.bcs_select", "policies.dfs_select", "policies.cfs_select", "policies.mws_select",
    "policies.grr_select", "policies.pfs_select", "analytics.regularized_gamma_p",
    "model.sample_spatial", "channel.GammaSnrCdf.evaluate", "grouping.build_conflict_graph",
    "grouping.greedy_coloring", "weights.solve_group_weights",
)
TOTAL_S = ("analytics.make_log_grid", "analytics.dfs_unconditional_cdfs")
CONDITIONAL = ("analytics.bcs_selected_cdf", "analytics.cfs_selected_cdfs",
               "analytics.dfs_selected_cdfs", "analytics.gfs_selected_cdf")
CALLS = ("analytics.regularized_gamma_p", "model.sample_spatial", "channel.mean_snr",
         "grouping.greedy_coloring", "weights.solve_group_weights")
COUNTS = tuple(f"policies.{p}_select.slots" for p in ("bcs", "dfs", "cfs", "mws", "grr", "pfs")) + (
    "analytics.regularized_gamma_p.elements", "simcore.selected_snr_bytes")


# one process, one thread: no BLAS or OpenMP pool, set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _load_program():
    """Import d2dsched from this checkout's src/, or exit with a non-zero code."""
    if not os.path.isfile(os.path.join(SRC, "d2dsched", "__init__.py")):
        sys.exit(f"error: no d2dsched sources under {SRC}")
    sys.path.insert(0, SRC)
    import d2dsched
    if os.path.dirname(os.path.dirname(os.path.abspath(d2dsched.__file__))) != SRC:
        sys.exit(f"error: imported d2dsched from {d2dsched.__file__}, not {SRC}")


def _setup_seconds(workload: str, seed: int, out_dir: str, cal_ref_s: float) -> list[tuple]:
    """(raw, scaled) seconds of each fresh-process set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                               workload, str(seed), out_dir],
                              capture_output=True, text=True, timeout=120, check=True)
        setup_s, cal_s = (float(t) for t in proc.stdout.split())
        times.append((setup_s, setup_s * cal_ref_s / cal_s))
    return times


def _measure(workloads, inp, seconds: float, min_passes: int, recorder=None):
    """Run passes until `seconds` have elapsed and at least `min_passes` ran.

    Returns (passes, digests, layer snapshots).  A pass's outputs are dropped
    once digested, so memory holds the first pass's results plus one pass.
    """
    passes, digests, layers = [], [], []
    t_end = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < t_end:
        if recorder is not None:
            recorder.reset_counters()
            recorder.keep_results = not layers
        res = workloads.run_pass(inp)
        digests.append(workloads.output_digests(inp, res.outputs))
        if recorder is not None:
            layers.append({"stats": {k: list(v) for k, v in recorder.stats.items()},
                           "counts": dict(recorder.counts),
                           "task_result_bytes": recorder.task_result_bytes()})
        if passes:
            res.outputs = None
        passes.append(res)
    return passes, digests, layers


def _check_repeats(ck, what: str, digests: list) -> None:
    """One operation per output item: every later pass must digest as pass 1 did.

    The number of passes depends on host speed, so it must not change the
    attempted count.
    """
    for item, value in digests[0].items():
        differ = [i for i, d in enumerate(digests[1:], start=2) if d.get(item) != value]
        ck.add(f"{what}: {item} repeats pass 1 in all {len(digests)} passes", not differ,
               f"passes {differ} differ")


def _layer_metrics(layers: list, speed: float, overhead: float) -> tuple[dict, bool]:
    def med(values):
        return float(statistics.median(values)) * speed

    def stat(snap, name, idx):
        return snap["stats"].get(name, [0, 0.0, 0.0])[idx]

    out = {}
    for name in SELF_S:
        out[f"{name}.self_s"] = med([stat(s, name, 2) for s in layers])
    for name in TOTAL_S:
        out[f"{name}.total_s"] = med([stat(s, name, 1) for s in layers])
    out["analytics.conditional_curves.total_s"] = med(
        [sum(stat(s, n, 1) for n in CONDITIONAL) for s in layers])
    counts = []
    for snap in layers:
        c = {f"{n}.calls": int(stat(snap, n, 0)) for n in CALLS}
        c.update({n: int(snap["counts"].get(n, 0)) for n in COUNTS})
        counts.append(c)
    out.update(counts[0])
    out["simcore.task_result_bytes"] = layers[0]["task_result_bytes"]
    out["trace.spans"] = int(sum(stat(layers[0], n, 0) for n in layers[0]["stats"]))
    out["trace.overhead_frac"] = overhead
    return out, all(c == counts[0] for c in counts)


def _result_metrics(spec: list, values: dict) -> dict:
    names = {m["name"] for m in spec}
    if names != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(names ^ set(values))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    out_dir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}")
    os.makedirs(out_dir, exist_ok=True)

    setup_times = []
    if args.trace == 0:
        setup_times = _setup_seconds(args.workload, args.seed, out_dir, workloads.CAL_REF_S)
    inp = workloads.build_inputs(args.workload, args.seed, out_dir)

    recorder = None
    if args.trace == 0:
        passes, digests, _ = _measure(workloads, inp, args.seconds, MIN_PASSES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import spans
        t0 = time.perf_counter()
        passes, digests, _ = _measure(workloads, inp, args.seconds / 2.0, 1)
        recorder = spans.SpanRecorder()
        recorder.install()
        try:
            traced, traced_digests, layers = _measure(
                workloads, inp, args.seconds - (time.perf_counter() - t0), 1, recorder)
        finally:
            recorder.uninstall()

    import oracles   # imports scipy: after the memory reading
    ck = oracles.check_pass(inp, passes[0].outputs)
    _check_repeats(ck, "untraced", digests)
    speed = workloads.speed_factor(passes)
    # the mean, not the median: a run has three to seven passes, and their
    # median discards most of them (quartile spread over ten seeds 0.088 against 0.118)
    wall_s = statistics.fmean(p.scaled_wall_s for p in passes)
    rates = workloads.rates(inp, passes)

    if args.trace == 0:
        metrics = _result_metrics(bench["end_to_end"], {
            "setup_s": statistics.median(s for _, s in setup_times), "wall_s": wall_s, "peak_rss_mb": peak_rss_mb})
    else:
        for item, value in digests[0].items():
            ck.add(f"self-test: traced {item} byte-identical to untraced",
                   traced_digests[0].get(item) == value, f"{traced_digests[0].get(item)} vs {value}")
        _check_repeats(ck, "traced", traced_digests)
        traced_speed = workloads.speed_factor(traced)
        traced_wall = statistics.fmean(p.scaled_wall_s for p in traced)
        layer, counts_repeat = _layer_metrics(layers, traced_speed, traced_wall / wall_s - 1.0)
        ck.add("traced counts repeat in every traced pass", counts_repeat)
        metrics = _result_metrics(bench["per_layer"], {**layer, **rates})
        recorder.write_spans(os.path.join(out_dir, "spans.jsonl"))

    tasks = passes[0].task_s
    if setup_times:
        print(f"# set-up: raw median {statistics.median(r for r, _ in setup_times):.4f} s "
              f"of {len(setup_times)} probes")
    print(f"# workload {args.workload} seed {args.seed}: {len(passes)} untraced passes"
          + (f", {len(layers)} traced" if recorder else ""))
    print("# raw pass wall_s: " + " ".join(f"{p.wall_s:.4f}" for p in passes)
          + f"; calibration mean {workloads.CAL_REF_S / speed * 1e3:.3f} ms, "
          f"speed factor {speed:.4f}")
    for task in tasks:
        print(f"# task {task}: raw mean {statistics.fmean(p.task_s[task] for p in passes):.4f} s, "
              f"work {passes[0].work.get(task, 0)}")
    for name, value in rates.items():
        if value:
            print(f"# {name} = {value:.6g}")
    print(f"# config digests: {json.dumps(inp.digests(), sort_keys=True)}")
    failed = ck.failed
    for label, _, detail in failed[:40]:
        print(f"# FAILED {label}: {detail}")
    print(json.dumps({"correct": not failed, "attempted": ck.attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
