"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload closed-form --seeds 1-10

Runs the benchmark (``--trace 0``) once per seed, one run at a time, and
prints for each end-to-end metric its median and its quartile spread: the
distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  The
benchmark is steady when every spread stays below a third of the metric's
bound in BENCHMARK.json.  Raw results go to
``perfbench/out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    lo, hi = (int(t) for t in text.split("-"))
    return list(range(lo, hi + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="range a-b")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, sep="\n", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["info"] = lines[:-1]
        runs.append(result)
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"spread-{args.workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)
    if len(runs) < 2:
        return 0
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        verdict = "steady" if spread < bound / 3 else "NOT steady"
        print(f"{name}: median {med:.6g}, quartile spread {spread:.4f}, bound {bound}: {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
