"""Golden reports: every policy at fixed seeds, pinned to `golden.json`.

Grants, access, upi, group access and group ids must match the file exactly;
selected and effective rates and the selected-SNR quantiles must match it to
RTOL relative, so that an inverse that moves granted SNRs by rounding stays
checkable.  A change that alters a random stream on purpose rewrites the file
and says why:

    PYTHONPATH=src python tests/golden.py --write
"""

import argparse
import json
import os

import numpy as np

from d2dsched import simcore
from d2dsched.cli import TABLE5_SHAPES
from d2dsched.model import SystemConfig

RTOL = 1e-12
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
WRITER = "PYTHONPATH=src python tests/golden.py --write"
POLICIES = ("bcs", "dfs", "cfs", "gfs", "ecs", "grr", "pfs")
SHAPES = {"m1": 1.0, "table5": TABLE5_SHAPES + (2,), "m2.5": 2.5}
GROUPS = {"fixed": (5,), "greedy": None}
QUANTILES = (0.01, 0.1, 0.5, 0.9, 0.99)
EXACT = ("grants", "access_prob", "upi", "group_access_prob", "user_group")
CLOSE = ("selected_rate", "effective_rate", "snr_quantiles")


def cases() -> dict[str, SystemConfig]:
    """Every policy at each shape set, with fixed and with greedy groups: the
    sec4c desk geometry, two realizations of a few thousand slots."""
    return {f"{policy}-{shape}-{group}": SystemConfig(
                K1=10, K2=5, policy=policy, fading_shape_m=shapes, group_sizes=sizes,
                slots_per_realization=300 if policy == "pfs" else 2000,
                spatial_realizations=2, rng_seed=13, interference_radius_m=600.0)
            for shape, shapes in SHAPES.items()
            for group, sizes in GROUPS.items()
            for policy in POLICIES}


def summary(report: simcore.ExperimentReport) -> dict:
    grants = report.access_prob * report.total_slots
    return {
        "grants": np.rint(grants).astype(int).tolist(),
        "access_prob": report.access_prob.tolist(),
        "upi": report.upi.tolist(),
        "group_access_prob": (None if report.group_access_prob is None
                              else report.group_access_prob.tolist()),
        "user_group": report.user_group.tolist(),
        "selected_rate": report.selected_rate.tolist(),
        "effective_rate": report.effective_rate.tolist(),
        "snr_quantiles": [np.quantile(s, QUANTILES).tolist() if s.size else []
                          for s in report.selected_snr],
    }


def mismatches(got: dict, want: dict) -> list[str]:
    """The fields of `got` that differ from `want`: EXACT ones in any bit, CLOSE
    ones by more than RTOL relative."""
    bad = [name for name in EXACT if got[name] != want[name]]
    for name in CLOSE:
        g, w = got[name], want[name]
        if name == "snr_quantiles":
            if [len(q) for q in g] != [len(q) for q in w]:
                bad.append(name)
                continue
            g, w = [v for q in g for v in q], [v for q in w for v in q]
        g, w = np.array(g, dtype=float), np.array(w, dtype=float)
        if g.shape != w.shape or not np.all(np.abs(g - w) <= RTOL * np.abs(w)):
            bad.append(name)
    return bad


def load() -> dict:
    with open(PATH) as f:
        return json.load(f)


def changes(old: dict, new: dict) -> list[str]:
    """One line per case whose `new` report differs from its `old` one: the
    mismatched fields, or that the case is added or dropped."""
    lines = []
    for name in list(new) + [name for name in old if name not in new]:
        if name not in old:
            lines.append(f"{name}: added")
        elif name not in new:
            lines.append(f"{name}: dropped")
        elif bad := mismatches(new[name], old[name]):
            lines.append(f"{name}: {', '.join(bad)}")
    return lines


def write() -> None:
    """Rewrite the file from this tree, after printing the cases that change."""
    reports = {name: summary(simcore.run_experiment(config, n_workers=1))
               for name, config in cases().items()}
    lines = changes(load()["reports"] if os.path.exists(PATH) else {}, reports)
    print("\n".join(lines + [f"{len(lines)} of {len(reports)} cases change"]))
    with open(PATH, "w") as f:
        json.dump({"numpy": np.__version__, "writer": WRITER, "rtol": RTOL,
                   "quantiles": QUANTILES, "reports": reports}, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", required=True,
                        help=f"rewrite {os.path.basename(PATH)} from this tree")
    parser.parse_args()
    write()
