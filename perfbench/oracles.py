"""Correctness checks of one pass's outputs against closed forms and scipy.

Each check is one operation: a policy's access probability for one contender,
user or group, or one curve value at one sampled grid point.  A check that
misses its oracle is a failed operation.  Monte Carlo checks allow Z binomial
standard errors, so a correct program passes them on any seed.  scipy is
imported here only, after the timed passes and the memory reading.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np
from scipy import integrate, optimize, special

from d2dsched import analytics, weights
import workloads

Z = 5.0                     # binomial standard errors allowed on Monte Carlo estimates
CURVE_POINTS = 16           # sampled grid points checked per curve
UNCOND_TOL = 1e-6           # abs error allowed against quadrature
COND_TOL = 1e-9             # abs error allowed against scipy.special.gammainc
WEIGHT_TOL = 1e-9


class Checks:
    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.results.append((label, bool(ok), detail))

    def binomial(self, label: str, p_hat: float, p: float, n: int) -> None:
        se = math.sqrt(p * (1.0 - p) / n)
        self.add(label, abs(p_hat - p) <= Z * se, f"{p_hat:.6g} vs {p:.6g} (se {se:.2g})")

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> list:
        return [r for r in self.results if not r[1]]


# ---------------------------------------------------------------------------
# simulator outputs

def _contender_access(report) -> np.ndarray:
    """Per-contender access: cellular users, then the two users of each pair summed."""
    acc = report.access_prob
    pairs = acc[workloads.K1:].reshape(workloads.K2, 2).sum(axis=1)
    return np.concatenate((acc[:workloads.K1], pairs))


def _check_policy(ck: Checks, inp, policy: str, report) -> None:
    n = report.total_slots
    K1, K2 = workloads.K1, workloads.K2
    C, K = K1 + K2, K1 + 2 * K2
    cont = _contender_access(report)
    structure = inp.structure
    if policy == "bcs":
        for j in range(C):
            ck.binomial(f"bcs contender {j} access 1/C", cont[j], 1.0 / C, n)
    elif policy == "dfs":
        for j in range(C):
            ck.binomial(f"dfs contender {j} access", cont[j], (1.0 if j < K1 else 2.0) / K, n)
    elif policy == "cfs":
        for uid in range(K):
            ck.binomial(f"cfs user {uid} access 1/K", report.access_prob[uid], 1.0 / K, n)
        u_th = analytics.cfs_threshold(K1, K2)
        ref = analytics.upi_reference("cfs", K1=K1, K2=K2)["cellular"]
        var = 4.0 * (1.0 - u_th ** (K1 + 2)) / (K1 + 2) - ref ** 2
        se = math.sqrt(var / n)
        for uid in range(K1):
            upi = report.upi[uid]
            ck.add(f"cfs cellular user {uid} upi", abs(upi - ref) <= Z * se,
                   f"{upi:.6g} vs {ref:.6g} (se {se:.2g})")
    elif policy in ("gfs", "ecs"):
        p = weights.group_access_prob(structure, inp.weights[policy])
        for g in range(structure.n_groups):
            ck.binomial(f"{policy} group {g} access", report.group_access_prob[g], p[g], n)
    elif policy == "grr":
        G = structure.n_groups
        for g in range(G):
            ck.binomial(f"grr group {g} access 1/G", report.group_access_prob[g], 1.0 / G, n)
    elif policy == "pfs":
        group_grants = np.rint(report.group_access_prob * n).astype(np.int64)
        ck.add("pfs one group granted per slot", group_grants.sum() == n,
               f"{group_grants.sum()} grants in {n} slots")
        cont_grants = np.rint(cont * n).astype(np.int64)
        for g, grp in enumerate(structure.groups):
            ok = all(cont_grants[j] == group_grants[g] for j in grp.members)
            ck.add(f"pfs group {g} members granted with their group", ok,
                   f"{[int(cont_grants[j]) for j in grp.members]} vs {group_grants[g]}")


def _check_table5(ck: Checks, inp, out_dir: str) -> None:
    with open(os.path.join(out_dir, "report.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    access = np.array([float(r["access_prob"]) for r in rows])
    p = weights.group_access_prob(inp.table5_structure, inp.table5_weights)
    for g, grp in enumerate(inp.table5_structure.groups):
        for uid in grp.members:
            ck.binomial(f"table5 user {uid} access (group {g})", access[uid], p[g],
                        workloads.TABLE5_SLOTS)


# ---------------------------------------------------------------------------
# closed-form outputs

def _sample_points(curve, rng) -> np.ndarray:
    return np.sort(rng.choice(curve.grid.size, min(CURVE_POINTS, curve.grid.size), replace=False))


def _uncond_oracles(cfg, K: int):
    """E_d[F(s|d)^k] by adaptive quadrature over the distance densities."""
    A_c = cfg.noise_power_mw / (cfg.pathloss_const_cellular * cfg.tx_power_dl_mw)
    A_d = cfg.noise_power_mw / (cfg.pathloss_const_d2d * cfg.tx_power_d2d_mw)
    R, eta_c, eta_d = cfg.cell_radius_m, cfg.pathloss_exp_cellular, cfg.pathloss_exp_d2d
    d_lo, d_hi = cfg.d2d_min_m, cfg.d2d_max_m

    def cell(s):
        f = lambda d: (-math.expm1(-A_c * s * d ** eta_c)) ** K * 2.0 * d / R ** 2
        return integrate.quad(f, 0.0, R, epsabs=1e-12, epsrel=1e-10, limit=200)[0]

    def d2d(s):
        f = lambda d: (-math.expm1(-A_d * s * d ** eta_d)) ** (K / 2.0) / (d_hi - d_lo)
        return integrate.quad(f, d_lo, d_hi, epsabs=1e-12, epsrel=1e-10, limit=200)[0]

    return cell, d2d


def _conditional_oracle(name: str, curve, base):
    m, mean = base.shape_m, base.mean_snr
    F = special.gammainc(m, m * curve.grid / mean)
    prov = curve.provenance
    kind = prov["kind"]
    if kind == "bcs-selected" or kind == "dfs-selected-cellular":
        return F ** prov["K"]
    if kind == "dfs-selected-d2d":
        return F ** (prov["K"] / 2.0)
    if kind == "cfs-selected-cellular":
        K1, K2 = prov["K1"], prov["K2"]
        return np.clip((K1 + 2 * K2) / K1 * F ** K1 - 2.0 * K2 / K1, 0.0, 1.0)
    if kind == "cfs-selected-d2d":
        return F
    if kind == "group-selected":
        mi, mu = prov["m_i"], prov["mu_i"]
        return (mu * (mi - 1)) / (mi * (mu - 1)) * F + (mu - mi) / (mi * (mu - 1)) * F ** mu
    raise ValueError(f"no oracle for curve {name} ({kind})")


def _check_closed_form(ck: Checks, inp, outputs: dict) -> None:
    rng = np.random.default_rng(inp.seed)
    for name in [n for n in outputs if n.startswith("uncond-")]:
        cfg, K, cell, d2d = outputs[name]
        cell_ref, d2d_ref = _uncond_oracles(cfg, K)
        for part, curve, ref in (("cellular", cell, cell_ref), ("d2d", d2d, d2d_ref)):
            for i in _sample_points(curve, rng):
                s, got = curve.grid[i], curve.values[i]
                want = ref(s)
                ck.add(f"{name} {part} at s={s:.4g}", abs(got - want) <= UNCOND_TOL,
                       f"{got:.10g} vs quad {want:.10g}")
    for name, (curve, base) in outputs.get("conditional", {}).items():
        want = _conditional_oracle(name, curve, base)
        for i in _sample_points(curve, rng):
            ck.add(f"{name} at s={curve.grid[i]:.4g}", abs(curve.values[i] - want[i]) <= COND_TOL,
                   f"{curve.values[i]:.12g} vs gammainc {want[i]:.12g}")
    for structure, pw in zip(inp.weight_structures, outputs["weights"]):
        m, cap = structure.sizes.astype(float), structure.nus * (structure.sizes + 1.0)
        c = optimize.brentq(lambda c: np.sum(m * c / (cap - c)) - 1.0, 0.0, cap.min() * (1 - 1e-15),
                            xtol=1e-15, rtol=1e-14)
        w = c / (cap - c)
        w = w / (m @ w)
        ok = abs(pw.common_upi - c) <= WEIGHT_TOL * c and np.allclose(pw.w, w, rtol=WEIGHT_TOL, atol=0)
        ck.add(f"weights {tuple(int(m) for m in structure.sizes)} max-min level", ok,
               f"c={pw.common_upi:.15g} vs brentq {c:.15g}")
    for k, (graph, colored) in enumerate(outputs.get("coloring", ())):
        seen = sorted(v for g in colored.groups for v in g.members)
        proper = all(not graph.adjacency[np.ix_(g.members, g.members)].any() for g in colored.groups)
        ck.add(f"coloring layout {k} proper partition",
               proper and seen == list(range(graph.n_vertices)),
               f"{colored.n_groups} groups over {graph.n_vertices} pairs")


def check_pass(inp, outputs: dict) -> Checks:
    ck = Checks()
    if inp.workload in workloads.SIM_SIZES:
        for policy in workloads.POLICIES:
            _check_policy(ck, inp, policy, outputs[policy])
        if "table5" in outputs:
            _check_table5(ck, inp, outputs["table5"])
    else:
        _check_closed_form(ck, inp, outputs)
    return ck
