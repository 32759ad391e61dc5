"""Max-min fair group selection weights.

The max-min program has all constraints tight at the optimum, so with the
normalization sum(m_k w_k) = 1 each weight is w_i = c / (nu_i (m_i+1) - c)
where the common level c solves sum_i m_i c / (nu_i (m_i+1) - c) = 1.  The
left side is strictly increasing in c on (0, min_i nu_i (m_i+1)), so a single
bisection root exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from d2dsched.grouping import GroupStructure


@dataclass(frozen=True)
class PolicyWeights:
    """Per-group selection weights, normalized so sum(m_k w_k) = 1."""

    w: np.ndarray
    common_upi: float         # achieved max-min level c (nan for non-solver weights)

    def __post_init__(self):
        if not np.all((self.w > 0) & (self.w < np.inf)):
            raise ValueError(f"weights must be positive and finite, got {self.w!r}")

    @property
    def mu(self) -> np.ndarray:
        """Selection factors mu_i = sum(m_k w_k) / w_i = 1 / w_i."""
        return 1.0 / self.w


def normalized_weights(structure: GroupStructure, w) -> PolicyWeights:
    """Wrap arbitrary positive weights, rescaled to the canonical normalization."""
    w = np.asarray(w, dtype=float)
    if w.shape != (structure.n_groups,):
        raise ValueError("one weight per group required")
    m = structure.sizes.astype(float)
    w = w / float(m @ w)
    return PolicyWeights(w, float("nan"))


def upi_closed_form(group: int, structure: GroupStructure, weights: PolicyWeights) -> float:
    """Per-user index for a member of `group`: nu_i (m_i+1) / (mu_i+1)."""
    g = structure.groups[group]
    return g.nu * (g.size + 1.0) / (float(weights.mu[group]) + 1.0)


def group_access_prob(structure: GroupStructure, weights: PolicyWeights) -> np.ndarray:
    """P_i = m_i w_i / sum_k m_k w_k; sums to 1."""
    m = structure.sizes.astype(float)
    p = m * weights.w
    return p / p.sum()


def solve_group_weights(structure: GroupStructure) -> PolicyWeights:
    """Solve the max-min weight problem by the tight-constraint scalar reduction."""
    if structure.n_groups < 1:
        raise ValueError("structure must contain at least one group")
    m = structure.sizes.astype(float)
    nu = structure.nus
    if not np.all(np.isfinite(nu) & (nu > 0.0)):
        raise ValueError(f"fairness factors nu must be positive and finite, got {nu.tolist()}")
    cap = nu * (m + 1.0)        # c must stay below every nu_i (m_i + 1)

    def residual(c: float) -> float:
        return float(np.sum(m * c / (cap - c))) - 1.0

    lo, hi = 0.0, float(cap.min())
    # residual -> -1 as c -> 0+ and +inf as c -> min cap-; bisect the sign change
    for _ in range(200):
        c = 0.5 * (lo + hi)
        r = residual(c)
        if abs(r) < 1e-13:
            break               # keep the point that met the tolerance
        if r < 0.0:
            lo = c
        else:
            hi = c
    w = c / (cap - c)
    w = w / float(m @ w)        # exact renormalization against bisection residual
    return PolicyWeights(w, float(c))


def ecs_weights(structure: GroupStructure) -> PolicyWeights:
    """Equal group access time: w_i proportional to 1/(nu_i m_i).

    For uniform nu this is the classic 1/(m_i G) choice; for mixed systems the
    1/nu_i factor doubles the D2D group share so both pair members get served.
    """
    m = structure.sizes.astype(float)
    w = 1.0 / (structure.nus * m)
    return normalized_weights(structure, w)
