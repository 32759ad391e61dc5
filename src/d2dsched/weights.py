"""Max-min fair group selection weights.

The max-min program has all constraints tight at the optimum, so with the
normalization sum(m_k w_k) = 1 each weight is w_i = c / (nu_i (m_i+1) - c)
where the common level c solves sum_i m_i c / (nu_i (m_i+1) - c) = 1.  The
left side rises, convex, from 0 to +inf on (0, min_i nu_i (m_i+1)), so Newton
steps from c = 0 overshoot the single root once and then fall onto it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from d2dsched.grouping import GroupStructure

_MAX_STEPS = 200        # root-search steps before the solver gives up
_RESIDUAL_TOL = 1e-13   # |r| that ends the search


class WeightsNotConverged(ArithmeticError):
    """The max-min level's root search did not converge."""


@dataclass(frozen=True)
class PolicyWeights:
    """Per-group selection weights, normalized so sum(m_k w_k) = 1."""

    w: np.ndarray
    common_upi: float         # achieved max-min level c (nan for non-solver weights)

    def __post_init__(self):
        if not np.all((self.w > 0) & (self.w < np.inf)):
            raise ValueError(f"weights must be positive and finite, got {self.w!r}")

    @functools.cached_property
    def mu(self) -> np.ndarray:
        """Selection factors mu_i = sum(m_k w_k) / w_i = 1 / w_i, computed once."""
        mu = 1.0 / self.w
        mu.flags.writeable = False
        return mu


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
    """Solve the max-min weight problem by the tight-constraint scalar reduction:
    Newton steps on the level's residual r inside the bracket [0, min cap],
    bisecting when a step leaves it, to |r| < 1e-13 or to a bracket of adjacent
    doubles (then its end of smaller |r|); `WeightsNotConverged` after _MAX_STEPS."""
    if structure.n_groups < 1:
        raise ValueError("structure must contain at least one group")
    m = structure.sizes.astype(float)
    nu = structure.nus
    if not np.all(np.isfinite(nu) & (nu > 0.0)):
        raise ValueError(f"fairness factors nu must be positive and finite, got {nu.tolist()}")
    cap = nu * (m + 1.0)        # c must stay below every nu_i (m_i + 1)
    # r(c) = sum m c / (cap - c) - 1, r'(c) = sum m cap / (cap - c)^2; r(0) = -1
    lo, hi, r_lo, r_hi = 0.0, float(cap.min()), -1.0, math.inf
    c, r, dr = 0.0, -1.0, float(np.add.reduce(m / cap))
    for _ in range(_MAX_STEPS):
        step = c - r / dr
        c = step if lo < step < hi else 0.5 * (lo + hi)     # Newton, else bisection
        gap = cap - c
        r = c * float(np.add.reduce(m / gap)) - 1.0
        if abs(r) < _RESIDUAL_TOL:
            break
        if r < 0.0:
            lo, r_lo = c, r
        else:
            hi, r_hi = c, r
        if math.nextafter(lo, hi) == hi:        # adjacent doubles: the end of smaller |r|
            c = lo if -r_lo <= r_hi else hi
            break
        dr = float(np.add.reduce(m * cap / (gap * gap)))
    else:
        raise WeightsNotConverged(f"max-min weights did not converge in {_MAX_STEPS} steps for "
                                  f"group sizes {structure.sizes.tolist()}, nus {nu.tolist()}")
    w = c / (cap - c)
    w = w / float(m @ w)        # exact renormalization against the root's residual
    return PolicyWeights(w, float(c))


def ecs_weights(structure: GroupStructure) -> PolicyWeights:
    """Equal group access time: w_i proportional to 1/(nu_i m_i).

    For uniform nu this is the classic 1/(m_i G) choice; for mixed systems the
    1/nu_i factor doubles the D2D group share so both pair members get served.
    """
    m = structure.sizes.astype(float)
    w = 1.0 / (structure.nus * m)
    return normalized_weights(structure, w)
