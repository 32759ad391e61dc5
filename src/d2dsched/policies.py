"""Per-slot winner selection for the seven scheduling policies.

Selection functions are vectorized over slots: they take an (n_slots, n)
matrix of CDF-mapped channel values in [0, 1] and return one winner per slot.
Ties break toward the lowest id (argmax picks the first maximum), a
probability-zero event for continuous channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from d2dsched.grouping import GroupStructure
from d2dsched.weights import PolicyWeights
from d2dsched.analytics import cfs_threshold


def _weighted_scores(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    # argmax u^(1/w) == argmax log(u)/w; log(0) -> -inf is harmless
    with np.errstate(divide="ignore"):
        return np.log(u) / w


def bcs_select(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Winner per slot: argmax_k u_k^(1/w_k), giving access probability w_k."""
    u = np.atleast_2d(u)
    w = np.asarray(w, dtype=float)
    if not np.isclose(w.sum(), 1.0, atol=1e-9):
        raise ValueError("selection weights must sum to 1")
    return np.argmax(_weighted_scores(u, w), axis=1)


def dfs_weights(K1: int, K2: int) -> np.ndarray:
    K = K1 + 2 * K2
    return np.concatenate((np.full(K1, 1.0 / K), np.full(K2, 2.0 / K)))


def dfs_select(u: np.ndarray, K1: int, K2: int) -> np.ndarray:
    """CDF competition over K1 cellular users plus K2 double-weight pairs."""
    return bcs_select(u, dfs_weights(K1, K2))


@dataclass
class CfsState:
    """Round-robin cursor over the 2*K2 D2D users for below-threshold slots."""

    cursor: int = 0


def cfs_select(u_cell: np.ndarray, K1: int, K2: int,
               state: CfsState) -> tuple[np.ndarray, np.ndarray]:
    """Threshold policy: best cellular u wins if it clears the threshold,
    otherwise the next D2D user is granted.

    Returns (cell_winner, d2d_user): per slot, cell_winner is the cellular
    index or -1, and d2d_user the granted D2D user index in 0..2K2-1 (or -1).
    With K1 == 0 the policy degenerates to pure round-robin over D2D users.
    """
    u_cell = np.atleast_2d(u_cell)
    n = u_cell.shape[0]
    if K1 == 0:
        grant_cell = np.zeros(n, dtype=bool)
        best = np.full(n, -1)
    else:
        u_th = cfs_threshold(K1, K2)
        best = np.argmax(u_cell, axis=1)
        grant_cell = u_cell[np.arange(n), best] >= u_th
    cell_winner = np.where(grant_cell, best, -1)
    d2d_user = np.full(n, -1)
    idle = np.flatnonzero(~grant_cell)
    if idle.size:
        if K2 == 0:
            raise ValueError("below-threshold slot with no D2D users to serve")
        d2d_user[idle] = (state.cursor + np.arange(idle.size)) % (2 * K2)
        state.cursor = (state.cursor + idle.size) % (2 * K2)
    return cell_winner, d2d_user


def mws_select(u: np.ndarray, structure: GroupStructure, weights: PolicyWeights) -> np.ndarray:
    """Group selection: max representative per group, then argmax Y_i^(1/w_i).

    gfs passes the max-min solver's weights, ecs the equal-access-time ones.
    """
    u = np.atleast_2d(u)
    reps = np.column_stack([u[:, g.members].max(axis=1) for g in structure.groups])
    return np.argmax(_weighted_scores(reps, np.asarray(weights.w)), axis=1)


def grr_select(n_slots: int, n_groups: int, offset: int = 0) -> np.ndarray:
    """Groups granted cyclically: winner = slot index mod G."""
    return (offset + np.arange(n_slots)) % n_groups


@dataclass
class PfState:
    """Per-contender exponential rate averages for the proportional-fair policy.

    Averages initialize to the first observed metric, so the first slot is
    decided by the raw metric.
    """

    t_c: float
    xbar: np.ndarray | None = field(default=None)


def pfs_select(X: np.ndarray, structure: GroupStructure, state: PfState) -> np.ndarray:
    """Sequential PF-over-groups selection; updates `state` in place.

    The winning group's members all fold their current metric into their
    averages; everyone else decays by (1 - 1/t_c).  The loop runs on Python
    floats, one slot at a time.
    """
    X = np.atleast_2d(X)
    a = 1.0 / state.t_c
    decay = 1.0 - a
    members = [tuple(g.members) for g in structure.groups]
    winners = []
    xbar = None if state.xbar is None else state.xbar.tolist()
    for x in X.tolist():
        if xbar is None:
            ratio = x                      # first slot: raw metric
        else:
            ratio = [xj / bj for xj, bj in zip(x, xbar)]
        best, gi = -math.inf, 0
        for g, mem in enumerate(members):
            rep = max(map(ratio.__getitem__, mem))
            if rep > best:
                best, gi = rep, g
        winners.append(gi)
        if xbar is None:
            xbar = list(x)
        else:
            xbar = [bj * decay for bj in xbar]
            for j in members[gi]:
                xbar[j] += a * x[j]
    state.xbar = None if xbar is None else np.array(xbar)
    return np.array(winners, dtype=int)
