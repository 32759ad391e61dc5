"""Per-slot winner selection for the seven scheduling policies.

Selection functions are vectorized over slots: they take an (n_slots, C)
matrix of CDF-mapped channel values in [0, 1] and return one winner per slot.
pfs, whose rate averages make it sequential in slots, instead steps a block
of realizations in lockstep, one numpy step per slot over all of them.
Every score policy selects through one kernel, `_weighted_argmax`: the
contender with the largest log(u)/w wins.  The contenders sharing a weight (a
class of one for a contender alone in its weight) compete through their
largest u, so the kernel takes log only of each weight class's best u.  It
reduces over contenders along contiguous rows when the matrix is the
transposed view of a contender-major (C, n_slots) array, the layout the
simulator draws; any other layout gives the same winners, more slowly.
Weights must be positive and finite.  A group competes through its best
member, so gfs and ecs give each contender its group's weight and map the
winning contender to its group; cfs's cellular stage takes the best cellular
u from the same kernel, and its fallback names a pair from a rotation at the
caller's offset; pfs picks the contender with the largest rate ratio by
argmax.  Ties break toward the lowest contender id (the first maximum, as
argmax picks it), and so between groups toward the group of the lowest
contender id, a probability-zero event for continuous channels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from d2dsched.grouping import GroupStructure
from d2dsched.weights import PolicyWeights
from d2dsched.analytics import cfs_threshold


_BLOCK = 8192                    # slots per block of the selection kernel


@functools.lru_cache(maxsize=256)
def _weight_classes(w_bytes: bytes) -> tuple:
    """The weight classes of a float64 weight vector, given as its bytes: the sets
    of contenders sharing one weight, numbered by first contender.  Returns the
    (W, 1) class weights, each class's contiguous (start, stop) contender runs,
    and the (C, 1) ranks, C at contender 0 down to 1 at contender C - 1.  Plain
    Python, as the first np.unique call in a process grows its resident set by
    about 0.7 MB."""
    w = np.frombuffer(w_bytes).tolist()
    C = len(w)
    runs = {}                                   # weights in order of first contender
    start = 0
    for j in range(1, C + 1):
        if j == C or w[j] != w[start]:
            runs.setdefault(w[start], []).append((start, j))
            start = j
    weights = np.array(list(runs), dtype=float)[:, None]
    rank = np.arange(C, 0, -1, dtype=np.min_scalar_type(C))[:, None]
    weights.flags.writeable = rank.flags.writeable = False
    return weights, tuple(map(tuple, runs.values())), rank


def _weighted_argmax(u: np.ndarray, w: np.ndarray, top: np.ndarray | None = None) -> np.ndarray:
    """Per row of the (n, C) scores u, the first column maximizing log(u)/w, i.e.
    u^(1/w), for positive weights w; `top`, if given, receives each row's best
    score (its largest u when every weight is equal).

    log(u)/w rises with u among the contenders of one weight, a weight class,
    so each class competes through its largest u.  Per block of slots the
    kernel reduces each class's contiguous contender runs, rows of the (C, n)
    array u.T (fast when u is the transposed view of a contender-major array),
    to the class maxima, and takes log and the division over those W rows
    only, none when W = 1; log(0) = -inf is harmless.  The winner is the first
    contender that hits, by the largest of hit times a rank falling from C at
    contender 0 to 1 at C - 1: a contender hits where its u equals its class
    maximum divided by the class's not-losing mask, which is inf or NaN where
    the class loses.  Ties thus go to the lowest contender id, as argmax breaks
    them, and a row of -inf scores to contender 0; inside a class the larger u
    wins even where rounding gives two u the same log(u)/w.
    """
    n, C = u.shape
    u_cm = u.T
    weights, classes, rank = _weight_classes(w.tobytes())
    W = weights.shape[0]
    out = np.empty(n, dtype=np.intp)
    rows = min(n, _BLOCK)
    best = np.empty(rows) if top is None else None
    if W > 1:
        scores = np.empty((W, rows))
        maxima = np.empty((W, rows))
        alive = np.empty((W, rows), dtype=bool)
    hit = np.empty((C, rows), dtype=bool)
    ranked = np.empty((C, rows), dtype=rank.dtype)
    first = np.empty(rows, dtype=rank.dtype)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, n, _BLOCK):
            stop = min(start + _BLOCK, n)
            k = stop - start
            ub = u_cm[:, start:stop]
            b = best[:k] if top is None else top[start:stop]
            h = hit[:, :k]
            if W == 1:
                np.max(ub, axis=0, out=b)
                np.equal(ub, b, out=h)
            else:
                s, m = scores[:, :k], maxima[:, :k]
                for row, runs in zip(m, classes):
                    (j0, j1), *rest = runs
                    np.max(ub[j0:j1], axis=0, out=row)
                    for j0, j1 in rest:
                        np.maximum(row, np.max(ub[j0:j1], axis=0), out=row)
                np.log(m, out=s)
                np.divide(s, weights, out=s)
                np.max(s, axis=0, out=b)
                np.divide(m, np.equal(s, b, out=alive[:, :k]), out=m)
                for row, runs in zip(m, classes):
                    for j0, j1 in runs:
                        np.equal(ub[j0:j1], row, out=h[j0:j1])
            np.multiply(h, rank, out=ranked[:, :k])
            np.max(ranked[:, :k], axis=0, out=first[:k])
            np.subtract(C, first[:k], out=out[start:stop])
    return out


def group_index(structure: GroupStructure, n_columns: int) -> np.ndarray:
    """Group of each of the n_columns contenders; every contender must be in one."""
    group_of = structure.group_of()
    try:
        group = [group_of[j] for j in range(n_columns)]
    except KeyError as missing:
        raise ValueError(f"contender {missing.args[0]} belongs to no group") from None
    if structure.n_contenders != n_columns:
        raise ValueError(f"group structure covers {structure.n_contenders} contenders, "
                         f"the scores have {n_columns}")
    return np.array(group, dtype=np.intp)


def _contender_weights(u: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u as a 2-D score matrix and w as one positive, finite selection weight per
    column, summing to 1."""
    u = np.atleast_2d(u)
    w = np.asarray(w, dtype=float)
    if w.shape != (u.shape[1],):
        raise ValueError(f"{w.size} weights for {u.shape[1]} contenders")
    total = float(w.sum())
    if not (w.min(initial=np.inf) > 0 and total < np.inf):     # a NaN fails both
        raise ValueError(f"selection weights must be positive and finite, got {w!r}")
    if not abs(total - 1.0) <= 1e-9 + 1e-5:        # np.isclose(total, 1.0, atol=1e-9)
        raise ValueError("selection weights must sum to 1")
    return u, w


def bcs_select(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Winner per slot: argmax_k u_k^(1/w_k), giving access probability w_k."""
    return _weighted_argmax(*_contender_weights(u, w))


def dfs_weights(K1: int, K2: int) -> np.ndarray:
    K = K1 + 2 * K2
    return np.concatenate((np.full(K1, 1.0 / K), np.full(K2, 2.0 / K)))


def dfs_select(u: np.ndarray, K1: int, K2: int) -> np.ndarray:
    """CDF competition over K1 cellular users plus K2 double-weight pairs."""
    return _weighted_argmax(*_contender_weights(u, dfs_weights(K1, K2)))


def cfs_select(u_cell: np.ndarray, K1: int, K2: int, offset: int = 0) -> np.ndarray:
    """Threshold policy: per slot, the best cellular user wins if its u clears
    the threshold, otherwise the pair of the next D2D user in a round-robin over
    the 2*K2 users: the i-th below-threshold slot of the call names pair
    K1 + ((offset + i) mod 2*K2) // 2, so a run split into calls passes each
    call its count of below-threshold slots before it.  The rotation names a
    pair for its two members back to back, and the accounts alternate those
    members, so the users are served in the rotation's order.  With K1 == 0
    the policy degenerates to pure round-robin over D2D users.
    """
    u_cell = np.atleast_2d(u_cell)
    n = u_cell.shape[0]
    if K1 == 0:
        win = np.empty(n, dtype=np.intp)
        idle = np.arange(n)
    else:
        top = np.empty(n)
        win = _weighted_argmax(u_cell, np.full(K1, 1.0 / K1), top)
        idle = np.flatnonzero(top < cfs_threshold(K1, K2))
    if idle.size:
        if K2 == 0:
            raise ValueError("below-threshold slot with no D2D users to serve")
        win[idle] = K1 + (offset + np.arange(idle.size)) % (2 * K2) // 2
    return win


def mws_select(u: np.ndarray, structure: GroupStructure, weights: PolicyWeights) -> np.ndarray:
    """Group selection: argmax_i Y_i^(1/w_i) with Y_i the best u in group i.

    log is monotone, so the best member's score is its group's score: each
    contender competes with its group's weight and the winner's group wins.
    gfs passes the max-min solver's weights, ecs the equal-access-time ones.
    """
    u = np.atleast_2d(u)
    group = group_index(structure, u.shape[1])
    w = np.asarray(weights.w, dtype=float)
    if w.shape != (structure.n_groups,):
        raise ValueError(f"{w.size} weights for {structure.n_groups} groups")
    return group[_weighted_argmax(u, w[group])]


def grr_select(n_slots: int, n_groups: int, offset: int = 0) -> np.ndarray:
    """Groups granted cyclically: winner = slot index mod G."""
    return (offset + np.arange(n_slots)) % n_groups


@dataclass
class PfState:
    """Exponential rate averages of the proportional-fair policy, one row per
    realization of a block and one column per contender.

    Averages initialize to the first observed metric, so the first slot is
    decided by the raw metric.
    """

    t_c: float
    xbar: np.ndarray | None = field(default=None)


def pfs_select(X: np.ndarray, group: np.ndarray, state: PfState) -> np.ndarray:
    """PF-over-groups selection for a block of realizations in lockstep; updates
    `state` in place.

    X holds the rates slot-major, (n_slots, R, C), and `group` the group id of
    each contender of each realization, (R, C), as `group_index` builds it.
    In each slot and each row the group of the contender with the largest
    ratio X / xbar wins; its members fold a·X into their averages after every
    average decays by 1 - a, a = 1/t_c.  The recurrence is sequential in
    slots but independent across rows, so one numpy step per slot serves
    every row, with the same IEEE operations in the same order per row as a
    loop over one realization.  Returns the winning group ids, (n_slots, R).
    """
    n, R, C = X.shape
    a = 1.0 / state.t_c
    decay = 1.0 - a
    aX = X * a
    # row r * C + j of `together` marks the contenders of realization r that share
    # contender j's group: the members whose averages take a·X when j wins
    offsets = np.arange(0, R * C, C)
    together = (group[:, :, None] == group[:, None, :]).reshape(R * C, C)
    best = np.empty((n, R), dtype=np.intp)   # winning contender + its row offset
    members = np.empty((R, C), dtype=bool)
    ratio = np.empty((R, C))
    xbar = state.xbar
    first = 0
    if xbar is None and n:
        np.argmax(X[0], axis=1, out=best[0])   # the raw metric decides the first slot
        best[0] += offsets
        xbar = X[0].copy()
        first = 1
    for x, ax, b in zip(X[first:], aX[first:], best[first:]):
        np.divide(x, xbar, out=ratio)
        np.argmax(ratio, axis=1, out=b)
        b += offsets
        together.take(b, axis=0, out=members)
        xbar *= decay
        np.add(xbar, ax, out=xbar, where=members)
    state.xbar = xbar
    return group.reshape(-1).take(best)
