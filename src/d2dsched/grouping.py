"""Conflict graph over D2D pairs and partition into sharing groups."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from d2dsched.model import SpatialRealization


@dataclass(frozen=True)
class ConflictGraph:
    """Symmetric adjacency over D2D pairs; an edge marks potential interference."""

    adjacency: np.ndarray      # (K2, K2) boolean, symmetric, no self-loops

    def __post_init__(self):
        adj = self.adjacency
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be square")
        if np.any(adj != adj.T) or np.any(np.diag(adj)):
            raise ValueError("adjacency must be symmetric with no self-loops")

    @property
    def n_vertices(self) -> int:
        return self.adjacency.shape[0]


@dataclass(frozen=True)
class Group:
    members: tuple[int, ...]   # contender ids
    nu: float                  # fairness factor: 1 for cellular singletons, 1/2 for D2D groups

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class GroupStructure:
    groups: tuple[Group, ...]

    def __post_init__(self):
        seen: set[int] = set()
        for g in self.groups:
            if g.size < 1:
                raise ValueError("empty group")
            if seen & set(g.members):
                raise ValueError("groups must partition the contender set")
            seen |= set(g.members)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def sizes(self) -> np.ndarray:
        return np.array([g.size for g in self.groups])

    @property
    def nus(self) -> np.ndarray:
        return np.array([g.nu for g in self.groups])

    @property
    def n_contenders(self) -> int:
        return int(self.sizes.sum())

    def group_of(self) -> dict[int, int]:
        return {m: gi for gi, g in enumerate(self.groups) for m in g.members}


def build_conflict_graph(spatial: SpatialRealization, radius_m: float) -> ConflictGraph:
    """Edge between two pairs iff their centroid distance is below the radius.

    The test is np.hypot(dx, dy) < radius_m.  Squared distances decide it, and
    only the pairs whose squared distance lies within 8 eps r^2 of r^2, where
    rounding could flip the comparison, are decided by hypot itself.
    """
    xy = spatial.centroid_xy()
    if xy.shape[0] < 1:
        raise ValueError("need at least one D2D pair")
    dx = np.subtract.outer(xy[:, 0], xy[:, 0])
    dy = np.subtract.outer(xy[:, 1], xy[:, 1])
    d2 = dx * dx
    d2 += dy * dy
    r2 = math.copysign(radius_m * radius_m, radius_m)   # a negative radius keeps no edge
    adj = d2 < r2
    d2 -= r2
    near = np.abs(d2, out=d2) <= 8.0 * np.finfo(float).eps * r2
    adj[near] = np.hypot(dx[near], dy[near]) < radius_m
    np.fill_diagonal(adj, False)
    return ConflictGraph(adj)


def greedy_coloring(graph: ConflictGraph) -> GroupStructure:
    """Welsh-Powell greedy coloring: vertices in descending-degree order (ties by
    lower id) take the smallest color absent among colored neighbors.  Each color
    is one D2D group with fairness factor 1/2; a graph of no vertices has none.
    Classes and neighbourhoods are bitmasks: a vertex joins the first class its
    neighbourhood does not meet."""
    neighbours = [int.from_bytes(row.tobytes(), "little")
                  for row in np.packbits(graph.adjacency, axis=1, bitorder="little")]
    classes, members = [], []
    for v in sorted(range(len(neighbours)), key=lambda v: -neighbours[v].bit_count()):
        mask = neighbours[v]
        for c, cls in enumerate(classes):
            if not cls & mask:
                classes[c] = cls | 1 << v
                members[c].append(v)
                break
        else:
            classes.append(1 << v)
            members.append([v])
    return GroupStructure(tuple(Group(tuple(sorted(m)), 0.5) for m in members))


def fixed_grouping(sizes, n_contenders: int | None = None, nu: float = 0.5,
                   id_offset: int = 0) -> GroupStructure:
    """Bypass geometry: assign contenders to groups of the stated sizes in id order."""
    sizes = list(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("sizes must be nonempty with entries >= 1")
    total = sum(sizes)
    if n_contenders is not None and total != n_contenders:
        raise ValueError(f"sizes sum to {total}, expected {n_contenders}")
    groups = []
    nxt = id_offset
    for s in sizes:
        groups.append(Group(tuple(range(nxt, nxt + s)), nu))
        nxt += s
    return GroupStructure(tuple(groups))


def with_cellular_singletons(d2d_structure: GroupStructure, K1: int) -> GroupStructure:
    """Mixed-system structure: K1 cellular singleton groups (nu=1, contender ids
    0..K1-1) followed by the D2D groups (whose member ids already start at K1)."""
    cell = tuple(Group((k,), 1.0) for k in range(K1))
    return GroupStructure(cell + d2d_structure.groups)
