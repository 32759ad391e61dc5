"""Conflict-graph construction and grouping (coloring / fixed sizes)."""

import numpy as np
import pytest

from helpers import welsh_powell_reference

from d2dsched.grouping import (ConflictGraph, Group, GroupStructure, build_conflict_graph,
                               fixed_grouping, greedy_coloring, with_cellular_singletons)
from d2dsched.model import SpatialRealization, SystemConfig, sample_spatial


def _layout(centroids):
    centroids = np.asarray(centroids, dtype=float)
    d = np.hypot(centroids[:, 0], centroids[:, 1])
    a = np.arctan2(centroids[:, 1], centroids[:, 0])
    n = len(centroids)
    return SpatialRealization(np.empty(0), d, a, np.full(n, 10.0), np.zeros(n))


def test_single_pair_graph():
    g = build_conflict_graph(_layout([(100.0, 0.0)]), 300.0)
    assert g.n_vertices == 1
    assert not g.adjacency.any()


def test_edge_threshold():
    near = build_conflict_graph(_layout([(0.0, 0.0), (299.0, 0.0)]), 300.0)
    far = build_conflict_graph(_layout([(0.0, 0.0), (301.0, 0.0)]), 300.0)
    assert near.adjacency[0, 1] and near.adjacency[1, 0]
    assert not far.adjacency[0, 1]


def test_graph_validation():
    bad = np.array([[False, True], [False, False]])
    with pytest.raises(ValueError):
        ConflictGraph(bad)
    with pytest.raises(ValueError):
        ConflictGraph(np.array([[True]]))


def test_path_graph_two_colors():
    adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)
    st = greedy_coloring(ConflictGraph(adj))
    assert st.n_groups == 2
    members = {g.members for g in st.groups}
    assert (0, 2) in members and (1,) in members


def _random_graph(n, p, seed):
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < p, 1)
    return upper | upper.T


def _cycle(n):
    return np.roll(np.eye(n, dtype=bool), 1, axis=1) | np.roll(np.eye(n, dtype=bool), -1, axis=1)


GRAPHS = {
    "empty": np.zeros((0, 0), bool),     # no groups, as build_structure gives for K2 = 0
    "single": np.zeros((1, 1), bool),
    "edgeless": np.zeros((9, 9), bool),
    "complete": ~np.eye(8, dtype=bool),
    "edgeless-400": np.zeros((400, 400), bool),
    "complete-64": ~np.eye(64, dtype=bool),
    "cycle-ties": _cycle(7),
    "cliques-ties": np.kron(np.eye(3, dtype=bool), ~np.eye(4, dtype=bool))[::-1, ::-1],
    "star": np.add.outer(np.arange(6) == 3, np.arange(6) == 3) & ~np.eye(6, dtype=bool),
    **{f"random-{n}-{p}-{seed}": _random_graph(n, p, seed)
       for n in (2, 13, 40) for p in (0.1, 0.3, 0.7) for seed in range(3)},
}


@pytest.mark.parametrize("name", GRAPHS)
def test_coloring_matches_reference(name):
    adj = GRAPHS[name]
    assert greedy_coloring(ConflictGraph(adj)) == welsh_powell_reference(adj)


@pytest.mark.parametrize("K2", [30, 200, 400])
def test_layout_coloring_matches_reference(K2):
    cfg = SystemConfig(K1=0, K2=K2, interference_radius_m=300.0)
    for seed in range(5):
        graph = build_conflict_graph(sample_spatial(cfg, np.random.default_rng(seed)),
                                     cfg.interference_radius_m)
        assert greedy_coloring(graph) == welsh_powell_reference(graph.adjacency)


def _hypot_rule(spatial, radius_m):
    xy = spatial.centroid_xy()
    dx, dy = xy[:, None, 0] - xy[None, :, 0], xy[:, None, 1] - xy[None, :, 1]
    adj = np.hypot(dx, dy) < radius_m
    np.fill_diagonal(adj, False)
    return adj


def _steps(r, k):
    """The float k representable steps above r (below it for negative k)."""
    for _ in range(abs(k)):
        r = np.nextafter(r, np.inf if k > 0 else 0.0)
    return float(r)


def test_layout_edges_follow_hypot():
    cfg = SystemConfig(K1=0, K2=200)
    for seed in range(5):
        sp = sample_spatial(cfg, np.random.default_rng(seed))
        for radius in (300.0, 123.456):
            assert np.array_equal(build_conflict_graph(sp, radius).adjacency,
                                  _hypot_rule(sp, radius))


@pytest.mark.parametrize("radius", [300.0, 123.456, 1000.0 / 3.0])
def test_edges_at_the_radius_follow_hypot(radius):
    steps = range(-3, 4)
    for k in steps:   # on the x-axis, hypot is exact: an edge iff strictly below the radius
        x = _steps(radius, k)
        graph = build_conflict_graph(_layout([(0.0, 0.0), (x, 0.0)]), radius)
        assert graph.adjacency[0, 1] == (x < radius)
    # off the axis, pairs at the origin and at angles a, distances k steps from the
    # radius; there dx^2 + dy^2 rounds across r^2 for some pairs that hypot keeps apart
    a = np.linspace(0.01, 0.2, 40)
    d = np.concatenate([[0.0]] + [np.full(a.size, _steps(radius, k)) for k in steps])
    ang = np.concatenate([[0.0]] + [a] * len(steps))
    sp = SpatialRealization(np.empty(0), d, ang, np.full(d.size, 10.0), np.zeros(d.size))
    xy = sp.centroid_xy()
    squared = (xy[1:] ** 2).sum(axis=1) < radius * radius
    assert np.any(squared != _hypot_rule(sp, radius)[0, 1:])
    assert np.array_equal(build_conflict_graph(sp, radius).adjacency, _hypot_rule(sp, radius))


@pytest.mark.parametrize("radius", [300.0, 123.456, 1000.0 / 3.0])
def test_edges_in_a_dense_rounding_band_follow_hypot(radius):
    # every other pair at the origin, the others one step below, at or one step above
    # the radius at angles from 0.01 to 1.5, so each pair lies in the 8 eps band of
    # both its neighbours
    n = 300
    d = np.array([_steps(radius, i // 2 % 3 - 1) if i % 2 else 0.0 for i in range(n)])
    ang = np.where(np.arange(n) % 2 == 1, np.linspace(0.01, 1.5, n), 0.0)
    sp = SpatialRealization(np.empty(0), d, ang, np.full(n, 10.0), np.zeros(n))
    dx, dy = np.diff(sp.centroid_xy(), axis=0).T
    d2, r2 = dx * dx + dy * dy, radius * radius
    assert np.all(np.abs(d2 - r2) <= 8.0 * np.finfo(float).eps * r2)
    assert np.any((d2 < r2) != (np.hypot(dx, dy) < radius))
    assert np.array_equal(build_conflict_graph(sp, radius).adjacency, _hypot_rule(sp, radius))


def test_negative_radius_has_no_edges():
    assert not build_conflict_graph(_layout([(0.0, 0.0), (1.0, 0.0)]), -300.0).adjacency.any()


def test_coloring_is_proper():
    cfg = SystemConfig(K1=0, K2=30, interference_radius_m=300.0)
    for seed in range(20):
        sp = sample_spatial(cfg, np.random.default_rng(seed))
        graph = build_conflict_graph(sp, cfg.interference_radius_m)
        st = greedy_coloring(graph)
        assert sorted(m for g in st.groups for m in g.members) == list(range(30))
        for g in st.groups:
            for i in g.members:
                for j in g.members:
                    assert i == j or not graph.adjacency[i, j]


def test_fixed_grouping_layouts():
    st = fixed_grouping([1, 7, 2, 4], 14, nu=1.0)
    assert [g.size for g in st.groups] == [1, 7, 2, 4]
    assert st.groups[1].members == tuple(range(1, 8))
    assert st.n_contenders == 14
    big = fixed_grouping([5] * 5, 25)
    assert big.n_groups == 5 and big.n_contenders == 25
    with pytest.raises(ValueError):
        fixed_grouping([2, 2], 5)
    with pytest.raises(ValueError):
        fixed_grouping([])


def test_structure_partition_enforced():
    with pytest.raises(ValueError):
        GroupStructure((Group((0, 1), 1.0), Group((1, 2), 1.0)))
    with pytest.raises(ValueError):
        GroupStructure((Group((), 1.0),))


def test_mixed_structure_layout():
    d2d = fixed_grouping([2, 1], 3, nu=0.5, id_offset=4)
    st = with_cellular_singletons(d2d, 4)
    assert st.n_groups == 6
    assert np.array_equal(st.nus, [1.0] * 4 + [0.5] * 2)
    assert st.groups[4].members == (4, 5)
    assert st.group_of()[6] == 5
