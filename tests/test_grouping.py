"""Conflict-graph construction and grouping (coloring / fixed sizes)."""

import numpy as np
import pytest

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
