import numpy as np
import pytest

from stargrid import (
    HUB,
    Cell,
    Col,
    GridGraph,
    Hub,
    InputError,
    Row,
    bfs_distances,
    full_distance_matrix,
    parse_vertex,
    transpose,
    vertex_name,
)


def test_vertex_count_examples():
    assert GridGraph(1, 1).vertex_count() == 4
    assert GridGraph(2, 3).vertex_count() == 12
    assert GridGraph(5, 7).vertex_count() == 48


def test_vertex_count_matches_explicit_adjacency_build():
    # independent count: collect every vertex reachable through neighbors()
    g = GridGraph(5, 7)
    seen = set()
    stack = [HUB]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(g.neighbors(v))
    assert len(seen) == g.vertex_count()


def test_vertices_canonical_order():
    assert GridGraph(1, 1).vertices() == [HUB, Row(1), Col(1), Cell(1, 1)]
    vs = GridGraph(2, 2).vertices()
    assert len(vs) == 9
    assert vs[-1] == Cell(2, 2)
    assert vs[0] == HUB
    assert len(set(vs)) == len(vs)


def test_index_roundtrip():
    g = GridGraph(3, 5)
    for idx, v in enumerate(g.vertices()):
        assert g.index_of(v) == idx
        assert g.vertex_at(idx) == v
    with pytest.raises(InputError):
        g.vertex_at(g.vertex_count())
    with pytest.raises(InputError):
        g.vertex_at(-1)


def test_neighbors_and_degrees():
    g = GridGraph(3, 4)
    hub_nbrs = g.neighbors(HUB)
    assert hub_nbrs == [Row(1), Row(2), Row(3), Col(1), Col(2), Col(3), Col(4)]
    assert len(hub_nbrs) == 7  # m + n
    assert g.neighbors(Cell(2, 3)) == [Row(2), Col(3)]
    assert g.neighbors(Row(2)) == [HUB, Cell(2, 1), Cell(2, 2), Cell(2, 3), Cell(2, 4)]
    assert g.degree(Row(2)) == 5  # n + 1
    assert g.degree(Col(1)) == 4  # m + 1
    assert g.degree(Cell(1, 1)) == 2


def test_neighbors_rejects_out_of_range():
    g = GridGraph(2, 2)
    with pytest.raises(InputError):
        g.neighbors(Row(3))
    with pytest.raises(InputError):
        g.distance(HUB, Cell(1, 3))
    with pytest.raises(InputError):
        GridGraph(0, 3)
    with pytest.raises(InputError):
        GridGraph(True, 2)


def test_distance_table_examples():
    g = GridGraph(5, 5)
    assert g.distance(HUB, Cell(2, 3)) == 2
    assert g.distance(Cell(1, 2), Cell(3, 4)) == 4
    assert g.distance(Row(2), Cell(2, 5)) == 1
    assert g.distance(Row(2), Cell(3, 5)) == 3
    assert g.distance(Col(5), Cell(2, 5)) == 1
    assert g.distance(Row(1), Row(2)) == 2
    assert g.distance(Row(1), Col(1)) == 2
    assert g.distance(Col(2), Col(3)) == 2
    assert g.distance(HUB, Row(4)) == 1
    assert g.distance(Cell(1, 1), Cell(1, 4)) == 2
    assert g.distance(Cell(1, 1), Cell(1, 1)) == 0


def test_distance_matches_bfs_small():
    for m, n in [(1, 1), (1, 4), (2, 2), (3, 5), (4, 4)]:
        g = GridGraph(m, n)
        assert np.array_equal(full_distance_matrix(g), bfs_distances(g)), (m, n)


def test_distance_symmetry_and_triangle_exhaustive():
    # checkable exhaustively for small sides; vectorized over the full matrix
    for m, n in [(1, 1), (2, 3), (3, 3), (4, 6), (7, 9), (10, 10)]:
        d = full_distance_matrix(GridGraph(m, n)).astype(np.int16)
        assert np.array_equal(d, d.T), (m, n)
        assert (np.diag(d) == 0).all()
        for k in range(d.shape[0]):
            assert (d <= d[:, [k]] + d[[k], :]).all(), (m, n, k)


def test_distance_parity_classes():
    # even within {hub} + cells and within relays, odd across
    for m, n in [(2, 2), (3, 4), (5, 5)]:
        g = GridGraph(m, n)
        d = full_distance_matrix(g).astype(np.int16)
        relay = np.zeros(g.vertex_count(), dtype=bool)
        relay[1:1 + m + n] = True
        same_class = relay[:, None] == relay[None, :]
        assert (d[same_class] % 2 == 0).all()
        assert (d[~same_class] % 2 == 1).all()


def test_transpose_examples_and_involution():
    assert transpose(Row(3)) == Col(3)
    assert transpose(Cell(2, 5)) == Cell(5, 2)
    assert transpose(HUB) == HUB
    g = GridGraph(3, 4)
    for v in g.vertices():
        assert transpose(transpose(v)) == v


def test_transpose_is_isomorphism():
    g = GridGraph(3, 5)
    gt = g.transposed()
    for u in g.vertices():
        for v in g.vertices():
            assert g.distance(u, v) == gt.distance(transpose(u), transpose(v))


def test_vertex_text_encoding_roundtrip():
    g = GridGraph(4, 9)
    for v in g.vertices():
        assert parse_vertex(vertex_name(v)) == v
    assert vertex_name(Cell(3, 7)) == "a3,7"
    assert parse_vertex("hub") == HUB
    assert parse_vertex("r12") == Row(12)


@pytest.mark.parametrize("bad", [
    "", "Hub", "hub ", " r1", "r0", "r01", "c-1", "a1", "a1,", "a1,0",
    "a0,1", "a1, 2", "x3", "r1.5", "a1,2,3", "R1",
])
def test_vertex_text_encoding_strict(bad):
    with pytest.raises(InputError):
        parse_vertex(bad)


def test_hub_is_singleton_value():
    assert Hub() == HUB
    assert len({Hub(), HUB}) == 1
