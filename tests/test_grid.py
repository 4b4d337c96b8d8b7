import copy
import dataclasses
import pickle

import numpy as np
import pytest

from reference import distance_matrix, transpose
from stargrid import (
    HUB,
    Cell,
    Col,
    GridGraph,
    Hub,
    InputError,
    Row,
    bfs_distances,
    parse_vertex,
    vertex_name,
)
from stargrid import localize
from stargrid.grid import vertex_at_point


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
    # point, index_of, vertex_at and vertex_at_point agree on every vertex,
    # and so does localize's array map from canonical indices to points
    for m, n in [(1, 1), (1, 7), (4, 4), (3, 5), (9, 6)]:
        g = GridGraph(m, n)
        points = []
        for idx, v in enumerate(g.vertices()):
            assert g.index_of(v) == idx, (m, n)
            assert g.vertex_at(idx) == v, (m, n)
            x, y = g.point(v)
            assert vertex_at_point(x, y) == v, (m, n)
            points.append((x, y))
        assert len(set(points)) == g.vertex_count(), (m, n)
        x, y = localize._points(m, n, np.arange(g.vertex_count()))
        assert list(zip(x.tolist(), y.tolist())) == points, (m, n)
        with pytest.raises(InputError, match=f"vertex index {g.vertex_count()} out of range"):
            g.vertex_at(g.vertex_count())
        with pytest.raises(InputError, match="vertex index -1 out of range"):
            g.vertex_at(-1)
        # an index is an int as check_int has it: no bool, float, numpy
        # integer or string, and no None
        for bad in (True, False, 1.5, 1.0, np.int64(1), np.int64(g.vertex_count() - 1), "1", None):
            with pytest.raises(InputError, match="vertex index must be an integer"):
                g.vertex_at(bad)


def test_neighbors_and_degrees():
    g = GridGraph(3, 4)
    hub_nbrs = g.neighbors(HUB)
    assert hub_nbrs == [Row(1), Row(2), Row(3), Col(1), Col(2), Col(3), Col(4)]
    assert len(hub_nbrs) == 7  # m + n
    assert g.neighbors(Cell(2, 3)) == [Row(2), Col(3)]
    assert g.neighbors(Row(2)) == [HUB, Cell(2, 1), Cell(2, 2), Cell(2, 3), Cell(2, 4)]
    assert len(g.neighbors(Row(2))) == 5  # n + 1
    assert len(g.neighbors(Col(1))) == 4  # m + 1
    assert len(g.neighbors(Cell(1, 1))) == 2


@pytest.mark.parametrize("m, n", [(m, n) for m in range(1, 9) for n in range(1, 9)]
                         + [(1, 30), (30, 1)])
def test_adjacency_matches_neighbors(m, n):
    g = GridGraph(m, n)
    got = g.adjacency()
    assert got == [[g.index_of(w) for w in g.neighbors(v)] for v in g.vertices()]
    assert all(near == sorted(near) for near in got)


def test_neighbors_rejects_out_of_range():
    g = GridGraph(2, 2)
    with pytest.raises(InputError):
        g.neighbors(Row(3))
    with pytest.raises(InputError):
        g.distance(HUB, Cell(1, 3))
    # index 0 is a star's centre in a point: Row(0) must not read as the hub
    for bad in (Row(0), Col(0), Cell(0, 1), Cell(1, 0)):
        with pytest.raises(InputError, match="out of range"):
            g.distance(HUB, bad)
        with pytest.raises(InputError, match="out of range"):
            g.distance(bad, Cell(1, 1))
        with pytest.raises(InputError, match="out of range"):
            g.point(bad)
    with pytest.raises(InputError):
        GridGraph(0, 3)
    with pytest.raises(InputError):
        GridGraph(True, 2)


def test_validate_refuses_non_integer_indices():
    # the policy of the grid sides: ints, not bools; index_of(Cell(1.5, 2))
    # once returned 9.5
    g = GridGraph(3, 3)
    for bad, index in ((Cell(1.5, 2), 1.5), (Cell(2, 2.0), 2.0), (Row(1.0), 1.0),
                       (Col(True), True), (Row(np.int64(2)), np.int64(2)), (Col("1"), "1")):
        message = f"vertex {vertex_name(bad)} has a non-integer index {index!r}"
        for check in (g.point, g.index_of, g.neighbors, lambda v: g.distance(v, HUB),
                      lambda v: g.distance(Cell(1, 1), v)):
            with pytest.raises(InputError) as exc:
                check(bad)
            assert str(exc.value) == message
    # an out-of-range index is named as such, whatever the other index is
    with pytest.raises(InputError, match="^vertex a9,1.5 out of range for grid"):
        g.point(Cell(9, 1.5))
    # an int subclass other than bool is an int
    class Index(int):
        pass
    assert g.index_of(Cell(Index(2), 3)) == g.index_of(Cell(2, 3))


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


@pytest.mark.parametrize("m", range(1, 7))
def test_pairwise_metric_matches_bfs(m):
    # every pair on every grid with m, n <= 6, through the per-pair methods
    for n in range(1, 7):
        g = GridGraph(m, n)
        bfs = bfs_distances(g)
        verts = g.vertices()
        for a, u in enumerate(verts):
            for b, v in enumerate(verts):
                assert g.distance(u, v) == bfs[a, b], (m, n, u, v)
            assert g.neighbors(u) == [v for v in verts if g.distance(u, v) == 1], (m, n, u)


def test_distance_matches_bfs_small():
    for m, n in [(1, 1), (1, 4), (2, 2), (3, 5), (4, 4)]:
        g = GridGraph(m, n)
        assert np.array_equal(distance_matrix(g), bfs_distances(g)), (m, n)


def test_distance_symmetry_and_triangle_exhaustive():
    # checkable exhaustively for small sides; vectorized over the full matrix
    for m, n in [(1, 1), (2, 3), (3, 3), (4, 6), (7, 9), (10, 10)]:
        d = distance_matrix(GridGraph(m, n)).astype(np.int16)
        assert np.array_equal(d, d.T), (m, n)
        assert (np.diag(d) == 0).all()
        for k in range(d.shape[0]):
            assert (d <= d[:, [k]] + d[[k], :]).all(), (m, n, k)


def test_distance_parity_classes():
    # even within {hub} + cells and within relays, odd across
    for m, n in [(2, 2), (3, 4), (5, 5)]:
        g = GridGraph(m, n)
        d = distance_matrix(g).astype(np.int16)
        relay = np.zeros(g.vertex_count(), dtype=bool)
        relay[1:1 + m + n] = True
        same_class = relay[:, None] == relay[None, :]
        assert (d[same_class] % 2 == 0).all()
        assert (d[~same_class] % 2 == 1).all()


def test_transpose_is_isomorphism():
    g = GridGraph(3, 5)
    gt = GridGraph(5, 3)
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
    # digits of other scripts, which int() reads: ARABIC-INDIC THREE,
    # FULLWIDTH ONE, DEVANAGARI TWO
    "r1\u0663", "c1\uff11", "a1,2\u0968", "a1\u0663,2", "r\u0663",
])
def test_vertex_text_encoding_strict(bad):
    with pytest.raises(InputError):
        parse_vertex(bad)


@pytest.mark.parametrize("point, plain", [
    ((3, 5), Cell(3, 5)), ((3, 0), Row(3)), ((0, 5), Col(5)), ((0, 0), Hub()),
])
def test_factory_vertices_are_their_constructors_vertices(point, plain):
    # vertex_at_point, which parse_vertex and vertex_at also call, fills the
    # slots of a bare instance; the vertex must be indistinguishable from
    # the dataclass constructor's
    g = GridGraph(4, 6)
    made = [vertex_at_point(*point), parse_vertex(vertex_name(plain)),
            g.vertex_at(g.index_of(plain))]
    for v in made:
        assert type(v) is type(plain) and v == plain and hash(v) == hash(plain)
        # every field name of the vertex classes, and names that are fields
        # of none or only some of them
        for name in ("i", "j", "x"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(v, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(v, name)
        assert pickle.loads(pickle.dumps(v)) == v
        assert copy.copy(v) == v and copy.deepcopy(v) == v
        assert dataclasses.replace(v) == v
        assert repr(v) == repr(plain) and g.point(v) == point


def test_grid_graph_refuses_every_assignment():
    g = GridGraph(2, 3)
    for name in ("m", "n", "x"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(g, name)
    assert (g.m, g.n) == (2, 3)
    assert pickle.loads(pickle.dumps(g)) == g and copy.copy(g) == g


def test_hub_is_singleton_value():
    assert Hub() == HUB
    assert len({Hub(), HUB}) == 1
