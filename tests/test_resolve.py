import dataclasses
import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import (
    adjacency_code,
    adjacency_resolved_by_neighborhoods,
    is_adjacency_resolving,
    sort_is_resolving,
)

from stargrid import (
    HUB,
    BudgetError,
    Cell,
    Col,
    GridGraph,
    InputError,
    ResolvingSet,
    Row,
    SimpleGraph,
    bfs_distances,
    brute_force_dimension,
    build_aux_graph,
    build_basis,
    code_matrix,
    code_table,
    dimension,
    enumerate_minimum_bases,
    full_distance_matrix,
    is_resolving,
    metric_code,
    parse_landmark_lines,
)

# Every grid with at most 20 vertices, both orientations.
SMALL_GRIDS = [(m, n) for m in range(1, 10) for n in range(1, 10) if (m + 1) * (n + 1) <= 20]


def test_metric_code_single_row_grid():
    g = GridGraph(1, 5)
    w = [Col(1), Col(2), Cell(1, 3), Cell(1, 4)]
    assert metric_code(g, HUB, w) == (1, 1, 2, 2)
    assert metric_code(g, Row(1), w) == (2, 2, 1, 1)


def test_metric_code_zero_at_own_position():
    g = GridGraph(3, 3)
    w = [Cell(1, 1), Row(2), Col(3)]
    assert metric_code(g, Row(2), w)[1] == 0
    assert metric_code(g, Cell(1, 1), w)[0] == 0


def test_metric_code_shared_then_disjoint_column():
    g = GridGraph(2, 2)
    assert metric_code(g, Cell(2, 1), [Cell(1, 1), Cell(1, 2)]) == (2, 4)


def test_metric_code_empty_landmarks_rejected():
    g = GridGraph(2, 2)
    with pytest.raises(InputError):
        metric_code(g, HUB, [])


def test_is_resolving_four_cycle():
    g = GridGraph(1, 1)
    verdict = is_resolving(g, [Row(1), Col(1)])
    assert not verdict
    assert verdict.witness == (HUB, Cell(1, 1))
    assert is_resolving(g, [Row(1), Cell(1, 1)])


def test_is_resolving_all_vertices():
    for m, n in [(1, 1), (2, 3), (3, 3)]:
        g = GridGraph(m, n)
        assert is_resolving(g, g.vertices())


def test_witness_is_first_collision_in_canonical_order():
    # single landmark a1,1 on (2,2): hub, a1,2 and a2,1 all read distance 2;
    # the smallest colliding pair is (hub, a1,2)
    g = GridGraph(2, 2)
    verdict = is_resolving(g, [Cell(1, 1)])
    assert verdict.witness == (HUB, Cell(1, 2))


def test_is_resolving_accepts_sets_and_resolving_sets():
    g = GridGraph(2, 2)
    assert is_resolving(g, {Cell(1, 1), Cell(1, 2)})
    rs = ResolvingSet((Cell(1, 1), Cell(1, 2)))
    assert is_resolving(g, rs)


def test_is_resolving_rejects_bad_landmarks():
    g = GridGraph(2, 3)
    with pytest.raises(InputError, match="nonempty"):
        is_resolving(g, [])
    with pytest.raises(InputError, match="duplicate"):
        is_resolving(g, [Cell(1, 1), Row(2), Cell(1, 1)])
    for bad in (Row(3), Col(4), Cell(3, 1), Cell(1, 4), Row(0), Col(0), Cell(0, 1), Cell(1, 0)):
        with pytest.raises(InputError, match="out of range"):
            is_resolving(g, [Cell(1, 1), bad])
        with pytest.raises(InputError, match="out of range"):
            code_matrix(g, [Cell(1, 1), bad])
        with pytest.raises(InputError, match="out of range"):
            code_table(g, ResolvingSet((Cell(1, 1), bad)))
    with pytest.raises(InputError, match="not a vertex"):
        is_resolving(g, [Cell(1, 1), "r1"])


def _same_verdict(g, landmarks):
    got, want = is_resolving(g, landmarks), sort_is_resolving(g, landmarks)
    return (got.resolving, got.witness) == (want.resolving, want.witness)


@pytest.mark.parametrize("m,n", SMALL_GRIDS)
def test_structural_check_matches_sort_on_every_small_subset(m, n):
    g = GridGraph(m, n)
    verts = g.vertices()
    for k in range(1, 5):
        for subset in itertools.combinations(verts, k):
            assert _same_verdict(g, subset), subset


@pytest.mark.parametrize("m,n", [(2, 4), (3, 4), (1, 5)])
def test_structural_check_matches_sort_on_every_five_subset(m, n):
    g = GridGraph(m, n)
    for subset in itertools.combinations(g.vertices(), 5):
        assert _same_verdict(g, subset), subset


def test_structural_check_matches_sort_on_mutated_bases():
    # a constructed basis sits right at the resolving boundary, so small
    # edits to it give the close calls: dropped, swapped or added landmarks
    rnd = random.Random(31)
    for _ in range(600):
        m, n = rnd.randint(1, 30), rnd.randint(1, 30)
        g = GridGraph(m, n)
        base = list(build_basis(m, n).landmarks)
        others = [v for v in g.vertices() if v not in base]
        pos = rnd.randrange(len(base))
        dropped = base[:pos] + base[pos + 1:]
        swapped = base[:pos] + [rnd.choice(others)] + base[pos + 1:]
        with_hub = base + [HUB]
        with_two = base + rnd.sample(others, 2)
        for landmarks in (dropped, swapped, with_hub, with_two):
            assert _same_verdict(g, landmarks), (m, n, landmarks)


@st.composite
def grids_with_landmarks(draw):
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    hub = [HUB] if draw(st.booleans()) else []
    rows = draw(st.sets(st.integers(1, m), max_size=m))
    cols = draw(st.sets(st.integers(1, n), max_size=n))
    cells = draw(st.sets(st.tuples(st.integers(1, m), st.integers(1, n)), max_size=2 * (m + n)))
    landmarks = hub + [Row(i) for i in rows] + [Col(j) for j in cols] + [Cell(i, j) for i, j in cells]
    assume(landmarks)
    return GridGraph(m, n), draw(st.permutations(landmarks))


@settings(max_examples=300, deadline=None)
@given(grids_with_landmarks())
def test_structural_check_matches_sort_on_drawn_sets(case):
    g, landmarks = case
    assert _same_verdict(g, landmarks)


def test_verification_memory_is_linear_in_the_sides():
    # the code-matrix sort peaked at 2.65 GB here
    g = GridGraph(1000, 1000)
    tracemalloc.start()
    try:
        basis = build_basis(1000, 1000)
        _, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        verdict = is_resolving(g, basis.landmarks[1:])
        _, check_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(basis) == dimension(1000, 1000) and is_resolving(g, basis)
    assert not verdict
    x, y = verdict.witness
    assert x != y
    assert metric_code(g, x, basis.landmarks[1:]) == metric_code(g, y, basis.landmarks[1:])
    assert build_peak < 10 * 2**20 and check_peak < 10 * 2**20, (build_peak, check_peak)


def test_resolving_set_rejects_duplicates():
    with pytest.raises(InputError):
        ResolvingSet((Cell(1, 1), Cell(1, 1)))
    with pytest.raises(InputError):
        ResolvingSet([Row(1), Cell(1, 1), Row(1)])


def test_resolving_set_holds_a_tuple():
    # a list or a generator of landmarks makes the same, hashable set
    landmarks = (Cell(1, 1), Row(2), HUB)
    want = ResolvingSet(landmarks)
    for given in (list(landmarks), iter(landmarks)):
        got = ResolvingSet(given)
        assert got.landmarks == landmarks and got == want and hash(got) == hash(want)


def test_only_the_package_stamps_provenance():
    # the builder and the oracle stamp their sets, and ``verified`` reads the
    # stamp; a set from the constructor, or a replace()d copy of a stamped
    # one, is the caller's, and no argument or assignment makes it otherwise
    g = GridGraph(3, 3)
    stamped = [
        (build_basis(1, 9), "constructed-regime-A"),
        (build_basis(5, 2), "constructed-regime-B"),
        (build_basis(3, 3), "constructed-regime-C"),
        (build_basis(5, 5), "constructed-regime-D"),
        (brute_force_dimension(g)[1], "oracle"),
        (enumerate_minimum_bases(g, dimension(3, 3))[0], "oracle"),
    ]
    for basis, provenance in stamped:
        assert (basis.provenance, basis.verified) == (provenance, True)
        for plain in (ResolvingSet(basis.landmarks), dataclasses.replace(basis)):
            assert (plain.provenance, plain.verified) == ("user", False)
            assert plain == basis and hash(plain) == hash(basis)
    # replace() refuses an unknown field with TypeError and an init=False
    # one with ValueError
    for name, value, error in (("verified", True, TypeError), ("provenance", "oracle", ValueError)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(plain, name, value)
        with pytest.raises(error):
            dataclasses.replace(plain, **{name: value})


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.randoms(use_true_random=False))
def test_resolving_is_monotone_under_supersets(m, n, rnd):
    g = GridGraph(m, n)
    base = build_basis(m, n).landmarks
    extra = [v for v in g.vertices() if v not in base]
    rnd.shuffle(extra)
    bigger = list(base) + extra[: rnd.randint(0, len(extra))]
    assert is_resolving(g, bigger)


def test_code_entry_ranges_for_hub_free_cell_sets():
    # with all landmarks in the cell layer: hub entries are all 2, cell
    # entries all even, relay entries all odd
    for m, n in [(2, 4), (3, 6), (5, 5)]:
        g = GridGraph(m, n)
        w = [v for v in build_basis(m, n).landmarks if isinstance(v, Cell)]
        for v in g.vertices():
            code = metric_code(g, v, w)
            if v == HUB:
                assert set(code) == {2}
            elif isinstance(v, Cell):
                assert set(code) <= {0, 2, 4}
            else:
                assert set(code) <= {1, 3}


def test_hub_free_codes_have_no_hub_zero():
    g = GridGraph(3, 4)
    w = build_basis(3, 4)
    assert all(not isinstance(v, type(HUB)) for v in w)
    assert set(metric_code(g, HUB, w)) <= {1, 2}


def test_adjacency_code_contains_zero_for_members():
    g = GridGraph(2, 3)
    code = adjacency_code(g, Row(1), [Row(1), Col(2), Cell(2, 2)])
    assert code[0] == 0
    assert code == (0, 2, 2)


def test_adjacency_code_isolated_vertex_is_all_twos():
    host = SimpleGraph(4, [(0, 1)])  # 2 and 3 isolated
    assert adjacency_code(host, 2, [0, 1, 3]) == (2, 2, 2)


def test_adjacency_code_on_aux_graph():
    g = GridGraph(2, 2)
    aux = build_aux_graph(g, [Cell(1, 1), Cell(2, 1)])
    # relays follow the two primed cells: r1, r2, then c1
    assert aux.right[g.index_of(Col(1)) - 1] == 4
    assert adjacency_code(aux, 4, aux.left) == (1, 1)


def test_is_adjacency_resolving_witness_two_untouched():
    host = SimpleGraph.path(5)
    verdict = is_adjacency_resolving(host, host.vertices(), [0])
    assert not verdict
    # vertices 2, 3, 4 all read (2,); first colliding pair is (2, 3)
    assert verdict.witness == (2, 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.data())
def test_adjacency_resolution_definitions_agree(n, data):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if data.draw(st.booleans()):
                edges.append((u, v))
    host = SimpleGraph(n, edges)
    k = data.draw(st.integers(1, n))
    subset = data.draw(st.permutations(range(n))).copy()[:k]
    code_view = bool(is_adjacency_resolving(host, host.vertices(), subset))
    hood_view = adjacency_resolved_by_neighborhoods(host, host.vertices(), subset)
    assert code_view == hood_view


def test_adjacency_resolution_equivalence_on_grid():
    rnd = random.Random(7)
    g = GridGraph(3, 4)
    verts = g.vertices()
    for _ in range(25):
        subset = rnd.sample(verts, rnd.randint(1, 6))
        assert bool(is_adjacency_resolving(g, verts, subset)) == \
            adjacency_resolved_by_neighborhoods(g, verts, subset)


def test_parse_landmark_lines():
    lines = ["# comment", "r1", "", "  a2,3  ", "c4", "# another"]
    assert parse_landmark_lines(lines) == [Row(1), Cell(2, 3), Col(4)]
    with pytest.raises(InputError):
        parse_landmark_lines(["r1", "bogus"])


@pytest.mark.parametrize("m, n", [(1, 1), (1, 6), (6, 1), (2, 2), (4, 4), (6, 6)])
def test_code_matrix_matches_bfs_columns_on_shuffled_landmarks(m, n):
    # the hub, relays and cells mixed in any order: column t is the BFS column
    # of the t-th landmark
    g = GridGraph(m, n)
    bfs = bfs_distances(g)
    verts = g.vertices()
    rnd = random.Random(m * 10 + n)
    draws = [[v] for v in verts] + [rnd.sample(verts, len(verts)) for _ in range(3)]
    draws += [rnd.sample(verts, rnd.randint(2, len(verts) - 1)) for _ in range(10)]
    for landmarks in draws:
        got = code_matrix(g, landmarks)
        want = bfs[:, [g.index_of(w) for w in landmarks]]
        assert got.dtype == np.uint8 and got.shape == want.shape
        assert np.array_equal(got, want), (m, n, landmarks)


def test_code_matrix_on_thin_grid_with_large_star_rows():
    # 999 x 1001 star distances: past numpy's 256 KiB threshold for reusing
    # a temporary as the output of the next operation
    g = GridGraph(1, 1000)
    landmarks = build_basis(1, 1000).landmarks
    mat = code_matrix(g, landmarks)
    for idx in random.Random(7).sample(range(g.vertex_count()), 40):
        assert mat[idx].tolist() == list(metric_code(g, g.vertex_at(idx), landmarks)), idx


def test_code_matrix_refuses_oversized_table():
    # (100, 100)'s full table, 10,201 x 10,201 cells, is just over the limit
    with pytest.raises(BudgetError, match="10201 x 10201 = 104060401 cells, limit is 100000000"):
        full_distance_matrix(GridGraph(100, 100))
    with pytest.raises(BudgetError, match="limit is 100000000"):
        code_matrix(GridGraph(1000, 1000), build_basis(1000, 1000).landmarks)
    assert code_matrix(GridGraph(99, 99), [HUB]).shape == (10000, 1)


def test_full_distance_matrix_refuses_without_making_vertices(monkeypatch):
    # the N x N size is checked before any point is read, and the points
    # come from the canonical indices, not from vertex objects
    def refuse(self):
        raise AssertionError("full_distance_matrix made the vertex list")

    g = GridGraph(4, 6)
    bfs = bfs_distances(g)
    monkeypatch.setattr(GridGraph, "vertices", refuse)
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=r"1002001 x 1002001 = \d+ cells, limit is 100000000"):
        full_distance_matrix(GridGraph(1000, 1000))
    assert time.perf_counter() - start < 0.1
    assert np.array_equal(full_distance_matrix(g), bfs)


# Each entry point that checks a landmark set against a grid, as f(g, W).
# ResolvingSet refuses duplicates itself and leaves the rest to the grid
# check, here code_table's, which every set goes through.
LANDMARK_ENTRY_POINTS = {
    "metric_code": lambda g, W: metric_code(g, HUB, W),
    "is_resolving": is_resolving,
    "build_aux_graph": build_aux_graph,
    "code_table": code_table,
    "ResolvingSet": lambda g, W: code_table(g, ResolvingSet(tuple(W))),
}
DUPLICATE_MESSAGE = {
    "metric_code": "duplicate landmarks",
    "is_resolving": "duplicate landmarks",
    "build_aux_graph": "duplicate landmark a1,2",
    "code_table": "duplicate landmarks",
    "ResolvingSet": "duplicate landmarks in resolving set",
}


def _refusal(entry, landmarks, g=GridGraph(3, 3)):
    with pytest.raises(InputError) as exc:
        LANDMARK_ENTRY_POINTS[entry](g, landmarks)
    return str(exc.value)


@pytest.mark.parametrize("entry", LANDMARK_ENTRY_POINTS)
def test_entry_points_refuse_bad_landmarks_with_their_messages(entry):
    assert _refusal(entry, [Row(1), Cell(1, 2), Col(3), Cell(1, 2)]) == DUPLICATE_MESSAGE[entry]
    for bad, name in ((Cell(4, 1), "a4,1"), (Row(0), "r0"), (Col(4), "c4")):
        assert _refusal(entry, [Row(1), bad]) == f"vertex {name} out of range for grid (3, 3)"
    assert _refusal(entry, [Row(1), "r2"]) == "not a vertex: 'r2'"
    assert _refusal(entry, [Row(1), (1, 2)]) == "not a vertex: (1, 2)"


@pytest.mark.parametrize("entry", LANDMARK_ENTRY_POINTS)
@pytest.mark.parametrize("bad,name,index", [
    (Cell(1.5, 2), "a1.5,2", 1.5),
    (Cell(1, 2.0), "a1,2.0", 2.0),
    (Row(1.0), "r1.0", 1.0),
    (Col(True), "cTrue", True),
    (Cell(np.int64(1), 2), "a1,2", np.int64(1)),
])
def test_entry_points_refuse_non_integer_indices(entry, bad, name, index):
    # a float, bool or numpy index once slipped past the range check
    assert _refusal(entry, [bad, Col(2)]) == f"vertex {name} has a non-integer index {index!r}"


def test_duplicates_are_found_by_grid_position():
    # a repeated relay, a repeated cell and a second hub are each refused
    g = GridGraph(3, 4)
    for W in ([Row(2), Col(2), Row(2)], [Col(4), Col(4)], [Cell(2, 3), Row(1), Cell(2, 3)],
              [HUB, Cell(1, 1), HUB]):
        with pytest.raises(InputError, match="^duplicate landmarks$"):
            is_resolving(g, W)
    # a cell and the relays it joins are distinct landmarks
    assert _same_verdict(g, [Cell(1, 1), Row(1), Col(1), HUB])


def test_first_fault_in_landmark_order_wins():
    g = GridGraph(3, 3)
    out_of_range = "vertex a9,9 out of range for grid (3, 3)"
    for entry in ("is_resolving", "code_table", "ResolvingSet"):
        assert _refusal(entry, [Row(1), Row(1), Cell(9, 9)], g) == DUPLICATE_MESSAGE[entry]
    for entry in ("is_resolving", "code_table", "metric_code"):
        assert _refusal(entry, [Cell(9, 9), Row(1), Row(1)], g) == out_of_range
        assert _refusal(entry, [Row(1), "x", Row(1)], g) == "not a vertex: 'x'"
    # the ResolvingSet constructor refuses duplicates before any grid check
    assert _refusal("ResolvingSet", [Cell(9, 9), Row(1), Row(1)], g) == DUPLICATE_MESSAGE[
        "ResolvingSet"]
    # build_aux_graph: invalid and duplicate landmarks in order, then the hub
    hub = "the hub cannot appear in an auxiliary-graph landmark set"
    assert _refusal("build_aux_graph", [Row(1), Row(1), Cell(9, 9)], g) == "duplicate landmark r1"
    assert _refusal("build_aux_graph", [Cell(9, 9), Row(1), Row(1)], g) == out_of_range
    assert _refusal("build_aux_graph", [HUB, Cell(9, 9)], g) == out_of_range
    assert _refusal("build_aux_graph", [Cell(9, 9), HUB], g) == out_of_range
    assert _refusal("build_aux_graph", [HUB, Row(1), Row(1)], g) == "duplicate landmark r1"
    assert _refusal("build_aux_graph", [HUB, HUB], g) == "duplicate landmark hub"
    assert _refusal("build_aux_graph", [Row(1), HUB, Col(1)], g) == hub


def test_footprint_reads_subclass_landmarks_like_their_base():
    # int subclass indices and Vertex subclasses are valid; GridGraph.point
    # reads them on its isinstance path
    class Index(int):
        pass

    class Corner(Cell):
        pass

    g = GridGraph(4, 5)
    plain = [Cell(1, 2), Row(3), Col(5), Cell(4, 4), HUB]
    odd = [Corner(1, 2), Row(Index(3)), Col(Index(5)), Cell(Index(4), 4), HUB]
    assert (is_resolving(g, odd).resolving, is_resolving(g, odd).witness) == (
        is_resolving(g, plain).resolving, is_resolving(g, plain).witness)
    aux = build_aux_graph(g, odd[:-1])
    assert (aux.relays, aux.cells) == ((2, 8), ((0, 5), (3, 7)))
    assert aux.landmarks == (Row(3), Col(5), Cell(1, 2), Cell(4, 4))
    with pytest.raises(InputError, match="^duplicate landmark a1,2$"):
        build_aux_graph(g, [Cell(1, 2), Corner(1, 2)])
