import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from reference import (
    combination_resolving_subsets,
    int_pair_masks,
    int_resolving_subsets,
    is_adjacency_resolving,
    python_bfs_distances,
    square_adjacency_table,
)

from stargrid import (
    HUB,
    BudgetError,
    Cell,
    GridGraph,
    InputError,
    ResolvingSet,
    Row,
    SearchBudget,
    SimpleGraph,
    bfs_distances,
    brute_force_adjacency_dimension,
    brute_force_dimension,
    build_aux_graph,
    build_basis,
    dimension,
    enumerate_minimum_bases,
    exists_hub_free_basis,
    full_distance_matrix,
    is_resolving,
    iter_minimum_bases,
)
from stargrid import oracle
from stargrid.oracle import (
    DEFAULT_BUDGET,
    _adjacency_table,
    _pair_masks,
    _smallest_resolving,
    _SubsetScan,
)

# every grid with at most 26 vertices, m <= n
SMALL_GRIDS = [(m, n) for m in range(1, 6) for n in range(m, 13) if (m + 1) * (n + 1) <= 26]


def test_bfs_matches_four_cycle_metric():
    d = bfs_distances(GridGraph(1, 1))
    assert d.tolist() == [
        [0, 1, 1, 2],
        [1, 0, 2, 1],
        [1, 2, 0, 1],
        [2, 1, 1, 0],
    ]


def test_bfs_matches_closed_form():
    for m, n in [(1, 2), (2, 2), (3, 4), (5, 5), (6, 8)]:
        g = GridGraph(m, n)
        assert np.array_equal(bfs_distances(g), full_distance_matrix(g)), (m, n)


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 9) for n in range(1, 9)]
                         + [(1, 30), (30, 1), (10, 10)])
def test_bfs_matches_python_reference(m, n):
    g = GridGraph(m, n)
    got, want = bfs_distances(g), python_bfs_distances(g)
    assert got.dtype == want.dtype == np.uint8
    assert np.array_equal(got, want)


def test_bfs_diameter():
    # exhaustively derived: 2 for the 4-cycle, 3 while all cells share one
    # row, 4 as soon as both sides have two relays
    assert bfs_distances(GridGraph(1, 1)).max() == 2
    for n in (2, 5, 9):
        assert bfs_distances(GridGraph(1, n)).max() == 3, n
    for m, n in [(2, 2), (2, 5), (4, 7)]:
        assert bfs_distances(GridGraph(m, n)).max() == 4, (m, n)


def test_bfs_marks_unreachable_pairs():
    # a path 0-1-2 beside an edge 3-4
    d = bfs_distances(SimpleGraph(5, [(0, 1), (1, 2), (3, 4)]))
    assert d.dtype == np.uint8
    assert d.tolist() == [
        [0, 1, 2, 255, 255],
        [1, 0, 1, 255, 255],
        [2, 1, 0, 255, 255],
        [255, 255, 255, 0, 1],
        [255, 255, 255, 1, 0],
    ]


@pytest.mark.parametrize("order, edges", [
    (3, [(1, 2)]),  # isolated vertex first
    (3, [(0, 2)]),  # in the middle
    (3, [(0, 1)]),  # last
    (6, [(1, 2), (2, 3)]),  # first, and the last two
    (1, []),
    (3, []),
])
def test_bfs_isolated_vertices_match_python_reference(order, edges):
    g = SimpleGraph(order, edges)
    got, want = bfs_distances(g), python_bfs_distances(g)
    assert got.dtype == want.dtype == np.uint8
    assert np.array_equal(got, want), got
    isolated = [v for v in g.vertices() if not g.neighbors(v)]
    assert all(got[v, w] == 255 for v in isolated for w in g.vertices() if w != v)


def test_bfs_cap(monkeypatch):
    with pytest.raises(BudgetError, match="has 2601 vertices, BFS cap is 2000"):
        bfs_distances(GridGraph(50, 50))
    monkeypatch.setattr(oracle, "MAX_BFS_VERTICES", 121)
    bfs_distances(GridGraph(10, 10))  # 121 vertices, fits
    with pytest.raises(BudgetError, match="has 122 vertices, BFS cap is 121"):
        bfs_distances(SimpleGraph.path(122))


def test_bfs_reports_up_to_254_hops_and_refuses_more():
    # the uint8 table counts levels, and 255 marks an unreachable pair
    g = SimpleGraph.path(255)
    got = bfs_distances(g)
    assert got.max() == 254
    assert np.array_equal(got, python_bfs_distances(g))
    with pytest.raises(BudgetError, match="^host has a pair 255 hops apart, BFS limit is 254 hops"):
        bfs_distances(SimpleGraph.path(256))
    # a pair never reached is still marked, not refused
    got = bfs_distances(SimpleGraph(256, [(i, i + 1) for i in range(254)]))
    assert (got[0, 254], got[0, 255], got[255, 0]) == (254, 255, 255)


def test_brute_force_dimension_examples():
    assert brute_force_dimension(GridGraph(1, 1))[0] == 2
    assert brute_force_dimension(GridGraph(3, 3))[0] == 4
    assert brute_force_dimension(GridGraph(4, 6))[0] == 6


def test_brute_force_agrees_with_formula_small():
    for m in range(1, 4):
        for n in range(m, 6):
            k, witness = brute_force_dimension(GridGraph(m, n))
            assert k == dimension(m, n), (m, n)
            assert is_resolving(GridGraph(m, n), witness)


def test_brute_force_deterministic_and_symmetry_independent():
    # the dimension is a graph invariant, so the transposed grid must agree
    for m, n in [(2, 4), (3, 3)]:
        g = GridGraph(m, n)
        base = brute_force_dimension(g)
        assert base == brute_force_dimension(g)
        assert base[0] == brute_force_dimension(GridGraph(n, m))[0]


def test_witness_is_first_enumerated_basis():
    for m, n in itertools.product((1, 2), range(1, 5)):
        for g in (GridGraph(m, n), GridGraph(n, m)):
            k, witness = brute_force_dimension(g)
            assert next(iter_minimum_bases(g, k)).landmarks == witness.landmarks, g


def test_hub_free_search_matches_enumeration():
    for m, n in itertools.product((1, 2), range(1, 5)):
        for g in (GridGraph(m, n), GridGraph(n, m)):
            k = dimension(m, n)
            for size in range(max(1, k - 1), k + 1):
                expected = any(HUB not in b.landmarks for b in iter_minimum_bases(g, size))
                assert exists_hub_free_basis(g, size) == expected, (g, size)


def test_brute_force_budget_refusal():
    g = GridGraph(10, 10)
    with pytest.raises(BudgetError):
        brute_force_dimension(g, SearchBudget(max_candidates=100_000))


# the grids of the benchmark's oracle workload (m <= n)
ORACLE_GRIDS = [(1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (2, 2), (2, 3), (2, 4),
                (2, 5), (2, 6), (2, 7), (3, 3), (3, 4), (3, 5), (4, 4)]


def _subsets(scan, k):
    """The scan's resolving k-subsets as index tuples, its blocks flattened
    in the order it yields them."""
    for hits in scan.resolving(k):
        for row in hits.tolist():
            yield tuple(row)


def _first_resolving_from_size_one(table):
    """The scan the searches ran before the pigeonhole bound: every size
    from 1 up, first hit in lexicographic order."""
    scan = _SubsetScan(range(len(table)), _pair_masks(table))
    for k in range(1, len(table) + 1):
        combo = next(_subsets(scan, k), None)
        if combo is not None:
            return combo
    raise AssertionError("the whole vertex set always resolves")


@pytest.mark.parametrize("m,n", ORACLE_GRIDS)
def test_pigeonhole_start_keeps_grid_results(m, n):
    for g in (GridGraph(m, n), GridGraph(n, m)):
        want = _first_resolving_from_size_one(bfs_distances(g))
        k, witness = brute_force_dimension(g)
        assert (k, witness.landmarks) == (len(want), tuple(map(g.vertex_at, want))), g
        aux = build_aux_graph(g, build_basis(g.m, g.n).landmarks)
        table = _adjacency_table(aux)
        want = _first_resolving_from_size_one(table)
        assert _smallest_resolving(table, DEFAULT_BUDGET, "search") == want, g
        assert brute_force_adjacency_dimension(aux) == len(want), g


def test_pigeonhole_start_keeps_small_host_results():
    # paths, cycles and stars of up to 7 vertices
    for host in [h for h in _small_hosts() if isinstance(h, SimpleGraph)]:
        table = bfs_distances(host)
        want = _first_resolving_from_size_one(table)
        assert _smallest_resolving(table, DEFAULT_BUDGET, "search") == want, host.n
        table = _adjacency_table(host)
        want = _first_resolving_from_size_one(table)
        assert _smallest_resolving(table, DEFAULT_BUDGET, "search") == want, host.n
        assert brute_force_adjacency_dimension(host) == len(want), host.n


def test_pigeonhole_bound_examples():
    # N - k <= D^k: the 4-cycle (D = 2) needs 2, a 961-vertex grid (D = 4)
    # needs 5, a complete graph (D = 1) needs N - 1, one vertex needs 1
    assert oracle._fewest_landmarks(4, 2) == 2
    assert oracle._fewest_landmarks(961, 4) == 5
    assert oracle._fewest_landmarks(6, 1) == 5
    assert oracle._fewest_landmarks(1, 0) == 1


def test_adjacency_dimension_refuses_empty_host():
    # every vertex together resolves, so only a host without vertices can
    # end the ascending search without a hit
    with pytest.raises(InputError, match="at least one vertex"):
        brute_force_adjacency_dimension(SimpleGraph(0, []))


def test_refusals_run_no_bfs(monkeypatch):
    # the gate needs only N and k, so an over-budget call refuses before
    # paying for the distance table
    def no_bfs(g):
        raise RuntimeError("BFS ran before the budget gate")

    monkeypatch.setattr(oracle, "bfs_distances", no_bfs)
    g = GridGraph(10, 10)  # comb(121, 5) and comb(120, 5) exceed the default budget
    with pytest.raises(BudgetError):
        enumerate_minimum_bases(g, 5)
    with pytest.raises(BudgetError):
        exists_hub_free_basis(g, 5)


def test_adjacency_search_runs_no_bfs(monkeypatch):
    # the truncated table comes from neighbour lists alone: a BFS would run
    # one level per hop of the host's diameter, which on a long path is
    # thousands of levels
    def no_bfs(g):
        raise RuntimeError("the adjacency search ran a BFS")

    monkeypatch.setattr(oracle, "bfs_distances", no_bfs)
    aux = build_aux_graph(GridGraph(3, 3), build_basis(3, 3).landmarks)
    for host, want in [(SimpleGraph.path(7), 3), (SimpleGraph.star(4), 3),
                       (GridGraph(1, 1), 2), (aux, 4)]:
        assert brute_force_adjacency_dimension(host) == want


def test_oracle_reads_adjacency_only(monkeypatch):
    # the searches read a grid through vertex_count() and adjacency(); the
    # per-vertex API, which builds vertex objects, must not be needed
    want = {}
    for m, n in [(3, 3), (2, 5)]:
        g = GridGraph(m, n)
        k = dimension(m, n)
        want[m, n] = (brute_force_dimension(g), enumerate_minimum_bases(g, k),
                      exists_hub_free_basis(g, k), exists_hub_free_basis(g, k - 1))

    def refuse(self, v):
        raise RuntimeError("the oracle read the per-vertex API")

    monkeypatch.setattr(GridGraph, "neighbors", refuse)
    monkeypatch.setattr(GridGraph, "index_of", refuse)
    for (m, n), (dim, bases, hub_free, smaller) in want.items():
        g = GridGraph(m, n)
        k = dimension(m, n)
        assert brute_force_dimension(g) == dim
        assert enumerate_minimum_bases(g, k) == bases
        assert exists_hub_free_basis(g, k) == hub_free
        assert exists_hub_free_basis(g, k - 1) == smaller
    assert [len(want[grid][1]) for grid in want] == [246, 30]
    assert [want[grid][0][0] for grid in want] == [4, 4]


def test_oversized_adjacency_host_refused_before_table(monkeypatch):
    # the pair-mask cap is checked from vertex_count() alone, so neither the
    # (N, N) table nor the neighbour lists of a host past it are built
    built = []
    monkeypatch.setattr(oracle, "_adjacency_table", lambda host: built.append(host))
    for host in (SimpleGraph(3000, []), GridGraph(100, 100)):
        with pytest.raises(BudgetError, match="pair masks of"):
            brute_force_adjacency_dimension(host)
    assert built == []


@pytest.mark.parametrize("m,n", [(2, 7), (7, 2), (4, 4)])
def test_enumerated_bases_equal_checked_sets(m, n):
    # bases skip the duplicate check; they must still equal, and hash like,
    # sets built through the public constructor, whose provenance differs
    g = GridGraph(m, n)
    bases = enumerate_minimum_bases(g, dimension(m, n))
    assert bases
    # so do the dimension search's witness and the constructed basis
    for b in [*bases, brute_force_dimension(g)[1], build_basis(m, n)]:
        checked = ResolvingSet(b.landmarks)
        assert b == checked and hash(b) == hash(checked), b
        assert len(set(b.landmarks)) == len(b.landmarks)


def test_enumerate_minimum_bases_four_cycle():
    g = GridGraph(1, 1)
    bases = enumerate_minimum_bases(g, 2)
    sets = [frozenset(b.landmarks) for b in bases]
    assert frozenset({Row(1), Cell(1, 1)}) in sets
    assert any(HUB not in s for s in sets)
    # C4: every pair of adjacent-but-distinct vertices resolves; the two
    # antipodal pairs do not
    assert len(bases) == 4


def test_enumerate_minimum_bases_contains_builder_output():
    for m, n in [(1, 2), (2, 2), (2, 3), (1, 4)]:
        g = GridGraph(m, n)
        k = dimension(m, n)
        sets = [frozenset(b.landmarks) for b in enumerate_minimum_bases(g, k)]
        assert frozenset(build_basis(m, n).landmarks) in sets, (m, n)


def test_enumerate_minimum_bases_includes_cell_pair_on_2x2():
    sets = [frozenset(b.landmarks)
            for b in enumerate_minimum_bases(GridGraph(2, 2), 2)]
    assert frozenset({Cell(1, 1), Cell(1, 2)}) in sets


def test_enumerate_budget_refusal():
    with pytest.raises(BudgetError):
        enumerate_minimum_bases(GridGraph(3, 3), 4, SearchBudget(max_candidates=100))


def test_enumerated_bases_resolve():
    g = GridGraph(2, 2)
    for b in enumerate_minimum_bases(g, 2):
        assert is_resolving(g, b), b


def test_adjacency_dimension_hosts():
    assert brute_force_adjacency_dimension(SimpleGraph.path(1)) == 1
    assert brute_force_adjacency_dimension(SimpleGraph.cycle(4)) == 2
    assert brute_force_adjacency_dimension(SimpleGraph.star(4)) == 3


def test_adjacency_dimension_on_grid_host():
    # the 4-cycle again, but through the grid host interface
    assert brute_force_adjacency_dimension(GridGraph(1, 1)) == 2


def test_adjacency_dimension_budget():
    with pytest.raises(BudgetError):
        brute_force_adjacency_dimension(SimpleGraph.cycle(30),
                                        SearchBudget(max_candidates=50))


def _adjacency_dimension_by_definition(host) -> int:
    verts = host.vertices()
    for k in range(1, len(verts) + 1):
        if any(is_adjacency_resolving(host, verts, s)
               for s in itertools.combinations(verts, k)):
            return k
    raise AssertionError("the full vertex set always adjacency-resolves")


def _small_hosts():
    return ([SimpleGraph.path(order) for order in range(1, 8)]
            + [SimpleGraph.cycle(order) for order in range(3, 8)]
            + [SimpleGraph.star(leaves) for leaves in range(1, 7)]
            + [build_aux_graph(GridGraph(m, n), build_basis(m, n).landmarks)
               for m, n in [(2, 2), (2, 3), (3, 3)]])


def test_adjacency_table_matches_square_construction():
    for host in _small_hosts() + [GridGraph(m, n) for m, n in [(1, 1), (1, 3), (2, 2)]]:
        table = _adjacency_table(host)
        assert np.array_equal(table, table.T), host.vertices()
        assert np.array_equal(table, square_adjacency_table(host)), host.vertices()


def test_adjacency_dimension_matches_definition():
    for host in _small_hosts():
        assert (brute_force_adjacency_dimension(host)
                == _adjacency_dimension_by_definition(host)), host.vertices()


def test_exists_hub_free_basis_small():
    for m, n in [(1, 1), (2, 3), (3, 4)]:
        assert exists_hub_free_basis(GridGraph(m, n), dimension(m, n)), (m, n)


def test_exists_hub_free_budget():
    with pytest.raises(BudgetError):
        exists_hub_free_basis(GridGraph(5, 5), 6, SearchBudget(max_candidates=100))


@pytest.mark.parametrize("host", [
    *(SimpleGraph.path(order) for order in (1, 2, 7)),
    *(SimpleGraph.cycle(order) for order in (3, 4, 8)),
    *(SimpleGraph.star(leaves) for leaves in (1, 5)),
    SimpleGraph(6, [(4, 1), (1, 2), (2, 4)]),  # 0, 3 and 5 isolated
    SimpleGraph(3, []),
    SimpleGraph(0, []),
])
def test_simple_graph_adjacency_matches_neighbors(host):
    got = host.adjacency()
    assert got == [[host.index_of(w) for w in host.neighbors(v)] for v in host.vertices()]
    assert all(near == sorted(near) for near in got)


def test_simple_graph_validation():
    with pytest.raises(InputError):
        SimpleGraph(3, [(0, 3)])
    with pytest.raises(InputError):
        SimpleGraph(3, [(1, 1)])


@pytest.mark.parametrize("edge", [
    (0, True), (True, 2), (0.0, 1), (0, 2.0), ("0", 1), (-1, 1),
    # not pairs: three ends, one end, no end, and no sequence at all
    (0, 1, 2), (0,), (), 0, None,
])
def test_simple_graph_refuses_non_vertex_ends(edge):
    # an edge must be a pair of ends, each an int (not a bool, as in
    # check_int) in range
    with pytest.raises(InputError, match="bad edge"):
        SimpleGraph(3, [edge])
    with pytest.raises(InputError, match="bad edge"):
        SimpleGraph(3, [(0, 1), edge])


@pytest.mark.parametrize("v", [7, 4, -1, True, False, 1.0, "1", None])
def test_simple_graph_lookups_refuse_non_vertices(v):
    g = SimpleGraph.path(4)
    with pytest.raises(InputError, match="not in graph of 4 vertices"):
        g.neighbors(v)
    with pytest.raises(InputError, match="not in graph of 4 vertices"):
        g.index_of(v)
    assert g.neighbors(1) == [0, 2] and g.index_of(3) == 3


@pytest.mark.parametrize("order", [-1, True, False, 2.0, "3", None])
def test_simple_graph_refuses_bad_order(order):
    message = f"vertex count must be an integer >= 0, got {order!r}"
    with pytest.raises(InputError, match=re.escape(message)):
        SimpleGraph(order, [])


@pytest.mark.parametrize("k", [0, -2, True, False, 2.0, 2.5, "2", None])
def test_subset_searches_refuse_bad_sizes(k):
    g = GridGraph(1, 1)
    message = re.escape(f"subset size must be an integer >= 1, got {k!r}")
    with pytest.raises(InputError, match=message):
        enumerate_minimum_bases(g, k)
    with pytest.raises(InputError, match=message):
        next(iter_minimum_bases(g, k))
    with pytest.raises(InputError, match=message):
        exists_hub_free_basis(g, k)


def _as_ints(masks) -> list[int]:
    return [int.from_bytes(row.tobytes(), "little") for row in masks]


def _assert_scan_matches_reference(dist, sizes, hub_free=True):
    """The block scan yields exactly the reference scan's sequence, over
    every index and, with ``hub_free``, over every index but 0."""
    total = dist.shape[0]
    masks, ref_masks = _pair_masks(dist), int_pair_masks(dist)
    assert _as_ints(masks) == list(ref_masks)
    # one scan per index set over ascending sizes reuses its subset tables,
    # as the dimension search does
    every, rest = _SubsetScan(range(total), masks), _SubsetScan(range(1, total), masks)
    for k in sizes:
        want = list(int_resolving_subsets(range(total), k, ref_masks))
        assert list(_subsets(every, k)) == want, k
        if hub_free:
            # combinations of range(1, N) are those of range(N) without 0, in
            # the same order, so this is the reference scan over range(1, N)
            assert list(_subsets(rest, k)) == [c for c in want if c[0] != 0], k


@pytest.mark.parametrize("m, n, k, first", [
    (2, 7, 6, 0), (2, 7, 6, 1), (4, 4, 5, 0), (1, 8, 7, 0), (3, 3, 4, 0)])
def test_scan_yields_blocks_of_increasing_rows_in_order(m, n, k, first):
    # each block is one (hits, k) integer array whose rows are subsets in
    # increasing index order, and the blocks run on in lexicographic order
    dist = bfs_distances(GridGraph(m, n))
    blocks = list(_SubsetScan(range(first, len(dist)), _pair_masks(dist)).resolving(k))
    assert len(blocks) > 1
    for hits in blocks:
        assert isinstance(hits, np.ndarray) and hits.dtype.kind == "i"
        assert hits.ndim == 2 and hits.shape[0] > 0 and hits.shape[1] == k
        assert (np.diff(hits, axis=1) > 0).all()
        assert hits.min() >= first
    rows = [tuple(row) for row in np.concatenate(blocks).tolist()]
    assert all(a < b for a, b in zip(rows, rows[1:]))


def test_pair_masks_layout():
    for m, n, words in [(2, 20, 1), (7, 7, 1), (4, 12, 2), (10, 10, 2)]:
        dist = bfs_distances(GridGraph(m, n))
        total = dist.shape[0]
        masks = _pair_masks(dist)
        assert masks.dtype == np.dtype("<u8")
        assert masks.shape == (total * (total - 1) // 2, words), (m, n)
    assert _pair_masks(np.zeros((1, 1), dtype=np.uint8)).shape == (0, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 70).flatmap(
    lambda total: arrays(np.uint8, (total, total), elements=st.integers(0, 4))),
    st.sampled_from([1, 50, 1000]))
def test_pair_masks_blockwise_matches_one_block(dist, bools):
    # tiny blocks split both passes, with a partial last block
    one_block = _pair_masks(dist)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_MASK_BOOLS", bools)
        blockwise = _pair_masks(dist)
    assert blockwise.shape == one_block.shape and blockwise.dtype == one_block.dtype
    assert blockwise.tobytes() == one_block.tobytes()
    assert _as_ints(one_block) == list(int_pair_masks(dist))


def test_pair_masks_refuse_before_allocating():
    # the (43, 43) grid's 1936 vertices: 1,873,080 pairs of 31 words
    dist = np.zeros((1936, 1936), dtype=np.uint8)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="need 464523840 bytes, limit is 67108864"):
            _pair_masks(dist)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_pair_masks_memory():
    # 961 vertices: 461,280 pairs of 16 words, a 56 MB table
    dist = bfs_distances(GridGraph(30, 30))
    tracemalloc.start()
    try:
        masks = _pair_masks(dist)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert masks.shape == (461_280, 16)
    assert peak < 1.5 * masks.nbytes, (peak, masks.nbytes)


@pytest.mark.parametrize("m,n", SMALL_GRIDS)
def test_scan_matches_reference_on_small_grids(m, n):
    for g in (GridGraph(m, n), GridGraph(n, m)):
        _assert_scan_matches_reference(bfs_distances(g), range(1, dimension(m, n) + 1))


@pytest.mark.parametrize("m,n", [(m, n) for m, n in SMALL_GRIDS if (m + 1) * (n + 1) <= 20])
def test_reference_scan_matches_combination_scan(m, n):
    # the depth-first reference against the scan that tests every subset in
    # turn, on the grids of at most 20 vertices in both orientations, over
    # every index, every index but the hub's, and the even indices
    for g in (GridGraph(m, n), GridGraph(n, m)):
        dist = bfs_distances(g)
        masks, total = int_pair_masks(dist), dist.shape[0]
        for indices in (range(total), range(1, total), range(0, total, 2)):
            for k in range(dimension(m, n) + 2):
                want = list(combination_resolving_subsets(indices, k, masks))
                assert list(int_resolving_subsets(indices, k, masks)) == want, (g, indices, k)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda total: st.tuples(
        arrays(np.uint8, (total, total), elements=st.integers(0, 3)),
        st.sets(st.integers(0, total - 1)).map(sorted))),
    st.integers(0, 6))
def test_reference_scan_matches_combination_scan_on_random_tables(case, k):
    dist, indices = case
    masks = int_pair_masks(dist)
    want = list(combination_resolving_subsets(indices, k, masks))
    assert list(int_resolving_subsets(indices, k, masks)) == want


@pytest.mark.parametrize("m,n", [(2, 20), (7, 7), (4, 12), (10, 10)])
def test_scan_matches_reference_at_word_boundaries(m, n):
    # 63, 64, 65 and 121 vertices
    for g in (GridGraph(m, n), GridGraph(n, m)):
        _assert_scan_matches_reference(bfs_distances(g), (1, 2))


@pytest.mark.parametrize("order", [63, 64, 65])
def test_scan_matches_reference_on_cycles_across_words(order):
    # two vertices resolve a cycle unless they are antipodal, so these
    # scans yield subsets whose bits sit in both words
    gap = np.abs(np.subtract.outer(np.arange(order), np.arange(order)))
    dist = np.minimum(gap, order - gap).astype(np.uint8)
    _assert_scan_matches_reference(dist, (1, 2))


@pytest.mark.parametrize("host", ["grid-7-7", "grid-4-12", "cycle-65", "cycle-68"])
def test_scan_matches_reference_on_pair_mask_prefixes(host):
    # the hit word holds the first 64 pairs and the pair loop the rest;
    # any prefix of the masks is a valid scan input, so these prefixes put
    # every pair on either side of that boundary, or leave one side empty.
    # The hosts have 64, 65, 65 and 68 vertices.  On the 68-cycle the
    # antipodal 2-subset {0, 34} meets the first 65 pairs and misses pair
    # 65, so only the pair loop rejects it.
    kind, *sides = host.split("-")
    if kind == "cycle":
        order = int(sides[0])
        gap = np.abs(np.subtract.outer(np.arange(order), np.arange(order)))
        dist = np.minimum(gap, order - gap).astype(np.uint8)
    else:
        dist = bfs_distances(GridGraph(*map(int, sides)))
    total = dist.shape[0]
    masks, ref_masks = _pair_masks(dist), int_pair_masks(dist)
    for count in (0, 1, 63, 64, 65, 129):
        every = _SubsetScan(range(total), masks[:count])
        rest = _SubsetScan(range(1, total), masks[:count])
        for k in (1, 2):
            want = list(int_resolving_subsets(range(total), k, ref_masks[:count]))
            assert list(_subsets(every, k)) == want, (count, k)
            assert list(_subsets(rest, k)) == [c for c in want if c[0] != 0], (count, k)


def test_scan_matches_reference_on_adjacency_tables():
    for host in _small_hosts():
        table = _adjacency_table(host)
        k = brute_force_adjacency_dimension(host)
        _assert_scan_matches_reference(table, range(1, k + 1), hub_free=False)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 20).flatmap(
    lambda total: arrays(np.uint8, (total, total), elements=st.integers(0, 4))),
    st.integers(1, 5))
def test_scan_matches_reference_on_random_tables(dist, top):
    _assert_scan_matches_reference(dist, range(1, min(top, dist.shape[0]) + 1))
