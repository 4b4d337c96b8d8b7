import itertools

import numpy as np
import pytest

from stargrid import (
    HUB,
    BudgetError,
    Cell,
    GridGraph,
    InputError,
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
    is_adjacency_resolving,
    is_resolving,
    iter_minimum_bases,
)


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


def test_bfs_diameter():
    # exhaustively derived: 2 for the 4-cycle, 3 while all cells share one
    # row, 4 as soon as both sides have two relays
    assert bfs_distances(GridGraph(1, 1)).max() == 2
    for n in (2, 5, 9):
        assert bfs_distances(GridGraph(1, n)).max() == 3, n
    for m, n in [(2, 2), (2, 5), (4, 7)]:
        assert bfs_distances(GridGraph(m, n)).max() == 4, (m, n)


def test_bfs_cap():
    with pytest.raises(BudgetError):
        bfs_distances(GridGraph(50, 50), cap=2000)
    bfs_distances(GridGraph(10, 10), cap=200)  # 121 vertices, fits


def test_brute_force_dimension_examples():
    assert brute_force_dimension(GridGraph(1, 1))[0] == 2
    assert brute_force_dimension(GridGraph(3, 3))[0] == 4
    assert brute_force_dimension(GridGraph(4, 6))[0] == 6


def test_brute_force_agrees_with_formula_small():
    for m in range(1, 4):
        for n in range(m, 6):
            k, witness = brute_force_dimension(GridGraph(m, n))
            assert k == dimension(m, n), (m, n)
            assert witness.verified
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
    with pytest.raises(BudgetError):
        brute_force_dimension(GridGraph(2, 2), SearchBudget(max_subset_size=1))


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


def test_adjacency_dimension_matches_definition():
    hosts = ([SimpleGraph.path(order) for order in range(1, 8)]
             + [SimpleGraph.cycle(order) for order in range(3, 8)]
             + [SimpleGraph.star(leaves) for leaves in range(1, 7)]
             + [build_aux_graph(GridGraph(m, n), build_basis(m, n).landmarks)
                for m, n in [(2, 2), (2, 3), (3, 3)]])
    for host in hosts:
        assert (brute_force_adjacency_dimension(host)
                == _adjacency_dimension_by_definition(host)), host.vertices()


def test_exists_hub_free_basis_small():
    for m, n in [(1, 1), (2, 3), (3, 4)]:
        assert exists_hub_free_basis(GridGraph(m, n), dimension(m, n)), (m, n)


def test_exists_hub_free_budget():
    with pytest.raises(BudgetError):
        exists_hub_free_basis(GridGraph(5, 5), 6, SearchBudget(max_candidates=100))


def test_simple_graph_validation():
    with pytest.raises(InputError):
        SimpleGraph(3, [(0, 3)])
    with pytest.raises(InputError):
        SimpleGraph(3, [(1, 1)])
