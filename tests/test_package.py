import pytest

import stargrid
from stargrid import auxgraph, localize, oracle

PUBLIC = [
    "BudgetError", "Cell", "CodeTable", "Col", "ComponentReport", "DEFAULT_BUDGET",
    "DecodeResult", "GridGraph", "HUB", "Hub", "InputError", "NoiseModel", "ResolvingSet",
    "Row", "SearchBudget", "Verdict", "aux_graph_to_dot", "bfs_distances",
    "brute_force_adjacency_dimension", "brute_force_dimension", "build_aux_graph",
    "build_basis", "classify_components", "code_table", "decode", "decode_batch", "dimension",
    "enumerate_minimum_bases", "exists_hub_free_basis", "is_resolving", "iter_minimum_bases",
    "metric_code", "parse_landmark_lines", "parse_vertex", "regime_of", "simulate",
    "structural_audit", "tiling_plan", "vertex_name",
]


def test_public_surface_is_pinned():
    assert sorted(stargrid.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        getattr(stargrid, name)


@pytest.mark.parametrize("name, home", [
    ("SimpleGraph", oracle),
    ("check_relays_resolved", auxgraph),
    ("code_matrix", localize),
    ("full_distance_matrix", localize),
])
def test_test_only_names_are_gone(name, home):
    # their only callers were tests, which keep slow twins of them in
    # tests/reference.py
    with pytest.raises(AttributeError, match=name):
        getattr(stargrid, name)
    assert not hasattr(home, name)


@pytest.mark.parametrize("cls, name", [
    (localize.CodeTable, "code_of"),
    # the unchecked cost kernel is private: decode_batch and simulate check
    # the metric and the entries before they call CodeTable._costs
    (localize.CodeTable, "costs"),
    (auxgraph.AuxGraph, "neighbors"),
    (auxgraph.AuxGraph, "index_of"),
])
def test_test_only_methods_are_gone(cls, name):
    assert not hasattr(cls, name)
