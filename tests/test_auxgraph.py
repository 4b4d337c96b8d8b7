import json
import random

import pytest

from stargrid import (
    HUB,
    Cell,
    Col,
    GridGraph,
    InputError,
    Primed,
    Row,
    aux_graph_to_dot,
    build_aux_graph,
    build_basis,
    check_relays_resolved,
    classify_components,
    dimension,
    structural_audit,
)


def _aux(m, n, landmarks):
    return build_aux_graph(GridGraph(m, n), landmarks)


def test_single_stacked_pair_gives_five_path():
    aux = _aux(2, 2, [Cell(1, 1), Cell(2, 1)])
    rep = classify_components(aux)
    assert rep.path_orders == (5, 1)
    assert rep.isolated_right == 1
    assert rep.non_path_count == 0
    # the path is r1 - a'11 - c1 - a'21 - r2
    assert aux.is_adjacent(Primed(Cell(1, 1)), Row(1))
    assert aux.is_adjacent(Primed(Cell(1, 1)), Col(1))
    assert aux.is_adjacent(Primed(Cell(2, 1)), Row(2))


def test_empty_landmark_set_all_relays_isolated():
    aux = _aux(3, 3, [])
    rep = classify_components(aux)
    assert rep.path_orders == (1,) * 6
    assert rep.isolated_right == 6
    assert rep.max_degree == 0
    assert aux.left == ()


def test_small_balanced_basis_footprint():
    aux = _aux(4, 4, build_basis(4, 4))
    rep = classify_components(aux)
    assert rep.path_orders == (5, 5, 2, 1)
    assert rep.non_path_count == 0


def test_degree_rules():
    aux = _aux(3, 4, [Cell(2, 2), Cell(2, 3), Row(1), Col(4)])
    # cell copies have degree 2, relay copies degree 1
    assert aux.degree(Primed(Cell(2, 2))) == 2
    assert aux.degree(Primed(Row(1))) == 1
    assert aux.degree(Primed(Col(4))) == 1
    # relay degree = landmarks governing it, plus one if it is a landmark
    assert aux.degree(Row(2)) == 2
    assert aux.degree(Row(1)) == 1
    assert aux.degree(Col(4)) == 1
    assert aux.degree(Row(3)) == 0
    assert aux.degree(Col(1)) == 0


def test_component_sizes_sum():
    rnd = random.Random(3)
    g = GridGraph(4, 5)
    pool = [v for v in g.vertices() if v != HUB]
    for _ in range(20):
        landmarks = rnd.sample(pool, rnd.randint(0, 7))
        aux = build_aux_graph(g, landmarks)
        rep = classify_components(aux)
        # recount component sizes independently by DFS
        sizes = []
        seen = set()
        for v in aux.vertices():
            if v in seen:
                continue
            stack, comp = [v], 0
            seen.add(v)
            while stack:
                u = stack.pop()
                comp += 1
                for w in aux.neighbors(u):
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            sizes.append(comp)
        assert sum(sizes) == len(landmarks) + g.m + g.n
        assert rep.non_path_count + len(rep.path_orders) == len(sizes)
        assert sum(rep.path_orders) <= sum(sizes)


def test_hub_rejected():
    with pytest.raises(InputError):
        _aux(2, 2, [HUB, Cell(1, 1)])


def test_duplicate_landmark_rejected():
    with pytest.raises(InputError):
        _aux(2, 2, [Cell(1, 1), Cell(1, 1)])


def test_relay_landmark_self_edge_path_orders():
    # a lone cell landmark leaves a 3-path; adding the column itself
    # extends it to order 4
    aux = _aux(1, 2, [Cell(1, 1)])
    assert classify_components(aux).path_orders == (3, 1)
    aux = _aux(3, 3, [Cell(1, 1), Col(1)])
    rep = classify_components(aux)
    assert rep.path_orders == (4, 1, 1, 1, 1)
    assert rep.isolated_right == 4


def test_check_relays_resolved_on_builder_output():
    for m, n in [(2, 3), (4, 4), (6, 6), (5, 9)]:
        aux = _aux(m, n, build_basis(m, n))
        assert check_relays_resolved(aux)


def test_check_relays_resolved_witness_two_isolated():
    aux = _aux(2, 3, [Cell(1, 1), Cell(2, 1)])  # columns 2 and 3 untouched
    verdict = check_relays_resolved(aux)
    assert not verdict
    assert verdict.witness == (Col(2), Col(3))


def test_structural_audit_rules():
    aux = _aux(6, 6, build_basis(6, 6))
    audit = structural_audit(aux, strict_tiled=True)
    assert audit.passed
    assert audit.strict_tiling is True
    assert audit.violations == ()

    aux = _aux(2, 3, [Cell(1, 1), Cell(2, 1)])
    audit = structural_audit(aux)
    assert not audit.max_one_isolated
    assert not audit.passed
    assert audit.strict_tiling is None

    aux = _aux(1, 2, [Cell(1, 1)])  # contains a 3-path
    audit = structural_audit(aux)
    assert not audit.no_order3_path
    assert not audit.passed


def test_structural_audit_strict_flags_non_tiles():
    aux = _aux(3, 3, [Cell(1, 1), Col(1)])  # one 4-path, many isolated
    audit = structural_audit(aux, strict_tiled=True)
    assert audit.strict_tiling is False
    assert not audit.passed


def test_degree3_reporting():
    # three cells in one column: c1 has degree 3, no column... rows stay low
    aux = _aux(3, 3, [Cell(1, 1), Cell(2, 1), Cell(3, 1)])
    audit = structural_audit(aux)
    assert audit.right_degree_histogram[3] == 1
    assert not audit.degree3_hypothesis  # only the column side has degree 3
    assert audit.degree3_balanced is None

    aux = _aux(4, 4, [Cell(1, 1), Cell(2, 1), Cell(3, 1),
                      Cell(4, 2), Cell(4, 3), Cell(4, 4)])
    audit = structural_audit(aux)
    assert audit.degree3_hypothesis
    assert audit.degree3_balanced is True


def test_dot_export_shape():
    aux = _aux(2, 2, [Cell(1, 1), Cell(2, 1)])
    dot = aux_graph_to_dot(aux)
    assert dot.startswith("graph aux {")
    assert 'graph [m=2, n=2, basis_size=2];' in dot
    assert '"p_a1,1" -- "r1";' in dot
    assert '"p_a1,1" -- "c1";' in dot
    assert '"c2";' in dot
    assert dot.rstrip().endswith("}")


def test_component_report_dict_mirrors_fields():
    rep = classify_components(_aux(4, 4, build_basis(4, 4)))
    d = rep.to_dict()
    assert d == {
        "path_orders": [5, 5, 2, 1],
        "non_path_count": 0,
        "isolated_right": 1,
        "max_degree": 2,
    }
    json.dumps(d)  # JSON-serializable as exported


def test_random_resolving_supersets_keep_relays_resolved():
    # image of any resolving landmark set adjacency-resolves the relays
    rnd = random.Random(11)
    from stargrid import is_resolving
    g = GridGraph(3, 4)
    pool = [v for v in g.vertices() if v != HUB]
    checked = 0
    for _ in range(60):
        cand = rnd.sample(pool, rnd.randint(4, 9))
        if is_resolving(g, cand):
            aux = build_aux_graph(g, cand)
            assert check_relays_resolved(aux)
            checked += 1
    assert checked >= 10


def test_adjacency_resolved_image_bounds_dimension_below():
    # sets whose auxiliary image resolves the relays are never smaller than
    # the true dimension (checked on balanced grids where that holds)
    rnd = random.Random(23)
    for m, n in [(5, 5), (5, 6)]:
        g = GridGraph(m, n)
        pool = [v for v in g.vertices() if v != HUB]
        dim = dimension(m, n)
        hits = 0
        for _ in range(200):
            cand = rnd.sample(pool, rnd.randint(2, dim + 3))
            aux = build_aux_graph(g, cand)
            if check_relays_resolved(aux):
                assert len(cand) >= dim, (m, n, cand)
                hits += 1
        assert hits >= 5
