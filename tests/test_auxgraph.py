import itertools
import json
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reference import bfs_classify_components, is_adjacency_resolving
from stargrid import (
    HUB,
    Cell,
    Col,
    ComponentReport,
    GridGraph,
    InputError,
    Row,
    SearchBudget,
    Verdict,
    aux_graph_to_dot,
    build_aux_graph,
    build_basis,
    check_relays_resolved,
    classify_components,
    dimension,
    is_resolving,
    iter_minimum_bases,
    structural_audit,
)
from stargrid import auxgraph


# Every grid with at most 20 vertices, both orientations.
SMALL_GRIDS = [(m, n) for m in range(1, 10) for n in range(1, 10) if (m + 1) * (n + 1) <= 20]


def _aux(m, n, landmarks):
    return build_aux_graph(GridGraph(m, n), landmarks)


def test_single_stacked_pair_gives_five_path():
    aux = _aux(2, 2, [Cell(1, 1), Cell(2, 1)])
    rep = classify_components(aux)
    assert rep.path_orders == (5, 1)
    assert rep.isolated_right == 1
    assert rep.non_path_count == 0
    # the path is r1 - a'11 - c1 - a'21 - r2: vertices 0 and 1 are the
    # primed cells, then the relays r1, r2, c1, c2 are 2..5
    assert aux.landmarks == (Cell(1, 1), Cell(2, 1))
    assert aux.left == range(2) and aux.right == range(2, 6)
    assert aux.neighbors(0) == (2, 4)
    assert aux.neighbors(1) == (3, 4)
    assert aux.neighbors(4) == (0, 1)
    # a bool or a float is no vertex, as in check_int
    for bad in (-1, 6, Row(1), 1.0, True, False):
        with pytest.raises(InputError, match="not in auxiliary graph"):
            aux.neighbors(bad)
        with pytest.raises(InputError, match="not in auxiliary graph"):
            aux.index_of(bad)


def test_empty_landmark_set_all_relays_isolated():
    aux = _aux(3, 3, [])
    rep = classify_components(aux)
    assert rep.path_orders == (1,) * 6
    assert rep.isolated_right == 6
    assert rep.max_degree == 0
    assert aux.left == range(0)


def test_small_balanced_basis_footprint():
    aux = _aux(4, 4, build_basis(4, 4))
    rep = classify_components(aux)
    assert rep.path_orders == (5, 5, 2, 1)
    assert rep.non_path_count == 0


def test_degree_rules():
    g = GridGraph(3, 4)
    aux = build_aux_graph(g, [Cell(2, 2), Cell(2, 3), Row(1), Col(4)])

    def copy(v):
        return aux.landmarks.index(v)

    def relay(v):
        return g.index_of(v) - 1  # relay r is the grid's vertex r + 1

    # cell copies have degree 2, relay copies degree 1
    assert len(aux.neighbors(copy(Cell(2, 2)))) == 2
    assert len(aux.neighbors(copy(Row(1)))) == 1
    assert len(aux.neighbors(copy(Col(4)))) == 1
    # relay degree = landmarks governing it, plus one if it is a landmark
    for v, d in [(Row(2), 2), (Row(1), 1), (Col(4), 1), (Row(3), 0), (Col(1), 0)]:
        assert aux.relay_degree[relay(v)] == d, v
        assert len(aux.neighbors(aux.right[relay(v)])) == d, v


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


def test_dot_export_golden():
    # a row relay, a column relay and cells, given out of canonical order
    aux = _aux(3, 4, [Cell(2, 2), Row(2), Cell(1, 1), Col(3), Cell(3, 2)])
    assert aux_graph_to_dot(aux) == (
        'graph aux {\n'
        '  graph [m=3, n=4, basis_size=5];\n'
        '  "p_r2";\n'
        '  "p_c3";\n'
        '  "p_a1,1";\n'
        '  "p_a2,2";\n'
        '  "p_a3,2";\n'
        '  "r1";\n'
        '  "r2";\n'
        '  "r3";\n'
        '  "c1";\n'
        '  "c2";\n'
        '  "c3";\n'
        '  "c4";\n'
        '  "p_r2" -- "r2";\n'
        '  "p_c3" -- "c3";\n'
        '  "p_a1,1" -- "r1";\n'
        '  "p_a1,1" -- "c1";\n'
        '  "p_a2,2" -- "r2";\n'
        '  "p_a2,2" -- "c2";\n'
        '  "p_a3,2" -- "r3";\n'
        '  "p_a3,2" -- "c2";\n'
        '}\n'
    )
    # relays r2 and c2 are the grid's vertices 2 and 5, relays 1 and 4
    assert [aux.landmarks[i] for i in aux.neighbors(aux.right[1])] == [Row(2), Cell(2, 2)]
    assert [aux.landmarks[i] for i in aux.neighbors(aux.right[4])] == [Cell(2, 2), Cell(3, 2)]


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


def test_components_are_computed_once_per_graph(monkeypatch):
    # the union-find ends in one ComponentReport; classifying and then
    # auditing one graph must build it once, and a second graph its own
    made = []

    def counted(*fields):
        made.append(fields)
        return ComponentReport(*fields)

    monkeypatch.setattr(auxgraph, "ComponentReport", counted)
    aux = _aux(5, 6, build_basis(5, 6))
    report = classify_components(aux)
    audit = structural_audit(aux, strict_tiled=True)
    assert len(made) == 1
    assert audit.passed and report.path_orders == (5, 5, 5, 2, 1)
    assert classify_components(aux) is report
    assert structural_audit(aux) == structural_audit(aux, strict_tiled=False)
    assert len(made) == 1
    other = _aux(5, 6, build_basis(5, 6))
    assert classify_components(other) == report
    assert len(made) == 2


def test_random_resolving_supersets_keep_relays_resolved():
    # image of any resolving landmark set adjacency-resolves the relays
    rnd = random.Random(11)
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


def _assert_matches_references(g, aux):
    """Union-find report equals the BFS one; the structural relay check
    equals the adjacency-code check, witness included (aux vertex k + r is
    relay r, the grid's vertex r + 1)."""
    assert classify_components(aux) == bfs_classify_components(aux)
    if not aux.landmarks:
        with pytest.raises(InputError):
            check_relays_resolved(aux)
        with pytest.raises(InputError):
            is_adjacency_resolving(aux, aux.right, aux.left)
        return
    want = is_adjacency_resolving(aux, aux.right, aux.left)
    if not want:
        k = len(aux.left)
        want = Verdict(False, tuple(g.vertex_at(v - k + 1) for v in want.witness))
    assert check_relays_resolved(aux) == want


@pytest.mark.parametrize("m, n", [(4, 4), (3, 5), (5, 5)])
def test_every_minimum_basis_matches_references(m, n):
    g = GridGraph(m, n)
    count = 0
    for basis in iter_minimum_bases(g, dimension(m, n), SearchBudget(max_candidates=10**8)):
        _assert_matches_references(g, build_aux_graph(g, basis.landmarks))
        count += 1
    assert count > 0


def _assert_adjacency_matches_neighbors(aux):
    got = aux.adjacency()
    assert [list(near) for near in got] == [
        [aux.index_of(w) for w in aux.neighbors(v)] for v in aux.vertices()]
    assert all(list(near) == sorted(near) for near in got)


def test_adjacency_matches_neighbors_on_every_minimum_basis():
    g = GridGraph(4, 4)
    bases = list(iter_minimum_bases(g, dimension(4, 4)))
    assert len(bases) == 1008
    for basis in bases:
        _assert_adjacency_matches_neighbors(build_aux_graph(g, basis.landmarks))


@pytest.mark.parametrize("m, n, landmarks", [
    (3, 3, []),
    (4, 4, [Row(2)]),
    (4, 4, [Col(3), Cell(1, 1)]),
    (2, 6, [Cell(1, 2), Cell(2, 2), Cell(1, 5)]),
    (5, 1, [Cell(3, 1), Row(5)]),
])
def test_adjacency_matches_neighbors_with_untouched_relays(m, n, landmarks):
    aux = _aux(m, n, landmarks)
    assert any(not aux.neighbors(r) for r in aux.right)
    _assert_adjacency_matches_neighbors(aux)


@st.composite
def _landmark_sets(draw):
    """A grid with (1, n) and (m, 1) shapes allowed, and a hub-free set of
    rows, columns and cells in random order, possibly empty."""
    g = GridGraph(draw(st.integers(1, 6)), draw(st.integers(1, 7)))
    picks = draw(st.lists(st.integers(1, g.vertex_count() - 1), unique=True,
                          max_size=2 * (g.m + g.n)))
    return g, [g.vertex_at(i) for i in picks]


@settings(max_examples=300, deadline=None)
@given(_landmark_sets())
@example((GridGraph(1, 4), []))
@example((GridGraph(1, 5), [Cell(1, 2), Col(4), Row(1)]))
@example((GridGraph(3, 3), [Cell(1, 1), Cell(1, 2), Cell(2, 1), Cell(2, 2), Row(3)]))
def test_drawn_sets_match_references(case):
    g, landmarks = case
    _assert_matches_references(g, build_aux_graph(g, landmarks))


def _assert_relay_rule_agrees(g, landmarks):
    """A relay pair that shares a metric code shares an adjacency code in
    the auxiliary graph, and a set leaving two relays' adjacency codes
    equal is not resolving."""
    verdict = is_resolving(g, landmarks)
    relays = check_relays_resolved(build_aux_graph(g, landmarks))
    if not verdict and all(isinstance(v, (Row, Col)) for v in verdict.witness):
        assert relays.witness == verdict.witness, landmarks
    if not relays:
        assert not verdict, landmarks


@pytest.mark.parametrize("m, n", SMALL_GRIDS)
def test_relay_rule_agrees_on_small_grids(m, n):
    # every hub-free set on grids of at most 16 vertices; above that, the
    # sets of at most 6 landmarks, which keeps the run near 10 s
    g = GridGraph(m, n)
    pool = g.vertices()[1:]
    largest = len(pool) if len(pool) < 16 else 6
    for k in range(1, largest + 1):
        for landmarks in itertools.combinations(pool, k):
            _assert_relay_rule_agrees(g, landmarks)


@st.composite
def _basis_edits(draw):
    """A hub-free set near the resolving boundary of a grid up to 40 x 40:
    part of its constructed basis plus other hub-free vertices."""
    g = GridGraph(draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    base = [g.index_of(v) for v in build_basis(g.m, g.n).landmarks]
    kept = draw(st.sets(st.sampled_from(base)))
    extra = draw(st.sets(st.integers(1, g.vertex_count() - 1), max_size=g.m + g.n))
    picks = draw(st.permutations(sorted(kept | extra)))
    assume(picks)
    return g, [g.vertex_at(i) for i in picks]


@settings(max_examples=300, deadline=None)
@given(_basis_edits())
def test_relay_rule_agrees_on_drawn_sets(case):
    _assert_relay_rule_agrees(*case)
