import hashlib
import tracemalloc

import pytest

from reference import transpose
from stargrid import (
    BudgetError,
    Cell,
    Col,
    GridGraph,
    Hub,
    InputError,
    Row,
    build_basis,
    classify_components,
    build_aux_graph,
    dimension,
    is_resolving,
    regime_of,
    tiling_plan,
    vertex_name,
)
from stargrid import builder


@pytest.mark.parametrize("m,n,want", [
    (1, 1, 2),
    (1, 2, 2), (1, 3, 3), (1, 4, 4),
    (1, 5, 4), (1, 9, 8),
    (2, 5, 4), (2, 9, 8), (3, 7, 6),
    (2, 2, 2), (2, 3, 3), (2, 4, 4),
    (3, 3, 4), (4, 4, 5), (4, 5, 6),
    (3, 4, 4), (3, 5, 5), (3, 6, 6), (4, 6, 6), (4, 7, 7), (4, 8, 8),
    (5, 5, 6), (5, 10, 10), (6, 6, 8), (14, 14, 18),
])
def test_dimension_values(m, n, want):
    assert dimension(m, n) == want


def test_dimension_symmetry():
    for m in range(1, 25):
        for n in range(1, 25):
            assert dimension(m, n) == dimension(n, m)


def test_dimension_rejects_bad_input():
    with pytest.raises(InputError):
        dimension(0, 3)
    with pytest.raises(InputError):
        dimension(3, -1)
    with pytest.raises(InputError):
        dimension(True, 5)


def test_dimension_weakly_monotone_small():
    for m in range(1, 40):
        for n in range(m, 40):
            assert dimension(m, n) <= dimension(m, n + 1)
            assert dimension(m, n) <= dimension(m + 1, n)


def test_regime_dispatch():
    assert regime_of(1, 9).tag == "A"
    assert regime_of(2, 5).tag == "B"
    assert regime_of(5, 10).tag == "D"   # boundary n = 2m is balanced
    assert regime_of(5, 11).tag == "B"
    assert regime_of(2, 2).tag == "C"
    assert regime_of(4, 8).tag == "C"
    assert regime_of(5, 5).tag == "D"
    reg = regime_of(7, 3)  # normalizes to (3, 7), a thin grid
    assert reg.tag == "B" and reg.normalized
    assert not regime_of(3, 7).normalized


def test_tiling_plan_examples():
    plan = tiling_plan(6, 6)
    assert (plan.row_pair_tiles, plan.col_pair_tiles, plan.remainder) == (2, 2, 0)
    assert plan.landmark_count() == 8 == dimension(6, 6)
    assert plan.singles == () and plan.isolated is None

    plan = tiling_plan(5, 9)
    assert (plan.row_pair_tiles, plan.col_pair_tiles, plan.remainder) == (0, 4, 2)
    assert plan.singles == (Row(5),)
    assert plan.isolated == Col(9)
    assert plan.landmark_count() == 9 == dimension(5, 9)

    plan = tiling_plan(5, 7)
    assert (plan.row_pair_tiles, plan.col_pair_tiles, plan.remainder) == (1, 3, 0)
    assert plan.landmark_count() == 8 == dimension(5, 7)


def test_tiling_plan_outside_regime_d():
    with pytest.raises(InputError):
        tiling_plan(2, 5)
    with pytest.raises(InputError):
        tiling_plan(1, 1)
    with pytest.raises(InputError):
        tiling_plan(4, 4)


def test_tiling_plan_covering_arithmetic():
    for m in range(5, 61):
        for n in range(m, min(2 * m, 60) + 1):
            plan = tiling_plan(m, n)
            s, t = plan.row_pair_tiles, plan.col_pair_tiles
            assert s >= 0 and t >= 0, (m, n)
            single_rows = sum(1 for v in plan.singles if isinstance(v, Row))
            single_cols = sum(1 for v in plan.singles if isinstance(v, Col))
            iso_col = 1 if isinstance(plan.isolated, Col) else 0
            assert 2 * s + t + single_rows == m, (m, n)
            assert s + 2 * t + single_cols + iso_col == n, (m, n)
            assert plan.landmark_count() == dimension(m, n), (m, n)
            assert plan.remainder == (m + n) % 3


@pytest.mark.parametrize("m,n,expected", [
    (1, 7, ["c1", "c2", "a1,3", "a1,4", "a1,5", "a1,6"]),
    (3, 8, ["a1,1", "a1,2", "a2,3", "a2,4", "a3,5", "a3,6", "a3,7"]),
    (4, 4, ["a1,1", "a1,2", "a2,3", "a3,3", "r4"]),
    (4, 5, ["a1,1", "a1,2", "a2,3", "a3,3", "a4,4", "a4,5"]),
    (2, 3, ["a1,1", "a1,2", "r2"]),
    (1, 2, ["a1,1", "a1,2"]),
    (1, 1, ["r1", "a1,1"]),
    (5, 5, ["a1,1", "a2,1", "a3,2", "a4,2", "a5,3", "a5,4"]),
])
def test_build_basis_explicit_sets(m, n, expected):
    from stargrid import vertex_name
    got = [vertex_name(v) for v in build_basis(m, n)]
    assert got == expected


def test_build_basis_postconditions_small():
    for m in range(1, 19):
        for n in range(m, 19):
            g = GridGraph(m, n)
            basis = build_basis(m, n)
            assert len(basis) == dimension(m, n), (m, n)
            assert all(not isinstance(v, Hub) for v in basis), (m, n)
            assert is_resolving(g, basis), (m, n)
            assert basis.provenance.startswith("constructed-regime-")


def test_build_basis_deterministic():
    assert build_basis(6, 9).landmarks == build_basis(6, 9).landmarks


def test_build_basis_swapped_inputs_map_back():
    # build_basis makes each vertex in the caller's orientation; transpose
    # is the independent reference for the swapped grids
    regimes = set()
    for m in range(1, 41):
        for n in range(m + 1, 41):
            fwd, swp = build_basis(m, n), build_basis(n, m)
            assert tuple(map(transpose, fwd.landmarks)) == swp.landmarks, (m, n)
            assert fwd.provenance == swp.provenance
            regimes.update([regime_of(m, n), regime_of(n, m)])
    assert {(r.tag, r.normalized) for r in regimes} == {
        (tag, swapped) for tag in "ABCD" for swapped in (False, True)}
    assert is_resolving(GridGraph(7, 3), build_basis(7, 3))
    assert build_basis(7, 3).provenance == "constructed-regime-B"


def test_build_basis_golden_digest():
    # sha256 of every basis with sides up to 60, as "m n provenance names"
    # lines; computed before build_basis made its vertices in the caller's
    # orientation, so the output is byte-identical
    digest = hashlib.sha256()
    for m in range(1, 61):
        for n in range(1, 61):
            basis = build_basis(m, n)
            names = " ".join(map(vertex_name, basis.landmarks))
            digest.update(f"{m} {n} {basis.provenance} {names}\n".encode())
    assert digest.hexdigest() == (
        "bdd3ddd5bc95b1f0f65bbe05b04835fc0b2dabc6fa41fde0217d2b89102704fc"
    )


def test_build_basis_rejects_bad_input():
    with pytest.raises(InputError):
        build_basis(0, 1)


@pytest.mark.parametrize("bad", [0, -1, True, 2.0])
@pytest.mark.parametrize("take_sides", [GridGraph, dimension, regime_of, tiling_plan, build_basis],
                         ids=lambda f: f.__name__)
def test_bad_grid_sides_get_one_message(take_sides, bad):
    for m, n in [(bad, 5), (5, bad)]:
        with pytest.raises(InputError) as exc:
            take_sides(m, n)
        assert str(exc.value) == f"grid dimensions must be integers >= 1, got ({m}, {n})"


def test_build_basis_refuses_past_its_landmark_limit(monkeypatch):
    # the refusal reads dimension(m, n) alone, before anything is built
    monkeypatch.setattr(builder, "MAX_BASIS_LANDMARKS", 5)
    assert len(build_basis(4, 4)) == 5
    with pytest.raises(BudgetError, match=r"basis of \(5, 4\) has 6 landmarks, limit is 5"):
        build_basis(5, 4)
    monkeypatch.setattr(builder, "_construct", None)
    with pytest.raises(BudgetError):
        build_basis(4, 5)


@pytest.mark.parametrize("points, message", [
    ([(1, 1), (1, 2), (2, 3), (3, 3)],
     r"constructed 4 landmarks for \(4, 4\), expected 5 distinct ones$"),
    ([(1, 0), (2, 0), (3, 0), (4, 0), (0, 1)],
     r"constructed set for \(4, 4\) fails to resolve, witness \(Col\(j=2\), Col\(j=3\)\)$"),
    ([(1, 1), (1, 2), (2, 3), (3, 3), (1, 1)],
     r"constructed 5 landmarks for \(4, 4\), expected 5 distinct ones$"),
], ids=["short", "not-resolving", "repeated"])
def test_build_basis_refuses_a_faulty_construction(monkeypatch, points, message):
    # a fault in the construction is an internal error, never the caller's
    # InputError
    monkeypatch.setattr(builder, "_construct", lambda m, n, tag: list(points))
    with pytest.raises(RuntimeError, match="^internal error: " + message):
        build_basis(4, 4)


@pytest.mark.parametrize("wrong, message", [
    (Cell(1, 1), r"constructed 5 landmarks for \(4, 4\), expected 5 distinct ones$"),
    (Cell(9, 9), r"constructed 5 landmarks for \(4, 4\), expected 5 distinct ones$"),
    (Col(4), r"constructed set for \(4, 4\) fails to resolve, witness \(Row\(i=3\), Col\(j=3\)\)$"),
], ids=["repeat", "off-grid", "not-resolving"])
def test_build_basis_verifies_the_tuple_it_returns(monkeypatch, wrong, message):
    # the check reads the very vertices the caller receives, so a fault in
    # making one from its point is an internal error too: (2, 3) is a2,3 of
    # the (4, 4) basis a1,1 a1,2 a2,3 a3,3 r4
    make = builder.vertex_at_point
    monkeypatch.setattr(builder, "vertex_at_point",
                        lambda x, y: wrong if (x, y) == (2, 3) else make(x, y))
    with pytest.raises(RuntimeError, match="^internal error: " + message):
        build_basis(4, 4)


def test_build_basis_never_calls_grid_point(monkeypatch):
    # each landmark is made once from its point, and the check reads the
    # exact Cell, Row and Col instances in place
    def refuse(*args):
        raise AssertionError("build_basis read a landmark vertex")

    monkeypatch.setattr(GridGraph, "point", refuse)
    grids = [(1, 1), (1, 7), (4, 4), (9, 6), (6, 9), (12, 14)]
    bases = [build_basis(m, n) for m, n in grids]
    monkeypatch.undo()
    for (m, n), basis in zip(grids, bases):
        assert len(basis) == dimension(m, n) and is_resolving(GridGraph(m, n), basis), (m, n)


def test_build_basis_memory_per_landmark():
    # the traced peak of one build (its points and vertices, then the
    # verifier's relay footprint beside the vertices) stays under 0.34 KB a
    # landmark; CPython 3.11 traces 0.302 KB at (30000, 30000)
    build_basis(50, 50)  # first-call imports and caches are not the build's
    tracemalloc.start()
    try:
        basis = build_basis(30000, 30000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(basis) == dimension(30000, 30000) == 40000
    assert peak / len(basis) < 0.34 * 1024


def test_boundary_double_rows_matches_paired_pattern():
    # n = 2m sits in the balanced regime with zero stacked tiles; its size
    # and shape coincide with the paired-cells pattern of the small cases
    for m in (5, 6, 9):
        n = 2 * m
        plan = tiling_plan(m, n)
        assert plan.row_pair_tiles == 0 and plan.col_pair_tiles == m
        basis = build_basis(m, n)
        assert len(basis) == n == dimension(m, n)
        assert list(basis)[:2] == [Cell(1, 1), Cell(1, 2)]


def test_regime_d_footprint_spot_checks():
    # the constructed tiled bases decompose into 5-paths plus the
    # remainder-dependent leftovers
    for m, n in [(5, 5), (6, 6), (5, 9), (7, 11), (9, 13)]:
        plan = tiling_plan(m, n)
        aux = build_aux_graph(GridGraph(m, n), build_basis(m, n))
        rep = classify_components(aux)
        fives = sum(1 for o in rep.path_orders if o == 5)
        twos = sum(1 for o in rep.path_orders if o == 2)
        ones = sum(1 for o in rep.path_orders if o == 1)
        assert fives == plan.row_pair_tiles + plan.col_pair_tiles
        assert twos == len(plan.singles)
        assert ones == (1 if plan.isolated else 0)
        assert rep.non_path_count == 0
