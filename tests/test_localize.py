import hashlib
import itertools
import json
import math
import random
import re
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import brute_force_decode, pairwise_min_l1

from stargrid import (
    HUB,
    BudgetError,
    Cell,
    Col,
    GridGraph,
    Hub,
    InputError,
    NoiseModel,
    ResolvingSet,
    Row,
    build_basis,
    code_matrix,
    code_table,
    decode,
    decode_batch,
    is_resolving,
    parse_vertex,
    simulate,
)
from stargrid import localize

# Every grid with at most 20 vertices, both orientations.
SMALL_GRIDS = [(m, n) for m in range(1, 10) for n in range(1, 10) if (m + 1) * (n + 1) <= 20]


def test_code_table_four_cycle():
    g = GridGraph(1, 1)
    table = code_table(g, build_basis(1, 1))
    codes = {table.code_of(v) for v in g.vertices()}
    assert len(codes) == 4
    assert table.min_pairwise_l1 >= 1


def test_code_table_checks_the_set_not_its_verified_flag():
    # {a1,1, a1,2} resolves (2, 2): taken unflagged and as a plain list
    g = GridGraph(2, 2)
    landmarks = (Cell(1, 1), Cell(1, 2))
    for given in (ResolvingSet(landmarks), list(landmarks)):
        table = code_table(g, given)
        assert table.landmarks == landmarks
        assert table.min_pairwise_l1 == pairwise_min_l1(g, landmarks)
    with pytest.raises(InputError, match="hub and a1,2 share a code"):
        code_table(g, [Cell(1, 1)])


def test_code_table_set_input_matches_its_canonical_resolving_set():
    g = GridGraph(6, 9)
    landmarks = list(build_basis(6, 9).landmarks) + [HUB, Row(2), Col(9)]
    canonical = ResolvingSet(tuple(sorted(landmarks, key=g.index_of)))
    for given in (set(landmarks), frozenset(landmarks)):
        table, want = code_table(g, given), code_table(g, canonical)
        assert table.landmarks == want.landmarks
        assert table.min_pairwise_l1 == want.min_pairwise_l1
        assert np.array_equal(table.matrix, want.matrix)
        assert [table.code_of(v) for v in g.vertices()] == [want.code_of(v) for v in g.vertices()]


def test_code_table_refuses_long_codes():
    # every vertex of (300, 300) resolves it, but 90,601 landmarks would
    # overflow the int32 distance sums
    g = GridGraph(300, 300)
    with pytest.raises(BudgetError, match="has 90601 landmarks, limit is 65538"):
        code_table(g, g.vertices())


def test_code_table_refuses_its_size_before_checking_the_set():
    # {a1,1} resolves no grid this large; the O(1) size check speaks first
    with pytest.raises(BudgetError, match="has 10246401 vertices, limit is 10000000"):
        code_table(GridGraph(3200, 3200), [Cell(1, 1)])


def test_code_table_rechecks_basis_against_its_grid():
    # verified on (5,7), but 8 landmarks cannot resolve (6,8), whose dimension is 9
    with pytest.raises(InputError, match=r"does not resolve grid \(6, 8\)"):
        code_table(GridGraph(6, 8), build_basis(5, 7))


def test_code_table_rejects_forged_verified_flag():
    # no argument sets the claim, and the table checks the set itself
    for claim in ({"verified": True}, {"provenance": "oracle"}):
        with pytest.raises(TypeError):
            ResolvingSet((Cell(1, 1),), **claim)
    forged = ResolvingSet((Cell(1, 1),))
    with pytest.raises(InputError, match="hub and a1,2 share a code"):
        code_table(GridGraph(2, 2), forged)


def test_min_pairwise_l1_balanced_grid():
    table = code_table(GridGraph(5, 7), build_basis(5, 7))
    assert table.min_pairwise_l1 == 2


def _assert_codes_are_matrix_rows(g, landmarks):
    table = code_table(g, landmarks)
    rows = code_matrix(g, tuple(landmarks)).tolist()
    assert [table.code_of(v) for v in g.vertices()] == [tuple(r) for r in rows], landmarks


@pytest.mark.parametrize("m,n", SMALL_GRIDS)
def test_code_of_matches_code_matrix_on_every_small_resolving_set(m, n):
    g = GridGraph(m, n)
    for k in range(1, 5):
        for subset in itertools.combinations(g.vertices(), k):
            if is_resolving(g, subset):
                _assert_codes_are_matrix_rows(g, subset)


@pytest.mark.parametrize("m", range(1, 31))
def test_code_of_matches_code_matrix_on_constructed_bases(m):
    for n in range(1, 31):
        _assert_codes_are_matrix_rows(GridGraph(m, n), build_basis(m, n).landmarks)


def _table_l1(g, landmarks):
    return code_table(g, ResolvingSet(tuple(landmarks))).min_pairwise_l1


@pytest.mark.parametrize("m", range(1, 21))
def test_min_pairwise_l1_matches_scan_on_constructed_bases(m):
    for n in range(1, 21):
        g = GridGraph(m, n)
        basis = build_basis(m, n)
        assert code_table(g, basis).min_pairwise_l1 == pairwise_min_l1(g, basis), (m, n)


@pytest.mark.parametrize("m,n", SMALL_GRIDS)
def test_min_pairwise_l1_matches_scan_on_every_small_resolving_set(m, n):
    g = GridGraph(m, n)
    for k in range(1, 5):
        for subset in itertools.combinations(g.vertices(), k):
            if is_resolving(g, subset):
                assert _table_l1(g, subset) == pairwise_min_l1(g, subset), subset


def test_min_pairwise_l1_matches_scan_on_grown_bases():
    # extra landmarks move every branch of the closed form: the hub raises
    # only k and so the hub-cell term, relays and cells raise row and
    # column counts
    rnd = random.Random(41)
    for _ in range(80):
        m, n = rnd.randint(1, 30), rnd.randint(1, 30)
        g = GridGraph(m, n)
        base = list(build_basis(m, n).landmarks)
        others = [v for v in g.vertices() if v not in base and v != HUB]
        extra = rnd.sample(others, min(len(others), rnd.randint(1, 4)))
        for landmarks in (base + [HUB], base + extra, base + extra + [HUB]):
            assert _table_l1(g, landmarks) == pairwise_min_l1(g, landmarks), (m, n, landmarks)


@st.composite
def resolving_sets(draw):
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    hub = [HUB] if draw(st.booleans()) else []
    rows = draw(st.sets(st.integers(1, m), max_size=m))
    cols = draw(st.sets(st.integers(1, n), max_size=n))
    cells = draw(st.sets(st.tuples(st.integers(1, m), st.integers(1, n)), max_size=2 * (m + n)))
    landmarks = hub + [Row(i) for i in rows] + [Col(j) for j in cols] + [Cell(i, j) for i, j in cells]
    g = GridGraph(m, n)
    assume(landmarks and is_resolving(g, landmarks))
    return g, draw(st.permutations(landmarks))


@settings(max_examples=200, deadline=None)
@given(resolving_sets())
def test_min_pairwise_l1_matches_scan_on_drawn_sets(case):
    g, landmarks = case
    assert _table_l1(g, landmarks) == pairwise_min_l1(g, landmarks)


def _pair_class(x, y):
    """Which row of the CodeTable case table the pair (x, y) falls under."""
    if isinstance(x, (Row, Col)) != isinstance(y, (Row, Col)):
        return "opposite sides"
    if isinstance(x, Row) and isinstance(y, Row):
        return "rows"
    if isinstance(x, Col) and isinstance(y, Col):
        return "columns"
    if isinstance(x, (Row, Col)):
        return "row-column"
    if isinstance(x, Hub) or isinstance(y, Hub):
        return "hub-cell"
    if x.j == y.j:
        return "rows"
    if x.i == y.i:
        return "columns"
    return "cell-cell"


def _class_minima(g, landmarks):
    """Smallest code distance within each pair class, by scanning all pairs."""
    verts = g.vertices()
    codes = code_matrix(g, landmarks).astype(np.int64)
    out = {}
    for p, q in itertools.combinations(range(len(verts)), 2):
        cls = _pair_class(verts[p], verts[q])
        out[cls] = min(out.get(cls, 1 << 30), int(np.abs(codes[p] - codes[q]).sum()))
    return out


# One set per branch of the closed form that alone attains the minimum
# (found by searching with the scan), and a diagonal set, where cell pairs
# in distinct rows and columns come closest to it
@pytest.mark.parametrize("m,n,names,branch", [
    (2, 1, "r2 a2,1 hub", "row-column"),
    (2, 1, "a1,1 c1 a2,1", "hub-cell"),
    (4, 1, "r2 r4 c1 r1 a4,1", "rows"),
    (1, 4, "a1,2 c2 r1 c4 c1", "columns"),
    (4, 4, "a1,1 a2,2 a3,3 a4,4 a1,2 a3,4", None),
])
def test_min_pairwise_l1_pinned_branches(m, n, names, branch):
    g = GridGraph(m, n)
    landmarks = [parse_vertex(t) for t in names.split()]
    minima = _class_minima(g, landmarks)
    best = min(minima.values())
    assert _table_l1(g, landmarks) == best == pairwise_min_l1(g, landmarks)
    if branch is not None:
        assert [cls for cls, v in minima.items() if v == best] == [branch], minima
    # opposite-side pairs sit at k, at or above the minimum
    assert minima["opposite sides"] == len(landmarks) >= best
    if "cell-cell" in minima:
        assert minima["cell-cell"] > best, minima


def test_decode_identity_on_ideal_codes():
    for m, n in [(1, 1), (2, 3), (4, 4), (5, 7)]:
        g = GridGraph(m, n)
        table = code_table(g, build_basis(m, n))
        for v in g.vertices():
            for metric in ("hamming", "l1"):
                result = decode(table.code_of(v), table, metric)
                assert result.vertex == v, (m, n, v, metric)
                assert result.distance == 0
                assert not result.ambiguous


def test_decode_reports_ties():
    g = GridGraph(1, 1)
    table = code_table(g, build_basis(1, 1))
    # codes are (1,2), (0,1), (2,1), (1,0); the probe (1,1) is Hamming
    # distance 1 from every one of them
    result = decode((1, 1), table, "hamming")
    assert result.ambiguous
    assert result.vertex is None
    assert len(result.ties) == 4


def test_decode_single_perturbation_is_safe_under_l1():
    # min pairwise L1 of 2 means one +-1 hop error can tie but never land
    # on a uniquely wrong vertex
    g = GridGraph(5, 7)
    table = code_table(g, build_basis(5, 7))
    assert table.min_pairwise_l1 == 2
    for v in g.vertices():
        ideal = list(table.code_of(v))
        for pos in range(len(ideal)):
            for delta in (1, -1):
                noisy = list(ideal)
                noisy[pos] = max(0, noisy[pos] + delta)
                result = decode(noisy, table, "l1")
                assert result.ambiguous or result.vertex == v, (v, pos, delta)


def test_decode_validates_input():
    table = code_table(GridGraph(2, 2), build_basis(2, 2))
    with pytest.raises(InputError):
        decode((1,), table)
    with pytest.raises(InputError):
        decode((1, 1), table, metric="cosine")
    with pytest.raises(InputError, match="one length"):
        decode(((1, 2), 3), table)
    for bad in [(0.9, 2.7), np.array([1.0, 2.0]), ("1", "2"), (True, False)]:
        with pytest.raises(InputError, match="must be integers"):
            decode(bad, table)
    for bad in [(40000, 1), (1, -40000), np.array([1, 2**40])]:
        with pytest.raises(InputError, match="does not fit int16"):
            decode(bad, table)


@pytest.mark.parametrize("entry", [-1, -32768])
def test_decode_rejects_negative_entries(entry):
    # hop counts are never negative, and -32768 would wrap in the int16
    # subtraction of the matrix decode
    table = code_table(GridGraph(2, 2), build_basis(2, 2))
    for metric in ("hamming", "l1"):
        with pytest.raises(InputError, match=rf"code entry {entry} at \[0\] is negative"):
            decode((entry, 0), table, metric)
        with pytest.raises(InputError, match=rf"code entry {entry} at \[1, 1\] is negative"):
            decode_batch([(0, 0), (1, entry)], table, metric)
        with pytest.raises(InputError, match="is negative"):
            decode_batch(np.array([[entry, 0]], dtype=np.int64), table, metric)


def test_decode_batch_validates_input():
    table = code_table(GridGraph(2, 2), build_basis(2, 2))
    assert decode_batch([], table) == []
    assert decode_batch(np.zeros((0, 2), dtype=np.int64), table, "l1") == []
    with pytest.raises(InputError):
        decode_batch([(1, 1)], table, metric="cosine")
    for bad in ([(1,)], [(1, 1, 1)], (1, 1), [(1, 1), (1,)], [[(1, 1)]]):
        with pytest.raises(InputError):
            decode_batch(bad, table)
    for bad in ([(0.9, 2.7)], np.array([[1.0, 2.0]]), [("1", "2")], [(True, False)]):
        with pytest.raises(InputError, match="must be integers"):
            decode_batch(bad, table)
    for bad in ([(40000, 1)], [(1, 1), (1, -40000)], np.array([[1, 2**40]])):
        with pytest.raises(InputError, match="does not fit int16"):
            decode_batch(bad, table)


def _as_indices(g, results):
    """Each decode result as (distance, canonical indices of its vertices)."""
    out = []
    for r in results:
        hits = (r.vertex,) if r.vertex is not None else r.ties
        out.append((r.distance, tuple(g.index_of(v) for v in hits)))
    return out


def _probes(rnd, table, count):
    """Probes with entries 0..6: drawn at random, and ideal codes moved by
    one hop in a few coordinates, which tie and mislead far more often."""
    g, k = table.graph, table.code_length
    probes = [tuple(rnd.randint(0, 6) for _ in range(k)) for _ in range(count)]
    for _ in range(count):
        code = list(table.code_of(g.vertex_at(rnd.randrange(g.vertex_count()))))
        for pos in rnd.sample(range(k), min(k, rnd.randint(1, 3))):
            code[pos] = max(0, code[pos] + rnd.choice((1, -1)))
        probes.append(tuple(code))
    return probes


def _check_batch(table, probes):
    g = table.graph
    for metric in ("hamming", "l1"):
        batch = decode_batch(probes, table, metric)
        assert batch == [decode(p, table, metric) for p in probes], metric
        assert _as_indices(g, batch) == \
            brute_force_decode(g, table.landmarks, probes, metric), metric


@pytest.mark.parametrize("m", range(1, 31))
def test_decode_batch_matches_decode_on_constructed_bases(m):
    rnd = random.Random(m)
    for n in range(1, 31):
        table = code_table(GridGraph(m, n), build_basis(m, n))
        _check_batch(table, _probes(rnd, table, 6))


def test_decode_batch_matches_decode_with_hub_and_relays():
    g = GridGraph(6, 9)
    landmarks = list(build_basis(6, 9).landmarks) + [HUB, Row(2), Row(6), Col(5), Col(9)]
    table = code_table(g, ResolvingSet(tuple(landmarks)))
    rnd = random.Random(69)
    _check_batch(table, _probes(rnd, table, 150))
    # every probe with entries 0..6 on a set of relays and the hub alone
    g = GridGraph(2, 2)
    table = code_table(g, ResolvingSet((HUB, Row(1), Col(1), Row(2))))
    _check_batch(table, list(itertools.product(range(7), repeat=4)))


@settings(max_examples=100, deadline=None)
@given(resolving_sets(), st.randoms(use_true_random=False))
def test_decode_batch_matches_decode_on_drawn_sets(case, rnd):
    g, landmarks = case
    table = code_table(g, ResolvingSet(tuple(landmarks)))
    _check_batch(table, _probes(rnd, table, 8))


def test_decode_batch_chunks_agree(monkeypatch):
    # chunks of 1 to 3 probes decode as one chunk does
    table = code_table(GridGraph(3, 4), build_basis(3, 4))
    probes = _probes(random.Random(5), table, 40)
    whole = decode_batch(probes, table, "l1")
    for cells in (20, 40, 60):
        monkeypatch.setattr(localize, "_CHUNK_CELLS", cells)
        assert decode_batch(probes, table, "l1") == whole, cells


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (1, 7), (7, 1), (4, 4), (5, 7)])
def test_cost_rows_are_in_canonical_order(m, n):
    # column i of the costs is the distance to the code of the vertex with
    # canonical index i, the row of the matrix that decode compares
    g = GridGraph(m, n)
    basis = tuple(build_basis(m, n).landmarks)
    extra = tuple(v for v in (HUB, Row(m), Col(1)) if v not in basis)
    for landmarks in (basis, basis + extra):
        table = code_table(g, ResolvingSet(landmarks))
        probes = np.array(_probes(random.Random(m * n), table, 10))
        codes = table.matrix.astype(np.int64)
        for metric in ("hamming", "l1"):
            costs = table.costs(probes, metric)
            assert costs.shape == (len(probes), g.vertex_count())
            for i in range(g.vertex_count()):
                diff = probes - codes[i]
                want = (diff != 0).sum(axis=1) if metric == "hamming" else np.abs(diff).sum(axis=1)
                assert costs[:, i].tolist() == want.tolist(), (landmarks, metric, i)


@pytest.mark.parametrize("m, n", [(5, 7), (30, 30)])
def test_costs_take_entries_up_to_32767(m, n):
    # _probes draws entries 0..6 only; a probe's L1 cost must stay exact up
    # to k entries of 32767, the int32 headroom MAX_CODE_LENGTH promises
    g = GridGraph(m, n)
    table = code_table(g, build_basis(m, n))
    k = table.code_length
    rnd = random.Random(m * n)
    probes = np.array([[rnd.choice((0, 1, 2, 5, 255, 32767)) for _ in range(k)] for _ in range(12)]
                      + [[entry] * k for entry in (5, 255, 32767)])
    diff = probes[:, None, :] - table.matrix.astype(np.int64)
    for metric in ("hamming", "l1"):
        want = (diff != 0).sum(axis=2) if metric == "hamming" else np.abs(diff).sum(axis=2)
        assert table.costs(probes, metric).tolist() == want.tolist(), metric
        assert decode_batch(probes, table, metric) == [decode(p, table, metric) for p in probes]


@pytest.mark.parametrize("m, n", [(5, 7), (30, 30)])
def test_code_matrix_is_built_on_first_decode_only(m, n, monkeypatch):
    g = GridGraph(m, n)
    basis = build_basis(m, n)
    picks = list(range(0, g.vertex_count(), 97))
    probes = code_matrix(g, basis.landmarks)[picks]
    kernel = localize._code_matrix

    def refuse(*args):
        raise RuntimeError("code matrix built")

    monkeypatch.setattr(localize, "_code_matrix", refuse)
    table = code_table(g, basis)
    assert table.code_length == len(basis)
    assert [table.code_of(g.vertex_at(i)) for i in picks] == [tuple(p) for p in probes.tolist()]
    assert simulate(g, basis, NoiseModel(0.05, seed=3), 200, "l1").trials == 200
    assert [r.vertex for r in decode_batch(probes, table)] == [g.vertex_at(i) for i in picks]

    calls = []

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(localize, "_code_matrix", counting)
    for i, probe in zip(picks, probes):
        assert decode(probe, table, "l1").vertex == g.vertex_at(i)
    assert len(calls) == 1


class _CountingLandmarks(tuple):
    """A landmark tuple that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_code_table_and_decode_read_the_landmarks_once(monkeypatch):
    # the table's one pass over its landmarks gives both the verdict and the
    # points its matrix is built from; decode reads no landmark.  Exact
    # vertices are read in place; a Cell subclass forces GridGraph.point,
    # and is still read once, in the same pass
    class Marked(Cell):
        __slots__ = ()

    g = GridGraph(6, 9)
    basis = build_basis(6, 9)
    probe = code_matrix(g, basis.landmarks)[40]
    marked = (*basis.landmarks[:3], Marked(*astuple(basis.landmarks[3])), *basis.landmarks[4:])
    reader, normalize = GridGraph.point, localize._ordered_landmarks
    for landmarks in (basis.landmarks, marked):
        counted, calls = [], []

        def ordered(g, W):
            counted.append(_CountingLandmarks(normalize(g, W)))
            return counted[-1]

        def counting(self, v):
            calls.append(v)
            return reader(self, v)

        monkeypatch.setattr(localize, "_ordered_landmarks", ordered)
        monkeypatch.setattr(GridGraph, "point", counting)
        table = code_table(g, landmarks)
        assert [lm.passes for lm in counted] == [1]
        assert [type(v) for v in calls] == [Marked] * (landmarks is marked)
        calls.clear()
        assert decode(probe, table).vertex == g.vertex_at(40)
        assert [lm.passes for lm in counted] == [1] and calls == []


def test_decode_refuses_an_oversized_matrix():
    # the table takes (1000, 1000); its matrix, 1,001,001 x 1,333 cells, does
    # not, and only decode reads the matrix
    g = GridGraph(1000, 1000)
    table = code_table(g, build_basis(1000, 1000))
    code = table.code_of(Cell(7, 9))
    with pytest.raises(BudgetError, match="limit is 100000000"):
        decode(code, table)
    assert decode_batch([code], table) == [localize.DecodeResult(Cell(7, 9), 0)]


def test_decode_accepts_numpy_integer_codes():
    g = GridGraph(4, 5)
    table = code_table(g, build_basis(4, 5))
    v = Cell(2, 3)
    ideal = table.code_of(v)
    for dtype in (np.int8, np.int16, np.int64, np.uint8, np.uint64):
        code = np.array(ideal, dtype=dtype)
        assert decode(code, table).vertex == v, dtype
        assert decode(tuple(code), table, "l1").vertex == v, dtype
    assert decode(table.matrix[g.index_of(v)], table).vertex == v


def test_decode_all_zero_probe_deterministic():
    table = code_table(GridGraph(2, 3), build_basis(2, 3))
    first = decode((0, 0, 0), table)
    second = decode((0, 0, 0), table)
    assert first == second


def test_noise_model_validation():
    with pytest.raises(InputError):
        NoiseModel(flip_probability=1.5)
    with pytest.raises(InputError):
        NoiseModel(flip_probability=-0.1)
    NoiseModel(flip_probability=0.0)
    NoiseModel(flip_probability=1.0)
    # a probability is a real number and a seed an int; bools are neither
    for bad in (True, False, "0.1", None, 0.1j, float("nan")):
        with pytest.raises(InputError, match="flip probability must be a number in"):
            NoiseModel(flip_probability=bad)
    for bad in (1.5, None, "x", True, np.float64(2.0)):
        with pytest.raises(InputError, match=re.escape(f"noise seed must be an integer, got {bad!r}")):
            NoiseModel(0.1, seed=bad)
    for p in (0, 1, np.float64(0.25), np.float32(0.5)):
        assert NoiseModel(p, seed=-3).flip_probability == p


def test_simulation_result_reports_a_python_float():
    # the probability is stored as a float whatever number type it came in
    # as, so a result's to_dict() survives a JSON round trip (and a float16
    # no longer overflows to infinity when the noise scales it by 2^53)
    g, basis = GridGraph(3, 4), build_basis(3, 4)
    for p in (np.float16(0.25), np.float32(0.25), np.float64(0.25), 0, 1):
        r = simulate(g, basis, NoiseModel(p, seed=1), 20)
        assert type(r.p) is float and r.p == p, p
        assert json.loads(json.dumps(r.to_dict())) == r.to_dict(), p


def test_simulate_zero_noise_is_perfect():
    for m, n in [(1, 1), (2, 4), (5, 5)]:
        g = GridGraph(m, n)
        result = simulate(g, build_basis(m, n), NoiseModel(0.0, seed=9),
                          trials=2 * g.vertex_count())
        assert result.misidentification_rate == 0.0
        assert result.ambiguity_rate == 0.0


def test_simulate_reproducible():
    g = GridGraph(5, 7)
    basis = build_basis(5, 7)
    noise = NoiseModel(0.05, seed=42)
    a = simulate(g, basis, noise, trials=1000)
    b = simulate(g, basis, noise, trials=1000)
    assert a == b


def test_simulate_shards_compose():
    g = GridGraph(4, 5)
    basis = build_basis(4, 5)
    noise = NoiseModel(0.1, seed=17)
    full = simulate(g, basis, noise, trials=400)
    lo = simulate(g, basis, noise, trials=200)
    hi = simulate(g, basis, noise, trials=200, first_trial=200)
    assert round(full.misidentification_rate * 400) == \
        round(lo.misidentification_rate * 200) + round(hi.misidentification_rate * 200)
    assert round(full.ambiguity_rate * 400) == \
        round(lo.ambiguity_rate * 200) + round(hi.ambiguity_rate * 200)


def test_simulate_rate_sweep_stays_in_range():
    # rates under increasing noise are reported, not asserted monotone
    g = GridGraph(4, 6)
    basis = build_basis(4, 6)
    for p in (0.0, 0.05, 0.1, 0.2):
        r = simulate(g, basis, NoiseModel(p, seed=5), trials=500)
        assert 0.0 <= r.misidentification_rate <= 1.0
        assert 0.0 <= r.ambiguity_rate <= 1.0


def test_simulate_result_record_fields():
    g = GridGraph(3, 4)
    r = simulate(g, build_basis(3, 4), NoiseModel(0.1, seed=7), trials=50,
                 metric="l1")
    d = r.to_dict()
    assert sorted(d) == sorted([
        "m", "n", "basis_size", "metric", "p", "trials", "seed",
        "misidentification_rate", "ambiguity_rate", "min_pairwise_l1",
    ])
    assert d["m"] == 3 and d["n"] == 4
    assert d["metric"] == "l1"
    assert d["basis_size"] == 4
    assert d["trials"] == 50


def test_simulate_validates_trials():
    g = GridGraph(2, 2)
    basis = build_basis(2, 2)
    for trials in (0, -1, True, 2.5, "3", None):
        with pytest.raises(InputError, match=re.escape(f"trials must be an integer >= 1, got {trials!r}")):
            simulate(g, basis, NoiseModel(0.0), trials=trials)
    for first in (-1, True, False, 1.5, "0", None):
        with pytest.raises(InputError,
                           match=re.escape(f"first_trial must be an integer >= 0, got {first!r}")):
            simulate(g, basis, NoiseModel(0.0), trials=4, first_trial=first)
    assert simulate(g, basis, NoiseModel(0.0), trials=4, first_trial=0).trials == 4


def _drawn(g, landmarks, noise, first_trial, trials):
    """Every (canonical index, noisy code) pair simulate decodes for these
    trials."""
    table = code_table(g, landmarks)
    indices, codes = zip(*localize._noisy_codes(table, noise, first_trial, trials))
    return np.concatenate(indices), np.concatenate(codes)


@pytest.mark.parametrize("m,n,extra", [
    (4, 5, ()),
    (6, 9, (HUB, Row(2), Col(9))),
    (12, 7, ()),
])
def test_simulate_counts_equal_per_trial_decode(m, n, extra, monkeypatch):
    g = GridGraph(m, n)
    landmarks = ResolvingSet(tuple(build_basis(m, n).landmarks) + extra)
    table = code_table(g, landmarks)
    # small chunks, so that trials span several
    monkeypatch.setattr(localize, "_CHUNK_CELLS", 7 * g.vertex_count())
    for p, metric in itertools.product((0.0, 0.05, 0.2, 0.5), ("hamming", "l1")):
        noise = NoiseModel(p, seed=m * n)
        indices, codes = _drawn(g, landmarks, noise, 3, 150)
        wrong = ties = 0
        for i, code in zip(indices.tolist(), codes):
            result = decode(code, table, metric)
            if result.ambiguous:
                ties += 1
            elif result.vertex != g.vertex_at(i):
                wrong += 1
        r = simulate(g, landmarks, noise, trials=150, metric=metric, first_trial=3)
        assert (r.misidentification_rate, r.ambiguity_rate) == (wrong / 150, ties / 150)
        if p == 0.0:
            assert wrong == ties == 0


def test_noisy_codes_are_keyed_by_trial_not_by_call(monkeypatch):
    g = GridGraph(4, 6)
    basis = build_basis(4, 6)
    noise = NoiseModel(0.2, seed=123)
    indices, whole = _drawn(g, basis, noise, 10, 200)
    for cells in (3 * g.vertex_count(), 16 * g.vertex_count()):
        monkeypatch.setattr(localize, "_CHUNK_CELLS", cells)
        for cut in (11, 77, 150):
            lo = _drawn(g, basis, noise, 10, cut - 10)
            hi = _drawn(g, basis, noise, cut, 210 - cut)
            assert np.array_equal(np.concatenate([lo[0], hi[0]]), indices)
            assert np.array_equal(np.concatenate([lo[1], hi[1]]), whole), (cells, cut)


def test_zero_noise_leaves_codes_unchanged():
    for m, n in [(1, 1), (3, 8), (9, 2)]:
        g = GridGraph(m, n)
        basis = build_basis(m, n)
        indices, codes = _drawn(g, basis, NoiseModel(0.0, seed=1), 0, 3 * g.vertex_count())
        ideal = code_matrix(g, basis.landmarks)
        assert np.array_equal(codes, np.tile(ideal, (3, 1)))
        assert [g.vertex_at(i) for i in indices[:g.vertex_count()].tolist()] == g.vertices()


@pytest.mark.parametrize("p", [0.05, 0.5, 0.9])
def test_noise_flip_rate_and_sign_balance(p):
    # 10^5 draws: 2,500 trials of 40 coordinates
    steps = localize._hop_noise(localize._noise_key(2024), 0, 2500, 40, p)
    draws = steps.size
    flips = np.count_nonzero(steps)
    assert abs(flips / draws - p) <= 5 * math.sqrt(p * (1 - p) / draws)
    ups = np.count_nonzero(steps == 1)
    assert abs(ups / flips - 0.5) <= 5 * math.sqrt(0.25 / flips)
    assert not localize._hop_noise(localize._noise_key(2024), 0, 2500, 40, 0.0).any()
    assert np.count_nonzero(localize._hop_noise(localize._noise_key(2024), 0, 50, 40, 1.0)) == 2000


def _splitmix64_int(z):
    """SplitMix64 on Python ints, mod 2^64."""
    mask = (1 << 64) - 1
    z = (z + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def _hop_noise_int(seed, trial, j, p):
    """Coordinate j's hop error in the given trial, from NoiseModel's
    definition in Python ints."""
    key = int.from_bytes(hashlib.sha256(str(seed).encode()).digest()[:8], "big")
    mask = (1 << 64) - 1
    h = _splitmix64_int((_splitmix64_int((key + trial) & mask) + j) & mask)
    if (h >> 11) / 2.0**53 < p:
        return 1 if h & 1 else -1
    return 0


def test_hop_noise_matches_python_int_splitmix64():
    key = localize._noise_key(5)
    # the last first trial makes key + first wrap past 2^64 inside the
    # block, the one before it from its first trial on
    for seed, first in ((0, 0), (-3, 10**6), (2**70, 123), (5, 2**64 - key + 7), (5, 2**64 - key - 2)):
        for p in (0.3, 0.9):
            got = localize._hop_noise(localize._noise_key(seed), first, 5, 6, p)
            want = [[_hop_noise_int(seed, first + t, j, p) for j in range(6)] for t in range(5)]
            assert got.dtype == np.int8 and got.tolist() == want, (seed, first, p)


def test_noise_accepts_any_int_seed():
    g = GridGraph(5, 5)
    basis = build_basis(5, 5)
    streams = {}
    for seed in (0, -1, 2**64, -(2**70)):
        noise = NoiseModel(0.3, seed=seed)
        streams[seed] = _drawn(g, basis, noise, 0, 100)[1]
        r = simulate(g, basis, noise, trials=100)
        assert r.seed == seed
        assert 0.0 <= r.misidentification_rate + r.ambiguity_rate <= 1.0
    for a, b in itertools.combinations(streams, 2):
        assert not np.array_equal(streams[a], streams[b]), (a, b)
