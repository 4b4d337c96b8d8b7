import pytest

from stargrid import (
    Cell,
    GridGraph,
    InputError,
    NoiseModel,
    ResolvingSet,
    build_basis,
    code_table,
    decode,
    simulate,
)


def test_code_table_four_cycle():
    g = GridGraph(1, 1)
    table = code_table(g, build_basis(1, 1))
    codes = {table.code_of(v) for v in g.vertices()}
    assert len(codes) == 4
    assert table.min_pairwise_l1 >= 1


def test_code_table_requires_verified_set():
    g = GridGraph(2, 2)
    unverified = ResolvingSet((Cell(1, 1), Cell(1, 2)))
    with pytest.raises(InputError):
        code_table(g, unverified)
    with pytest.raises(InputError):
        code_table(g, [Cell(1, 1), Cell(1, 2)])


def test_code_table_rechecks_basis_against_its_grid():
    # verified on (5,7), but 8 landmarks cannot resolve (6,8), whose dimension is 9
    with pytest.raises(InputError, match=r"does not resolve grid \(6, 8\)"):
        code_table(GridGraph(6, 8), build_basis(5, 7))


def test_code_table_rejects_forged_verified_flag():
    forged = ResolvingSet((Cell(1, 1),), verified=True)
    with pytest.raises(InputError, match="hub and a1,2 share a code"):
        code_table(GridGraph(2, 2), forged)


def test_min_pairwise_l1_balanced_grid():
    table = code_table(GridGraph(5, 7), build_basis(5, 7))
    assert table.min_pairwise_l1 == 2


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
    with pytest.raises(InputError):
        simulate(g, build_basis(2, 2), NoiseModel(0.0), trials=0)
