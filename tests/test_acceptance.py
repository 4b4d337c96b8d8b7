"""Acceptance suite: the package's exit criteria, one test per criterion.

Every check is exact (integer equality or boolean structure); each test
prints a single PASS/FAIL line so a full run reads as a checklist.  The
heavy criteria (oracle agreement, the 200-wide constructive sweep, the
structural audit over every enumerated minimum basis) run in minutes; run with
``pytest tests/test_acceptance.py -v -s`` to watch the lines appear.
"""

import contextlib
import random
from math import comb

import numpy as np
from stargrid import (
    GridGraph,
    Hub,
    SearchBudget,
    bfs_distances,
    brute_force_dimension,
    build_aux_graph,
    build_basis,
    check_relays_resolved,
    classify_components,
    code_table,
    decode,
    dimension,
    exists_hub_free_basis,
    full_distance_matrix,
    is_resolving,
    iter_minimum_bases,
    regime_of,
    simulate,
    tiling_plan,
    NoiseModel,
)
from stargrid.cli import main as cli_main

ORACLE_BUDGET = SearchBudget(max_candidates=100_000_000)

# Instances whose full lower-bound scan fits in 10^7 candidates.
ORACLE_INSTANCES = [
    (m, n)
    for m in range(1, 8)
    for n in range(m, 16)
    if comb(1 + m + n + m * n, dimension(m, n) - 1) <= 10**7
]


@contextlib.contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num} [{name}]: FAIL")
        raise
    print(f"criterion {num} [{name}]: PASS")


def test_criterion_1_formula_matches_oracle():
    with criterion(1, "formula/oracle agreement"):
        assert (5, 6) in ORACLE_INSTANCES and (2, 9) in ORACLE_INSTANCES
        for m, n in ORACLE_INSTANCES:
            g = GridGraph(m, n)
            found, witness = brute_force_dimension(g, ORACLE_BUDGET)
            assert found == dimension(m, n), (m, n, found)
            assert is_resolving(g, witness), (m, n)


def test_criterion_2_constructive_upper_bound_at_scale():
    with criterion(2, "constructed bases verify up to n=500"):
        for m in range(1, 61):
            for n in range(m, 61):
                basis = build_basis(m, n)
                assert len(basis) == dimension(m, n), (m, n)
                assert is_resolving(GridGraph(m, n), basis), (m, n)
        rnd = random.Random(20260808)
        for _ in range(50):
            n = rnd.randint(1, 500)
            m = rnd.randint(1, n)
            basis = build_basis(m, n)
            assert len(basis) == dimension(m, n), (m, n)
            assert is_resolving(GridGraph(m, n), basis), (m, n)


def test_criterion_3_closed_form_distance_equals_bfs():
    with criterion(3, "closed-form distances equal BFS, sides <= 25"):
        for m in range(1, 26):
            for n in range(1, 26):
                g = GridGraph(m, n)
                assert np.array_equal(full_distance_matrix(g), bfs_distances(g)), (m, n)


def test_criterion_4_fixed_n14_curve(capsys):
    with criterion(4, "dimension curve at n=14"):
        assert cli_main(["sweep", "--fixed-n", "14"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "m,n,dim"
        dims = [int(line.split(",")[2]) for line in lines[1:]]
        assert dims == [13, 13, 13, 13, 13, 13, 14, 14, 15, 16, 16, 17, 18, 18]


def test_criterion_5_tiled_basis_footprint():
    with criterion(5, "tiled bases leave only 5-paths plus leftovers"):
        for m in range(5, 61):
            for n in range(m, 61):
                if regime_of(m, n).tag != "D":
                    continue
                plan = tiling_plan(m, n)
                aux = build_aux_graph(GridGraph(m, n), build_basis(m, n))
                report = classify_components(aux)
                tiles = plan.row_pair_tiles + plan.col_pair_tiles
                expected = sorted(
                    [5] * tiles
                    + [2] * len(plan.singles)
                    + [1] * (1 if plan.isolated else 0),
                    reverse=True,
                )
                assert list(report.path_orders) == expected, (m, n)
                assert report.non_path_count == 0, (m, n)
                assert report.isolated_right == (1 if plan.isolated else 0), (m, n)


def _audit_enumerated_bases(m: int, n: int, k: int) -> int:
    g = GridGraph(m, n)
    checked = 0
    for basis in iter_minimum_bases(g, k, ORACLE_BUDGET):
        if any(isinstance(v, Hub) for v in basis):
            continue  # the auxiliary graph is undefined for hub members
        aux = build_aux_graph(g, basis.landmarks)
        assert check_relays_resolved(aux), (m, n, basis)
        report = classify_components(aux)
        orders = report.path_orders
        assert 3 not in orders, (m, n, basis)
        assert all(o <= 4 for o in orders if o % 2 == 0), (m, n, basis)
        assert all(o <= 9 for o in orders), (m, n, basis)
        nines = sum(1 for o in orders if o == 9)
        sevens = sum(1 for o in orders if o == 7)
        assert nines <= 1, (m, n, basis)
        assert sevens <= 2, (m, n, basis)
        assert not (nines and sevens), (m, n, basis)
        assert report.isolated_right <= 1, (m, n, basis)
        checked += 1
    return checked


def test_criterion_6_structural_rules_on_every_minimum_basis():
    with criterion(6, "structural rules on every enumerated minimum basis"):
        count_55 = _audit_enumerated_bases(5, 5, dimension(5, 5))
        count_56 = _audit_enumerated_bases(5, 6, dimension(5, 6))
        assert count_55 > 0 and count_56 > 0
        print(f"  audited {count_55} bases on (5,5), {count_56} on (5,6)")


def test_criterion_7_hub_free_bases():
    with criterion(7, "hub never needed"):
        for m in range(1, 201):
            for n in range(m, 201):
                basis = build_basis(m, n)
                assert all(not isinstance(v, Hub) for v in basis), (m, n)
        for m, n in ORACLE_INSTANCES:
            g = GridGraph(m, n)
            assert exists_hub_free_basis(g, dimension(m, n), ORACLE_BUDGET), (m, n)


def test_criterion_8_localization_sanity():
    with criterion(8, "exact decoding, zero-noise perfection, reproducibility"):
        for m in range(1, 21):
            for n in range(m, 21):
                g = GridGraph(m, n)
                basis = build_basis(m, n)
                table = code_table(g, basis)
                for v in g.vertices():
                    assert decode(table.code_of(v), table).vertex == v, (m, n, v)
                result = simulate(g, basis, NoiseModel(0.0, seed=3),
                                  trials=g.vertex_count())
                assert result.misidentification_rate == 0.0, (m, n)
                assert result.ambiguity_rate == 0.0, (m, n)
        # bit-reproducibility and shard-independence on a noisy run
        g = GridGraph(5, 7)
        basis = build_basis(5, 7)
        noise = NoiseModel(0.05, seed=42)
        full_a = simulate(g, basis, noise, trials=1000)
        full_b = simulate(g, basis, noise, trials=1000)
        assert full_a == full_b
        lo = simulate(g, basis, noise, trials=500)
        hi = simulate(g, basis, noise, trials=500, first_trial=500)
        combined_wrong = round(lo.misidentification_rate * 500) + \
            round(hi.misidentification_rate * 500)
        combined_ties = round(lo.ambiguity_rate * 500) + \
            round(hi.ambiguity_rate * 500)
        assert combined_wrong == round(full_a.misidentification_rate * 1000)
        assert combined_ties == round(full_a.ambiguity_rate * 1000)
