import json
import time
import tracemalloc

import pytest

from stargrid import dimension
from stargrid.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_json(capsys):
    code, out, _ = run_cli(capsys, "dim", "--m", "2", "--n", "5")
    assert code == 0
    assert json.loads(out) == {"m": 2, "n": 5, "dim": 4, "regime": "B"}


def test_dim_usage_error(capsys):
    code, _, _ = run_cli(capsys, "dim", "--m", "0", "--n", "5")
    assert code == 2


def test_dim_balanced(capsys):
    code, out, _ = run_cli(capsys, "dim", "--m", "14", "--n", "14")
    assert code == 0
    assert json.loads(out)["dim"] == 18


def test_basis_text_and_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "basis", "--m", "4", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines[-1] == "r4"

    setfile = tmp_path / "b.txt"
    setfile.write_text(out)
    code, out, _ = run_cli(capsys, "verify", "--m", "4", "--n", "4",
                           "--set", str(setfile))
    assert code == 0
    assert out.strip() == "resolving"


def test_basis_csv(capsys):
    code, out, _ = run_cli(capsys, "basis", "--m", "1", "--n", "6",
                           "--format", "csv")
    assert code == 0
    assert out.strip() == "c1,c2,a1,3,a1,4,a1,5"


def test_basis_json(capsys):
    code, out, _ = run_cli(capsys, "basis", "--m", "2", "--n", "5",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 4
    assert payload["provenance"] == "constructed-regime-B"
    assert len(payload["landmarks"]) == 4


def test_verify_witness(tmp_path, capsys):
    setfile = tmp_path / "w.txt"
    setfile.write_text("r1\nc1\n")
    code, out, _ = run_cli(capsys, "verify", "--m", "1", "--n", "1",
                           "--set", str(setfile))
    assert code == 1
    assert out.strip() == "hub a1,1"


def test_verify_malformed_line(tmp_path, capsys):
    setfile = tmp_path / "bad.txt"
    setfile.write_text("r1\nnot-a-vertex\n")
    code, _, err = run_cli(capsys, "verify", "--m", "2", "--n", "2",
                           "--set", str(setfile))
    assert code == 2
    assert "error" in err


def test_verify_missing_file(capsys):
    code, _, err = run_cli(capsys, "verify", "--m", "2", "--n", "2",
                           "--set", "/nonexistent/file.txt")
    assert code == 2


def test_hgraph_json(tmp_path, capsys):
    run_cli(capsys, "basis", "--m", "6", "--n", "6")
    setfile = tmp_path / "b66.txt"
    code, out, _ = run_cli(capsys, "basis", "--m", "6", "--n", "6")
    setfile.write_text(out)
    code, out, _ = run_cli(capsys, "hgraph", "--m", "6", "--n", "6",
                           "--set", str(setfile), "--strict")
    assert code == 0
    payload = json.loads(out)
    assert payload["component_report"]["path_orders"] == [5, 5, 5, 5]
    assert payload["audit"]["passed"] is True
    assert payload["basis_size"] == 8


def test_hgraph_strict_golden(tmp_path, capsys):
    # the regime-D basis of (5, 6): three 5-path tiles, one single edge
    # (the relay landmark r5) and one untouched relay
    setfile = tmp_path / "d.txt"
    setfile.write_text("a1,1\na2,1\na3,2\na3,3\na4,4\na4,5\nr5\n")
    code, out, err = run_cli(capsys, "hgraph", "--m", "5", "--n", "6",
                             "--set", str(setfile), "--strict")
    assert (code, err) == (0, "")
    assert out == (
        '{"m": 5, "n": 6, "basis_size": 7, "component_report": {"path_orders": '
        '[5, 5, 5, 2, 1], "non_path_count": 0, "isolated_right": 1, "max_degree": 2}, '
        '"audit": {"max_one_isolated": true, "no_order3_path": true, "strict_tiling": '
        'true, "left_degree_histogram": {"1": 1, "2": 6}, "right_degree_histogram": '
        '{"1": 7, "2": 3, "0": 1}, "degree3_hypothesis": false, "degree3_balanced": '
        'null, "violations": [], "passed": true}}\n'
    )


def test_hgraph_rejects_hub(tmp_path, capsys):
    setfile = tmp_path / "h.txt"
    setfile.write_text("hub\nr1\n")
    code, _, err = run_cli(capsys, "hgraph", "--m", "2", "--n", "2",
                           "--set", str(setfile))
    assert code == 2


def test_hgraph_empty_set_all_isolated(tmp_path, capsys):
    setfile = tmp_path / "empty.txt"
    setfile.write_text("# nothing\n")
    code, out, _ = run_cli(capsys, "hgraph", "--m", "3", "--n", "3",
                           "--set", str(setfile))
    assert code == 0
    payload = json.loads(out)
    assert payload["component_report"]["isolated_right"] == 6


def test_hgraph_dot(tmp_path, capsys):
    setfile = tmp_path / "d.txt"
    setfile.write_text("a1,1\na2,1\n")
    code, out, _ = run_cli(capsys, "hgraph", "--m", "2", "--n", "2",
                           "--set", str(setfile), "--format", "dot")
    assert code == 0
    assert out.startswith("graph aux {")
    assert '"p_a2,1" -- "r2";' in out


def test_oracle(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--m", "3", "--n", "3")
    assert code == 0
    assert json.loads(out)["dim"] == 4


def test_oracle_budget_exceeded(capsys):
    code, _, err = run_cli(capsys, "oracle", "--m", "10", "--n", "10",
                           "--max-candidates", "100000")
    assert code == 3
    assert "budget" in err


def test_oracle_refuses_large_grid_in_bounded_memory(capsys):
    # (30, 30) runs its searches of size 1 and 2, then refuses size 3; its
    # pair-mask table, 461,280 pairs of 16 uint64 words, dominates the peak
    table = 461_280 * 16 * 8
    tracemalloc.start()
    try:
        code = main(["oracle", "--m", "30", "--n", "30"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 3
    assert "budget" in err
    assert peak < 2 * table, (peak, table)


def test_oracle_refuses_oversized_pair_masks_fast(capsys):
    # (43, 43) has 1936 vertices, under the BFS cap, but its pair masks
    # would take 464 MB; the refusal comes before they are allocated
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "oracle", "--m", "43", "--n", "43")
    assert code == 3
    assert out == ""
    assert "464523840 bytes, limit is 67108864" in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("flag, value", [("--max-candidates", "-5")])
def test_oracle_rejects_negative_budget(capsys, flag, value):
    code, _, err = run_cli(capsys, "oracle", "--m", "2", "--n", "2", flag, value)
    assert code == 2
    assert "budget error" not in err


def test_oracle_enumerate(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--m", "1", "--n", "1",
                           "--enumerate")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2
    assert ["r1", "a1,1"] in payload["bases"]
    assert any("hub" not in b for b in payload["bases"])


def test_sweep_fixed_n(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--fixed-n", "14")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,dim"
    dims = [int(line.split(",")[2]) for line in lines[1:]]
    assert dims == [13, 13, 13, 13, 13, 13, 14, 14, 15, 16, 16, 17, 18, 18]


def test_sweep_n_max(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n-max", "3")
    assert code == 0
    assert out == "m,n,dim\n1,1,2\n1,2,2\n1,3,3\n2,2,2\n2,3,3\n3,3,4\n"


def test_sweep_out_file(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, "sweep", "--n-max", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "m,n,dim\n1,1,2\n1,2,2\n2,2,2\n"


def _joined_sweep(pairs):
    """The sweep CSV built whole, as sweep wrote it before it streamed rows."""
    rows = ["m,n,dim"]
    rows.extend(f"{m},{n},{dimension(m, n)}" for m, n in pairs)
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("argv, pairs", [
    (("--n-max", "1"), [(1, 1)]),
    (("--n-max", "9"), [(m, n) for m in range(1, 10) for n in range(m, 10)]),
    (("--fixed-n", "1"), [(1, 1)]),
    (("--fixed-n", "17"), [(m, 17) for m in range(1, 18)]),
])
def test_sweep_streams_the_joined_csv(capsys, tmp_path, argv, pairs):
    expected = _joined_sweep(pairs)
    code, out, _ = run_cli(capsys, "sweep", *argv)
    assert code == 0
    assert out == expected
    target = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, "sweep", *argv, "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_bytes() == expected.encode()


def test_sweep_memory_stays_flat(capsys, tmp_path):
    # 500,500 rows: held whole they took about 46 MB
    target = tmp_path / "sweep.csv"
    tracemalloc.start()
    try:
        code = main(["sweep", "--n-max", "1000", "--out", str(target)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2_000_000, peak
    with open(target, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 500_501


def test_sweep_requires_mode(capsys):
    code, _, _ = run_cli(capsys, "sweep")
    assert code == 2


@pytest.mark.parametrize("argv, rows", [
    (("--n-max", "100000"), 5000050000),
    (("--fixed-n", "1000000000"), 1000000000),
])
def test_sweep_oversized_exits_3(capsys, tmp_path, argv, rows):
    # the guard refuses before building any row or opening --out
    target = tmp_path / "sweep.csv"
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "sweep", *argv, "--out", str(target))
    assert code == 3
    assert out == ""
    assert f"{rows} rows" in err and "limit is 10000000" in err
    assert not target.exists()
    assert time.perf_counter() - start < 1


def test_localize_zero_noise(capsys):
    code, out, _ = run_cli(capsys, "localize", "--m", "3", "--n", "4",
                           "--trials", "40")
    assert code == 0
    payload = json.loads(out)
    assert payload["misidentification_rate"] == 0.0
    assert payload["ambiguity_rate"] == 0.0
    assert payload["min_pairwise_l1"] >= 1


def test_localize_reproducible(capsys):
    args = ["localize", "--m", "4", "--n", "5", "--noise", "0.05",
            "--trials", "300", "--seed", "42"]
    code, out1, _ = run_cli(capsys, *args)
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_localize_large_grid_finishes(capsys):
    # the all-pairs code scan this replaced never finished at this size
    code, out, _ = run_cli(capsys, "localize", "--m", "300", "--n", "300",
                           "--trials", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["min_pairwise_l1"] == 2
    assert payload["basis_size"] == 400


def test_localize_1000_grid_runs_without_its_code_matrix(capsys):
    # the (1000, 1000) code matrix would take about 4 GB; simulate reads the
    # landmarks' star distances instead, about 8 bytes per vertex
    tracemalloc.start()
    try:
        code = main(["localize", "--m", "1000", "--n", "1000", "--trials", "200",
                     "--noise", "0.05"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["basis_size"] == dimension(1000, 1000)
    assert payload["trials"] == 200 and payload["min_pairwise_l1"] == 2
    assert peak < 16_000_000, peak


def test_localize_past_table_limit_exits_3(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "localize", "--m", "3200", "--n", "3200",
                             "--trials", "1")
    assert code == 3
    assert out == ""
    assert "has 10246401 vertices, limit is 10000000" in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv, message", [
    (("basis",), "basis of (100000000, 100000000) has 133333333 landmarks, limit is 2500000"),
    (("localize", "--trials", "1"),
     "code table on (100000000, 100000000) has 10000000200000001 vertices, limit is 10000000"),
])
def test_oversized_basis_refused_before_it_is_built(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--m", "100000000", "--n", "100000000")
    assert code == 3
    assert out == ""
    assert message in err
    assert time.perf_counter() - start < 1


def test_localize_invalid_probability(capsys):
    code, _, err = run_cli(capsys, "localize", "--m", "2", "--n", "2",
                           "--noise", "1.5")
    assert code == 2


def test_export_edgelist(capsys):
    code, out, _ = run_cli(capsys, "export", "--m", "1", "--n", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_export_edge_count(capsys):
    for m, n in [(2, 3), (4, 4)]:
        code, out, _ = run_cli(capsys, "export", "--m", str(m), "--n", str(n))
        assert len(out.strip().splitlines()) == m + n + 2 * m * n


def test_export_dot_and_json(capsys):
    code, out, _ = run_cli(capsys, "export", "--m", "1", "--n", "2",
                           "--format", "dot")
    assert code == 0
    assert out.startswith("graph grid {")
    assert out.count("--") == 1 + 2 + 2 * 2  # m + n + 2mn edges

    code, out, _ = run_cli(capsys, "export", "--m", "1", "--n", "2",
                           "--format", "json")
    payload = json.loads(out)
    assert len(payload["vertices"]) == 6
    assert len(payload["edges"]) == 7


def test_export_oversized_grid_exits_3(capsys):
    # 8,004,000 edges; the guard refuses before building any of them
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "export", "--m", "2000", "--n", "2000",
                             "--format", "json")
    assert code == 3
    assert out == ""
    assert "8004000 edges" in err and "limit is 2400000" in err
    assert time.perf_counter() - start < 1


def test_unknown_command(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2
