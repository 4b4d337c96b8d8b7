import json

import pytest

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


@pytest.mark.parametrize("flag, value", [("--max-candidates", "-5"),
                                         ("--max-subset-size", "-1")])
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


def test_sweep_requires_mode(capsys):
    code, _, _ = run_cli(capsys, "sweep")
    assert code == 2


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


def test_unknown_command(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2
