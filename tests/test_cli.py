import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from stargrid import cli, dimension, oracle
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


@pytest.mark.parametrize("value", [
    # ARABIC-INDIC DIGIT THREE and FULLWIDTH ONE, which int() reads as 3
    # and 1; an underscore, a sign and a space, which it also takes
    "\u0663", "\uff11", "1_0", "+3", " 3", "3 ",
])
def test_integer_arguments_take_ascii_digits_only(capsys, value):
    code, out, err = run_cli(capsys, "dim", "--m", value, "--n", "5")
    assert (code, out) == (2, "")
    assert f"argument --m: not an integer: {value!r}" in err
    code, out, err = run_cli(capsys, "localize", "--m", "3", "--n", "3", "--seed", value)
    assert (code, out) == (2, "")
    assert f"argument --seed: not an integer: {value!r}" in err


def test_integer_arguments_keep_their_range_messages(capsys):
    code, _, err = run_cli(capsys, "dim", "--m", "-1", "--n", "5")
    assert code == 2 and "argument --m: must be >= 1, got -1" in err
    code, out, _ = run_cli(capsys, "localize", "--m", "2", "--n", "2", "--trials", "10",
                           "--seed", "-7")
    assert code == 0 and json.loads(out)["seed"] == -7


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


def test_verify_refuses_non_ascii_digits(tmp_path, capsys):
    # "r1" then ARABIC-INDIC DIGIT THREE: int() reads it as 13, a row of
    # this grid, but the text encoding takes ASCII digits only
    setfile = tmp_path / "u.txt"
    setfile.write_text("r1\u0663\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--m", "13", "--n", "13",
                             "--set", str(setfile))
    assert code == 2
    assert out == ""
    assert "invalid vertex encoding" in err


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
    # (30, 30) starts at size 5, its pigeonhole bound, and refuses it after
    # the BFS table alone; the bound is the pair-mask table it never builds,
    # 461,280 pairs of 16 uint64 words
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


def test_oracle_refuses_over_budget_grid_before_its_pair_masks(capsys, monkeypatch):
    def no_masks(dist):
        raise RuntimeError("pair masks built before the budget gate")

    monkeypatch.setattr(oracle, "_pair_masks", no_masks)
    code, out, err = run_cli(capsys, "oracle", "--m", "30", "--n", "30")
    assert code == 3
    assert out == ""
    assert "at size 5 needs up to" in err


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


# sha256 of export's stdout, as the per-vertex neighbour walk wrote it
EXPORT_SHA256 = {
    (1, 1): ("15083cf13332d25a704ab8bed036e1a15f6d69d2c5fd17f5d98e58a320287ad1",
             "1a8c0379ffbc895b64e56419fb89a3b628da845af9c0334c66c27cb0f0b92458",
             "8bd39f665843f0fd2b072b8e969a4e53f36784f80e186d92cac0208d1f16ee0b"),
    (1, 7): ("68c001f9c09fdd1dd9d39f2cf48f7c1b9172a7158a2f55484c994872b9730372",
             "4ba86645615f12a41e29b79a0eba841d588288a37f104cff17997a33b20f81c7",
             "1c28f934bee8387e63c104c3f7f5937a0ffcf1543aac171f623b1c9566703f3c"),
    (3, 4): ("1f0091697a20329278551bffc5341fc3fe444b87a0a31625191bc59a3d5a9315",
             "c07b3bae2c42f65ea26ba9b18a8583308cacfd5f84c2414c4c8d1ca82b05d56f",
             "367541dd7d11bd14780a5ff25110aa77e54cfa5a97ae6a427870751b0cb6363b"),
    (4, 3): ("5fb14b4de5432436ae250aae7bdcf734758f2b5d1f4cd7af0d07593c71913e4e",
             "1f914e9acaf59c94e3cfdc25d5c3d16ee237e57cf0207485082835461a5fb5ff",
             "4a8609ca5c74678071b5ae4063a18f4860c587193c640abdd314b47032cedf85"),
    (9, 6): ("01b84dd6cd1ab60eb54d735ea8854d91daf7beed58c7b1d69d42a66fde60593d",
             "f5325023d760c15b45d941c133d5f38faa32323983d3e950542788d21e332d62",
             "ca28a5f49a130cd8733e6d922dcd9c62c9bfc755e3bab5e4f83de9acdcaf8a7f"),
}


@pytest.mark.parametrize("m, n", list(EXPORT_SHA256))
def test_export_output_is_pinned(capsys, m, n):
    for fmt, want in zip(("edgelist", "dot", "json"), EXPORT_SHA256[m, n]):
        code, out, err = run_cli(capsys, "export", "--m", str(m), "--n", str(n),
                                 "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == want, fmt


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd
        self.writes = 0

    def write(self, text):
        self.writes += 1
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_141_quietly(capsys, monkeypatch, tmp_path):
    # the stub's descriptor is a file of the test's own, so pointing it at
    # the null device is seen by writing to it afterwards
    target = tmp_path / "out.txt"
    with open(target, "wb") as fh:
        pipe = _ClosedPipe(fh.fileno())
        monkeypatch.setattr(sys, "stdout", pipe)
        code = main(["export", "--m", "3", "--n", "4"])
        monkeypatch.undo()
        os.write(fh.fileno(), b"after")
    assert code == 141
    assert pipe.writes == 1
    assert capsys.readouterr().err == ""
    assert target.read_bytes() == b""


class _ClosedStream(_ClosedPipe):
    """The same, without a file descriptor, as an ``io.StringIO``."""

    def fileno(self):
        raise io.UnsupportedOperation("fileno")


def test_closed_stdout_without_descriptor_exits_141(capsys, monkeypatch):
    pipe = _ClosedStream(None)
    monkeypatch.setattr(sys, "stdout", pipe)
    code = main(["dim", "--m", "3", "--n", "3"])
    monkeypatch.undo()
    assert (code, pipe.writes) == (141, 1)
    assert capsys.readouterr().err == ""


def test_export_into_closed_pipe_is_quiet():
    # 217 KB of edges, more than a pipe buffer holds, so the write meets
    # the closed read end whether or not it began before the close
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen([sys.executable, "-m", "stargrid.cli", "export", "--m", "100",
                             "--n", "100"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    assert proc.stdout.read(10) == b"hub r1\nhub"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_export_oversized_grid_exits_3(capsys):
    # 8,004,000 edges; the guard refuses before building any of them
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "export", "--m", "2000", "--n", "2000",
                             "--format", "json")
    assert code == 3
    assert out == ""
    assert "8004000 edges" in err and "limit is 2400000" in err
    assert time.perf_counter() - start < 1


def test_main_builds_one_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    for argv in (["dim", "--m", "2", "--n", "5"], ["basis", "--m", "3", "--n", "3"],
                 ["sweep", "--n-max", "2"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert built.count("stargrid") == 1
    # and importing the package builds none
    probe = "import stargrid, stargrid.cli as c; print(c._build_parser.cache_info().currsize)"
    proc = _fresh_python("-c", probe)
    assert proc.stdout == "0\n", proc.stderr


def _fresh_python(*args):
    """Run a new interpreter that imports stargrid from where this one does."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=60, env=env)


@pytest.mark.parametrize("before, after", [
    (["dim", "--m", "0", "--n", "5"], ["dim", "--m", "2", "--n", "5"]),
    (["basis", "--m", "4", "--n", "4", "--format", "json"], ["basis", "--m", "4", "--n", "4"]),
    (["hgraph", "--m", "5", "--n", "6", "--set", "SET", "--strict"],
     ["hgraph", "--m", "5", "--n", "6", "--set", "SET"]),
    (["oracle", "--m", "2", "--n", "2", "--enumerate"], ["oracle", "--m", "2", "--n", "2"]),
])
def test_no_state_leaks_between_calls(capsys, tmp_path, before, after):
    # in one process, each call of a pair prints what a fresh process
    # prints for it
    setfile = tmp_path / "d.txt"
    setfile.write_text("a1,1\na2,1\na3,2\na3,3\na4,4\na4,5\nr5\n")
    pair = [[str(setfile) if a == "SET" else a for a in argv] for argv in (before, after)]
    fresh = []
    for argv in pair:
        proc = _fresh_python("-m", "stargrid.cli", *argv)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert fresh[0] != fresh[1]
    assert [run_cli(capsys, *argv) for argv in pair] == fresh


# Run in a fresh interpreter: the array-free commands through `main`, then
# the two numpy commands, then a star import; report what each step saw.
_COLD_PROBE = """
import contextlib, io, json, sys
import stargrid
from stargrid.cli import main

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return [code, out.getvalue()]

report = {"dir": dir(stargrid), "unknown": hasattr(stargrid, "no_such_name")}
report["array_free"] = [run(argv) for argv in json.loads(sys.argv[1])]
report["numpy_before"] = "numpy" in sys.modules
report["arrays"] = [run(["oracle", "--m", "2", "--n", "2"]),
                    run(["localize", "--m", "3", "--n", "3"])]
report["numpy_after"] = "numpy" in sys.modules
report["modules"] = [stargrid.localize.__name__, stargrid.oracle.__name__]
names = {}
exec("from stargrid import *", names)
report["star"] = sorted(names.keys() - {"__builtins__"})
print(json.dumps(report))
"""


def test_array_free_commands_load_no_numpy(tmp_path, capsys):
    import stargrid

    setfile = tmp_path / "b.txt"
    setfile.write_text("a1,1\na2,1\na3,2\na3,3\na4,4\na4,5\nr5\n")
    array_free = [
        ["dim", "--m", "2", "--n", "5"],
        ["basis", "--m", "40", "--n", "60", "--format", "json"],
        ["verify", "--m", "5", "--n", "6", "--set", str(setfile)],
        ["hgraph", "--m", "5", "--n", "6", "--set", str(setfile), "--strict"],
        ["sweep", "--n-max", "4"],
        ["export", "--m", "2", "--n", "3", "--format", "json"],
    ]
    proc = _fresh_python("-c", _COLD_PROBE, json.dumps(array_free))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["numpy_before"] is False
    assert report["numpy_after"] is True
    # the commands print what they print in this process, numpy loaded
    assert report["array_free"] == [list(run_cli(capsys, *argv)[:2]) for argv in array_free]
    assert report["arrays"] == [
        [0, '{"m": 2, "n": 2, "dim": 2, "witness": ["a1,1", "a1,2"]}\n'],
        [0, '{"m": 3, "n": 3, "basis_size": 4, "metric": "hamming", "p": 0.0, '
            '"trials": 1000, "seed": 42, "misidentification_rate": 0.0, '
            '"ambiguity_rate": 0.0, "min_pairwise_l1": 2}\n'],
    ]
    assert report["modules"] == ["stargrid.localize", "stargrid.oracle"]
    assert report["star"] == sorted(stargrid.__all__)
    assert set(stargrid.__all__) <= set(report["dir"])
    assert {"localize", "oracle"} <= set(report["dir"])
    assert report["unknown"] is False
    with pytest.raises(AttributeError, match="no_such_name"):
        stargrid.no_such_name


def test_unknown_command(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2
