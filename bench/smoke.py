"""Smoke test of the benchmark at tiny size (a few seconds in all).

    python3 bench/smoke.py

For every workload it checks that an untraced run emits exactly the
end-to-end metrics of BENCHMARK.json and a traced run exactly the per-layer
ones, that no op fails at the seed, and that a wrong result injected into
one package function is counted as a failure.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import sys

import run

SECONDS = 0.4


def _inject(sg, name: str):
    """Replace sg.<name> with a version returning a wrong result."""
    original = getattr(sg, name)
    if name == "is_resolving":
        def wrong(g, W):
            return sg.Verdict(True)
    elif name == "brute_force_dimension":
        def wrong(g, budget=sg.DEFAULT_BUDGET):
            k, witness = original(g, budget)
            return k + 1, witness
    else:  # decode
        def wrong(code, table, metric="hamming"):
            result = original(code, table, metric)
            return sg.DecodeResult(None, result.distance + 1, ties=())
    setattr(sg, name, wrong)
    return original


INJECTIONS = {"construct": "is_resolving", "oracle": "brute_force_dimension",
              "localize": "decode"}


def main() -> int:
    run.import_package()
    import stargrid as sg

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    problems = []
    for name in run.WORKLOAD_NAMES:
        for trace, want in ((False, end_to_end), (True, per_layer)):
            res = run.run_workload(name, seed=1, seconds=SECONDS, trace=trace, small=True)
            if list(res["metrics"]) != want:
                missing = set(want) - set(res["metrics"])
                extra = set(res["metrics"]) - set(want)
                problems.append(f"{name} trace={trace}: missing {missing}, extra {extra}")
            if res["failed"] or not res["correct"] or res["report"]["error_rate"] != 0:
                problems.append(f"{name} trace={trace}: {res['report']['failures']}")
            if not trace and any(m["value"] <= 0 for m in res["metrics"].values()):
                problems.append(f"{name}: an end-to-end metric is not positive")
        original = _inject(sg, INJECTIONS[name])
        try:
            res = run.run_workload(name, seed=1, seconds=SECONDS, trace=True, small=True)
        finally:
            setattr(sg, INJECTIONS[name], original)
        errors = sum(m["value"] for key, m in res["metrics"].items() if key.endswith(".errors"))
        if res["correct"] or res["failed"] == 0 or errors == 0:
            problems.append(f"{name}: injected wrong {INJECTIONS[name]} was not counted")
        print(f"{name}: ok" if not problems else f"{name}: {problems}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
