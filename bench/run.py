"""stargrid benchmark: one workload per process, a closed loop with one client.

    python3 bench/run.py --workload construct --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

The run imports stargrid from ``src/`` next to this directory, builds the
workload's deck from the seed, sets up (several times, reporting the
median), then replays the deck until ``--seconds`` have passed, checking
every result.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics,
the span file and the tracing overhead.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See README.md in this directory for the metric -> layer -> workload map.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("construct", "oracle", "localize")
SETUP_REPEATS = 5
# Kernels timed before and after each set-up, for the set-up's host speed.
SETUP_KERNELS = 9
CHILD_TIMEOUT_S = 600
# Median of ReferenceKernel.time() on the 2-vCPU Xeon VM (2.0 GHz) the
# benchmark was built on.  Timings are reported at this host speed: each is
# multiplied by this over the kernel's time around it.
REFERENCE_KERNEL_S = 4.0e-3
# Each op's host speed is the median kernel time of the 2 * SPEED_WINDOW + 1
# kernels timed nearest to it.
SPEED_WINDOW = 8


class ReferenceKernel:
    """A fixed mix of interpreter, sort and array work, timed to gauge the host.

    The mix follows the package's: Python loops and short-lived tuples
    (oracle, decode, simulate), a stable numpy argsort (resolve's verifier)
    and a blocked pairwise L1 scan (code tables).  The kernel never changes and uses nothing from
    stargrid, so its time moves only with the host: on shared hosts the
    same code runs 1.3x to 3x slower in phases that last from seconds to
    minutes.
    """

    def __init__(self):
        import numpy

        rng = numpy.random.default_rng(0)
        self.numpy = numpy
        self.keys = rng.integers(0, 1 << 40, size=1 << 13)
        self.codes = rng.integers(0, 64, size=(1024, 32)).astype(numpy.int16)

    def time(self) -> float:
        """Seconds one run of the kernel takes."""
        np, codes = self.numpy, self.codes
        start = time.perf_counter()
        counts, acc = {}, 0
        for i in range(1500):
            key = i * 7919 % 1009
            counts[key] = counts.get(key, 0) + i
            acc += key * key % 13
        acc += len(sorted(counts.items(), key=lambda kv: kv[1]))
        acc += len([tuple(range(i % 7, i % 7 + 5)) for i in range(5000)])
        acc += int(np.argsort(self.keys, kind="stable")[0])
        acc += int(np.abs(codes[:4, None, :] - codes[None, :, :]).sum(axis=2).min())
        return time.perf_counter() - start


def host_speed(kernel_s: list[float]) -> list[float]:
    """Host speed at each kernel timing: 1 on the reference host, below when slower."""
    out = []
    for j in range(len(kernel_s)):
        near = kernel_s[max(0, j - SPEED_WINDOW):j + SPEED_WINDOW + 1]
        out.append(REFERENCE_KERNEL_S / statistics.median(near))
    return out


def pin_allocator() -> bool:
    """Fix glibc malloc's thresholds; return whether that worked.

    By default glibc raises its mmap threshold as large blocks are freed
    and trims the top of the heap past twice that, so whether an op's
    multi-MB numpy temporaries reuse heap pages or fault in fresh ones
    depends on what the process ran before.  Two more set-ups before the
    timed phase moved localize's simulate blocks by 30% that way.  Fixed
    thresholds serve blocks under 32 MB from the heap and never trim it,
    as a long-running process would settle; larger blocks are mapped and
    unmapped each time.
    """
    m_trim_threshold, m_mmap_threshold = -1, -3  # from glibc's malloc.h
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(m_mmap_threshold, 32 << 20)) and bool(mallopt(m_trim_threshold, 1 << 30))


def import_package() -> None:
    """Import stargrid from this checkout's sources."""
    if not (SRC / "stargrid" / "__init__.py").is_file():
        raise SystemExit(f"stargrid sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import stargrid
    if Path(stargrid.__file__).resolve().parent != SRC / "stargrid":
        raise SystemExit(f"imported stargrid from {stargrid.__file__}, not from {SRC}")


def time_import() -> float:
    """Seconds a fresh interpreter takes to import stargrid (numpy included)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
            "import stargrid; print(time.perf_counter() - start)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout)


def stamp(load_start: tuple, malloc_pinned: bool) -> dict:
    """What a result needs to be compared with another run's."""
    import numpy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "malloc_pinned": malloc_pinned,
    }


def measure(wl, ctx: dict, deck: list, seconds: float, tracers: list,
            kernel: ReferenceKernel) -> list[dict]:
    """Replay the deck until `seconds` pass; time each op and check it.

    Passes take turns over `tracers` (untraced and traced passes alternate
    in a traced run, so both see the same host conditions).  The reference
    kernel is timed before every op, and each op's latency is multiplied
    by the host speed around it (see `host_speed`); an op's latency is the
    median of these over the passes.  The deck repeats identical inputs,
    so a result cache inside the package would be hit from the second pass
    on.
    """
    modes = [{"tracer": tr, "samples": [[] for _ in deck], "wall_s": 0.0, "check_s": 0.0,
              "attempted": 0, "failed": 0, "failures": []} for tr in tracers]
    kernel_s = []
    attempted = 0
    deadline = time.perf_counter() + seconds
    while True:
        passes, index = divmod(attempted, len(deck))
        op = deck[index]
        mode = modes[passes % len(modes)]
        tracer = mode["tracer"]
        attempted += 1
        tracer.op_id = attempted
        kernel_s.append(kernel.time())
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.op", op.attrs(None)):
                out = wl.call(op, ctx, tracer)
            error = None
        except Exception:  # a failing op is counted, the run goes on
            error = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        mode["samples"][index].append((len(kernel_s) - 1, t1 - t0))
        with tracer.span("bench.check"):
            if error is None:
                try:
                    bad = wl.check(op, ctx, out)
                except Exception:
                    bad, error = ["bench.check"], traceback.format_exc(limit=3)
            else:
                bad = []
        out = None  # drop this op's results before the next op allocates
        t2 = time.perf_counter()
        mode["check_s"] += t2 - t1
        mode["wall_s"] += t2 - t0
        mode["attempted"] += 1
        for name in bad:
            tracer.error(name)
        if error is not None or bad:
            mode["failed"] += 1
            if len(mode["failures"]) < 5:
                mode["failures"].append(f"op {op.id} {op.kind} ({op.m},{op.n}): {error or bad}")
        # Every tracer gets at least one whole pass, so every op has a sample.
        if t2 >= deadline and attempted >= len(deck) * len(modes):
            break
    speed = host_speed(kernel_s)
    for mode in modes:
        mode["raw"] = [statistics.median(t for _, t in runs) for runs in mode["samples"] if runs]
        mode["lat"] = [statistics.median(t * speed[j] for j, t in runs)
                       for runs in mode["samples"] if runs]
        mode["passes"] = mode["attempted"] / len(deck)
        mode["speed"] = statistics.median(speed)
        del mode["samples"]
    return modes


def rate(latencies: list[float]) -> float:
    """Ops per second, from each deck op's latency."""
    return len(latencies) / sum(latencies)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> dict:
    """Run one workload in this process and return its result and report."""
    import spans
    import workloads

    wl = workloads.WORKLOADS[name](small=small)
    tracer = spans.Tracer() if trace else spans.NullTracer()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT_DIR)
    try:
        kernel = ReferenceKernel()
        setup_times, kernel_s = [], [kernel.time() for _ in range(SETUP_KERNELS)]
        for rep in range(SETUP_REPEATS):
            last = rep == SETUP_REPEATS - 1
            import_s = time_import()
            t0 = time.perf_counter()
            deck = wl.deck(seed)
            ctx = wl.set_up(deck, workdir, tracer if last else spans.NullTracer())
            setup_times.append(import_s + time.perf_counter() - t0)
            kernel_s += [kernel.time() for _ in range(SETUP_KERNELS)]
        setup_speed = REFERENCE_KERNEL_S / statistics.median(kernel_s)
        setup_s = statistics.median(setup_times) * setup_speed
        tracers = [spans.NullTracer(), tracer] if trace else [tracer]
        runs = measure(wl, ctx, deck, seconds, tracers, kernel)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    main_run = runs[-1]
    lat = main_run["lat"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "samples": len(lat), "passes": main_run["passes"],
        "setup_runs_s": setup_times,
        "setup_host_speed": setup_speed, "host_speed": main_run["speed"],
        "raw_ops_per_s": rate(main_run["raw"]),
        "error_rate": failed / attempted,
        "failures": [f for r in runs for f in r["failures"]],
    }
    if trace:
        overhead = 1.0 - rate(runs[1]["lat"]) / rate(runs[0]["lat"])
        layer = spans.summarize(tracer, main_run["wall_s"], main_run["check_s"], overhead)
        report["self_times"] = spans.self_times(tracer)
        tracer.write(OUT_DIR / f"{name}-seed{seed}-spans.jsonl")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {
            "ops_per_s": {"value": rate(lat), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": statistics.quantiles(lat, n=10)[8] * 1e3, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB"},
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "report": report}


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    load_start = os.getloadavg()
    malloc_pinned = pin_allocator()
    if not malloc_pinned:
        print("warning: could not fix malloc's thresholds; op times may depend on heap history",
              file=sys.stderr)
    import_package()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report = result.pop("report")
    report["stamp"] = stamp(load_start, malloc_pinned)
    report["metrics"] = result["metrics"]
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print("stamp " + json.dumps(report["stamp"]))
    for fail in report["failures"]:
        print(f"FAILED {fail}")
    for key, metric in result["metrics"].items():
        extra = (f"  ({report['samples']} samples, median of {report['passes']:.1f} passes)"
                 if key == "op_p90_ms" else "")
        print(f"{args.workload} {key} {metric['value']:.6g} {metric['unit']}{extra}")
    if not args.trace:
        print(f"{args.workload} host_speed {report['host_speed']:.4g} (set-up {report['setup_host_speed']:.4g});"
              f" ops_per_s before the host-speed correction {report['raw_ops_per_s']:.6g} 1/s")
    print(f"{args.workload} error_rate {report['error_rate']:.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} ops failed)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
