"""Command-line surface.

Exit codes: 0 success, 1 verification answered "no", 2 usage or input
error, 3 search budget exceeded, 141 (128 + SIGPIPE) stdout closed by its
reader, as when piped into ``head``, with nothing on stderr.  Data goes to
stdout (or --out for sweeps); diagnostics go to stderr.

The argument parser is built on the first :func:`main` call and reused by
every later call in the process, so each subcommand's handler is bound
once, at that first build.  Parsing reads nothing from earlier calls: each
call gets a fresh namespace filled from the defaults.  Importing this
module builds no parser, and loads no numpy: only ``oracle`` and
``localize`` use it, and their handlers import it.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import re
import sys

from .auxgraph import aux_graph_to_dot, build_aux_graph, classify_components, structural_audit
from .builder import build_basis, dimension, regime_of
from .errors import BudgetError, InputError
from .grid import GridGraph, vertex_name
from .resolve import is_resolving, parse_landmark_lines

# The most edges `export` builds.  It holds every edge as a pair of vertex
# names before printing; at (200, 200) its peak (tracemalloc, output
# included) was about 190 bytes per edge for edgelist and 235 for json, so
# this keeps a json export near 600 MB.
MAX_EXPORT_EDGES = 2_400_000

# The most rows `sweep` writes.  It writes each row as it makes it, so its
# memory stays flat, but --n-max 1000 (500,500 rows) takes about 1.2 s, so
# this bounds a sweep's run time near half a minute.
MAX_SWEEP_ROWS = 10_000_000


# ASCII digits only, as in the vertex encoding: int() also reads other
# scripts' digits, underscores and surrounding whitespace, so "\u0663" would
# read as 3 and "1_0" as 10
_INTEGER_RE = re.compile(r"-?[0-9]+")


def _integer(value: str) -> int:
    if not _INTEGER_RE.fullmatch(value):
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}")
    return int(value)


def _positive(value: str) -> int:
    n = _integer(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=_positive, required=True, help="row relay count")
    p.add_argument("--n", type=_positive, required=True, help="column relay count")


def _read_landmarks(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_landmark_lines(fh)


def _cmd_dim(args) -> int:
    print(json.dumps({
        "m": args.m,
        "n": args.n,
        "dim": dimension(args.m, args.n),
        "regime": regime_of(args.m, args.n).tag,
    }))
    return 0


def _cmd_basis(args) -> int:
    basis = build_basis(args.m, args.n)
    names = [vertex_name(v) for v in basis]
    if args.format == "text":
        print("\n".join(names))
    elif args.format == "csv":
        print(",".join(names))
    else:
        print(json.dumps({
            "m": args.m,
            "n": args.n,
            "dim": len(basis),
            "provenance": basis.provenance,
            "landmarks": names,
        }))
    return 0


def _cmd_verify(args) -> int:
    g = GridGraph(args.m, args.n)
    landmarks = _read_landmarks(args.set)
    verdict = is_resolving(g, landmarks)
    if verdict:
        print("resolving")
        return 0
    x, y = verdict.witness
    print(f"{vertex_name(x)} {vertex_name(y)}")
    return 1


def _cmd_hgraph(args) -> int:
    g = GridGraph(args.m, args.n)
    landmarks = _read_landmarks(args.set)
    aux = build_aux_graph(g, landmarks)
    if args.format == "dot":
        sys.stdout.write(aux_graph_to_dot(aux))
        return 0
    report = classify_components(aux)
    audit = structural_audit(aux, strict_tiled=args.strict)
    print(json.dumps({
        "m": args.m,
        "n": args.n,
        "basis_size": len(aux.left),
        "component_report": report.to_dict(),
        "audit": audit.to_dict(),
    }))
    return 0


def _cmd_oracle(args) -> int:
    from .oracle import SearchBudget, brute_force_dimension, enumerate_minimum_bases

    g = GridGraph(args.m, args.n)
    budget = SearchBudget(max_candidates=args.max_candidates)
    dim, witness = brute_force_dimension(g, budget)
    payload = {
        "m": args.m,
        "n": args.n,
        "dim": dim,
        "witness": [vertex_name(v) for v in witness],
    }
    if args.enumerate:
        bases = enumerate_minimum_bases(g, dim, budget)
        payload["bases"] = [[vertex_name(v) for v in b] for b in bases]
    print(json.dumps(payload))
    return 0


def _cmd_sweep(args) -> int:
    if args.fixed_n is not None:
        n = args.fixed_n
        row_count = n
        pairs = ((m, n) for m in range(1, n + 1))
    else:
        top = args.n_max
        row_count = top * (top + 1) // 2
        pairs = ((m, n) for m in range(1, top + 1) for n in range(m, top + 1))
    if row_count > MAX_SWEEP_ROWS:
        raise BudgetError(f"sweep has {row_count} rows, limit is {MAX_SWEEP_ROWS}")
    rows = itertools.chain(["m,n,dim\n"], (f"{m},{n},{dimension(m, n)}\n" for m, n in pairs))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(rows)
    else:
        sys.stdout.writelines(rows)
    return 0


def _cmd_localize(args) -> int:
    from .localize import NoiseModel, _check_code_size, simulate

    g = GridGraph(args.m, args.n)
    # refuse an oversized table before building its basis
    _check_code_size(g, dimension(args.m, args.n))
    basis = build_basis(args.m, args.n)
    noise = NoiseModel(flip_probability=args.noise, seed=args.seed)
    result = simulate(g, basis, noise, args.trials, metric=args.metric)
    print(json.dumps(result.to_dict()))
    return 0


def _cmd_export(args) -> int:
    g = GridGraph(args.m, args.n)
    edge_count = g.m + g.n + 2 * g.m * g.n
    if edge_count > MAX_EXPORT_EDGES:
        raise BudgetError(
            f"export of ({g.m}, {g.n}) has {edge_count} edges, limit is {MAX_EXPORT_EDGES}"
        )
    names = [vertex_name(v) for v in g.vertices()]
    # each edge once, from its end with the lower index
    edges = [(names[v], names[w]) for v, near in enumerate(g.adjacency()) for w in near if w > v]
    if args.format == "edgelist":
        print("\n".join(f"{u} {w}" for u, w in edges))
    elif args.format == "dot":
        lines = ["graph grid {", f"  graph [m={g.m}, n={g.n}];"]
        lines.extend(f'  "{u}" -- "{w}";' for u, w in edges)
        lines.append("}")
        print("\n".join(lines))
    else:
        print(json.dumps({
            "m": g.m,
            "n": g.n,
            "vertices": names,
            "edges": edges,
        }))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stargrid",
        description="Landmark placement and localization on hub-and-spoke grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", help="metric dimension of the (m, n) grid")
    _add_grid_args(p)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("basis", help="construct a verified minimum landmark set")
    _add_grid_args(p)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("verify", help="check a landmark file against the grid")
    _add_grid_args(p)
    p.add_argument("--set", required=True, help="landmark file, one vertex per line")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("hgraph", help="auxiliary landmark/relay graph of a landmark file")
    _add_grid_args(p)
    p.add_argument("--set", required=True, help="landmark file, one vertex per line")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("--strict", action="store_true",
                   help="audit against the strict tiled-component rules")
    p.set_defaults(func=_cmd_hgraph)

    p = sub.add_parser("oracle", help="brute-force dimension search (small grids)")
    _add_grid_args(p)
    p.add_argument("--max-candidates", type=_positive, default=10_000_000)
    p.add_argument("--enumerate", action="store_true",
                   help="also list every minimum basis")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("sweep", help="CSV of dimensions over a parameter range")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n-max", type=_positive, help="all pairs 1 <= m <= n <= N0")
    group.add_argument("--fixed-n", type=_positive, help="fix n, sweep m = 1..n")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("localize", help="noisy hop-count decoding simulation")
    _add_grid_args(p)
    p.add_argument("--noise", type=float, default=0.0, help="per-coordinate flip probability")
    p.add_argument("--trials", type=_positive, default=1000)
    p.add_argument("--seed", type=_integer, default=42)
    p.add_argument("--metric", choices=("hamming", "l1"), default="hamming")
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("export", help="dump the grid graph")
    _add_grid_args(p)
    p.add_argument("--format", choices=("dot", "json", "edgelist"), default="edgelist")
    p.set_defaults(func=_cmd_export)

    return parser


def _stdout_to_devnull() -> None:
    """Point stdout's file descriptor at the null device, so that no later
    flush of what is still buffered, the interpreter's last one included,
    writes to the closed pipe again.  A stdout without a descriptor has no
    pipe to mend."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        _stdout_to_devnull()
        return 141
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
