"""The benchmark's three workloads: construct, oracle and localize.

Each workload turns a seed into a deck of ops, sets up what the ops need,
and then runs ops through the package's public functions.  ``call`` is the
timed part; ``check`` compares every result with a fact that does not come
from the call being timed and returns the names of the functions whose
results were wrong.

A deck holds the same ops on every seed; the seed draws their
orientations, probes and (outside construct) their order.  Decks are replayed until the measured time
is up, and each op's latency is its median over the passes (see run.py).
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import stargrid as sg
from stargrid.cli import main as cli_main


@dataclass(frozen=True)
class Op:
    """One operation of a deck; ``args`` holds the kind-specific inputs."""

    id: int
    kind: str
    m: int
    n: int
    args: dict = field(default_factory=dict, compare=False)

    @property
    def vertices(self) -> int:
        return 1 + self.m + self.n + self.m * self.n

    def attrs(self, k: int | None) -> dict:
        return {"m": self.m, "n": self.n, "N": self.vertices, "k": k}


def renumber(ops: list[Op]) -> list[Op]:
    return [Op(i, op.kind, op.m, op.n, op.args) for i, op in enumerate(ops)]


def _codes_differ(g, landmarks, vertices) -> bool:
    """Distinct metric codes, from the grid's pairwise closed-form distance."""
    codes = {sg.metric_code(g, v, landmarks) for v in vertices}
    return len(codes) == len(vertices)


class Workload:
    """Shared by the three workloads; ``small`` swaps in the SMALL sizes."""

    SMALL: dict = {}

    def __init__(self, small: bool = False):
        if small:
            self.__dict__.update(self.SMALL)


class Construct(Workload):
    """The paper's main path: dimension, construction, verification, audit."""

    name = "construct"
    why = ("the paper's main path: closed form, O(m+n) construction and its sort-based "
           "verifier, whose working set grows from cache-sized to over 100 MB")

    MAX_SIDE = 500
    # Sizes are the points of a Fibonacci lattice (LATTICE points, generator
    # GENERATOR) in (log m, log n), so each side is log-uniform on
    # [1, MAX_SIDE] and the plane is covered evenly.  The sizes are the same
    # on every seed: a seeded shift of the lattice moved op_p90_ms by 5-12%
    # between seeds.  The seed draws each op's orientation and its dropped
    # landmark.  The order is the lattice order on every seed: which grids
    # ran before the largest one decides how much freed memory the heap
    # still holds, and a seeded order moved peak_rss_mb by up to 30%.
    LATTICE, GENERATOR = 144, 89
    # One lattice point in CLI_EVERY goes through `stargrid.cli.main` instead.
    CLI_EVERY = 8
    # code_table's pairwise scan is O(N^2 k); build tables only where
    # N^2 (m + n) stays under this, i.e. at most ~25 ms per table.
    TABLE_WORK = 1.5e7

    SMALL = {"MAX_SIDE": 24, "LATTICE": 21, "GENERATOR": 13}

    def deck(self, seed: int) -> list[Op]:
        rng = random.Random(seed)
        log_max = math.log(self.MAX_SIDE)

        def side(stratum: int) -> int:
            return min(self.MAX_SIDE, int(math.exp(log_max * (stratum + 0.5) / self.LATTICE)))

        ops = []
        for i in range(self.LATTICE):
            m, n = side(i), side(i * self.GENERATOR % self.LATTICE)
            if rng.random() < 0.5:
                m, n = n, m
            total = 1 + m + n + m * n
            ops.append(Op(0, "cli" if i % self.CLI_EVERY == 0 else "lib", m, n, {
                "drop": rng.random(), "table": total * total * (m + n) <= self.TABLE_WORK}))
        return renumber(ops)

    def set_up(self, deck: list[Op], workdir: str, tr) -> dict:
        """Write a landmark file per CLI grid, with the library's expected outputs."""
        ctx = {"strict": {}, "plan": {}, "cli": {}}
        for op in deck:
            key = (op.m, op.n)
            if key not in ctx["strict"]:
                reg = sg.regime_of(op.m, op.n)
                ctx["strict"][key] = reg.tag == "D"
                if reg.tag == "D":
                    plan = sg.tiling_plan(op.m, op.n)
                    ctx["plan"][key] = plan.row_pair_tiles + plan.col_pair_tiles
            if op.kind != "cli" or key in ctx["cli"]:
                continue
            g = sg.GridGraph(op.m, op.n)
            with tr.span("builder.build_basis", op.attrs(None)):
                basis = sg.build_basis(op.m, op.n)
            names = [sg.vertex_name(v) for v in basis]
            path = os.path.join(workdir, f"{op.m}x{op.n}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(names) + "\n")
            aux = sg.build_aux_graph(g, basis.landmarks)
            hgraph = {
                "m": op.m, "n": op.n, "basis_size": len(aux.left),
                "component_report": sg.classify_components(aux).to_dict(),
                "audit": sg.structural_audit(aux, strict_tiled=True).to_dict(),
            }
            ctx["cli"][key] = {
                "path": path,
                "basis": "\n".join(names) + "\n",
                "hgraph": json.loads(json.dumps(hgraph)),
            }
        return ctx

    def call(self, op: Op, ctx: dict, tr):
        if op.kind == "cli":
            return self._call_cli(op, ctx, tr)
        m, n = op.m, op.n
        g = sg.GridGraph(m, n)
        attrs = op.attrs(None)
        with tr.span("builder.dimension", attrs):
            k = sg.dimension(m, n)
        attrs = op.attrs(k)
        with tr.span("builder.build_basis", attrs):
            basis = sg.build_basis(m, n)
        drop = int(op.args["drop"] * len(basis))
        reduced = basis.landmarks[:drop] + basis.landmarks[drop + 1:]
        with tr.span("resolve.is_resolving", attrs):
            verdict = sg.is_resolving(g, reduced)
        if not verdict:
            tr.count("resolve.is_resolving.witnesses")
        with tr.span("auxgraph.build_aux_graph", attrs):
            aux = sg.build_aux_graph(g, basis.landmarks)
        with tr.span("auxgraph.classify_components", attrs):
            report = sg.classify_components(aux)
        with tr.span("auxgraph.structural_audit", attrs):
            audit = sg.structural_audit(aux, strict_tiled=ctx["strict"][(m, n)])
        table = None
        if op.args["table"]:
            with tr.span("localize.code_table", attrs):
                table = sg.code_table(g, basis)
        return g, k, basis, reduced, verdict, aux, report, audit, table

    def _call_cli(self, op: Op, ctx: dict, tr):
        files = ctx["cli"][(op.m, op.n)]
        grid = ["--m", str(op.m), "--n", str(op.n)]
        outs = {}
        for cmd, argv in (
            ("basis", ["basis", *grid]),
            ("verify", ["verify", *grid, "--set", files["path"]]),
            ("hgraph", ["hgraph", *grid, "--set", files["path"], "--strict"]),
        ):
            out, err = io.StringIO(), io.StringIO()
            with tr.span(f"cli.main.{cmd}", op.attrs(None)), redirect_stdout(out), redirect_stderr(err):
                code = cli_main(argv)
            outs[cmd] = (code, out.getvalue())
        return outs

    def check(self, op: Op, ctx: dict, out) -> list[str]:
        if op.kind == "cli":
            return self._check_cli(op, ctx, out)
        g, k, basis, reduced, verdict, aux, report, audit, table = out
        m, n = op.m, op.n
        bad = []
        if (len(basis) != k or not basis.verified
                or any(isinstance(v, sg.Hub) for v in basis)):
            bad.append("builder.build_basis")
        # A minimum basis minus one landmark cannot resolve: the witness pair
        # must be two vertices with equal codes under the reduced set.
        w = verdict.witness
        if (verdict or w is None or w[0] == w[1]
                or sg.metric_code(g, w[0], reduced) != sg.metric_code(g, w[1], reduced)):
            bad.append("resolve.is_resolving")
        if len(aux.left) != len(basis) or len(aux.right) != m + n:
            bad.append("auxgraph.build_aux_graph")
        if report.isolated_right > 1 or (
                (m, n) in ctx["plan"]
                and (report.path_orders.count(5) != ctx["plan"][(m, n)] or report.non_path_count)):
            bad.append("auxgraph.classify_components")
        if not audit.passed or (ctx["strict"][(m, n)] and audit.strict_tiling is not True):
            bad.append("auxgraph.structural_audit")
        # Distinct codes are re-derived here from the table's own pairwise
        # scan (localize), not from the sort in resolve.
        if table is not None and (len(table) != op.vertices or table.code_length != len(basis)
                                  or table.min_pairwise_l1 < 1):
            bad.append("localize.code_table")
        return bad

    def _check_cli(self, op: Op, ctx: dict, outs) -> list[str]:
        want = ctx["cli"][(op.m, op.n)]
        bad = []
        if outs["basis"] != (0, want["basis"]):
            bad.append("cli.main.basis")
        if outs["verify"] != (0, "resolving\n"):
            bad.append("cli.main.verify")
        code, text = outs["hgraph"]
        try:
            same = code == 0 and json.loads(text) == want["hgraph"]
        except ValueError:
            same = False
        if not same:
            bad.append("cli.main.hgraph")
        return bad


# Enumeration counts and adjacency dimensions of the constructed basis's aux
# graph, per grid (m <= n).  Both are graph invariants; they were computed
# once with the brute force and are the same in either orientation.
ORACLE_REFERENCE = {
    (1, 3): (20, 3), (1, 4): (88, 4), (1, 5): (30, 4), (1, 6): (120, 5),
    (1, 7): (350, 6), (1, 8): (896, 7), (2, 2): (4, 2), (2, 3): (26, 3),
    (2, 4): (184, 4), (2, 5): (30, 4), (2, 6): (300, 5), (2, 7): (1820, 6),
    (3, 3): (246, 4), (3, 4): (18, 4), (3, 5): (780, 5), (4, 4): (1008, 5),
}


class Oracle(Workload):
    """The brute-force subset scans, on instances small enough to finish."""

    name = "oracle"
    why = ("the subset-scan kernel does nearly all the work here and nearly none in the "
           "other workloads; small grids (N <= 25) so that a run replays every search many times")

    # Both orientations of every grid in the table: all grids with N <= 25
    # and m, n >= 2, plus single-row grids up to (1, 8).  Larger ones such
    # as (3, 6), (4, 5), (3, 7) and (5, 5) take 0.8 s to 4.6 s for their four
    # searches, and a run must replay the deck many times (see run.py).
    INSTANCES = tuple(ORACLE_REFERENCE)
    KINDS = ("dimension", "enumerate", "hub_free", "adjacency")
    SMALL = {"INSTANCES": ((2, 2), (2, 3), (3, 3))}

    @staticmethod
    def planned(kind: str, total: int, k: int) -> int:
        """Candidates the call's budget gate plans for, from (N, k)."""
        if kind == "dimension":
            return sum(math.comb(total, i) for i in range(1, k + 1))
        if kind == "enumerate":
            return math.comb(total, k)
        return math.comb(total - 1, k)

    def deck(self, seed: int) -> list[Op]:
        ops = [Op(0, kind, mm, nn)
               for m, n in self.INSTANCES
               for mm, nn in ([(m, n)] if m == n else [(m, n), (n, m)])
               for kind in self.KINDS]
        random.Random(seed).shuffle(ops)
        return renumber(ops)

    def set_up(self, deck: list[Op], workdir: str, tr) -> dict:
        ctx = {"k": {}, "aux": {}}
        for op in deck:
            key = (op.m, op.n)
            ctx["k"][key] = sg.dimension(op.m, op.n)
            if op.kind == "adjacency" and key not in ctx["aux"]:
                g = sg.GridGraph(op.m, op.n)
                ctx["aux"][key] = sg.build_aux_graph(g, sg.build_basis(op.m, op.n).landmarks)
        return ctx

    def call(self, op: Op, ctx: dict, tr):
        g = sg.GridGraph(op.m, op.n)
        k = ctx["k"][(op.m, op.n)]
        attrs = op.attrs(k)
        if op.kind == "dimension":
            tr.count("oracle.candidates_planned", self.planned(op.kind, op.vertices, k))
            with tr.span("oracle.brute_force_dimension", attrs):
                return g, sg.brute_force_dimension(g)
        if op.kind == "enumerate":
            tr.count("oracle.candidates_planned", self.planned(op.kind, op.vertices, k))
            with tr.span("oracle.enumerate_minimum_bases", attrs):
                bases = sg.enumerate_minimum_bases(g, k)
            tr.count("oracle.enumerate_minimum_bases.bases", len(bases))
            return g, bases
        if op.kind == "hub_free":
            tr.count("oracle.candidates_planned", self.planned(op.kind, op.vertices, k))
            with tr.span("oracle.exists_hub_free_basis", attrs):
                return g, sg.exists_hub_free_basis(g, k)
        aux = ctx["aux"][(op.m, op.n)]
        size = len(aux.vertices())
        tr.count("oracle.candidates_planned",
                 sum(math.comb(size, i) for i in range(1, k + 1)))
        with tr.span("oracle.brute_force_adjacency_dimension", attrs):
            return g, sg.brute_force_adjacency_dimension(aux)

    def check(self, op: Op, ctx: dict, out) -> list[str]:
        g, result = out
        k = ctx["k"][(op.m, op.n)]
        bases_ref, adjacency_ref = ORACLE_REFERENCE[(min(op.m, op.n), max(op.m, op.n))]
        if op.kind == "dimension":
            # BFS search versus the closed form; the witness is re-checked
            # with the grid's closed-form distances.
            dim, witness = result
            ok = (dim == k and len(witness) == k
                  and _codes_differ(g, witness.landmarks, g.vertices()))
            return [] if ok else ["oracle.brute_force_dimension"]
        if op.kind == "enumerate":
            ok = len(result) == bases_ref and all(len(b) == k for b in result)
            return [] if ok else ["oracle.enumerate_minimum_bases"]
        if op.kind == "hub_free":
            return [] if result is True else ["oracle.exists_hub_free_basis"]
        return [] if result == adjacency_ref else ["oracle.brute_force_adjacency_dimension"]


class Localize(Workload):
    """The read path: nearest-code decoding and noisy-localization blocks."""

    name = "localize"
    why = ("the read path beside construct's table-write path: bursts of decodes on seeded "
           "noisy probes and fixed-size simulate blocks on 20x20 to 30x30 grids")

    # simulate rebuilds its code table on every call, so larger grids would
    # leave too few deck replays in a run.  Five grids put the p90 (the 60th
    # percentile of simulate blocks) between the two 24x30 grids.
    GRIDS = ((20, 20), (20, 28), (24, 30), (30, 24), (30, 30))
    NOISE = (0.0, 0.05, 0.2)
    METRICS = ("hamming", "l1")
    # Three decode ops per simulate block; both shares stay far from the 50%
    # and 90% latency quantiles, so neither quantile flips between op kinds.
    DECODES_PER_SIMULATE = 3
    # A decode op decodes this many probes against one table.  A single
    # decode takes 0.05-0.15 ms, most of it reloading the table into cache,
    # and its median over a run moved 1.7x between runs; a burst's does not.
    BURST = 20
    TRIALS = 64
    SMALL = {"GRIDS": ((4, 4), (5, 7)), "TRIALS": 16, "BURST": 3}

    def deck(self, seed: int) -> list[Op]:
        rng = random.Random(seed)
        ops = []
        for m, n in self.GRIDS:
            for p in self.NOISE:
                for metric in self.METRICS:
                    ops.append(Op(0, "simulate", m, n, {
                        "p": p, "metric": metric, "noise_seed": rng.randrange(2**31)}))
                    for _ in range(self.DECODES_PER_SIMULATE):
                        ops.append(Op(0, "decode", m, n, {
                            "p": p, "metric": metric, "probes": [
                                (rng.random(), [rng.random() for _ in range(2 * (m + n))])
                                for _ in range(self.BURST)]}))
        rng.shuffle(ops)
        return renumber(ops)

    def set_up(self, deck: list[Op], workdir: str, tr) -> dict:
        """Build a code table per grid and turn each decode op into probes."""
        ctx = {"basis": {}, "table": {}, "probe": {}, "truth": {}}
        for op in deck:
            key = (op.m, op.n)
            g = sg.GridGraph(op.m, op.n)
            if key not in ctx["table"]:
                basis = sg.build_basis(op.m, op.n)
                with tr.span("localize.code_table", op.attrs(len(basis))):
                    ctx["table"][key] = sg.code_table(g, basis)
                ctx["basis"][key] = basis
            if op.kind != "decode":
                continue
            basis = ctx["basis"][key]
            ctx["truth"][op.id], ctx["probe"][op.id] = [], []
            for where, draws in op.args["probes"]:
                v = g.vertex_at(int(where * op.vertices))
                ideal = sg.metric_code(g, v, basis)
                ctx["truth"][op.id].append((v, ideal))
                ctx["probe"][op.id].append(self._perturb(ideal, op.args["p"], draws))
        return ctx

    @staticmethod
    def _perturb(code, p: float, draws: list[float]) -> tuple[int, ...]:
        """+-1 hop on each coordinate with probability p, clamped at 0."""
        out = []
        for t, entry in enumerate(code):
            if draws[2 * t] < p:
                entry = max(0, entry + (1 if draws[2 * t + 1] < 0.5 else -1))
            out.append(entry)
        return tuple(out)

    def call(self, op: Op, ctx: dict, tr):
        key = (op.m, op.n)
        basis = ctx["basis"][key]
        attrs = op.attrs(len(basis))
        if op.kind == "decode":
            table, metric, results = ctx["table"][key], op.args["metric"], []
            for probe in ctx["probe"][op.id]:
                with tr.span("localize.decode", attrs):
                    result = sg.decode(probe, table, metric)
                if result.ambiguous:
                    tr.count("localize.decode.ties")
                results.append(result)
            return results
        noise = sg.NoiseModel(op.args["p"], seed=op.args["noise_seed"])
        with tr.span("localize.simulate", attrs):
            result = sg.simulate(sg.GridGraph(op.m, op.n), basis, noise, self.TRIALS,
                                 metric=op.args["metric"])
        tr.count("localize.simulate.trials", result.trials)
        return result

    def check(self, op: Op, ctx: dict, result) -> list[str]:
        basis = ctx["basis"][(op.m, op.n)]
        if op.kind == "simulate":
            # Noisy rates are not pinned: only their range, and exactness at p = 0.
            ok = (result.trials == self.TRIALS and result.basis_size == len(basis)
                  and 0.0 <= result.misidentification_rate <= 1.0
                  and 0.0 <= result.ambiguity_rate <= 1.0)
            if op.args["p"] == 0.0:
                ok = ok and result.misidentification_rate == 0.0 and result.ambiguity_rate == 0.0
            return [] if ok else ["localize.simulate"]
        g = sg.GridGraph(op.m, op.n)
        dist = self._distance_fn(op.args["metric"])
        ok = len(result) == len(ctx["probe"][op.id])
        for res, probe, (truth, ideal) in zip(result, ctx["probe"][op.id], ctx["truth"][op.id]):
            # Nearest-code property, from codes the grid's closed form gives.
            claimed = [res.vertex] if res.vertex is not None else list(res.ties)
            ok = (ok and bool(claimed) and (res.vertex is not None or len(claimed) >= 2)
                  and res.distance <= dist(probe, ideal)
                  and all(dist(probe, sg.metric_code(g, v, basis)) == res.distance
                          for v in claimed))
            if op.args["p"] == 0.0:
                ok = ok and res.vertex == truth and res.distance == 0
        return [] if ok else ["localize.decode"]

    @staticmethod
    def _distance_fn(metric: str):
        if metric == "hamming":
            return lambda a, b: sum(x != y for x, y in zip(a, b))
        return lambda a, b: sum(abs(x - y) for x, y in zip(a, b))


WORKLOADS = {cls.name: cls for cls in (Construct, Oracle, Localize)}
