"""Auxiliary bipartite landmark/relay graph and its component audit.

For a landmark set B on an (m, n) grid, the auxiliary graph puts a primed
copy of every landmark on the left and all m + n relays (rows and columns)
on the right.  A cell landmark's copy is joined to its row relay and its
column relay; a relay landmark's copy is joined to the relay itself.  The
hub has no row or column, so landmark sets containing it are rejected.

The graph is held as the relay footprint that
:func:`stargrid.resolve.is_resolving` also reads, not as vertex objects.
Relays are numbered 0..m+n-1, rows first, which is also their canonical
order.  Where a vertex must be named, as in the oracle's host protocol,
it is an integer: the k primed landmarks first, then the relays.  A relay
landmark is a pendant vertex on its relay and a cell landmark an edge
between its two relays, so :func:`classify_components` finds the
components by union-find over the m + n relays.  A component is a path
exactly when it has no cycle and no relay of degree above 2 (primed copies
have degree 1 or 2).  Building,
classifying, auditing and :func:`check_relays_resolved` (the verifier's
relay rule) each take O(m + n + k) time for k landmarks.  The component
report is computed once per graph, on its first request, and kept:
:func:`classify_components` and :func:`structural_audit` both read it.

Minimum landmark sets leave a very rigid footprint here: components of a
constructed tiled basis are exactly 5-vertex paths plus at most one single
edge and at most one isolated relay.  :func:`classify_components` measures
the footprint and :func:`structural_audit` checks it against the rules that
any sensible basis must satisfy.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

from .errors import InputError
from .grid import GridGraph, Vertex, _is_int, vertex_at_point, vertex_name
from .resolve import Verdict, _DuplicateLandmark, _read, _relay_verdict


class AuxGraph:
    """Bipartite graph on primed landmarks (left) versus relays (right).

    Relays are numbered rows 0..m-1, then columns m..m+n-1.  ``relays``
    holds the relay index of each relay landmark, the pendant end of its
    one edge, in increasing order.  ``cells`` holds each cell landmark as
    the (row relay, column relay) pair its two edges join, in row-major
    order.  Relay r has degree ``relay_degree[r]``.  ``landmarks`` (the
    landmarks in canonical order: the relay landmarks, then the cell
    landmarks) and ``components`` are derived from these once, on first
    request, and kept.

    As a host for :func:`stargrid.oracle.brute_force_adjacency_dimension`
    it is a plain integer graph on k + m + n vertices: vertex i < k is the
    primed copy of ``landmarks[i]`` (``left``), and vertex k + r is relay r
    (``right``).  ``adjacency()``, the oracle's read, returns every vertex's
    neighbour list, built on first request and kept; ``neighbors`` reads one
    list of it, and ``index_of`` is the identity; both refuse a non-vertex
    with InputError.  Build instances with :func:`build_aux_graph`.
    """

    def __init__(self, g: GridGraph, relays: tuple[int, ...],
                 cells: tuple[tuple[int, int], ...], relay_degree: tuple[int, ...]):
        self.m = g.m
        self.n = g.n
        self.relays = relays
        self.cells = cells
        self.relay_degree = relay_degree
        self._grid = g

    @functools.cached_property
    def landmarks(self) -> tuple[Vertex, ...]:
        """The landmarks in canonical order, built from the relay footprint
        on first request."""
        m = self.m
        return tuple([vertex_at_point(r + 1, 0) if r < m else vertex_at_point(0, r - m + 1)
                      for r in self.relays]
                     + [vertex_at_point(r + 1, c - m + 1) for r, c in self.cells])

    @property
    def left(self) -> range:
        """The primed landmarks, in landmark order."""
        return range(len(self.relays) + len(self.cells))

    @property
    def right(self) -> range:
        """The relays in index order: rows, then columns."""
        k = len(self.left)
        return range(k, k + self.m + self.n)

    def vertex_count(self) -> int:
        return len(self.left) + self.m + self.n

    def vertices(self) -> range:
        return range(self.vertex_count())

    def index_of(self, v: int) -> int:
        """The identity on the vertices 0..N-1; anything else, a bool or a
        float among them (as in :func:`stargrid.grid.check_int`), raises
        InputError."""
        if not (_is_int(v) and 0 <= v < self.vertex_count()):
            raise InputError(f"vertex {v!r} not in auxiliary graph")
        return v

    def neighbors(self, v: int) -> tuple[int, ...]:
        """A primed landmark's relays, or a relay's primed landmarks, in
        increasing order."""
        return self._adjacency[self.index_of(v)]

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Every vertex's neighbours in increasing order, vertices in index
        order: the lists ``neighbors`` reads."""
        return self._adjacency

    @functools.cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        k = len(self.left)
        ends = [(k + r,) for r in self.relays] + [(k + r, k + c) for r, c in self.cells]
        hits: list[list[int]] = [[] for _ in range(self.m + self.n)]
        for i, pair in enumerate(ends):
            for v in pair:
                hits[v - k].append(i)
        return tuple(ends) + tuple(map(tuple, hits))

    @functools.cached_property
    def components(self) -> ComponentReport:
        """The component footprint, computed on first request.

        Union-find over the relays, with each cell landmark as an edge
        between its two relays; relay landmarks hang off their relay.  Each
        root holds its component's count of two per relay and one per relay
        landmark, and whether it is no path: a relay of degree above 2, or a
        cycle, flagged when a cell landmark joins two relays already joined.
        Both merge as the components do, so one sweep over the roots
        classifies them.  A component without a cycle is a tree whose t - 1
        cell landmarks join its t relays, so with p relay landmarks its
        order is 2t - 1 + p.  The fields it reads are never reassigned after
        :func:`build_aux_graph`, so the kept report cannot go stale.
        """
        size = self.m + self.n
        degree = self.relay_degree
        parent = list(range(size))
        count = [2] * size
        for r in self.relays:
            count[r] = 3
        branched = [d > 2 for d in degree]

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for r, c in self.cells:
            a, b = find(r), find(c)
            if a == b:  # a cycle
                branched[a] = True
            else:
                parent[a] = b
                count[b] += count[a]
                if branched[a]:
                    branched[b] = True
        isolated = degree.count(0)
        path_orders = [1] * isolated
        non_path = 0
        for x in range(size):
            if parent[x] == x and degree[x]:
                if branched[x]:
                    non_path += 1
                else:
                    path_orders.append(count[x] - 1)
        path_orders.sort(reverse=True)
        max_degree = max(max(degree), 2 if self.cells else 0)
        return ComponentReport(tuple(path_orders), non_path, isolated, max_degree)


@dataclass(frozen=True)
class ComponentReport:
    """Footprint of the auxiliary graph's connected components.

    ``path_orders`` lists, largest first, the orders of components that are
    simple paths (isolated vertices count as order-1 paths).  Components
    containing a cycle or a degree->=3 vertex are only counted in
    ``non_path_count``.  ``isolated_right`` counts relays no landmark
    touches; ``max_degree`` is the maximum degree anywhere in the graph.
    """

    path_orders: tuple[int, ...]
    non_path_count: int
    isolated_right: int
    max_degree: int

    def to_dict(self) -> dict:
        return {
            "path_orders": list(self.path_orders),
            "non_path_count": self.non_path_count,
            "isolated_right": self.isolated_right,
            "max_degree": self.max_degree,
        }


@dataclass(frozen=True)
class AuditReport:
    """Rule-by-rule outcome of :func:`structural_audit`.

    ``strict_tiling`` is None unless the strict flag was set.  The degree
    fields are informational: ``degree3_balanced`` is only evaluated when
    both parts contain a vertex of degree at least 3.
    """

    max_one_isolated: bool
    no_order3_path: bool
    strict_tiling: bool | None
    left_degree_histogram: dict
    right_degree_histogram: dict
    degree3_hypothesis: bool
    degree3_balanced: bool | None
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.max_one_isolated and self.no_order3_path and self.strict_tiling is not False

    def to_dict(self) -> dict:
        return {
            "max_one_isolated": self.max_one_isolated,
            "no_order3_path": self.no_order3_path,
            "strict_tiling": self.strict_tiling,
            "left_degree_histogram": dict(self.left_degree_histogram),
            "right_degree_histogram": dict(self.right_degree_histogram),
            "degree3_hypothesis": self.degree3_hypothesis,
            "degree3_balanced": self.degree3_balanced,
            "violations": list(self.violations),
            "passed": self.passed,
        }


def build_aux_graph(g: GridGraph, landmarks) -> AuxGraph:
    """Build the auxiliary graph for a landmark set on g.

    Landmarks are canonically ordered regardless of input order, so the
    edge list is byte-for-byte reproducible.  They are read into a relay
    footprint once; invalid and duplicate landmarks are refused, the
    first fault in input order winning, and the hub after that: it has no
    governing relays, so the construction is undefined for it.
    """
    try:
        relays, cells, degree, hub, _ = _read(g, tuple(landmarks))
    except _DuplicateLandmark as dup:
        raise InputError(f"duplicate landmark {vertex_name(dup.vertex)}") from None
    if hub:
        raise InputError("the hub cannot appear in an auxiliary-graph landmark set")
    # relay indices, and cell pairs row-major, sort in canonical order
    relays.sort()
    cells.sort()
    return AuxGraph(g, tuple(relays), tuple(cells), tuple(degree))


def classify_components(aux: AuxGraph) -> ComponentReport:
    """Connected components, labeled path (with order) or non-path.

    Reads ``aux.components``, which is computed on the graph's first
    request and kept, so a later :func:`structural_audit` of the same graph
    reuses it.
    """
    return aux.components


def check_relays_resolved(aux: AuxGraph) -> Verdict:
    """Do the primed landmarks give every relay a distinct adjacency code?

    This is the property any resolving landmark set must imprint on its
    auxiliary graph; failures return the first colliding relay pair in
    relay order, as an adjacency-code check of ``aux.right`` against
    ``aux.left`` would.  A relay's code is its set of primed neighbors, so
    two relays collide when both are untouched or when a lone cell landmark
    alone touches both: the rule
    :func:`stargrid.resolve.is_resolving` applies to metric codes, read
    from the same footprint.  O(m + n + k).
    """
    if not aux.left:
        raise InputError("landmark set must be nonempty")
    return _relay_verdict(aux._grid, aux.relay_degree, aux.cells)


def structural_audit(aux: AuxGraph, strict_tiled: bool = False) -> AuditReport:
    """Audit the component structure.

    Always checked: (a) at most one untouched relay, (b) no path component
    of order 3.  With ``strict_tiled`` (constructed tiled bases): only
    5-paths, single edges, and isolated vertices may appear, and single
    edges plus isolated vertices number at most two.
    """
    report = aux.components
    violations: list[str] = []
    max_one_isolated = report.isolated_right <= 1
    if not max_one_isolated:
        violations.append(f"{report.isolated_right} untouched relays (at most 1 allowed)")
    no_order3 = 3 not in report.path_orders
    if not no_order3:
        violations.append("path component of order 3 present")
    strict_ok: bool | None = None
    if strict_tiled:
        strict_ok = True
        extras = [o for o in report.path_orders if o not in (1, 2, 5)]
        if extras or report.non_path_count:
            strict_ok = False
            violations.append(
                f"non-tile components present (orders {extras}, "
                f"{report.non_path_count} non-paths)"
            )
        leftovers = sum(1 for o in report.path_orders if o in (1, 2))
        if leftovers > 2:
            strict_ok = False
            violations.append(f"{leftovers} single edges + isolated vertices (at most 2)")
    # relay landmarks (degree 1) precede cell landmarks (degree 2) in
    # canonical order, which fixes the histogram's key order
    left_hist = {d: k for d, k in ((1, len(aux.relays)), (2, len(aux.cells))) if k}
    degree = aux.relay_degree
    right_hist = dict(Counter(degree))
    row_part, col_part = degree[:aux.m], degree[aux.m:]
    hypothesis = max(row_part) >= 3 and max(col_part) >= 3
    balanced: bool | None = None
    if hypothesis:
        balanced = (
            sum(1 for d in row_part if d >= 3) == 1
            and sum(1 for d in col_part if d >= 3) == 1
            and max(row_part) == 3
            and max(col_part) == 3
        )
    return AuditReport(
        max_one_isolated=max_one_isolated,
        no_order3_path=no_order3,
        strict_tiling=strict_ok,
        left_degree_histogram=left_hist,
        right_degree_histogram=right_hist,
        degree3_hypothesis=hypothesis,
        degree3_balanced=balanced,
        violations=tuple(violations),
    )


def aux_graph_to_dot(aux: AuxGraph) -> str:
    """DOT rendering; primed landmarks are named "p_<vertex>"."""
    names = [vertex_name(b) for b in aux.landmarks]
    # relay r is the grid's vertex r + 1
    relays = [vertex_name(aux._grid.vertex_at(r + 1)) for r in range(aux.m + aux.n)]
    lines = ["graph aux {", f'  graph [m={aux.m}, n={aux.n}, basis_size={len(names)}];']
    lines += [f'  "p_{a}";' for a in names]
    lines += [f'  "{r}";' for r in relays]
    for a, ends in zip(names, [(r,) for r in aux.relays] + list(aux.cells)):
        lines += [f'  "p_{a}" -- "{relays[r]}";' for r in ends]
    lines.append("}")
    return "\n".join(lines) + "\n"
