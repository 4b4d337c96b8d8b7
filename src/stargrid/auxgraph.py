"""Auxiliary bipartite landmark/relay graph and its component audit.

For a landmark set B on an (m, n) grid, the auxiliary graph puts a primed
copy of every landmark on the left and all m + n relays (rows and columns)
on the right.  A cell landmark's copy is joined to its row relay and its
column relay; a relay landmark's copy is joined to the relay itself.  The
hub has no row or column, so landmark sets containing it are rejected.

Minimum landmark sets leave a very rigid footprint here: components of a
constructed tiled basis are exactly 5-vertex paths plus at most one single
edge and at most one isolated relay.  :func:`classify_components` measures
the footprint and :func:`structural_audit` checks it against the rules that
any sensible basis must satisfy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InputError
from .grid import Cell, Col, GridGraph, Hub, Row, Vertex, vertex_name
from .resolve import Verdict, is_adjacency_resolving


@dataclass(frozen=True, slots=True)
class Primed:
    """Left-part copy of a landmark."""

    base: Vertex


class AuxGraph:
    """Bipartite graph on primed landmarks (left) versus relays (right).

    Instances are immutable after construction; build them with
    :func:`build_aux_graph`.
    """

    def __init__(self, m: int, n: int,
                 left: tuple[Primed, ...],
                 right: tuple[Vertex, ...],
                 edges: tuple[tuple[Primed, Vertex], ...]):
        self.m = m
        self.n = n
        self.left = left
        self.right = right
        self.edges = edges
        adj: dict = {v: [] for v in left}
        for v in right:
            adj[v] = []
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        self._adj = adj
        self._edge_set = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}

    def vertices(self) -> list:
        """Left part in landmark order, then relays (rows, then columns)."""
        return list(self.left) + list(self.right)

    def neighbors(self, v) -> list:
        try:
            return list(self._adj[v])
        except KeyError:
            raise InputError(f"vertex {v!r} not in auxiliary graph") from None

    def degree(self, v) -> int:
        return len(self.neighbors(v))

    def is_adjacent(self, u, v) -> bool:
        return (u, v) in self._edge_set


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
    edge list is byte-for-byte reproducible.  The hub is rejected: it has
    no governing relays, so the construction is undefined for it.
    """
    seen = set()
    lm: list[Vertex] = []
    for v in landmarks:
        g.validate(v)
        if isinstance(v, Hub):
            raise InputError("the hub cannot appear in an auxiliary-graph landmark set")
        if v in seen:
            raise InputError(f"duplicate landmark {vertex_name(v)}")
        seen.add(v)
        lm.append(v)
    lm.sort(key=g.index_of)
    left = tuple(Primed(b) for b in lm)
    right: tuple[Vertex, ...] = tuple(
        [Row(i) for i in range(1, g.m + 1)] + [Col(j) for j in range(1, g.n + 1)]
    )
    edges: list[tuple[Primed, Vertex]] = []
    for b in lm:
        p = Primed(b)
        if isinstance(b, Cell):
            edges.append((p, Row(b.i)))
            edges.append((p, Col(b.j)))
        elif isinstance(b, Row):
            edges.append((p, Row(b.i)))
        else:
            edges.append((p, Col(b.j)))
    return AuxGraph(g.m, g.n, left, right, tuple(edges))


def classify_components(aux: AuxGraph) -> ComponentReport:
    """Connected components, labeled path (with order) or non-path."""
    vertices = aux.vertices()
    seen: set = set()
    path_orders: list[int] = []
    non_path = 0
    isolated_right = sum(1 for v in aux.right if aux.degree(v) == 0)
    max_degree = max((aux.degree(v) for v in vertices), default=0)
    for start in vertices:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in aux._adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        degrees = [len(aux._adj[v]) for v in comp]
        edge_count = sum(degrees) // 2
        is_path = max(degrees, default=0) <= 2 and edge_count == len(comp) - 1
        if is_path:
            path_orders.append(len(comp))
        else:
            non_path += 1
    path_orders.sort(reverse=True)
    return ComponentReport(tuple(path_orders), non_path, isolated_right, max_degree)


def check_relays_resolved(aux: AuxGraph) -> Verdict:
    """Do the primed landmarks give every relay a distinct adjacency code?

    This is the property any resolving landmark set must imprint on its
    auxiliary graph; failures return a witness relay pair.
    """
    return is_adjacency_resolving(aux, aux.right, aux.left)


def structural_audit(aux: AuxGraph, strict_tiled: bool = False) -> AuditReport:
    """Audit the component structure.

    Always checked: (a) at most one untouched relay, (b) no path component
    of order 3.  With ``strict_tiled`` (constructed tiled bases): only
    5-paths, single edges, and isolated vertices may appear, and single
    edges plus isolated vertices number at most two.
    """
    report = classify_components(aux)
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
    left_hist: dict[int, int] = {}
    for v in aux.left:
        left_hist[aux.degree(v)] = left_hist.get(aux.degree(v), 0) + 1
    right_hist: dict[int, int] = {}
    for v in aux.right:
        right_hist[aux.degree(v)] = right_hist.get(aux.degree(v), 0) + 1
    row_part = [aux.degree(v) for v in aux.right if isinstance(v, Row)]
    col_part = [aux.degree(v) for v in aux.right if isinstance(v, Col)]
    hypothesis = bool(row_part and col_part
                      and max(row_part) >= 3 and max(col_part) >= 3)
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
    lines = ["graph aux {"]
    lines.append(f'  graph [m={aux.m}, n={aux.n}, basis_size={len(aux.left)}];')
    for v in aux.left:
        lines.append(f'  "p_{vertex_name(v.base)}";')
    for v in aux.right:
        lines.append(f'  "{vertex_name(v)}";')
    for a, b in aux.edges:
        lines.append(f'  "p_{vertex_name(a.base)}" -- "{vertex_name(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
