"""Metric and adjacency codes, and resolving-set verification.

A landmark set W resolves a graph when the vector of hop distances to the
landmarks (the metric code) is distinct for every vertex.  The adjacency
variant truncates distances at 2, so only "is a landmark" (0), "adjacent"
(1), and "everything else" (2) survive; it is used on the small auxiliary
graphs built in :mod:`stargrid.auxgraph`.

Verification never builds codes.  Whether two vertices collide depends only
on whether each is a landmark and on which rows and columns the landmarks
touch (the relay neighbourhoods of the auxiliary graph), so
:func:`is_resolving` decides it from per-row and per-column counts in
O(m + n + k) time and memory.  Failed checks return a deterministic witness:
the first colliding pair in canonical vertex order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetError, InputError
from .grid import (
    HUB, Cell, Col, GridGraph, Hub, Row, Vertex, coordinates, parse_vertex, star_distance,
)

MetricCode = tuple[int, ...]
AdjacencyCode = tuple[int, ...]

# The most cells :func:`code_matrix` allocates.  A code table holds its
# matrix as uint8 and again as int16, about 3 bytes per cell, so this caps
# one near 300 MB; the (300, 300) grid's basis table has 36 million cells.
MAX_TABLE_CELLS = 100_000_000


@dataclass(frozen=True)
class Verdict:
    """Outcome of a resolution check; falsy when a collision was found."""

    resolving: bool
    witness: tuple[Vertex, Vertex] | None = None

    def __bool__(self) -> bool:
        return self.resolving


@dataclass(frozen=True)
class ResolvingSet:
    """An ordered, duplicate-free landmark list.

    ``verified`` is only set by code paths that ran a full resolution check
    on this exact landmark tuple; code tables still re-check it against
    their own grid.  ``provenance`` records where the set came from:
    ``constructed-regime-A/B/C/D``, ``oracle``, or ``user``.
    """

    landmarks: tuple[Vertex, ...]
    verified: bool = False
    provenance: str = "user"

    def __post_init__(self) -> None:
        if len(set(self.landmarks)) != len(self.landmarks):
            raise InputError("duplicate landmarks in resolving set")

    @classmethod
    def _distinct(cls, landmarks: tuple[Vertex, ...], verified: bool,
                  provenance: str) -> "ResolvingSet":
        """Build without the duplicate check, for landmarks distinct by
        construction, such as the oracle's strictly increasing index tuples;
        the check costs more than the rest of the construction."""
        self = object.__new__(cls)
        self.__dict__.update(landmarks=landmarks, verified=verified, provenance=provenance)
        return self

    def __len__(self) -> int:
        return len(self.landmarks)

    def __iter__(self):
        return iter(self.landmarks)


def _ordered_landmarks(g: GridGraph | None, W) -> tuple[Vertex, ...]:
    """Normalize a landmark collection to a nonempty ordered tuple.

    Ordered inputs keep their order; plain sets/frozensets are sorted
    canonically so downstream output is deterministic.
    """
    if isinstance(W, ResolvingSet):
        lm = W.landmarks
    elif isinstance(W, (set, frozenset)):
        if g is None:
            raise InputError("unordered landmark set needs a graph for canonical order")
        lm = tuple(sorted(W, key=g.index_of))
    else:
        lm = tuple(W)
    if not lm:
        raise InputError("landmark set must be nonempty")
    if len(set(lm)) != len(lm):
        raise InputError("duplicate landmarks")
    return lm


def metric_code(g: GridGraph, v: Vertex, W) -> MetricCode:
    """Hop distances from v to each landmark, in landmark order."""
    lm = _ordered_landmarks(g, W)
    return tuple(g.distance(v, w) for w in lm)


def code_matrix(g: GridGraph, landmarks: Sequence[Vertex]) -> np.ndarray:
    """(N, k) uint8 matrix of hop distances, rows in canonical vertex order.

    A distance is a sum of two star distances (see :mod:`stargrid.grid`), so
    the (k, m + 1) and (k, n + 1) star distances of the landmarks to the
    points of each star give every block as a broadcast sum, O(N) per
    landmark.  With ``landmarks = g.vertices()`` this is the full distance
    matrix.  Raises :class:`~stargrid.errors.BudgetError` before allocating
    when the matrix would exceed ``MAX_TABLE_CELLS``.
    """
    m, n = g.m, g.n
    total = g.vertex_count()
    lm = tuple(landmarks)
    k = len(lm)
    cells = total * k
    if cells > MAX_TABLE_CELLS:
        raise BudgetError(
            f"distance table on ({m}, {n}) needs {total} x {k} = {cells} cells, "
            f"limit is {MAX_TABLE_CELLS}"
        )
    points = []
    for w in lm:
        g.validate(w)
        points.append(coordinates(w))
    xy = np.array(points, dtype=np.intp).reshape(k, 2)
    rows = star_distance(xy[:, :1], np.arange(m + 1)).view(np.uint8)
    cols = star_distance(xy[:, 1:], np.arange(n + 1)).view(np.uint8)
    arr = np.empty((k, total), dtype=np.uint8)
    # canonical order is (x, 0) for x = 0..m, (0, y) for y = 1..n, then the
    # cells row-major, whose (k, m, n) reshape is a view of arr
    np.add(rows, cols[:, :1], out=arr[:, :1 + m])
    np.add(rows[:, :1], cols[:, 1:], out=arr[:, 1 + m:1 + m + n])
    np.add(rows[:, 1:, None], cols[:, None, 1:], out=arr[:, 1 + m + n:].reshape(k, m, n))
    return arr.T


def full_distance_matrix(g: GridGraph) -> np.ndarray:
    """(N, N) closed-form distance matrix in canonical order."""
    return code_matrix(g, g.vertices())


def is_resolving(g: GridGraph, W) -> Verdict:
    """Check code injectivity over all vertices of g in O(m + n + k).

    Returns a truthy verdict, or the lexicographically first colliding pair
    (by canonical vertex index) as a reproducible witness.

    Call a row *untouched* when neither its relay nor any cell in it is a
    landmark (likewise for columns).  From the distance table in
    :mod:`stargrid.grid`, two distinct non-landmark vertices collide exactly
    when they fall under one of these cases:

    * the hub and cell (i, j): every row landmark is r_i, every column
      landmark is c_j, and every cell landmark lies in row i or column j;
    * two rows, two columns, or a row and a column: both untouched;
    * r_i and c_j: cell (i, j) is a landmark, the only one in its row and
      its column;
    * two cells in one row (column): both their columns (rows) untouched;
    * cells (i, j) and (i', j'), i != i', j != j': none of the four relays
      is a landmark and the cell landmarks in those rows and columns lie in
      {(i, j'), (i', j)}.

    A relay never collides with the hub or a cell: the grid is bipartite, so
    each landmark is at odd distance from one and even from the other.  Each
    cell case implies a relay case (two untouched rows or columns, an
    untouched row and column, or a lone landmark cell at (i, j')), and
    relays precede cells in canonical order, so the first colliding pair is
    found among the hub and the relays without scanning cells.
    """
    lm = _ordered_landmarks(g, W)
    m, n = g.m, g.n
    hub_in = False
    row_in: set[int] = set()
    col_in: set[int] = set()
    cells: set[tuple[int, int]] = set()
    row_cells = [0] * (m + 1)
    col_cells = [0] * (n + 1)
    for w in lm:
        g.validate(w)
        if isinstance(w, Hub):
            hub_in = True
        elif isinstance(w, Row):
            row_in.add(w.i)
        elif isinstance(w, Col):
            col_in.add(w.j)
        else:
            cells.add((w.i, w.j))
            row_cells[w.i] += 1
            col_cells[w.j] += 1
    pair = None
    if not hub_in:
        pair = _hub_partner(m, n, row_in, col_in, cells, row_cells, col_cells)
    if pair is None:
        pair = _relay_pair(m, n, row_in, col_in, cells, row_cells, col_cells)
    return Verdict(True) if pair is None else Verdict(False, pair)


def _hub_partner(m, n, row_in, col_in, cells, row_cells, col_cells):
    """(hub, first cell colliding with it), or None; the hub is no landmark.

    Cell (i, j) collides when it is no landmark, r_i and c_j cover the relay
    landmarks and row_cells[i] + col_cells[j] counts every cell landmark.
    Columns are bucketed by count, so each row scans only past its own
    landmark cells: O(m + n + k) in all.
    """
    if len(row_in) > 1 or len(col_in) > 1:
        return None
    by_count: dict[int, list[int]] = {}
    for j in sorted(col_in) or range(1, n + 1):
        by_count.setdefault(col_cells[j], []).append(j)
    for i in sorted(row_in) or range(1, m + 1):
        for j in by_count.get(len(cells) - row_cells[i], ()):
            if (i, j) not in cells:
                return HUB, Cell(i, j)
    return None


def _relay_pair(m, n, row_in, col_in, cells, row_cells, col_cells):
    """First colliding pair of relays in canonical order, or None."""
    lone_col = {i: j for i, j in cells if row_cells[i] == 1}
    free_rows = [i for i in range(1, m + 1) if i not in row_in and not row_cells[i]]
    free_cols = [j for j in range(1, n + 1) if j not in col_in and not col_cells[j]]
    for i in range(1, m + 1):
        if i in row_in:
            continue
        if not row_cells[i]:
            # i is free_rows[0]: an earlier untouched row would have matched
            if len(free_rows) > 1:
                return Row(i), Row(free_rows[1])
            if free_cols:
                return Row(i), Col(free_cols[0])
        elif row_cells[i] == 1:
            j = lone_col[i]
            if col_cells[j] == 1 and j not in col_in:
                return Row(i), Col(j)
    if len(free_cols) > 1:
        return Col(free_cols[0]), Col(free_cols[1])
    return None


def adjacency_code(host, v, S) -> AdjacencyCode:
    """Distance-truncated-at-2 code of v against the ordered landmarks S.

    Works on any host exposing ``is_adjacent`` (grid graphs, auxiliary
    graphs, plain adjacency-list graphs): an entry is 0 exactly when v is
    that landmark, 1 when adjacent, else 2, which equals min(2, d) in the
    host metric.
    """
    lm = tuple(S)
    if not lm:
        raise InputError("landmark set must be nonempty")
    return tuple(0 if v == w else (1 if host.is_adjacent(v, w) else 2) for w in lm)


def is_adjacency_resolving(host, U: Iterable, S) -> Verdict:
    """Check adjacency-code injectivity over the vertex subset U.

    The witness is the lexicographically first colliding pair in the host's
    vertex order.
    """
    lm = tuple(S)
    if not lm:
        raise InputError("landmark set must be nonempty")
    position = {v: i for i, v in enumerate(host.vertices())}
    members = sorted(U, key=position.__getitem__)
    first_seen: dict[AdjacencyCode, int] = {}
    best: tuple[int, int] | None = None
    for idx, v in enumerate(members):
        code = adjacency_code(host, v, lm)
        prev = first_seen.setdefault(code, idx)
        if prev != idx:
            pair = (prev, idx)
            if best is None or pair < best:
                best = pair
    if best is None:
        return Verdict(True)
    return Verdict(False, (members[best[0]], members[best[1]]))


def adjacency_resolved_by_neighborhoods(host, U: Iterable, S) -> bool:
    """Equivalent formulation: N(v) & S is distinct for every v in U \\ S.

    Vertices of U that are themselves landmarks are automatically separated
    by their own zero entry, so only the neighborhoods of the rest matter.
    Kept alongside :func:`is_adjacency_resolving` so tests can confirm the
    two definitions agree.
    """
    lm = tuple(S)
    if not lm:
        raise InputError("landmark set must be nonempty")
    in_s = set(lm)
    seen: set[frozenset] = set()
    for v in U:
        if v in in_s:
            continue
        sig = frozenset(w for w in lm if host.is_adjacent(v, w))
        if sig in seen:
            return False
        seen.add(sig)
    return True


def parse_landmark_lines(lines: Iterable[str]) -> list[Vertex]:
    """Parse the landmark-set file format: one vertex per line in the text
    encoding, '#' lines ignored; file order defines code order."""
    out: list[Vertex] = []
    for raw in lines:
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        out.append(parse_vertex(s))
    return out
