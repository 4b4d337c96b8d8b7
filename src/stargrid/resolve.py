"""Metric codes and resolving-set verification.

A landmark set W resolves a graph when the vector of hop distances to the
landmarks (the metric code) is distinct for every vertex.  The adjacency
variant, distances truncated at 2, is searched by
:func:`stargrid.oracle.brute_force_adjacency_dimension`.

Verification never builds codes.  Whether two vertices collide depends only
on whether each is a landmark and on which rows and columns the landmarks
touch, so :func:`is_resolving` decides it from the landmarks' relay
footprint (their relay landmarks, their cell landmarks as row/column relay
pairs, and each relay's degree: the auxiliary graph of
:mod:`stargrid.auxgraph`) in O(m + n + k) time and memory.  Failed checks
return a deterministic witness: the first colliding pair in canonical
vertex order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetError, InputError
from .grid import (
    HUB, Cell, Col, GridGraph, Row, Vertex, coordinates, parse_vertex, star_distance,
)

# The most cells :func:`code_matrix` allocates.  A code table's matrix is
# built as uint8 and kept as int16, about 3 bytes per cell, so this caps one
# near 300 MB; the (300, 300) grid's basis table has 36 million cells.  Only
# :func:`~stargrid.localize.decode` reads a table's matrix, so only it
# refuses past this cap.
MAX_TABLE_CELLS = 100_000_000

# The most vertices and landmarks a code table takes (see
# :func:`_check_code_size`).  Without its matrix a table holds about 8 bytes
# per vertex, most of them an int64 landmark-count sum over the m x n cells,
# and a batch decode's cost row takes 4, so this caps a table near 80 MB.
# A probe's distance to a code is an int32 sum of k entries from 0 to 32767,
# exact while k * 32767 < 2^31.
MAX_TABLE_VERTICES = 10_000_000
MAX_CODE_LENGTH = (2**31 - 1) // 32767


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
        """Build without the duplicate check, for landmarks known distinct:
        the oracle's strictly increasing index tuples, or a tuple that
        :func:`is_resolving` has just accepted."""
        self = object.__new__(cls)
        self.__dict__.update(landmarks=landmarks, verified=verified, provenance=provenance)
        return self

    def __len__(self) -> int:
        return len(self.landmarks)

    def __iter__(self):
        return iter(self.landmarks)


def _ordered_landmarks(g: GridGraph, W) -> tuple[Vertex, ...]:
    """Normalize a landmark collection to a nonempty ordered tuple.

    Ordered inputs keep their order; plain sets/frozensets are sorted
    canonically so downstream output is deterministic.  Duplicates in an
    ordered input are left to the caller: :func:`_relay_footprint` refuses
    them, and a ResolvingSet's constructor has refused them already.
    """
    if isinstance(W, ResolvingSet):
        lm = W.landmarks
    elif isinstance(W, (set, frozenset)):
        lm = tuple(sorted(W, key=g.index_of))
    else:
        lm = tuple(W)
    if not lm:
        raise InputError("landmark set must be nonempty")
    return lm


def metric_code(g: GridGraph, v: Vertex, W) -> tuple[int, ...]:
    """Hop distances from v to each landmark, in landmark order."""
    lm = _ordered_landmarks(g, W)
    if not isinstance(W, ResolvingSet) and len(set(lm)) != len(lm):
        raise InputError("duplicate landmarks")
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
    if total * k > MAX_TABLE_CELLS:
        raise BudgetError(
            f"distance table on ({m}, {n}) needs {total} x {k} = {total * k} cells, "
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


def _check_code_size(g: GridGraph, k: int) -> None:
    """Raise BudgetError when a code table on g with k landmarks would pass
    ``MAX_TABLE_VERTICES`` or ``MAX_CODE_LENGTH``."""
    for value, what, limit in ((g.vertex_count(), "vertices", MAX_TABLE_VERTICES),
                               (k, "landmarks", MAX_CODE_LENGTH)):
        if value > limit:
            raise BudgetError(
                f"code table on ({g.m}, {g.n}) has {value} {what}, limit is {limit}"
            )


def full_distance_matrix(g: GridGraph) -> np.ndarray:
    """(N, N) closed-form distance matrix in canonical order."""
    return code_matrix(g, g.vertices())


def is_resolving(g: GridGraph, W) -> Verdict:
    """Check code injectivity over all vertices of g in O(m + n + k).

    Returns a truthy verdict, or the lexicographically first colliding pair
    (by canonical vertex index) as a reproducible witness.  An empty set is
    refused, and so is the first landmark, in landmark order, that is not
    a vertex of g or repeats an earlier one.

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
    found among the hub and the relays without scanning cells.  Both
    searches read only the relay footprint (see :func:`_relay_footprint`).
    """
    return _verdict(g, _ordered_landmarks(g, W))


def _verdict(g: GridGraph, lm: tuple[Vertex, ...]) -> Verdict:
    """:func:`is_resolving` on landmarks :func:`_ordered_landmarks` returned."""
    relays, cells, degree, hub, taken = _relay_footprint(g, lm)
    if not hub:
        cell = _hub_partner(g.m, relays, taken, degree)
        if cell is not None:
            return Verdict(False, (HUB, cell))
    return _relay_verdict(g, degree, cells)


class _DuplicateLandmark(InputError):
    """A landmark repeats an earlier one; ``vertex`` is the repeat."""

    def __init__(self, vertex: Vertex):
        super().__init__("duplicate landmarks")
        self.vertex = vertex


def _relay_footprint(g: GridGraph, landmarks: Sequence[Vertex]):
    """(relay landmarks, cell landmarks, relay degrees, whether the hub is a
    landmark, the set of cell landmarks) of landmarks on g, in their order.

    Relays are numbered rows 0..m-1, then columns m..m+n-1, so relay r has
    canonical index r + 1.  A cell landmark is its (row relay, column
    relay) pair, and a relay's degree counts the landmarks touching it:
    itself and the cell landmarks in its row or column.

    This is also where landmarks are checked, with one type test each: a
    ``Row``, ``Col`` or ``Cell`` whose indices are ints in range is read in
    place, and anything else goes through :meth:`GridGraph.validate`, which
    keeps its messages.  Duplicates are found from the integers (a repeated
    relay, a repeated cell pair, a second hub), so no vertex is hashed, and
    refused with ``_DuplicateLandmark``.  Of several faults, the first in
    landmark order is raised: the error paths rescan for it.
    """
    m, n = g.m, g.n
    relays: list[int] = []
    cells: list[tuple[int, int]] = []
    degree = [0] * (m + n)
    hubs = 0
    shift = m - 1  # column j is relay j + shift
    for w in landmarks:
        t = type(w)
        if t is Cell:
            x, y = w.i, w.j
            if type(x) is int and type(y) is int and 0 < x <= m and 0 < y <= n:
                x -= 1
                y += shift
                cells.append((x, y))
                degree[x] += 1
                degree[y] += 1
                continue
        elif t is Row:
            x = w.i
            if type(x) is int and 0 < x <= m:
                x -= 1
                relays.append(x)
                degree[x] += 1
                continue
        elif t is Col:
            y = w.j
            if type(y) is int and 0 < y <= n:
                y += shift
                relays.append(y)
                degree[y] += 1
                continue
        # the hub, a Vertex subclass, an int subclass index, or a fault; the
        # landmarks before w are valid, and their count is w's place
        try:
            g.validate(w)
        except InputError:
            _refuse_duplicate(g, landmarks[:len(relays) + len(cells) + hubs])
            raise
        x, y = coordinates(w)
        if x and y:
            x, y = x - 1, y + shift
            cells.append((x, y))
            degree[x] += 1
            degree[y] += 1
        elif x or y:
            r = x - 1 if x else y + shift
            relays.append(r)
            degree[r] += 1
        else:
            hubs += 1
    taken = set(cells)
    if hubs > 1 or len(set(relays)) != len(relays) or len(taken) != len(cells):
        _refuse_duplicate(g, landmarks)
    return relays, cells, degree, hubs == 1, taken


def _refuse_duplicate(g: GridGraph, landmarks: Sequence[Vertex]) -> None:
    """Raise _DuplicateLandmark on the first landmark that repeats an earlier
    one, by canonical index; every landmark must be valid on g."""
    seen: set[int] = set()
    for w in landmarks:
        idx = g.index_of(w)
        if idx in seen:
            raise _DuplicateLandmark(w)
        seen.add(idx)


def _hub_partner(m: int, relays, cells: set, degree) -> Cell | None:
    """First cell sharing the hub's code, or None; the hub is no landmark.
    ``cells`` is the set of cell landmarks as relay pairs.

    That is a cell (i, j) that is no landmark while each landmark touches
    relay r_i or c_j, and so none touches both: their degrees sum to the
    landmark count.  So a row or column relay landmark must be r_i or c_j.
    Columns are bucketed by degree, so each row scans only past its own
    landmark cells: O(m + n + k) in all.
    """
    k = len(relays) + len(cells)
    by_degree: dict[int, list[int]] = {}
    for c in [c for c in relays if c >= m] or range(m, len(degree)):
        by_degree.setdefault(degree[c], []).append(c)
    for r in [r for r in relays if r < m] or range(m):
        for c in by_degree.get(k - degree[r], ()):
            if (r, c) not in cells:
                return Cell(r + 1, c - m + 1)
    return None


def _relay_verdict(g: GridGraph, degree, cells) -> Verdict:
    """The verdict on the relays alone: the first pair of them, by relay
    index, that no landmark tells apart.

    Only a landmark touching neither relay, or the cell landmark joining
    them, fails to tell two relays apart.  So they collide when both are
    untouched, or when they are the relays of a lone cell: a cell landmark
    whose row and column have degree 1.  A row holds at most one lone cell,
    so the first pair is the first two untouched relays or the lone cell of
    smallest row, whichever starts first.  ``cells`` may be in any order.
    """
    untouched = [r for r, d in enumerate(degree) if not d]
    lone = min(((r, c) for r, c in cells if degree[r] == 1 and degree[c] == 1), default=None)
    if lone is not None and (len(untouched) < 2 or lone[0] < untouched[0]):
        pair = lone
    elif len(untouched) > 1:
        pair = untouched[:2]
    else:
        return Verdict(True)
    return Verdict(False, (g.vertex_at(pair[0] + 1), g.vertex_at(pair[1] + 1)))


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
