"""Metric and adjacency codes, and resolving-set verification.

A landmark set W resolves a graph when the vector of hop distances to the
landmarks (the metric code) is distinct for every vertex.  The adjacency
variant truncates distances at 2, so only "is a landmark" (0), "adjacent"
(1), and "everything else" (2) survive; it is used on the small auxiliary
graphs built in :mod:`stargrid.auxgraph`.

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
    HUB, Cell, GridGraph, Hub, Row, Vertex, coordinates, parse_vertex, star_distance,
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
    canonically so downstream output is deterministic.  Duplicates are
    refused; a ResolvingSet's constructor has refused them already.
    """
    if isinstance(W, ResolvingSet):
        lm = W.landmarks
    elif isinstance(W, (set, frozenset)):
        lm = tuple(sorted(W, key=g.index_of))
    else:
        lm = tuple(W)
        if len(set(lm)) != len(lm):
            raise InputError("duplicate landmarks")
    if not lm:
        raise InputError("landmark set must be nonempty")
    return lm


def metric_code(g: GridGraph, v: Vertex, W) -> tuple[int, ...]:
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
    found among the hub and the relays without scanning cells.  Both
    searches read only the relay footprint (see :func:`_relay_footprint`).
    """
    return _verdict(g, _ordered_landmarks(g, W))


def _verdict(g: GridGraph, lm: tuple[Vertex, ...]) -> Verdict:
    """:func:`is_resolving` on landmarks :func:`_ordered_landmarks` returned."""
    for w in lm:
        g.validate(w)
    relays, cells, degree = _relay_footprint(g.m, g.n, lm)
    if len(relays) + len(cells) == len(lm):  # the hub is no landmark
        cell = _hub_partner(g.m, relays, cells, degree)
        if cell is not None:
            return Verdict(False, (HUB, cell))
    return _relay_verdict(g, degree, cells)


def _relay_footprint(m: int, n: int, landmarks: Iterable[Vertex]):
    """(relay landmarks, cell landmarks, relay degrees) of validated
    landmarks, in their order; the hub is skipped.

    Relays are numbered rows 0..m-1, then columns m..m+n-1, so relay r has
    canonical index r + 1.  A cell landmark is its (row relay, column
    relay) pair, and a relay's degree counts the landmarks touching it:
    itself and the cell landmarks in its row or column.
    """
    relays: list[int] = []
    cells: list[tuple[int, int]] = []
    degree = [0] * (m + n)
    for w in landmarks:
        if isinstance(w, Cell):
            r, c = w.i - 1, m + w.j - 1
            cells.append((r, c))
            degree[r] += 1
            degree[c] += 1
        elif not isinstance(w, Hub):
            r = w.i - 1 if isinstance(w, Row) else m + w.j - 1
            relays.append(r)
            degree[r] += 1
    return relays, cells, degree


def _hub_partner(m: int, relays, cells, degree) -> Cell | None:
    """First cell sharing the hub's code, or None; the hub is no landmark.

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
    taken = set(cells)
    for r in [r for r in relays if r < m] or range(m):
        for c in by_degree.get(k - degree[r], ()):
            if (r, c) not in taken:
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


def adjacency_code(host, v, S) -> tuple[int, ...]:
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
    first_seen: dict[tuple[int, ...], int] = {}
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
