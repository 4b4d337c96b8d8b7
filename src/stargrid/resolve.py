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
vertex order.  One batch reader, :func:`_read`, tallies a landmark
sequence into that footprint in one pass, reading exact vertices in place
and any other through :meth:`~stargrid.grid.GridGraph.point`.  It is the
package's one tally: the verifier, :func:`metric_code`, the code table, the
aux graph and :func:`~stargrid.builder.build_basis`, which verifies the
very tuple it returns, all read landmarks through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import InputError
from .grid import (
    HUB, Cell, Col, GridGraph, Row, Vertex, parse_vertex, star_distance, vertex_at_point,
)


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

    ``ResolvingSet(landmarks)`` is the only public way to build one, and the
    landmarks, any iterable of vertices, stored as a tuple, are all it
    takes: a set compares and hashes by its landmarks alone.
    ``provenance`` records where the set came from.  The package stamps it
    on the sets it returns: ``constructed-regime-A/B/C/D`` from
    :func:`~stargrid.builder.build_basis` and ``oracle`` from the brute-force
    searches.  Every other set, ``dataclasses.replace`` copies of stamped sets
    included, reads ``user``.  Nothing trusts the stamp: code tables re-check
    every set against their own grid with :func:`is_resolving`.
    """

    landmarks: tuple[Vertex, ...]
    provenance: str = field(default="user", init=False, compare=False)

    def __post_init__(self) -> None:
        landmarks = tuple(self.landmarks)
        if len(set(landmarks)) != len(landmarks):
            raise InputError("duplicate landmarks in resolving set")
        object.__setattr__(self, "landmarks", landmarks)

    @classmethod
    def _distinct(cls, landmarks: tuple[Vertex, ...], provenance: str) -> "ResolvingSet":
        """Build without the duplicate check, for landmarks known distinct:
        the oracle's strictly increasing index tuples, or a constructed
        tuple that :func:`is_resolving` has just read without a repeat.
        Only the package's own searches and construction call this, each
        with its provenance, after a full resolution check."""
        self = object.__new__(cls)
        self.__dict__.update(landmarks=landmarks, provenance=provenance)
        return self

    @property
    def verified(self) -> bool:
        """Whether the package built this set (``provenance != "user"``),
        and so checked it on the grid it was built for.  Read-only, and
        kept only because the benchmark's construct check reads it; that
        check can call :func:`is_resolving` instead, which, unlike this
        flag, says whether the set resolves a given grid."""
        return self.provenance != "user"

    def __len__(self) -> int:
        return len(self.landmarks)

    def __iter__(self):
        return iter(self.landmarks)


def _ordered_landmarks(g: GridGraph, W) -> tuple[Vertex, ...]:
    """Normalize a landmark collection to a nonempty ordered tuple.

    Ordered inputs keep their order; plain sets/frozensets are sorted
    canonically so downstream output is deterministic.  Duplicates in an
    ordered input are left to the caller: :func:`_read` refuses them, and a
    ResolvingSet's constructor has refused them already.
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
    """Hop distances from v to each landmark, in landmark order.  The
    landmarks are read and refused as in :func:`is_resolving`, then v."""
    points: list[tuple[int, int]] = []
    _read(g, _ordered_landmarks(g, W), points)
    x, y = g.point(v)
    return tuple(star_distance(x, a) + star_distance(y, b) for a, b in points)


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
    searches read only the relay footprint (see :func:`_read`).
    """
    return _verdict(g, _read(g, _ordered_landmarks(g, W)))


def _verdict(g: GridGraph, footprint) -> Verdict:
    """:func:`is_resolving` on the relay footprint that :func:`_read` returns."""
    relays, cells, degree, hub, taken = footprint
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


def _read(g: GridGraph, landmarks: Sequence[Vertex], points: list | None = None):
    """The relay footprint of distinct landmarks on g, tallied in one pass:
    (relay landmarks, cell landmarks, relay degrees, whether the hub is a
    landmark, the set of cell landmarks), in landmark order.  Relays are
    numbered rows 0..m-1, then columns m..m+n-1, so relay r has canonical
    index r + 1.  A cell landmark is its (row relay, column relay) pair, and
    a relay's degree counts the landmarks touching it: itself and the cell
    landmarks in its row or column.  Each landmark's point is appended to
    ``points`` too, when it is a list.

    Exact ``Cell``, ``Row`` and ``Col`` instances with int indices in range
    are read in place, and any other landmark (the hub, a subclass, an index
    of an int subclass, a fault) through :meth:`GridGraph.point`.  On a
    fault, one scan in landmark order raises the first: a landmark that
    :meth:`GridGraph.index_of` refuses, or a repeat (_DuplicateLandmark).
    A repeat shows in the tally as a repeated relay, a repeated cell pair or
    a second hub, so a footprint is returned only for distinct landmarks.
    """
    m, n = g.m, g.n
    relays: list[int] = []
    cells: list[tuple[int, int]] = []
    degree = [0] * (m + n)
    hubs = 0
    shift = m - 1  # column j is relay j + shift
    try:
        for v in landmarks:
            t = type(v)
            if t is Cell:
                x, y = v.i, v.j
                if type(x) is int and type(y) is int and 0 < x <= m and 0 < y <= n:
                    if points is not None:
                        points.append((x, y))
                    x -= 1
                    y += shift
                    cells.append((x, y))
                    degree[x] += 1
                    degree[y] += 1
                    continue
            elif t is Row:
                x = v.i
                if type(x) is int and 0 < x <= m:
                    if points is not None:
                        points.append((x, 0))
                    x -= 1
                    relays.append(x)
                    degree[x] += 1
                    continue
            elif t is Col:
                y = v.j
                if type(y) is int and 0 < y <= n:
                    if points is not None:
                        points.append((0, y))
                    y += shift
                    relays.append(y)
                    degree[y] += 1
                    continue
            x, y = g.point(v)
            if points is not None:
                points.append((x, y))
            if x and y:
                x -= 1
                y += shift
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
        if hubs < 2 and len(set(relays)) == len(relays) and len(taken) == len(cells):
            return relays, cells, degree, hubs > 0, taken
    except InputError:
        pass
    seen: set[int] = set()
    for w in landmarks:
        idx = g.index_of(w)
        if idx in seen:
            raise _DuplicateLandmark(w)
        seen.add(idx)
    raise RuntimeError("internal error: the landmark scan found no fault")


def _hub_partner(m: int, relays, cells: set, degree) -> Cell | None:
    """First cell sharing the hub's code, or None; the hub is no landmark.
    ``cells`` is the set of cell landmarks as relay pairs.

    That is a cell (i, j) that is no landmark while each landmark touches
    relay r_i or c_j, and so none touches both: their degrees sum to the
    landmark count.  So a row or column relay landmark must be r_i or c_j.
    When the largest row and column degrees sum below the count, no cell
    qualifies.  Otherwise columns are bucketed by degree, so each row scans
    only past its own landmark cells: O(m + n + k) in all.
    """
    k = len(relays) + len(cells)
    rows = [r for r in relays if r < m] or range(m)
    cols = [c for c in relays if c >= m] or range(m, len(degree))
    if max(map(degree.__getitem__, rows)) + max(map(degree.__getitem__, cols)) < k:
        return None
    by_degree: dict[int, list[int]] = {}
    for c in cols:
        by_degree.setdefault(degree[c], []).append(c)
    for r in rows:
        for c in by_degree.get(k - degree[r], ()):
            if (r, c) not in cells:
                return vertex_at_point(r + 1, c - m + 1)
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
    return [parse_vertex(s) for s in map(str.strip, lines) if s and s[0] != "#"]
