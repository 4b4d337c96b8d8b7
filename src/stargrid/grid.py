"""Hub-and-spoke grid graphs with a closed-form hop metric.

A double-star grid with parameters (m, n) has one hub, m row relays
``r1..rm``, n column relays ``c1..cn``, and m*n leaf cells ``a<i>,<j>``.
The hub is adjacent to every relay, and cell (i, j) is adjacent to exactly
its row relay i and its column relay j: the grid is the Cartesian product
K_{1,m} x K_{1,n}.  :func:`coordinates` places the hub at (0, 0), r_i at
(i, 0), c_j at (0, j) and a_{i,j} at (i, j), with 0 each star's centre, and
hop distances add over the two factors (Hammack, Imrich & Klavzar,
*Handbook of Product Graphs*, 2011): d = s(x, x') + s(y, y'), where the star
distance s (:func:`star_distance`) is 0 for one point, 1 when either is the
centre and 2 otherwise.  So the graph is the pair (m, n) alone and never
materializes adjacency on the query path.  By vertex kind (u != v), with
diameter 4 as soon as the grid has more than one relay on a side:

    ==========  =====  =====  =====  ==================================
    d(u, v)     Hub    Row i  Col j  Cell (i, j)
    ==========  =====  =====  =====  ==================================
    Hub         0      1      1      2
    Row i'      .      2      2      1 if i' == i else 3
    Col j'      .      .      2      1 if j' == j else 3
    Cell        .      .      .      2 if same row xor same col, else 4
    ==========  =====  =====  =====  ==================================

Vertices carry 1-based indices to match the text encoding ("hub", "r3",
"c7", "a3,7") used by every file format and CLI surface.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True, slots=True)
class Hub:
    """The unique center vertex; degree m + n."""


@dataclass(frozen=True, slots=True)
class Row:
    """Row relay, 1-based index; degree n + 1."""

    i: int


@dataclass(frozen=True, slots=True)
class Col:
    """Column relay, 1-based index; degree m + 1."""

    j: int


@dataclass(frozen=True, slots=True)
class Cell:
    """Leaf at row i, column j; degree 2."""

    i: int
    j: int


Vertex = Hub | Row | Col | Cell

HUB = Hub()

_VERTEX_RE = re.compile(r"hub|r([1-9]\d*)|c([1-9]\d*)|a([1-9]\d*),([1-9]\d*)")


def transpose(v: Vertex) -> Vertex:
    """Map a vertex through the (m, n) -> (n, m) grid isomorphism.

    Hub maps to itself, rows and columns swap roles, and cells flip their
    indices.  Involutive: ``transpose(transpose(v)) == v``.
    """
    if isinstance(v, Hub):
        return HUB
    if isinstance(v, Row):
        return Col(v.i)
    if isinstance(v, Col):
        return Row(v.j)
    if isinstance(v, Cell):
        return Cell(v.j, v.i)
    raise InputError(f"not a vertex: {v!r}")


def vertex_name(v: Vertex) -> str:
    """Text encoding: "hub", "r<i>", "c<j>", or "a<i>,<j>"."""
    if isinstance(v, Hub):
        return "hub"
    if isinstance(v, Row):
        return f"r{v.i}"
    if isinstance(v, Col):
        return f"c{v.j}"
    if isinstance(v, Cell):
        return f"a{v.i},{v.j}"
    raise InputError(f"not a vertex: {v!r}")


def parse_vertex(text: str) -> Vertex:
    """Parse the strict text encoding; reject anything else (no padding,
    no leading zeros, no whitespace)."""
    m = _VERTEX_RE.fullmatch(text)
    if m is None:
        raise InputError(f"invalid vertex encoding: {text!r}")
    if m.group(1):
        return Row(int(m.group(1)))
    if m.group(2):
        return Col(int(m.group(2)))
    if m.group(3):
        return Cell(int(m.group(3)), int(m.group(4)))
    return HUB


def coordinates(v: Vertex) -> tuple[int, int]:
    """v as a point (x, y) of K_{1,m} x K_{1,n}, 0 being a star's centre.
    Call it only after :meth:`GridGraph.validate`: ``Row(0)`` reads as the hub."""
    if isinstance(v, Cell):
        return v.i, v.j
    if isinstance(v, Row):
        return v.i, 0
    if isinstance(v, Col):
        return 0, v.j
    if isinstance(v, Hub):
        return 0, 0
    raise InputError(f"not a vertex: {v!r}")


def star_distance(x, y):
    """Hop distance between points x and y of a star with centre 0: 1 for two
    distinct points, doubled when neither is the centre.  Elementwise on
    numpy integer arrays too, with an int8 result."""
    # named, so that numpy cannot reuse this bool temporary as the output
    differ = x != y
    return differ << ((x != 0) & (y != 0))


def check_sides(m: int, n: int) -> None:
    """Raise InputError unless the grid sides m and n are ints (not bools) >= 1."""
    sides_are_ints = all(isinstance(x, int) and not isinstance(x, bool) for x in (m, n))
    if not sides_are_ints or m < 1 or n < 1:
        raise InputError(f"grid dimensions must be integers >= 1, got ({m}, {n})")


@dataclass(frozen=True, slots=True)
class GridGraph:
    """The double-star grid with m row relays and n column relays.

    All operations are pure functions of (m, n); instances are safe to share
    across threads.  Canonical vertex order is hub, rows 1..m, columns 1..n,
    then cells in row-major order; every deterministic output in the package
    is stated relative to this order.
    """

    m: int
    n: int

    def __post_init__(self) -> None:
        check_sides(self.m, self.n)

    def vertex_count(self) -> int:
        return 1 + self.m + self.n + self.m * self.n

    def vertices(self) -> list[Vertex]:
        """All vertices in canonical order."""
        out: list[Vertex] = [HUB]
        out.extend(Row(i) for i in range(1, self.m + 1))
        out.extend(Col(j) for j in range(1, self.n + 1))
        out.extend(
            Cell(i, j)
            for i in range(1, self.m + 1)
            for j in range(1, self.n + 1)
        )
        return out

    def validate(self, v: Vertex) -> None:
        if isinstance(v, Hub):
            return
        if isinstance(v, Row):
            if 1 <= v.i <= self.m:
                return
        elif isinstance(v, Col):
            if 1 <= v.j <= self.n:
                return
        elif isinstance(v, Cell):
            if 1 <= v.i <= self.m and 1 <= v.j <= self.n:
                return
        else:
            raise InputError(f"not a vertex: {v!r}")
        raise InputError(f"vertex {vertex_name(v)} out of range for grid ({self.m}, {self.n})")

    def index_of(self, v: Vertex) -> int:
        """Position of v in canonical order."""
        self.validate(v)
        if isinstance(v, Hub):
            return 0
        if isinstance(v, Row):
            return v.i
        if isinstance(v, Col):
            return self.m + v.j
        return self.m + self.n + (v.i - 1) * self.n + v.j

    def vertex_at(self, idx: int) -> Vertex:
        """Inverse of index_of."""
        if not 0 <= idx < self.vertex_count():
            raise InputError(f"vertex index {idx} out of range")
        if idx == 0:
            return HUB
        if idx <= self.m:
            return Row(idx)
        if idx <= self.m + self.n:
            return Col(idx - self.m)
        flat = idx - self.m - self.n - 1
        return Cell(flat // self.n + 1, flat % self.n + 1)

    def neighbors(self, v: Vertex) -> list[Vertex]:
        """Adjacent vertices, in canonical order."""
        self.validate(v)
        if isinstance(v, Hub):
            out: list[Vertex] = [Row(i) for i in range(1, self.m + 1)]
            out.extend(Col(j) for j in range(1, self.n + 1))
            return out
        if isinstance(v, Row):
            return [HUB] + [Cell(v.i, j) for j in range(1, self.n + 1)]
        if isinstance(v, Col):
            return [HUB] + [Cell(i, v.j) for i in range(1, self.m + 1)]
        return [Row(v.i), Col(v.j)]

    def degree(self, v: Vertex) -> int:
        """Sum of the two star degrees: m (or n) at a centre, 1 at a leaf."""
        self.validate(v)
        x, y = coordinates(v)
        return (self.m if x == 0 else 1) + (self.n if y == 0 else 1)

    def distance(self, u: Vertex, v: Vertex) -> int:
        """Hop distance, the sum of the two star distances; symmetric."""
        self.validate(u)
        self.validate(v)
        (x, y), (x2, y2) = coordinates(u), coordinates(v)
        return star_distance(x, x2) + star_distance(y, y2)

    def is_adjacent(self, u: Vertex, v: Vertex) -> bool:
        return self.distance(u, v) == 1

    def transposed(self) -> GridGraph:
        """The (n, m) grid; vertices map through transpose()."""
        return GridGraph(self.n, self.m)

