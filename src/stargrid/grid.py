"""Hub-and-spoke grid graphs with a closed-form hop metric.

A double-star grid with parameters (m, n) has one hub, m row relays
``r1..rm``, n column relays ``c1..cn``, and m*n leaf cells ``a<i>,<j>``.
The hub is adjacent to every relay, and cell (i, j) is adjacent to exactly
its row relay i and its column relay j: the grid is the Cartesian product
K_{1,m} x K_{1,n}.  :meth:`GridGraph.point` places the hub at (0, 0), r_i at
(i, 0), c_j at (0, j) and a_{i,j} at (i, j), with 0 each star's centre, and
hop distances add over the two factors (Hammack, Imrich & Klavzar,
*Handbook of Product Graphs*, 2011): d = s(x, x') + s(y, y'), where the star
distance s (:func:`star_distance`) is 0 for one point, 1 when either is the
centre and 2 otherwise.  So the graph is the pair (m, n) alone and never
materializes adjacency on the query path.  The edges are listed only on
request, for the brute-force oracle (which must not read the closed form)
and the CLI's ``export``: :meth:`GridGraph.adjacency` gives every vertex's
neighbour indices in index order, by arithmetic on (m, n) and without
vertex objects, as :meth:`GridGraph.neighbors` gives one vertex's
neighbours.  By vertex kind (u != v), with diameter 4 as soon as the grid
has more than one relay on a side:

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
from dataclasses import FrozenInstanceError, dataclass, fields

from .errors import InputError


def _frozen_dataclass(cls):
    """``dataclass(frozen=True, slots=True)``, with the assignment guards
    that ``frozen`` means.  ``slots=True`` rebuilds the class, and the
    generated ``__setattr__`` and ``__delattr__`` still name the old one, so
    assigning or deleting a name that is not a field raised TypeError rather
    than FrozenInstanceError; these name the rebuilt class."""
    cls = dataclass(frozen=True, slots=True)(cls)
    names = tuple(f.name for f in fields(cls))

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls


@_frozen_dataclass
class Hub:
    """The unique center vertex; degree m + n."""


@_frozen_dataclass
class Row:
    """Row relay, 1-based index; degree n + 1."""

    i: int


@_frozen_dataclass
class Col:
    """Column relay, 1-based index; degree m + 1."""

    j: int


@_frozen_dataclass
class Cell:
    """Leaf at row i, column j; degree 2."""

    i: int
    j: int


Vertex = Hub | Row | Col | Cell

HUB = Hub()

# ASCII digits only: \d would also match other scripts' digits, which int()
# reads, so "r1\u0663" would parse as r13
_VERTEX_RE = re.compile(r"hub|r([1-9][0-9]*)|c([1-9][0-9]*)|a([1-9][0-9]*),([1-9][0-9]*)")


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
    row, col, i, j = m.groups()
    # "r<i>" is the point (i, 0), "c<j>" (0, j), "a<i>,<j>" (i, j), "hub" (0, 0)
    return vertex_at_point(int(row or i or 0), int(col or j or 0))


# A frozen dataclass's __init__ sets each field through object.__setattr__.
# The one vertex factory sets the slots of a bare instance through their
# member descriptors instead, at about half the cost; the vertex is the same
# class, equal and hash-equal to the constructor's, and as frozen.
_new = object.__new__
_set_row_i = Row.i.__set__
_set_col_j = Col.j.__set__
_set_cell_i = Cell.i.__set__
_set_cell_j = Cell.j.__set__


def vertex_at_point(x: int, y: int) -> Vertex:
    """The vertex at point (x, y), 0 being a star's centre: the inverse of
    :meth:`GridGraph.point`, and the package's one vertex factory.  Like
    the constructors, it does not check the indices."""
    if x:
        if y:
            v = _new(Cell)
            _set_cell_i(v, x)
            _set_cell_j(v, y)
            return v
        v = _new(Row)
        _set_row_i(v, x)
        return v
    if y:
        v = _new(Col)
        _set_col_j(v, y)
        return v
    return HUB


def star_distance(x, y):
    """Hop distance between points x and y of a star with centre 0: 1 for two
    distinct points, doubled when neither is the centre.  Elementwise on
    numpy integer arrays too, with an int8 result."""
    # named, so that numpy cannot reuse this bool temporary as the output
    differ = x != y
    return differ << ((x != 0) & (y != 0))


def _is_int(value) -> bool:
    """The package's rule for an integer argument: an int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_sides(m: int, n: int) -> None:
    """Raise InputError unless the grid sides m and n are ints (not bools) >= 1."""
    if not (_is_int(m) and _is_int(n)) or m < 1 or n < 1:
        raise InputError(f"grid dimensions must be integers >= 1, got ({m}, {n})")


def check_int(value, least: int | None, what: str) -> None:
    """Raise InputError unless ``value`` is an int (not a bool) and, unless
    ``least`` is None, at least ``least``."""
    if not _is_int(value) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise InputError(f"{what} must be an integer{bound}, got {value!r}")


@_frozen_dataclass
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
        m, n = self.m, self.n
        out: list[Vertex] = [HUB]
        out.extend([vertex_at_point(i, 0) for i in range(1, m + 1)])
        out.extend([vertex_at_point(0, j) for j in range(1, n + 1)])
        out.extend([vertex_at_point(i, j) for i in range(1, m + 1) for j in range(1, n + 1)])
        return out

    def point(self, v: Vertex) -> tuple[int, int]:
        """v as a point (x, y) of K_{1,m} x K_{1,n}, 0 being a star's centre:
        the hub is (0, 0), r_i is (i, 0), c_j is (0, j) and a_{i,j} is (i, j).

        Raises InputError unless v is a vertex of this grid: the hub, or a
        relay or cell whose indices are ints (not bools, as in
        :func:`check_sides`) within the grid's sides.  Exact ``Cell``,
        ``Row`` and ``Col`` instances with int indices in range are read in
        place; anything else, subclasses and faults included, is read through
        ``isinstance``.
        """
        t = type(v)
        if t is Cell:
            x, y = v.i, v.j
            if type(x) is int and type(y) is int and 0 < x <= self.m and 0 < y <= self.n:
                return x, y
        elif t is Row:
            x = v.i
            if type(x) is int and 0 < x <= self.m:
                return x, 0
        elif t is Col:
            y = v.j
            if type(y) is int and 0 < y <= self.n:
                return 0, y
        if isinstance(v, Hub):
            return 0, 0
        if isinstance(v, Cell):
            x, y = v.i, v.j
            indices = ((x, self.m), (y, self.n))
        elif isinstance(v, Row):
            x, y = v.i, 0
            indices = ((x, self.m),)
        elif isinstance(v, Col):
            x, y = 0, v.j
            indices = ((y, self.n),)
        else:
            raise InputError(f"not a vertex: {v!r}")
        # refused, unless every index is an int subclass within range
        for index, side in indices:
            if not _is_int(index):
                raise InputError(f"vertex {vertex_name(v)} has a non-integer index {index!r}")
            if not 1 <= index <= side:
                raise InputError(
                    f"vertex {vertex_name(v)} out of range for grid ({self.m}, {self.n})"
                )
        return x, y

    def index_of(self, v: Vertex) -> int:
        """Position of v in canonical order."""
        x, y = self.point(v)
        if not y:  # the hub or row relay x
            return x
        if not x:
            return self.m + y
        return self.m + self.n + (x - 1) * self.n + y

    def vertex_at(self, idx: int) -> Vertex:
        """Inverse of index_of.  Raises InputError unless idx is an int (not
        a bool, as in :func:`check_int`) from 0 to N - 1."""
        if type(idx) is not int:
            check_int(idx, None, "vertex index")
        if not 0 <= idx < self.vertex_count():
            raise InputError(f"vertex index {idx} out of range")
        if idx <= self.m:  # the hub or row relay idx
            return vertex_at_point(idx, 0)
        if idx <= self.m + self.n:
            return vertex_at_point(0, idx - self.m)
        x, y = divmod(idx - self.m - self.n - 1, self.n)
        return vertex_at_point(x + 1, y + 1)

    def neighbors(self, v: Vertex) -> list[Vertex]:
        """Adjacent vertices, in canonical order."""
        x, y = self.point(v)
        if x and y:
            return [vertex_at_point(x, 0), vertex_at_point(0, y)]
        if x:
            return [HUB] + [vertex_at_point(x, j) for j in range(1, self.n + 1)]
        if y:
            return [HUB] + [vertex_at_point(i, y) for i in range(1, self.m + 1)]
        out: list[Vertex] = [vertex_at_point(i, 0) for i in range(1, self.m + 1)]
        out.extend([vertex_at_point(0, j) for j in range(1, self.n + 1)])
        return out

    def adjacency(self) -> list[list[int]]:
        """Each vertex's neighbour indices in index order, vertices in
        canonical order: ``[[index_of(w) for w in neighbors(v)] for v in
        vertices()]``, built by index arithmetic without vertex objects."""
        m, n = self.m, self.n
        base = 1 + m + n  # index of cell (1, 1)
        stop = base + m * n
        out = [list(range(1, base))]
        out.extend([0, *range(base + (i - 1) * n, base + i * n)] for i in range(1, m + 1))
        out.extend([0, *range(base + j - 1, stop, n)] for j in range(1, n + 1))
        out.extend([i, m + j] for i in range(1, m + 1) for j in range(1, n + 1))
        return out

    def distance(self, u: Vertex, v: Vertex) -> int:
        """Hop distance, the sum of the two star distances; symmetric."""
        (x, y), (x2, y2) = self.point(u), self.point(v)
        return star_distance(x, x2) + star_distance(y, y2)
