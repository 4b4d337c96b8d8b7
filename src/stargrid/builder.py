"""Closed-form metric dimension and O(m+n) minimum landmark construction.

Inputs are normalized so the row count is the smaller side.  The
constructions emit points of the normalized grid, and when the caller's
(m, n) was swapped each point (x, y) becomes the caller's vertex at (y, x):
the transpose isomorphism, applied as each vertex is made.  After
normalization exactly one regime applies:

    A: m == 1                  single-row grids, three sub-cases by n
    B: 2 <= m < n/2            thin grids, dimension n - 1
    C: n/2 <= m <= n, m <= 4   small balanced grids, dimension n + (2m-n)//3
    D: 5 <= m <= n <= 2m       general balanced grids, same formula as C

Regime D lays out "tiles" of two cells sharing a column (a row-pair tile
covers two rows and one column) or two cells sharing a row (a column-pair
tile covers one row and two columns).  Counting rows and columns covered
gives the linear system

    2 * row_pair + col_pair  (+ leftover rows)    = m
    row_pair + 2 * col_pair  (+ leftover columns) = n

whose solution depends only on (m + n) % 3: remainder 0 tiles everything,
remainder 1 leaves the last column untouched, remainder 2 additionally puts
the last row relay itself into the landmark set.  Every constructed set is
verified from its points before it is returned (see :func:`build_basis`);
a verification failure is an internal error, never an expected outcome.
Construction and verification are both O(m + n), so the whole call is.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetError, InputError
from .grid import Col, GridGraph, Row, Vertex, check_sides, vertex_at_point
from .resolve import ResolvingSet, _footprint, _verdict

# The most landmarks :func:`build_basis` constructs.  Building and verifying
# a basis peaks near 0.32 KB per landmark (traced at (300000, 300000): its
# points, then the verifier's relay footprint or its vertices), so this
# keeps one near 0.8 GB: square grids up to sides of about 1.9 million.
MAX_BASIS_LANDMARKS = 2_500_000


@dataclass(frozen=True)
class Regime:
    """Dispatch result: which construction applies, and whether the inputs
    were swapped to enforce rows <= columns."""

    tag: str  # "A", "B", "C", or "D"
    normalized: bool


@dataclass(frozen=True)
class TilingPlan:
    """Tile counts and leftovers for a regime-D construction.

    ``row_pair_tiles`` stacked-pair tiles occupy rows 2i-1, 2i and column i;
    ``col_pair_tiles`` side-by-side tiles occupy row 2s+j and columns
    s+2j-1, s+2j (s = row_pair_tiles).  ``singles`` are relays placed
    directly in the landmark set and ``isolated`` is the one column relay
    left untouched, both expressed in normalized (rows <= columns)
    coordinates.
    """

    row_pair_tiles: int
    col_pair_tiles: int
    remainder: int
    singles: tuple[Vertex, ...]
    isolated: Vertex | None

    def landmark_count(self) -> int:
        return 2 * (self.row_pair_tiles + self.col_pair_tiles) + len(self.singles)


def regime_of(m: int, n: int) -> Regime:
    """Classify (m, n); exactly one regime matches after normalization."""
    check_sides(m, n)
    swapped = m > n
    if swapped:
        m, n = n, m
    if m == 1:
        tag = "A"
    elif 2 * m < n:
        tag = "B"
    elif m <= 4:
        tag = "C"
    else:
        tag = "D"
    return Regime(tag, swapped)


def dimension(m: int, n: int) -> int:
    """Exact metric dimension of the (m, n) double-star grid.

    Symmetric in its arguments.  The 4-cycle (1, 1) needs 2 landmarks;
    other single-row grids need n for n <= 4 and n - 1 beyond; thin grids
    need n - 1; balanced grids need n + (2m - n) // 3.
    """
    check_sides(m, n)
    if m > n:
        m, n = n, m
    if m == 1:
        if n == 1:
            return 2
        if n <= 4:
            return n
        return n - 1
    if 2 * m < n:
        return n - 1
    return n + (2 * m - n) // 3


def tiling_plan(m: int, n: int) -> TilingPlan:
    """Tile counts for regime D, in normalized coordinates.

    Raises InputError when (m, n) does not normalize into regime D.
    """
    reg = regime_of(m, n)
    if reg.tag != "D":
        raise InputError(f"({m}, {n}) is regime {reg.tag}; tiling applies to regime D only")
    if reg.normalized:
        m, n = n, m
    r = (m + n) % 3
    if r == 0:
        s, t = (2 * m - n) // 3, (2 * n - m) // 3
        singles: tuple[Vertex, ...] = ()
        isolated: Vertex | None = None
    elif r == 1:
        s, t = (2 * m - n + 1) // 3, (2 * n - m - 2) // 3
        singles = ()
        isolated = Col(n)
    else:
        s, t = (2 * m - n - 1) // 3, (2 * n - m - 1) // 3
        singles = (Row(m),)
        isolated = Col(n)
    return TilingPlan(s, t, r, singles, isolated)


def build_basis(m: int, n: int) -> ResolvingSet:
    """Construct, verify, and return a minimum resolving set for (m, n).

    The result has exactly dimension(m, n) landmarks, never contains the
    hub, and is deterministic for fixed inputs.  Verification is a hard
    postcondition: the constructed points are checked for code injectivity
    over every vertex before any landmark vertex is made.  The check reads
    only which rows and columns the landmarks touch, so it adds O(m + n)
    time and memory, and no (m n)-sized array is ever built.  A basis past
    ``MAX_BASIS_LANDMARKS`` landmarks is refused with BudgetError before
    any is built.
    """
    want = dimension(m, n)
    if want > MAX_BASIS_LANDMARKS:
        raise BudgetError(
            f"basis of ({m}, {n}) has {want} landmarks, limit is {MAX_BASIS_LANDMARKS}"
        )
    reg = regime_of(m, n)
    if reg.normalized:  # point (x, y) of the (n, m) grid is (y, x) of this one
        points = [(x, y) for y, x in _construct(n, m, reg.tag)]
    else:
        points = _construct(m, n, reg.tag)
    footprint = _footprint(m, n, points)
    if len(points) != want or not footprint[-1]:
        raise RuntimeError(
            f"internal error: constructed {len(points)} landmarks for ({m}, {n}), "
            f"expected {want} distinct ones"
        )
    verdict = _verdict(GridGraph(m, n), footprint)
    del footprint  # so that the peak holds the footprint or the vertices, not both
    if not verdict:
        raise RuntimeError(
            f"internal error: constructed set for ({m}, {n}) fails to resolve, "
            f"witness {verdict.witness}"
        )
    landmarks = tuple([vertex_at_point(x, y) for x, y in points])
    return ResolvingSet._distinct(landmarks, f"constructed-regime-{reg.tag}")


# The constructions below emit landmarks as points (x, y) of the normalized
# (rows <= columns) grid, with 0 as a star's centre: Cell(i, j) is (i, j),
# Row(i) is (i, 0) and Col(j) is (0, j).  build_basis verifies them in the
# caller's orientation, then makes each vertex once.


def _construct(m: int, n: int, tag: str) -> list[tuple[int, int]]:
    if tag == "A":
        return _single_row(n)
    if tag == "B":
        return _thin(m, n)
    if tag == "C":
        return _small_balanced(m, n)
    return _tiled(m, n)


def _single_row(n: int) -> list[tuple[int, int]]:
    # n == 1 is the 4-cycle; any hub-free adjacent pair of distinct kinds
    # works: r1 and a1,1.
    if n == 1:
        return [(1, 0), (1, 1)]
    if n <= 4:
        return [(1, j) for j in range(1, n + 1)]
    out = [(0, 1), (0, 2)]  # c1, c2
    out.extend((1, j) for j in range(3, n))
    return out


def _thin(m: int, n: int) -> list[tuple[int, int]]:
    # Two consecutive cells per row, then one cell per leftover column in
    # the last row; the last column stays empty.  Size n - 1.
    out: list[tuple[int, int]] = []
    for i in range(1, m + 1):
        out.append((i, 2 * i - 1))
        out.append((i, 2 * i))
    out.extend((m, j) for j in range(2 * m + 1, n))
    return out


def _small_balanced(m: int, n: int) -> list[tuple[int, int]]:
    gap = 2 * m - n
    if gap == 0:
        return [(i, 2 * i - 2 + off) for i in range(1, m + 1) for off in (1, 2)]
    if gap == 1:
        out = [(i, 2 * i - 2 + off) for i in range(1, m) for off in (1, 2)]
        out.append((m, 0))  # r_m
        return out
    if gap == 2:
        return [(i, 2 * i - 2 + off) for i in range(1, m) for off in (1, 2)]
    # gap >= 3 happens for exactly three shapes: (3,3), (4,4), (4,5)
    if (m, n) == (3, 3):
        return [(1, 1), (1, 2), (2, 1), (3, 2)]
    if (m, n) == (4, 4):
        return [(1, 1), (1, 2), (2, 3), (3, 3), (4, 0)]
    if (m, n) == (4, 5):
        return [(1, 1), (1, 2), (2, 3), (3, 3), (4, 4), (4, 5)]
    raise RuntimeError(f"internal error: unexpected small balanced shape ({m}, {n})")


def _tiled(m: int, n: int) -> list[tuple[int, int]]:
    plan = tiling_plan(m, n)
    s = plan.row_pair_tiles
    out: list[tuple[int, int]] = []
    for i in range(1, s + 1):
        out.append((2 * i - 1, i))
        out.append((2 * i, i))
    for j in range(1, plan.col_pair_tiles + 1):
        row = 2 * s + j
        out.append((row, s + 2 * j - 1))
        out.append((row, s + 2 * j))
    if plan.singles:  # r_m
        out.append((m, 0))
    return out
