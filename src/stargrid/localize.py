"""Hop-count localization demo: code tables, nearest-code decoding, noise.

A resolving landmark set assigns every vertex a unique hop-count signature.
The sink can then identify a sender from a (possibly perturbed) signature
by nearest-code lookup.  Ties are surfaced, never broken arbitrarily: a
localization system has to distinguish "confidently wrong" from
"ambiguous".

The N x k code matrices live here too (:func:`code_matrix`,
:func:`full_distance_matrix`), next to the maps between canonical indices
and points that build and read them.
"""

from __future__ import annotations

import functools
import hashlib
import math
import numbers
from collections.abc import Iterator, Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BudgetError, InputError
from .grid import GridGraph, Vertex, check_int, star_distance, vertex_name
from .resolve import _ordered_landmarks, _read, _verdict

_METRICS = ("hamming", "l1")

# A batch decode holds one int32 cost per (probe, vertex) pair; it takes
# probes in chunks of at most this many cells (512 KB), or one probe at a time.
_CHUNK_CELLS = 1 << 17

_MASK64 = (1 << 64) - 1

# The most cells :func:`code_matrix` allocates.  A code table's matrix is
# built as uint8 and kept as int16, about 3 bytes per cell, so this caps one
# near 300 MB; the (300, 300) grid's basis table has 36 million cells.  Only
# :func:`decode` reads a table's matrix, so only it refuses past this cap.
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
class NoiseModel:
    """Independent per-coordinate hop noise.

    Each coordinate is perturbed with probability ``flip_probability`` by
    +-1 hop (equal odds), clamped at 0.  The draws are counter-based: with
    ``key`` the first 8 bytes of sha256(str(seed)), coordinate j of trial t
    reads h = SplitMix64(SplitMix64(key + t) + j) mod 2^64 (Steele, Lea &
    Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014).
    It flips when the top 53 bits of h, as a fraction, are below the
    probability, and its low bit picks +1 (set) or -1.  So any Python int
    is a seed, and a trial's noise depends on (seed, trial index) alone:
    results do not depend on how trials are sharded or chunked.  A
    probability that is not a real number in [0, 1], or a seed that is not
    an int, is refused with InputError; bools are neither.  An accepted
    probability is stored as a Python float, so results that report it
    (:class:`SimulationResult`) serialize to JSON whatever number type it
    came in as.
    """

    flip_probability: float
    seed: int = 0

    def __post_init__(self) -> None:
        p = self.flip_probability
        if not isinstance(p, numbers.Real) or isinstance(p, bool) or not 0.0 <= p <= 1.0:
            raise InputError(f"flip probability must be a number in [0, 1], got {p!r}")
        check_int(self.seed, None, "noise seed")
        object.__setattr__(self, "flip_probability", float(p))


@dataclass(frozen=True)
class DecodeResult:
    """Nearest-code decode outcome; ``vertex`` is None on a tie and the
    tied candidates are listed in canonical order."""

    vertex: Vertex | None
    distance: int
    ties: tuple[Vertex, ...] = ()

    @property
    def ambiguous(self) -> bool:
        return self.vertex is None


class CodeTable:
    """Ideal hop-count signature of every vertex for a fixed landmark set.

    The landmarks are a :class:`~stargrid.resolve.ResolvingSet` or any
    vertex collection (a plain set is taken in canonical order).  They are
    re-checked against this grid with :func:`~stargrid.resolve.is_resolving`,
    wherever they came from, and a set that does not resolve it is refused
    rather than allowed to make decoding silently ambiguous.
    Before that check, grids past ``MAX_TABLE_VERTICES`` vertices and sets
    past ``MAX_CODE_LENGTH`` landmarks are refused with BudgetError, as the
    table's own arrays take O(N + k) memory.  Landmark w sits at the point
    (a[w], b[w]) (see :meth:`~stargrid.grid.GridGraph.point`); codes are
    read from the star distances of those points, and only :func:`decode`
    reads the N x k ``matrix``.

    ``min_pairwise_l1`` is the smallest L1 distance between two codes,
    computed from landmark counts rather than by comparing codes.  Let r_a
    count the landmarks in row a (its relay or any cell (a, .)), c_b those
    in column b, x_ab = 1 when cell (a, b) is a landmark, and s_ab = r_a +
    c_b - 2 x_ab.  The grid is bipartite (hub and cells against relays),
    so for two vertices on opposite sides every landmark's two distances
    differ by an odd amount: their L1 is at least k (exactly k for an
    adjacent pair).  Same-side pairs differ by even amounts per landmark
    and read, from the distance table in :mod:`stargrid.grid`:

    =============================================  ============================
    pair                                           L1
    =============================================  ============================
    row relays a, a', or cells (a, b), (a', b)     2 (r_a + r_a')
    column relays b, b', or cells (a, b), (a, b')  2 (c_b + c_b')
    row relay a and column relay b                 2 s_ab
    hub and cell (a, b)                            2 (k - s_ab)
    cells (a, b), (a', b'), a != a', b != b'       2 (r_a + r_a' + c_b + c_b')
                                                   - 4 (x_ab' + x_a'b)
    =============================================  ============================

    The last row exceeds the relay pair (a, b') by 2 s_a'b, which is
    positive because row relay a' and column relay b would otherwise share
    a code, so those cell pairs never attain the minimum.  Neither do
    opposite-side pairs alone: relay pair (a, b) and the hub with cell
    (a, b) read 2 s_ab and 2 (k - s_ab), which sum to 2k.  What is left
    needs the two smallest row and column counts and the extremes of s
    over the m x n grid: O(mn + k) work, against the O(N^2 k) of comparing
    every pair of codes.
    """

    def __init__(self, g: GridGraph, landmarks):
        lm = _ordered_landmarks(g, landmarks)
        _check_code_size(g, len(lm))
        points: list[tuple[int, int]] = []
        footprint = _read(g, lm, points)
        verdict = _verdict(g, footprint)
        if not verdict:
            x, y = verdict.witness
            raise InputError(
                f"landmark set does not resolve grid ({g.m}, {g.n}): "
                f"{vertex_name(x)} and {vertex_name(y)} share a code"
            )
        self.graph = g
        self.landmarks = lm
        self.a, self.b = np.array(points, dtype=np.intp).T
        self.min_pairwise_l1 = self._min_pairwise_l1()

    def __len__(self) -> int:
        return self.graph.vertex_count()

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """(N, k) int16 codes in canonical vertex order, built on the first
        :func:`decode`; raises BudgetError past ``MAX_TABLE_CELLS``."""
        return _code_matrix(self.graph, self.a, self.b).astype(np.int16)

    @property
    def code_length(self) -> int:
        return len(self.landmarks)

    def code_of(self, v: Vertex) -> tuple[int, ...]:
        """v's code, from the star distances of its point."""
        x, y = self.graph.point(v)
        return tuple((star_distance(x, self.a) + star_distance(y, self.b)).tolist())

    def _min_pairwise_l1(self) -> int:
        """Closed form from the case table in the class docstring."""
        m, n, k = self.graph.m, self.graph.n, len(self.landmarks)
        x, y = self.a, self.b
        # r_a counts the landmarks with x = a, c_b those with y = b
        rows = np.bincount(x, minlength=m + 1)[1:]
        cols = np.bincount(y, minlength=n + 1)[1:]
        # s_ab = r_a + c_b - 2 x_ab
        s = rows[:, None] + cols[None, :]
        cell = (x > 0) & (y > 0)
        s[x[cell] - 1, y[cell] - 1] -= 2
        best = min(2 * int(s.min()), 2 * (k - int(s.max())))
        for counts in (rows, cols):
            if counts.shape[0] > 1:
                best = min(best, 2 * int(np.partition(counts, 1)[:2].sum()))
        return best

    def ideal(self, idx: np.ndarray) -> np.ndarray:
        """The (T, k) int8 codes of the vertices with canonical indices idx,
        from the star distances of their points."""
        x, y = _points(self.graph.m, self.graph.n, idx)
        return star_distance(x[:, None], self.a) + star_distance(y[:, None], self.b)

    @functools.cached_property
    def _plan(self):
        """The landmarks' star distances by class and the batch decode's sum
        plan (see :meth:`costs`): the line terms to gather, the start of each
        line's run, the lines, and the cell landmarks with their canonical
        indices, built on first use."""
        m, n = self.graph.m, self.graph.n
        a, b = self.a, self.b
        # s(., a) at classes 0, 1 and 2 of x is s(0, a), 0 and 1 + s(0, a)
        sx = np.multiply.outer(a != 0, (1, 0, 1)) + (0, 0, 1)
        sy = np.multiply.outer(b != 0, (1, 0, 1)) + (0, 0, 1)
        dist = (sx[:, :, None] + sy[:, None, :])[..., None].astype(np.int16)
        # row term w goes to line a and column term k + w to line m + b, the
        # canonical indices of their relays; the terms are taken sorted by
        # line, and each run of one line is summed
        line = np.concatenate([a, (m + b) * (b != 0)])
        take = np.flatnonzero(line)
        take = take[np.argsort(line[take], kind="stable")]
        line = line[take]
        starts = np.flatnonzero(np.diff(line, prepend=0))
        cells = np.flatnonzero((a != 0) & (b != 0))
        return dist, take, starts, line[starts], cells, m + n + (a[cells] - 1) * n + b[cells]

    def costs(self, probes: np.ndarray, metric: str) -> np.ndarray:
        """(T, N) int32 Hamming or L1 distances from each probe, a row of
        integers from 0 to 32767, to the code of every vertex in canonical
        order, the order of ``matrix``, from line and point terms, never from
        the N x k matrix.

        Landmark w's distance to vertex (x, y) is s(x, a) + s(y, b).  The
        star distance s(., a) takes one value at x = 0, one at x = a and a
        generic one at every other x: classes 0, 1 and 2 (class 1 is empty
        when a = 0).  Let F[i, j] be a probe entry's cost against w (a
        Hamming mismatch or an L1 error) at a vertex whose x has class i and
        whose y has class j.  Summed over the landmarks, where "a = x" sums
        over the landmarks of row x and "b = y" over those of column y, the
        costs are

            hub (0, 0)           sum F[0, 0]
            row relay (x, 0)     sum F[2, 0] + sum_{a = x} (F[1, 0] - F[2, 0])
            column relay (0, y)  sum F[0, 2] + sum_{b = y} (F[0, 1] - F[0, 2])
            cell (x, y)          sum F[2, 2] + sum_{a = x} (F[1, 2] - F[2, 2])
                                 + sum_{b = y} (F[2, 1] - F[2, 2]) + P,

        where P = F[1, 1] - F[1, 2] - F[2, 1] + F[2, 2] applies only at a
        cell landmark's own cell.  So a relay reads one line term and a cell
        a row term plus a column term, with at most k corrections: O(N + k)
        per probe.  One gather and one ``reduceat`` sum the row and column
        terms by line, whatever the landmarks' layout.  The class costs are
        indexed (landmark, class of x, class of y, probe), so that each numpy
        loop runs over the probes of a chunk.
        """
        m, n = self.graph.m, self.graph.n
        dist, take, starts, lines_at, cells, cells_at = self._plan
        # entries reach 32767, so int16, as dist is: mixed dtypes would cast
        # in buffered chunks
        q = probes.T.astype(np.int16, order="C")[:, None, None]
        if metric == "hamming":
            f = (q != dist).view(np.int8)
        else:
            f = q - dist
            np.abs(f, out=f)
        # row terms F[1, j] - F[2, j], then column terms F[i, 1] - F[i, 2],
        # for the relays (i, j = 0) and the cells (i, j = 2); int32, as
        # reduceat is slower when it casts
        terms = np.concatenate([f[:, 1, ::2] - f[:, 2, ::2], f[:, ::2, 1] - f[:, ::2, 2]],
                               dtype=np.int32)
        # line i: the cost of the hub or relay with canonical index i, and
        # the term of the cells in its row or column
        lines = np.zeros((m + n + 1, 2, probes.shape[0]), dtype=np.int32)
        lines[lines_at] = np.add.reduceat(terms[take], starts, axis=0)
        # sum F[2, 0] = sum F[0, 2]: both classes are 1 + s(0, a) + s(0, b)
        total = f[:, ::2, ::2].sum(axis=0, dtype=np.int32)
        lines[:, 0] += total[1, 0]
        lines[0, 0] = total[0, 0]
        lines[1:m + 1, 1] += total[1, 1]
        lines = np.ascontiguousarray(lines.transpose(2, 1, 0))
        # the cells' row plus column terms; the hub and relays are overwritten
        out = _canonical_sum(lines[:, 1, :m + 1], lines[:, 1, m:])
        out[:, :m + n + 1] = lines[:, 0]
        out[:, cells_at] += (f[cells, 1, 1] - f[cells, 2, 1] - terms[cells, 1]).T
        return out


def code_table(g: GridGraph, landmarks) -> CodeTable:
    """Build the signature table for a landmark set that resolves g."""
    return CodeTable(g, landmarks)


def decode(code, table: CodeTable, metric: str = "hamming") -> DecodeResult:
    """Nearest table entry under Hamming or L1 distance.

    Hamming counts differing coordinates; L1 sums hop errors, which suits
    magnitude-structured perturbations.  A unique minimum decodes to that
    vertex; otherwise all tied vertices are reported.  Code entries must be
    Python or numpy integers from 0 to 32767 (the int16 range, as hop counts
    are never negative), else it raises InputError.  It compares the probe
    with every row of the table's N x k matrix, built on the first call, so
    it raises BudgetError on a table past ``MAX_TABLE_CELLS``.
    """
    _check_metric(metric)
    arr = _hop_counts(tuple(code), 1, table.code_length)
    # int32 sums of k int16 terms from 0 to 32767 are exact (k * 32767 <
    # 2^31, see MAX_CODE_LENGTH), and faster than numpy's default int64
    if metric == "hamming":
        dists = (table.matrix != arr).sum(axis=1, dtype=np.int32)
    else:
        dists = np.abs(table.matrix - arr).sum(axis=1, dtype=np.int32)
    best = int(dists.min())
    hits = np.flatnonzero(dists == best)
    vertex_at = table.graph.vertex_at
    if hits.shape[0] == 1:
        return DecodeResult(vertex_at(int(hits[0])), best)
    return DecodeResult(None, best, ties=tuple(vertex_at(int(i)) for i in hits))


def _check_metric(metric: str) -> None:
    if metric not in _METRICS:
        raise InputError(f"metric must be one of {_METRICS}, got {metric!r}")


def _hop_counts(codes, ndim: int, width: int) -> np.ndarray:
    """``codes`` (one code, ndim 1, or one per row, ndim 2) as int16; raises
    InputError unless they have the table's width and hold integers 0..32767."""
    try:
        probe = np.asarray(codes)
    except ValueError as exc:  # ragged nesting
        raise InputError(f"codes must be integer sequences of one length: {exc}") from None
    if probe.ndim != ndim or probe.shape[-1] != width:
        raise InputError(f"code length {probe.shape} does not match table width {width}")
    if probe.dtype.kind not in "iu":
        raise InputError(f"code entries must be integers, got {probe.dtype}")
    # an entry from 0 to 32767 keeps its value through the int16 cast and a
    # mask of its low 15 bits, a negative one or one past int16 does not: one
    # compare on the path of every decode
    arr = probe.astype(np.int16)
    arr &= 0x7FFF
    bad = arr != probe
    if np.count_nonzero(bad):
        wrapped = probe.astype(np.int16) != probe
        if np.count_nonzero(wrapped):
            raise InputError(f"code entry {probe[wrapped][0]} does not fit int16")
        at = np.argwhere(bad)[0].tolist()
        raise InputError(
            f"code entry {probe[tuple(at)]} at {at} is negative; hop counts are never negative"
        )
    return arr


def decode_batch(probes, table: CodeTable, metric: str = "hamming") -> list[DecodeResult]:
    """``[decode(p, table, metric) for p in probes]``, ties included.

    Decodes structurally, from row, column and point terms of the landmarks'
    star distances (see :meth:`CodeTable.costs`): O(N + k) per probe, in
    chunks of probes, without reading the table's N x k matrix, so it runs
    on any table.  Costs come in canonical order, as :func:`decode`'s
    distances do, so ties are listed as it lists them.  ``probes`` is a
    sequence of codes or a (T, k) integer array; entries are checked as in
    :func:`decode`.
    """
    _check_metric(metric)
    if len(probes) == 0:
        return []
    arr = _hop_counts(probes, 2, table.code_length)
    vertex_at = table.graph.vertex_at
    chunk = max(1, _CHUNK_CELLS // len(table))
    out: list[DecodeResult] = []
    for lo in range(0, arr.shape[0], chunk):
        costs = table.costs(arr[lo:lo + chunk], metric)
        best, dist, tied = _nearest_batch(costs)
        for row, i, d, tie in zip(costs, best.tolist(), dist.tolist(), tied.tolist()):
            if not tie:
                out.append(DecodeResult(vertex_at(i), d))
                continue
            # the first minimum i, masked in row, comes before the other ties
            ties = (i, *np.flatnonzero(row == d).tolist())
            out.append(DecodeResult(None, d, ties=tuple(map(vertex_at, ties))))
    return out


def _points(m: int, n: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The point (x, y) of each canonical index, as :meth:`GridGraph.point`."""
    cell = idx - (m + n + 1)
    is_cell = cell >= 0
    x = np.where(is_cell, cell // n + 1, np.where(idx <= m, idx, 0))
    y = np.where(is_cell, cell % n + 1, np.where(idx > m, idx - m, 0))
    return x, y


def code_matrix(g: GridGraph, landmarks: Sequence[Vertex]) -> np.ndarray:
    """(N, k) uint8 matrix of hop distances, rows in canonical vertex order;
    repeated landmarks are allowed.  Raises
    :class:`~stargrid.errors.BudgetError` before allocating when the matrix
    would exceed ``MAX_TABLE_CELLS``.
    """
    a, b = np.array(list(map(g.point, landmarks)), dtype=np.intp).reshape(-1, 2).T
    return _code_matrix(g, a, b)


def full_distance_matrix(g: GridGraph) -> np.ndarray:
    """(N, N) closed-form distance matrix in canonical order: the
    :func:`code_matrix` of every vertex, read from the points of the
    canonical indices, so an oversized one is refused in O(1)."""
    total = g.vertex_count()
    _check_table_cells(g, total)
    return _code_matrix(g, *_points(g.m, g.n, np.arange(total)))


def _check_table_cells(g: GridGraph, k: int) -> None:
    """Raise BudgetError when an (N, k) distance table on g would pass
    ``MAX_TABLE_CELLS``."""
    total = g.vertex_count()
    if total * k > MAX_TABLE_CELLS:
        raise BudgetError(
            f"distance table on ({g.m}, {g.n}) needs {total} x {k} = {total * k} cells, "
            f"limit is {MAX_TABLE_CELLS}"
        )


def _code_matrix(g: GridGraph, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`code_matrix` of the landmarks at the points (a[i], b[i]).  A
    distance is a sum of two star distances (see :mod:`stargrid.grid`), so
    the (k, m + 1) and (k, n + 1) star distances of the landmarks to the
    points of each star give every block as a broadcast sum, O(N) per
    landmark."""
    m, n = g.m, g.n
    _check_table_cells(g, a.shape[0])
    rows = star_distance(a[:, None], np.arange(m + 1)).view(np.uint8)
    cols = star_distance(b[:, None], np.arange(n + 1)).view(np.uint8)
    return _canonical_sum(rows, cols).T


def _canonical_sum(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The (T, N) array whose entry (t, i) is rows[t, x] + cols[t, y] for
    the point (x, y) of canonical index i, from a (T, m + 1) row term and a
    (T, n + 1) column term, in their dtype."""
    t, m, n = rows.shape[0], rows.shape[1] - 1, cols.shape[1] - 1
    out = np.empty((t, (m + 1) * (n + 1)), dtype=rows.dtype)
    # canonical order is (x, 0) for x = 0..m (hub and rows), then (x, y) for
    # x = 0..m and y = 1..n row-major (columns, then cells), whose (t, m + 1,
    # n) reshape is a view of out; it is summed in slices of rows x of at
    # most _CHUNK_CELLS cells (or one x), each into a contiguous array copied
    # in, which beats a broadcast into the strided view and keeps the
    # temporary small
    np.add(rows, cols[:, :1], out=out[:, :m + 1])
    block = out[:, m + 1:].reshape(t, m + 1, n)
    step = max(1, _CHUNK_CELLS // max(t * n, 1))
    for x in range(0, m + 1, step):
        block[:, x:x + step] = rows[:, x:x + step, None] + cols[:, None, 1:]
    return out


def _check_code_size(g: GridGraph, k: int) -> None:
    """Raise BudgetError when a code table on g with k landmarks would pass
    ``MAX_TABLE_VERTICES`` or ``MAX_CODE_LENGTH``."""
    for value, what, limit in ((g.vertex_count(), "vertices", MAX_TABLE_VERTICES),
                               (k, "landmarks", MAX_CODE_LENGTH)):
        if value > limit:
            raise BudgetError(
                f"code table on ({g.m}, {g.n}) has {value} {what}, limit is {limit}"
            )


def _nearest_batch(costs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of costs: the first minimum's index, the minimum, and whether
    another entry ties it.  Overwrites each first minimum with the int32
    maximum."""
    rows = np.arange(costs.shape[0])
    best = costs.argmin(axis=1)
    dist = costs[rows, best]
    costs[rows, best] = np.iinfo(np.int32).max
    return best, dist, costs.min(axis=1) == dist


@dataclass(frozen=True)
class SimulationResult:
    """Measured decode quality for one (grid, landmark set, noise) setup."""

    m: int
    n: int
    basis_size: int
    metric: str
    p: float
    trials: int
    seed: int
    misidentification_rate: float
    ambiguity_rate: float
    min_pairwise_l1: int

    def to_dict(self) -> dict:
        return asdict(self)


def _noise_key(seed: int) -> int:
    return int.from_bytes(hashlib.sha256(str(seed).encode()).digest()[:8], "big")


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output of each uint64 counter; products wrap mod 2^64."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _hop_noise(key: int, first: int, count: int, k: int, p: float) -> np.ndarray:
    """(count, k) int8 hop errors in {-1, 0, 1} of trials first, first + 1,
    ..., drawn as :class:`NoiseModel` states, before clamping."""
    trial = np.arange(count, dtype=np.uint64) + np.uint64((key + first) & _MASK64)
    h = _splitmix64(_splitmix64(trial)[:, None] + np.arange(k, dtype=np.uint64))
    # (h >> 11) / 2^53 < p exactly when the integer h >> 11 < ceil(p 2^53)
    flip = (h >> np.uint64(11)) < np.uint64(math.ceil(p * 2.0**53))
    return flip * ((h & np.uint64(1)).astype(np.int8) * 2 - 1)


def _noisy_codes(
    table: CodeTable, noise: NoiseModel, first_trial: int, trials: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Chunks of (the canonical index of each trial's vertex, its noisy
    code)."""
    total = len(table)
    chunk = max(1, _CHUNK_CELLS // total)
    key = _noise_key(noise.seed)
    p = noise.flip_probability
    for lo in range(first_trial, first_trial + trials, chunk):
        count = min(chunk, first_trial + trials - lo)
        idx = (lo % total + np.arange(count)) % total
        codes = table.ideal(idx)
        if p > 0.0:
            codes = np.maximum(codes + _hop_noise(key, lo, count, table.code_length, p), 0)
        yield idx, codes


def simulate(
    g: GridGraph,
    landmarks,
    noise: NoiseModel,
    trials: int,
    metric: str = "hamming",
    first_trial: int = 0,
) -> SimulationResult:
    """Round-robin decode trials under the noise model.

    Trial t perturbs the ideal code of vertex t mod N (canonical order) and
    decodes it; a unique decode is wrong when its canonical index is not t
    mod N.  The reported rates are wrong decodes per trial and ties per
    trial.  With trials a multiple of N the rates are exact vertex-set
    averages.  ``trials`` must be an int >= 1 and ``first_trial`` an int
    >= 0 (not bools), else InputError.

    Trials run in chunks: each chunk draws its noise in one pass over a
    (trials, k) counter array and decodes with the structural batch decode
    of :func:`decode_batch`, whose results equal :func:`decode`'s.  Ideal
    codes come from the star distances of the trial vertices' points
    (:meth:`CodeTable.ideal`), so the table's N x k matrix is never built.

    Bit-reproducible for a fixed seed: a trial's noise is keyed by (seed,
    trial index) alone (see :class:`NoiseModel`), so a run over [0, trials)
    equals the aggregate of disjoint shards (``first_trial`` is the shard
    offset).
    """
    check_int(trials, 1, "trials")
    check_int(first_trial, 0, "first_trial")
    _check_metric(metric)
    table = code_table(g, landmarks)
    wrong = 0
    ties = 0
    for truth, codes in _noisy_codes(table, noise, first_trial, trials):
        best, _, tied = _nearest_batch(table.costs(codes, metric))
        ties += int(np.count_nonzero(tied))
        wrong += int(np.count_nonzero(~tied & (best != truth)))
    return SimulationResult(
        m=g.m,
        n=g.n,
        basis_size=table.code_length,
        metric=metric,
        p=noise.flip_probability,
        trials=trials,
        seed=noise.seed,
        misidentification_rate=wrong / trials,
        ambiguity_rate=ties / trials,
        min_pairwise_l1=table.min_pairwise_l1,
    )
