"""Independent brute-force ground truth for small grids.

Everything here works from the explicit neighbor lists (breadth-first-search
distances, or for the adjacency search the lists alone), never from the
closed-form metric, so results can be used to validate the closed forms
and the constructed landmark sets.  A host is read through two methods:
``vertex_count()``, and ``adjacency()``, which lists each vertex's
neighbour indices, vertices in index order.  :class:`~stargrid.grid.GridGraph`
and :class:`~stargrid.auxgraph.AuxGraph` are hosts; a search names its hits
by index, and only the grid searches turn indices into vertices, with
``vertex_at`` or ``vertices()``.

One subset scan serves every search -- the dimension, minimum-basis
enumeration, hub-free and adjacency-dimension searches.  Each search turns
its host into one bitmask per vertex pair (which vertices tell the pair
apart), held as ceil(N / 64) uint64 words, and sorted hardest-first (fewest
resolvers first).  The scan yields every k-subset that meets all pair masks,
in canonical lexicographic order.  Metric dimension is a hitting set over
the pairs (Khuller, Raghavachari & Rosenfeld 1996, "Landmarks in graphs"),
so the scan also carries, per subset, one hit word: bit p says whether the
subset meets pair p, for the 64 hardest pairs.  It builds the vertex masks
and hit words of all r-subsets once per call (r as large as a table of
``_BLOCK_ROWS`` rows allows) and forms lexicographic blocks of candidates by
OR-ing a fixed head of k - r indices into a tail of that table, which ORs
the hit words as well.  Blocks start small and grow 4x, so a first-hit
search stops early.  Stage 1 keeps the candidates whose hit word is full,
one compare each; it rejects almost all of them.  Stage 2 tests the
survivors against the remaining pairs with numpy, hardest first.  The
scan hands over each block's resolving subsets as one (hits, k) array of
indices, so no per-subset Python runs until a caller asks for one.  On one
2.0 GHz Xeon core, enumerating all 27 million 7-subsets of the (5, 6)
grid's 42 vertices takes about 1.0 s, and the (5, 6) dimension search,
which first rules out the 6.2 million smaller subsets, about 0.2 s.

Budgets are enforced up front: a level of the search is never started
unless its full candidate count fits, and a single-size search is refused
before its distance table is built.  The ascending searches start at a
pigeonhole bound read from the distance table (no smaller subset can
resolve) and gate that first size before the pair masks are built, so a
search whose smallest possible size is over budget is refused after the
distance table alone.  The distance and pair-mask tables refuse sizes past
their own limits before allocating.  So a call either completes or fails
fast with :class:`~stargrid.errors.BudgetError` -- it never returns a wrong
answer.

Enumeration order is a deterministic contract: for a fixed instance the
reported dimension, witness, and basis list are identical run to run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import BudgetError, InputError
from .grid import GridGraph, check_int
from .resolve import ResolvingSet, is_resolving


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the exhaustive searches.

    ``max_candidates`` bounds the cumulative number of subsets a single
    call may enumerate, estimated before each level starts.  It must be an
    int >= 1 (not a bool), else InputError.
    """

    max_candidates: int = 10_000_000

    def __post_init__(self) -> None:
        check_int(self.max_candidates, 1, "max_candidates")


DEFAULT_BUDGET = SearchBudget()

_WORD = np.dtype("<u8")
# Sizes for the subset scan (see _SubsetScan): the most rows in a subset
# table or a candidate block, the first candidate block, the pairs a hit
# word holds (one bit each of a uint64), the first pair chunk of stage 2,
# and the most words one stage-2 test may hold, which bounds the scan's
# temporaries.
_BLOCK_ROWS = 1 << 14
_FIRST_ROWS = 64
_HIT_PAIRS = 64
_FIRST_PAIRS = 16
_ELEMENTS = 1 << 15
# The most booleans one block of _pair_masks compares at once; blocks this
# small keep its temporaries in cache.
_MASK_BOOLS = 1 << 18

# The most vertices :func:`bfs_distances` takes; on a grid, its (N, N)
# table and its per-level temporaries then stay near 25 MB.
MAX_BFS_VERTICES = 2000
# The most bytes :func:`_pair_masks` allocates for its table.  It admits
# the (30, 30) grid's 56 MiB table (961 vertices); the pass that builds it
# peaks near 1.5 times this.
MAX_PAIR_MASK_BYTES = 64 << 20


def bfs_distances(g: GridGraph) -> np.ndarray:
    """All-pairs hop counts by BFS over the host's edge lists only: it reads
    ``g.vertex_count()`` and ``g.adjacency()``, each vertex's neighbour
    indices.

    Returns an (N, N) uint8 table in canonical vertex order.  Refuses
    hosts with more than ``MAX_BFS_VERTICES`` vertices, from
    ``g.vertex_count()`` alone.  Every source searches at once: row s of a
    boolean table holds the vertices not yet reached from s, and a vertex
    stays unreached one more level if it and every vertex on its neighbour
    list were unreached (one ``reduceat`` over the lists laid end to end).
    A pair's distance is the number of levels at which it was unreached,
    and 255 marks a pair never reached, so a pair 255 hops apart is refused
    with BudgetError.  An isolated vertex lists itself, as ``reduceat``
    takes no empty list, so it stays unreached from every other source.  The
    search stops once every pair is reached: a grid of diameter d takes d levels.
    """
    total = g.vertex_count()
    if total > MAX_BFS_VERTICES:
        raise BudgetError(f"grid has {total} vertices, BFS cap is {MAX_BFS_VERTICES}")
    lists = [near or (v,) for v, near in enumerate(g.adjacency())]
    flat = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.intp)
    starts = np.array([0, *itertools.accumulate(map(len, lists[:-1]))])
    unreached = ~np.eye(total, dtype=bool)
    table = np.zeros((total, total), dtype=np.uint8)
    left = total * (total - 1)
    level = 0
    while left:
        level += 1
        table += unreached.view(np.uint8)
        unreached &= np.logical_and.reduceat(unreached.take(flat, axis=1), starts, axis=1)
        now = np.count_nonzero(unreached)
        if now == left:
            table[unreached] = 255  # the rest is unreachable
            break
        if level == 255:
            raise BudgetError("host has a pair 255 hops apart, BFS limit is 254 hops")
        left = now
    return table


def _check_pair_mask_size(total: int) -> None:
    """Refuse pair masks of ``total`` vertices past ``MAX_PAIR_MASK_BYTES``."""
    size = total * (total - 1) // 2 * -(-total // 64) * _WORD.itemsize
    if size > MAX_PAIR_MASK_BYTES:
        raise BudgetError(
            f"pair masks of {total} vertices need {size} bytes, limit is {MAX_PAIR_MASK_BYTES}"
        )


def _pair_masks(dist: np.ndarray) -> np.ndarray:
    """One bitmask per vertex pair: which vertices tell the pair apart.

    Returns a (pairs, W) array of little-endian uint64 words, W = ceil(N /
    64); vertex i is bit i % 64 of word i // 64.  Rows are sorted so the
    pairs with the fewest resolvers come first (ties in (x, y) order);
    scanning in this fixed order lets almost every failing candidate die on
    its first few checks.  The array is the transpose of a C-contiguous (W,
    pairs) one, the layout :class:`_SubsetScan` reads, so the scan takes it
    without a copy.

    Pairs are compared in blocks of about ``_MASK_BOOLS`` booleans, twice:
    first for the resolver counts that fix the pairs' order, then in that
    order for the masks, each block written straight to its place, so the
    peak stays near one output.  An output past ``MAX_PAIR_MASK_BYTES`` is
    refused with BudgetError before anything is allocated.
    """
    total = dist.shape[0]
    words = -(-total // 64)
    pairs = total * (total - 1) // 2
    _check_pair_mask_size(total)
    # the pairs x < y in row-major order: row x holds y = x + 1..N-1, from
    # pair x * (2N - 1 - x) / 2 on
    lengths = np.arange(total - 1, -1, -1)
    xs = np.repeat(np.arange(total), lengths)
    shift = np.arange(1, total + 1) - np.arange(total) * (lengths + total) // 2
    ys = np.arange(pairs) + np.repeat(shift, lengths)
    step = max(1, _MASK_BOOLS // max(1, total))
    blocks = [slice(lo, lo + step) for lo in range(0, pairs, step)]
    counts = np.empty(pairs, dtype=np.uint32)
    for b in blocks:
        # a byte sum into uint32 is about twice as fast as a bool sum, and
        # a count is at most N
        counts[b] = (dist[xs[b]] != dist[ys[b]]).view(np.uint8).sum(axis=1, dtype=np.uint32)
    order = np.argsort(counts, kind="stable")
    xs, ys = xs[order], ys[order]
    out = np.empty((words, pairs), dtype=_WORD)
    for b in blocks:
        block = dist[xs[b]] != dist[ys[b]]
        packed = np.zeros((len(block), 8 * words), dtype=np.uint8)
        packed[:, :-(-total // 8)] = np.packbits(block, axis=1, bitorder="little")
        out[:, b] = packed.view(_WORD).T
    return out.T


def _gate(budget: SearchBudget, planned: int, context: str) -> None:
    if planned > budget.max_candidates:
        raise BudgetError(
            f"{context} needs up to {planned} candidates, "
            f"budget allows {budget.max_candidates}"
        )


class _SubsetScan:
    """The subset-scan kernel: the k-subsets of ``indices`` that meet every
    pair mask, in lexicographic order.

    Masks are held word-major, one row per uint64 word, so that testing a
    chunk of candidates against a chunk of pairs reduces over outer axes.
    Below the vertex words each index carries one more row, its hit word:
    bit p is set when the index resolves pair p, for the first ``_HIT_PAIRS``
    (hardest) pairs.  OR-ing indices into a subset ORs their hit words too,
    so a subset meets those pairs exactly when its hit word is full, and
    the scan tests them with one compare per candidate (stage 1).  Only the
    survivors meet the remaining pairs in a candidates x pairs test (stage
    2).  T_r, the masks and hit words of all r-subsets of the indices in
    lexicographic order, is built on first use and kept for the life of
    the scan, so one search over ascending k builds each table once.
    """

    def __init__(self, indices, pair_masks: np.ndarray):
        idx = np.asarray(indices, dtype=np.int64)
        words = pair_masks.shape[1]
        unit = np.zeros((words + 1, len(idx)), dtype=_WORD)
        shift = (idx % 64).astype(np.uint64)
        unit[idx // 64, np.arange(len(idx))] = np.left_shift(np.uint64(1), shift)
        first = pair_masks[:_HIT_PAIRS]
        # bit p of unit[-1, j]: does index j resolve pair p
        resolves = (first[:, idx // 64] >> shift) & np.uint64(1)
        unit[-1] = np.bitwise_or.reduce(
            resolves << np.arange(len(first), dtype=np.uint64)[:, None], axis=0
        )
        self._full = np.uint64((1 << len(first)) - 1)
        self.pair_masks = pair_masks[_HIT_PAIRS:].T  # the pairs stage 2 tests
        self._tables = [unit]  # _tables[r - 1] is T_r

    def _table(self, r: int) -> np.ndarray:
        unit = self._tables[0]
        count = unit.shape[1]
        while len(self._tables) < r:
            size = len(self._tables)
            prev = self._tables[-1]
            # the size-subsets of positions above i are the tail of T_size
            self._tables.append(np.concatenate([
                unit[:, i, None] | prev[:, prev.shape[1] - comb(count - 1 - i, size):]
                for i in range(count - size)
            ], axis=1))
        return self._tables[r - 1]

    def resolving(self, k: int):
        """Yield the resolving k-subsets, one (hits, k) integer array per
        block that has any: each row a subset's indices in increasing order,
        the rows of all arrays together in lexicographic order.

        Stage 1 keeps the candidates of a block whose hit word is full.
        Stage 2 tests the survivors against the remaining pairs,
        hardest-first, in pair chunks that start at ``_FIRST_PAIRS`` and
        grow 4x; survivors x pairs x words stays within ``_ELEMENTS``.
        """
        pair_masks, full = self.pair_masks, self._full
        words, pairs = pair_masks.shape
        for block in self._blocks(k):
            cand = block[:words, block[words] == full]
            done, step = 0, _FIRST_PAIRS
            while done < pairs and cand.shape[1]:
                step = max(1, min(step, _ELEMENTS // (cand.shape[1] * words)))
                part = pair_masks[:, done:done + step]
                met = (part[:, :, None] & cand[:, None, :]).any(axis=0)
                cand = cand[:, met.all(axis=0)]
                done += step
                step *= 4
            if cand.shape[1]:
                rows_le = np.ascontiguousarray(cand.T).view(np.uint8)
                bits = np.unpackbits(rows_le, axis=1, bitorder="little")
                yield np.nonzero(bits)[1].reshape(-1, k)

    def _blocks(self, k: int):
        """The k-subsets' masks and hit words, in blocks whose concatenation
        is in lexicographic order.

        Blocks start at ``_FIRST_ROWS`` rows and grow 4x up to
        ``_BLOCK_ROWS``, so a first-hit search stops early.  The parts of
        :meth:`_parts` are built in order and cut into blocks, so at most
        one part is built past the block a search stops in.  A lone part,
        the whole of T_k included, is sliced, not copied.
        """
        count = self._tables[0].shape[1]
        if k > count:
            return
        rows = _FIRST_ROWS
        parts, size = [], 0
        for part in self._parts(k, count):
            parts.append(part)
            size += part.shape[1]
            while size >= rows:
                block = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
                yield block[:, :rows]
                parts, size = [block[:, rows:]], size - rows
                rows = min(4 * rows, _BLOCK_ROWS)
        if size:
            yield parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    def _parts(self, k: int, count: int):
        """The k-subsets' masks and hit words in lexicographic order, in
        parts.  Take T_r, the largest table within ``_BLOCK_ROWS`` rows; for
        r = k it is the one part.  Otherwise the k-subsets whose first k - r
        positions are a head h plus i are h and i OR-ed into the r-subsets
        of the positions above i, a tail of T_r: one part per (h, i)."""
        r = max((s for s in range(1, k + 1) if comb(count, s) <= _BLOCK_ROWS), default=1)
        table = self._table(r)
        if r == k:
            yield table
            return
        unit = self._tables[0]
        tails = [table.shape[1] - comb(count - 1 - i, r) for i in range(count - r)]
        for head in itertools.combinations(range(count - r - 1), k - r - 1):
            mask = np.bitwise_or.reduce(unit[:, head], axis=1)[:, None]
            for i in range(head[-1] + 1 if head else 0, count - r):
                yield table[:, tails[i]:] | (mask | unit[:, i, None])


def _fewest_landmarks(total: int, top: int) -> int:
    """The smallest k >= 1 with ``total - k <= top ** k``.

    In a table whose entries off the diagonal lie in 1..top, a vertex
    outside a k-subset has its code in {1..top}^k, so the total - k vertices
    outside a resolving k-subset need that many distinct codes (the
    pigeonhole bound of Khuller, Raghavachari & Rosenfeld 1996, "Landmarks
    in graphs").  No smaller subset resolves.
    """
    k = 1
    while total - k > top ** k:
        k += 1
    return k


def _smallest_resolving(table: np.ndarray, budget: SearchBudget,
                        context: str) -> tuple[int, ...]:
    """Lexicographically first resolving subset of the table's vertices at
    the smallest size that has one, searching sizes in ascending order from
    the pigeonhole bound on the table's largest entry.  The pair masks'
    size limit, which no budget lifts, is checked first, then the first
    size is gated, both before the masks are built.  All of
    ``range(total)`` resolves, so the search ends by size ``total``."""
    total = len(table)
    start = _fewest_landmarks(total, int(table.max(initial=0)))
    _check_pair_mask_size(total)
    _gate(budget, comb(total, start), f"{context} at size {start}")
    scan = _SubsetScan(range(total), _pair_masks(table))
    planned = 0
    for k in range(start, total + 1):
        planned += comb(total, k)
        _gate(budget, planned, f"{context} at size {k}")
        hits = next(scan.resolving(k), None)
        if hits is not None:
            return tuple(hits[0].tolist())
    raise InputError(f"{context} needs a host with at least one vertex")


def brute_force_dimension(
    g: GridGraph, budget: SearchBudget = DEFAULT_BUDGET
) -> tuple[int, ResolvingSet]:
    """Smallest k admitting a resolving k-subset, plus the first witness.

    Ascending-k exhaustive search in canonical order, from the pigeonhole
    bound of :func:`_fewest_landmarks`; the witness is the
    lexicographically first resolving subset at the minimal size and is
    re-checked with :func:`stargrid.resolve.is_resolving` before return.
    """
    combo = _smallest_resolving(
        bfs_distances(g), budget, f"dimension search on ({g.m}, {g.n})"
    )
    witness = tuple(map(g.vertex_at, combo))
    if not is_resolving(g, witness):
        raise RuntimeError("internal error: oracle witness fails is_resolving")
    return len(combo), ResolvingSet._distinct(witness, "oracle")


def iter_minimum_bases(g: GridGraph, k: int, budget: SearchBudget = DEFAULT_BUDGET):
    """Yield every resolving k-subset in canonical order (streaming form of
    :func:`enumerate_minimum_bases`)."""
    check_int(k, 1, "subset size")
    total = g.vertex_count()
    _gate(budget, comb(total, k), f"basis enumeration on ({g.m}, {g.n}) at size {k}")
    verts = np.array(g.vertices(), dtype=object)
    # the scan's index rows are strictly increasing, so no landmark repeats
    for hits in _SubsetScan(range(total), _pair_masks(bfs_distances(g))).resolving(k):
        for combo in verts[hits].tolist():
            yield ResolvingSet._distinct(tuple(combo), "oracle")


def enumerate_minimum_bases(
    g: GridGraph, k: int, budget: SearchBudget = DEFAULT_BUDGET
) -> list[ResolvingSet]:
    """All resolving k-subsets in canonical order.

    The caller supplies k (normally the result of
    :func:`brute_force_dimension`); the scan itself certifies every member
    by the full pair check.
    """
    return list(iter_minimum_bases(g, k, budget))


def brute_force_adjacency_dimension(host, budget: SearchBudget = DEFAULT_BUDGET) -> int:
    """Smallest k admitting an adjacency-resolving k-subset of the host.

    Convention: the empty set never counts, so a one-vertex host has
    adjacency dimension 1.  Hosts are read as :func:`bfs_distances` reads
    them, through ``vertex_count()`` and ``adjacency()``.  The search runs
    on the truncated table (0 on the diagonal, 1 for adjacent, 2
    otherwise): S separates x and y exactly when S meets {x, y} or the
    symmetric difference of their neighborhoods, which are the columns
    where the two truncated rows differ.  A host whose pair masks would
    pass ``MAX_PAIR_MASK_BYTES`` is refused from ``vertex_count()`` alone,
    before the table is built.
    """
    _check_pair_mask_size(host.vertex_count())
    combo = _smallest_resolving(_adjacency_table(host), budget, "adjacency-dimension search")
    return len(combo)


def _adjacency_table(host) -> np.ndarray:
    """The host's distances truncated at 2, in index order.

    It reads ``host.vertex_count()`` and ``host.adjacency()``, and scatters
    each vertex's neighbour indices into its row; no BFS runs, as its
    levels would follow the diameter.
    """
    total = host.vertex_count()
    lists = host.adjacency()
    rows = np.repeat(np.arange(total), [len(near) for near in lists])
    cols = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.intp, count=len(rows))
    table = np.full((total, total), 2, dtype=np.uint8)
    table[rows, cols] = 1
    np.fill_diagonal(table, 0)
    return table


def exists_hub_free_basis(
    g: GridGraph, k: int, budget: SearchBudget = DEFAULT_BUDGET
) -> bool:
    """Is there a resolving k-subset avoiding the hub?

    Scans hub-free subsets in canonical order and stops at the first hit.
    """
    check_int(k, 1, "subset size")
    total = g.vertex_count()
    _gate(budget, comb(total - 1, k), f"hub-free search on ({g.m}, {g.n}) at size {k}")
    scan = _SubsetScan(range(1, total), _pair_masks(bfs_distances(g)))
    return next(scan.resolving(k), None) is not None
