"""Independent brute-force ground truth for small grids.

Everything here works from breadth-first-search distances over the explicit
neighbor lists, never from the closed-form metric, so results can be used
to validate the closed forms and the constructed landmark sets.

One subset scan serves every search -- the dimension, minimum-basis
enumeration, hub-free and adjacency-dimension searches.  Each search turns
its host into one bitmask per vertex pair (which vertices tell the pair
apart), held as ceil(N / 64) uint64 words, and sorted hardest-first (fewest
resolvers first).  The scan yields every k-subset that meets all pair masks,
in canonical lexicographic order.  It builds the masks of all r-subsets once
per call (r as large as a table of ``_BLOCK_ROWS`` rows allows) and forms
lexicographic blocks of candidates by OR-ing a fixed head of k - r indices
into a tail of that table.  numpy tests each block in chunks that start
small and grow 4x, so a first-hit search stops early, against the pair
masks in growing chunks as well, since the first few pairs reject most
candidates.  On one 2.0 GHz Xeon core, enumerating all 27 million
7-subsets of the (5, 6) grid's 42 vertices takes about 1.6 s, and the
(5, 6) dimension search, which first rules out the 6.2 million smaller
subsets, about 0.5 s.  Budgets are enforced up front: a level of the search
is never started unless its full candidate count fits, and a single-size
search is refused before its distance table is built; the distance and
pair-mask tables refuse sizes past their own limits before allocating.  So
a call either completes or fails fast with
:class:`~stargrid.errors.BudgetError` -- it never returns a wrong answer.

Enumeration order is a deterministic contract: for a fixed instance the
reported dimension, witness, and basis list are identical run to run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import BudgetError, InputError
from .grid import GridGraph
from .resolve import ResolvingSet, is_resolving


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the exhaustive searches.

    ``max_candidates`` bounds the cumulative number of subsets a single
    call may enumerate, estimated before each level starts.
    """

    max_candidates: int = 10_000_000


DEFAULT_BUDGET = SearchBudget()

_WORD = np.dtype("<u8")
# Sizes for the subset scan (see _SubsetScan): the most rows in a subset
# table or a candidate block, the first candidate and pair chunks, and the
# most words one test may hold, which bounds the scan's temporaries.
_BLOCK_ROWS = 1 << 14
_FIRST_ROWS = 64
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


class SimpleGraph:
    """Minimal adjacency-list host for the adjacency-dimension search."""

    def __init__(self, n_vertices: int, edges):
        self.n = n_vertices
        self._adj: list[set[int]] = [set() for _ in range(n_vertices)]
        for u, v in edges:
            if not (0 <= u < n_vertices and 0 <= v < n_vertices) or u == v:
                raise InputError(f"bad edge ({u}, {v})")
            self._adj[u].add(v)
            self._adj[v].add(u)

    @classmethod
    def path(cls, order: int) -> "SimpleGraph":
        return cls(order, [(i, i + 1) for i in range(order - 1)])

    @classmethod
    def cycle(cls, order: int) -> "SimpleGraph":
        return cls(order, [(i, (i + 1) % order) for i in range(order)])

    @classmethod
    def star(cls, leaves: int) -> "SimpleGraph":
        return cls(leaves + 1, [(0, i) for i in range(1, leaves + 1)])

    def vertex_count(self) -> int:
        return self.n

    def vertices(self) -> list[int]:
        return list(range(self.n))

    def neighbors(self, v: int) -> list[int]:
        return sorted(self._adj[v])

    def index_of(self, v: int) -> int:
        return v

    def is_adjacent(self, u: int, v: int) -> bool:
        return v in self._adj[u]


def bfs_distances(g: GridGraph) -> np.ndarray:
    """All-pairs hop counts by BFS over ``g.neighbors`` only, each neighbour
    numbered by ``g.index_of``.

    Returns an (N, N) uint8 table in canonical vertex order.  Refuses
    hosts with more than ``MAX_BFS_VERTICES`` vertices, from
    ``g.vertex_count()`` alone.  Every source searches at once: row s of a
    boolean table holds the vertices not yet reached from s, and a vertex
    stays unreached one more level if it and every vertex on its neighbour
    list were unreached (one ``reduceat`` over the lists laid end to end).
    A pair's distance is the number of levels at which it was unreached,
    and 255 marks a pair that is never reached.  An isolated vertex lists
    itself, as ``reduceat`` takes no empty list, so it stays unreached from
    every other source.  The search stops once every pair is reached, so a
    grid of diameter d takes d levels.
    """
    total = g.vertex_count()
    if total > MAX_BFS_VERTICES:
        raise BudgetError(f"grid has {total} vertices, BFS cap is {MAX_BFS_VERTICES}")
    lists = [g.neighbors(v) or [v] for v in g.vertices()]
    flat = np.array(list(map(g.index_of, itertools.chain.from_iterable(lists))), dtype=np.intp)
    starts = np.array([0, *itertools.accumulate(map(len, lists[:-1]))])
    unreached = ~np.eye(total, dtype=bool)
    table = np.zeros((total, total), dtype=np.uint8)
    left = total * (total - 1)
    while left:
        table += unreached.view(np.uint8)
        unreached &= np.logical_and.reduceat(unreached.take(flat, axis=1), starts, axis=1)
        now = np.count_nonzero(unreached)
        if now == left:
            table[unreached] = 255  # the rest is unreachable
            break
        left = now
    return table


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
    size = pairs * words * _WORD.itemsize
    if size > MAX_PAIR_MASK_BYTES:
        raise BudgetError(
            f"pair masks of {total} vertices need {size} bytes, limit is {MAX_PAIR_MASK_BYTES}"
        )
    xs, ys = np.triu_indices(total, 1)
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
    T_r, the masks of all r-subsets of the indices in lexicographic order,
    is built on first use and kept for the life of the scan, so one search
    over ascending k builds each table once.
    """

    def __init__(self, indices, pair_masks: np.ndarray):
        idx = np.asarray(indices, dtype=np.int64)
        unit = np.zeros((pair_masks.shape[1], len(idx)), dtype=_WORD)
        unit[idx // 64, np.arange(len(idx))] = np.left_shift(
            np.uint64(1), (idx % 64).astype(np.uint64)
        )
        self.pair_masks = np.ascontiguousarray(pair_masks.T)
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
        """Yield each resolving k-subset as a tuple of indices.

        Candidates are tested in chunks that start at ``_FIRST_ROWS`` and
        grow 4x up to a whole block, so a first-hit search stops early.
        Each chunk meets the pair masks hardest-first, in pair chunks that
        start at ``_FIRST_PAIRS`` and grow 4x, since the first few pairs
        reject most candidates; candidates x pairs x words stays within
        ``_ELEMENTS``.
        """
        rows = _FIRST_ROWS
        for block, pair_masks in self._blocks(k):
            words, size = block.shape
            start = 0
            while start < size:
                cand = block[:, start:start + rows]
                start += rows
                rows = min(4 * rows, _BLOCK_ROWS)
                done, step = 0, _FIRST_PAIRS
                while done < pair_masks.shape[1] and cand.shape[1]:
                    step = max(1, min(step, _ELEMENTS // (cand.shape[1] * words)))
                    chunk = pair_masks[:, done:done + step]
                    met = (chunk[:, :, None] & cand[:, None, :]).any(axis=0)
                    cand = cand[:, met.all(axis=0)]
                    done += step
                    step *= 4
                if cand.shape[1]:
                    rows_le = np.ascontiguousarray(cand.T).view(np.uint8)
                    bits = np.unpackbits(rows_le, axis=1, bitorder="little")
                    for combo in np.nonzero(bits)[1].reshape(-1, k).tolist():
                        yield tuple(combo)

    def _blocks(self, k: int):
        """The k-subsets as (candidate masks, pair masks left to meet), in
        blocks whose concatenation is in lexicographic order.

        Take T_r, the largest table within ``_BLOCK_ROWS`` rows.  The
        k-subsets whose first k - r positions are a head h plus i are h and
        i OR-ed into the r-subsets of the positions above i, a tail of T_r.
        Consecutive i under one head are merged into blocks of up to
        ``_BLOCK_ROWS`` rows, which share the pairs the head leaves open.
        """
        count = self._tables[0].shape[1]
        if k > count:
            return
        r = max((s for s in range(1, k + 1) if comb(count, s) <= _BLOCK_ROWS), default=1)
        table = self._table(r)
        if r == k:
            yield table, self.pair_masks
            return
        unit = self._tables[0]
        tails = [table.shape[1] - comb(count - 1 - i, r) for i in range(count - r)]
        for head in itertools.combinations(range(count - r - 1), k - r - 1):
            mask = np.bitwise_or.reduce(unit[:, head], axis=1)[:, None]
            pair_masks = self.pair_masks
            if head:
                # pairs the head already tells apart need no test; an empty
                # head tells none apart, and filtering would copy every mask
                pair_masks = pair_masks[:, ~(pair_masks & mask).any(axis=0)]
            parts, size = [], 0
            for i in range(head[-1] + 1 if head else 0, count - r):
                part = table[:, tails[i]:]
                if parts and size + part.shape[1] > _BLOCK_ROWS:
                    yield np.concatenate(parts, axis=1), pair_masks
                    parts, size = [], 0
                parts.append(part | (mask | unit[:, i, None]))
                size += part.shape[1]
            yield np.concatenate(parts, axis=1), pair_masks


def _smallest_resolving(total: int, pair_masks, budget: SearchBudget,
                        context: str) -> tuple[int, ...]:
    """Lexicographically first resolving subset of ``range(total)`` at the
    smallest size that has one, searching sizes in ascending order.  All of
    ``range(total)`` resolves, so the search ends by size ``total``."""
    scan = _SubsetScan(range(total), pair_masks)
    planned = 0
    for k in range(1, total + 1):
        planned += comb(total, k)
        _gate(budget, planned, f"{context} at size {k}")
        combo = next(scan.resolving(k), None)
        if combo is not None:
            return combo
    raise InputError(f"{context} needs a host with at least one vertex")


def brute_force_dimension(
    g: GridGraph, budget: SearchBudget = DEFAULT_BUDGET
) -> tuple[int, ResolvingSet]:
    """Smallest k admitting a resolving k-subset, plus the first witness.

    Ascending-k exhaustive search in canonical order; the witness is the
    lexicographically first resolving subset at the minimal size and is
    re-checked with :func:`stargrid.resolve.is_resolving` before return.
    """
    pair_masks = _pair_masks(bfs_distances(g))
    combo = _smallest_resolving(
        g.vertex_count(), pair_masks, budget, f"dimension search on ({g.m}, {g.n})"
    )
    witness = tuple(map(g.vertex_at, combo))
    if not is_resolving(g, witness):
        raise RuntimeError("internal error: oracle witness fails is_resolving")
    return len(combo), ResolvingSet._distinct(witness, True, "oracle")


def iter_minimum_bases(g: GridGraph, k: int, budget: SearchBudget = DEFAULT_BUDGET):
    """Yield every resolving k-subset in canonical order (streaming form of
    :func:`enumerate_minimum_bases`)."""
    if k < 1:
        raise InputError("subset size must be >= 1")
    total = g.vertex_count()
    _gate(budget, comb(total, k), f"basis enumeration on ({g.m}, {g.n}) at size {k}")
    verts = g.vertices()
    # the scan's index tuples are strictly increasing, so no landmark repeats
    for combo in _SubsetScan(range(total), _pair_masks(bfs_distances(g))).resolving(k):
        yield ResolvingSet._distinct(tuple([verts[i] for i in combo]), True, "oracle")


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
    adjacency dimension 1.  Hosts need ``vertices()`` and ``is_adjacent``.
    The search runs on the truncated table (0 on the diagonal, 1 for
    adjacent, 2 otherwise): S separates x and y exactly when S meets
    {x, y} or the symmetric difference of their neighborhoods, which are
    the columns where the two truncated rows differ.
    """
    table = _adjacency_table(host)
    combo = _smallest_resolving(
        len(table), _pair_masks(table), budget, "adjacency-dimension search"
    )
    return len(combo)


def _adjacency_table(host) -> np.ndarray:
    """The host's distances truncated at 2, in ``host.vertices()`` order."""
    verts = list(host.vertices())
    total = len(verts)
    table = np.full((total, total), 2, dtype=np.uint8)
    # adjacency is symmetric, so ask once per unordered pair
    for x, v in enumerate(verts):
        for y in range(x + 1, total):
            if host.is_adjacent(v, verts[y]):
                table[x, y] = table[y, x] = 1
    np.fill_diagonal(table, 0)
    return table


def exists_hub_free_basis(
    g: GridGraph, k: int, budget: SearchBudget = DEFAULT_BUDGET
) -> bool:
    """Is there a resolving k-subset avoiding the hub?

    Scans hub-free subsets in canonical order and stops at the first hit.
    """
    if k < 1:
        raise InputError("subset size must be >= 1")
    total = g.vertex_count()
    _gate(budget, comb(total - 1, k), f"hub-free search on ({g.m}, {g.n}) at size {k}")
    scan = _SubsetScan(range(1, total), _pair_masks(bfs_distances(g)))
    return next(scan.resolving(k), None) is not None
