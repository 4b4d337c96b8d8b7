"""Independent brute-force ground truth for small grids.

Everything here works from breadth-first-search distances over the explicit
neighbor lists, never from the closed-form metric, so results can be used
to validate the closed forms and the constructed landmark sets.

One subset scan serves every search -- the dimension, minimum-basis
enumeration, hub-free and adjacency-dimension searches.  Each search turns
its host into one bitmask per vertex pair (which vertices tell the pair
apart), and the scan enumerates candidates in canonical lexicographic order,
pruning a candidate the moment some pair is left unresolved; pairs are
scanned hardest-first (fewest resolvers first), which lets scans of tens of
millions of candidates finish in minutes.  Budgets are enforced up front: a
level of the search is never started unless its full candidate count fits,
so a call either completes or fails fast with
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

    max_subset_size: int = 16
    max_candidates: int = 10_000_000


DEFAULT_BUDGET = SearchBudget()


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

    def vertices(self) -> list[int]:
        return list(range(self.n))

    def neighbors(self, v: int) -> list[int]:
        return sorted(self._adj[v])

    def is_adjacent(self, u: int, v: int) -> bool:
        return v in self._adj[u]


def bfs_distances(g: GridGraph, cap: int = 2000) -> np.ndarray:
    """All-pairs hop counts by BFS over ``g.neighbors`` only.

    Returns an (N, N) uint8 table in canonical vertex order.  Refuses
    graphs with more than ``cap`` vertices.
    """
    total = g.vertex_count()
    if total > cap:
        raise BudgetError(f"grid has {total} vertices, BFS cap is {cap}")
    adj: list[list[int]] = [
        [g.index_of(w) for w in g.neighbors(v)] for v in g.vertices()
    ]
    table = np.empty((total, total), dtype=np.uint8)
    for src in range(total):
        dist = [255] * total
        dist[src] = 0
        frontier = [src]
        level = 0
        while frontier:
            level += 1
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if dist[w] == 255:
                        dist[w] = level
                        nxt.append(w)
            frontier = nxt
        table[src] = dist
    return table


def _pair_masks(dist: np.ndarray) -> tuple[int, ...]:
    """One bitmask per vertex pair: which vertices tell the pair apart.

    Sorted so the pairs with the fewest resolvers come first; scanning in
    this fixed order lets almost every failing candidate die on its first
    few checks.
    """
    total = dist.shape[0]
    masks: list[tuple[int, int, int]] = []
    for x in range(total):
        row_x = dist[x]
        for y in range(x + 1, total):
            differs = np.packbits(row_x != dist[y], bitorder="little").tobytes()
            mask = int.from_bytes(differs, "little")
            masks.append((mask.bit_count(), len(masks), mask))
    masks.sort()
    return tuple(m for _, _, m in masks)


def _gate(budget: SearchBudget, planned: int, context: str) -> None:
    if planned > budget.max_candidates:
        raise BudgetError(
            f"{context} needs up to {planned} candidates, "
            f"budget allows {budget.max_candidates}"
        )


def _resolving_subsets(indices, k: int, pair_masks):
    """Yield, in lexicographic order, every k-subset of ``indices`` (as an
    index tuple) that meets every pair mask."""
    bits = [1 << i for i in indices]
    for combo in itertools.combinations(bits, k):
        subset = sum(combo)  # the bits are distinct, so this is their union
        for pm in pair_masks:
            if not subset & pm:
                break
        else:
            yield tuple(b.bit_length() - 1 for b in combo)


def _smallest_resolving(total: int, pair_masks, budget: SearchBudget,
                        context: str) -> tuple[int, ...]:
    """Lexicographically first resolving subset of ``range(total)`` at the
    smallest size that has one, searching sizes in ascending order."""
    planned = 0
    for k in range(1, min(total, budget.max_subset_size) + 1):
        planned += comb(total, k)
        _gate(budget, planned, f"{context} at size {k}")
        combo = next(_resolving_subsets(range(total), k, pair_masks), None)
        if combo is not None:
            return combo
    raise BudgetError(
        f"{context} found no resolving set of size <= {budget.max_subset_size}"
    )


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
    witness = ResolvingSet(
        tuple(g.vertex_at(i) for i in combo), verified=False, provenance="oracle"
    )
    if not is_resolving(g, witness):
        raise RuntimeError("internal error: oracle witness fails is_resolving")
    return len(combo), ResolvingSet(witness.landmarks, verified=True, provenance="oracle")


def iter_minimum_bases(g: GridGraph, k: int, budget: SearchBudget = DEFAULT_BUDGET):
    """Yield every resolving k-subset in canonical order (streaming form of
    :func:`enumerate_minimum_bases`)."""
    if k < 1:
        raise InputError("subset size must be >= 1")
    dist = bfs_distances(g)
    total = g.vertex_count()
    _gate(budget, comb(total, k), f"basis enumeration on ({g.m}, {g.n}) at size {k}")
    for combo in _resolving_subsets(range(total), k, _pair_masks(dist)):
        yield ResolvingSet(
            tuple(g.vertex_at(i) for i in combo), verified=True, provenance="oracle"
        )


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
    verts = list(host.vertices())
    total = len(verts)
    table = np.full((total, total), 2, dtype=np.uint8)
    for x, v in enumerate(verts):
        for y, w in enumerate(verts):
            if v != w and host.is_adjacent(v, w):
                table[x, y] = 1
    np.fill_diagonal(table, 0)
    combo = _smallest_resolving(
        total, _pair_masks(table), budget, "adjacency-dimension search"
    )
    return len(combo)


def exists_hub_free_basis(
    g: GridGraph, k: int, budget: SearchBudget = DEFAULT_BUDGET
) -> bool:
    """Is there a resolving k-subset avoiding the hub?

    Scans hub-free subsets in canonical order and stops at the first hit.
    """
    if k < 1:
        raise InputError("subset size must be >= 1")
    dist = bfs_distances(g)
    total = g.vertex_count()
    _gate(budget, comb(total - 1, k), f"hub-free search on ({g.m}, {g.n}) at size {k}")
    pair_masks = _pair_masks(dist)
    return next(_resolving_subsets(range(1, total), k, pair_masks), None) is not None
