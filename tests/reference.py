"""Reference implementations for the tests, kept slow and independent.

:func:`sort_is_resolving` is the verifier :func:`stargrid.resolve.is_resolving`
used before it became a structural check.  It sorts the full N x k code
matrix, so it costs O(N k) memory and O(N k log N) time; keep it to small
grids.  Returns the same ``Verdict``: truthy, or the lexicographically first
colliding pair in canonical vertex order.

:func:`pairwise_min_l1` is the all-pairs scan ``CodeTable`` used for
``min_pairwise_l1`` before the closed form over landmark counts: O(N^2 k).

:func:`int_pair_masks` and :func:`combination_resolving_subsets` are the
oracle's subset scan before it tested blocks of candidates with numpy: one
Python int bitmask per vertex pair, and one candidate at a time, pruned at
the first pair it leaves unresolved.  :func:`int_resolving_subsets` yields
the same subsets depth first, cutting every prefix that some pair can no
longer meet; it is the reference the tests compare the oracle's scan with,
and it is itself checked against :func:`combination_resolving_subsets`.

:func:`python_bfs_distances` is :func:`stargrid.bfs_distances` before it
searched from every source at once with numpy: one pure-Python BFS per
source over neighbour lists indexed with ``index_of``.

:func:`square_adjacency_table` is the oracle's adjacency table built pair
by pair: every ordered pair is looked up in the first vertex's neighbour
list, where the oracle scatters each list into its row by ``index_of``.

:func:`adjacency_code`, :func:`is_adjacency_resolving` and
:func:`adjacency_resolved_by_neighborhoods` are the adjacency-code
definitions (Chartrand, Eroh, Johnson & Oellermann 2000) read straight from
a host's ``neighbors``: the slow references for the oracle's adjacency
search and for :func:`stargrid.check_relays_resolved`.

:func:`brute_force_decode` is nearest-code decoding by broadcasting every
probe against the full code matrix, a (T, N, k) tensor, the naive batch
form of :func:`stargrid.decode` that :func:`stargrid.decode_batch` avoids.

:func:`bfs_classify_components` is :func:`stargrid.classify_components`
before it ran union-find over relay indices: a breadth-first search over
the auxiliary graph's integer vertices, read through its public
``vertices()``, ``right`` and ``neighbors``.

:func:`transpose` is the (m, n) -> (n, m) grid isomorphism on vertex
objects, which :func:`stargrid.build_basis` once applied to the bases of
swapped grids; it now makes each vertex in the caller's orientation.
"""

import itertools
from collections import deque

import numpy as np

from stargrid import (
    HUB, Cell, Col, ComponentReport, GridGraph, Hub, InputError, Row, Verdict, code_matrix,
)


def sort_is_resolving(g: GridGraph, landmarks) -> Verdict:
    """Resolution check by sorting the rows of the code matrix."""
    codes = np.ascontiguousarray(code_matrix(g, tuple(landmarks)))
    total, k = codes.shape
    keyed = codes.view(np.dtype((np.void, codes.dtype.itemsize * k))).ravel()
    order = np.argsort(keyed, kind="stable")
    srt = keyed[order]
    dup = srt[1:] == srt[:-1]
    if not dup.any():
        return Verdict(True)
    # the stable sort keeps equal codes in index order, so the start with the
    # smallest vertex index begins the first colliding pair
    starts = np.flatnonzero(dup)
    best = starts[int(np.argmin(order[starts]))]
    x, y = int(order[best]), int(order[best + 1])
    return Verdict(False, (g.vertex_at(x), g.vertex_at(y)))


def pairwise_min_l1(g: GridGraph, landmarks) -> int:
    """Smallest L1 distance between the codes of two distinct vertices."""
    mat = code_matrix(g, tuple(landmarks)).astype(np.int16)
    total = mat.shape[0]
    block = max(1, 2_000_000 // (total * mat.shape[1]))
    best = np.iinfo(np.int64).max
    for lo in range(0, total, block):
        hi = min(total, lo + block)
        diff = np.abs(mat[lo:hi, None, :] - mat[None, :, :]).sum(axis=2, dtype=np.int64)
        diff[np.arange(hi - lo), np.arange(lo, hi)] = best
        best = min(best, int(diff.min()))
    return best


def brute_force_decode(g: GridGraph, landmarks, probes, metric: str):
    """Per probe, the smallest Hamming or L1 distance to a vertex's code and
    the canonical indices of every vertex at that distance."""
    codes = code_matrix(g, tuple(landmarks)).astype(np.int64)
    diff = np.asarray(probes, dtype=np.int64)[:, None, :] - codes[None, :, :]
    dists = (diff != 0).sum(axis=2) if metric == "hamming" else np.abs(diff).sum(axis=2)
    best = dists.min(axis=1)
    return [(int(d), tuple(np.flatnonzero(row == d).tolist())) for d, row in zip(best, dists)]


def int_pair_masks(dist) -> tuple[int, ...]:
    """One Python int per vertex pair: which vertices tell the pair apart,
    the pairs with the fewest resolvers first (ties in (x, y) order)."""
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


def int_resolving_subsets(indices, k: int, pair_masks):
    """Yield, in lexicographic order, every k-subset of ``indices`` (as an
    index tuple) that meets every pair mask.

    Depth first over positions in ``indices``.  Each prefix carries the
    pairs it leaves unmet, as masks of positions.  A pair whose last
    position comes before the next pick would miss the prefix together with
    every index still allowed, so the next pick stops at the smallest such
    last position; the final pick must meet every unmet pair."""
    indices = tuple(indices)
    total = len(indices)
    # unmet pairs stay sorted by last position, so the first one bounds the
    # next pick
    positions = sorted(
        (sum(1 << p for p, i in enumerate(indices) if pm >> i & 1) for pm in pair_masks),
        key=int.bit_length,
    )

    def extend(prefix, start, unmet):
        left = k - len(prefix)
        if left == 0:
            if not unmet:
                yield prefix
            return
        if left == 1:
            common = (1 << total) - 1
            for pm in unmet:
                common &= pm
            for p in range(start, total):
                if common >> p & 1:
                    yield prefix + (indices[p],)
            return
        stop = min(total - left, unmet[0].bit_length() - 1) if unmet else total - left
        for p in range(start, stop + 1):
            bit = 1 << p
            yield from extend(prefix + (indices[p],), p + 1, [pm for pm in unmet if not pm & bit])

    yield from extend((), 0, positions)


def combination_resolving_subsets(indices, k: int, pair_masks):
    """:func:`int_resolving_subsets` by testing every k-subset in turn."""
    bits = [1 << i for i in indices]
    for combo in itertools.combinations(bits, k):
        subset = sum(combo)  # the bits are distinct, so this is their union
        for pm in pair_masks:
            if not subset & pm:
                break
        else:
            yield tuple(b.bit_length() - 1 for b in combo)


def python_bfs_distances(g: GridGraph) -> np.ndarray:
    """(N, N) uint8 hop counts in canonical order, 255 where unreachable."""
    total = g.vertex_count()
    adj = [[g.index_of(w) for w in g.neighbors(v)] for v in g.vertices()]
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


def square_adjacency_table(host) -> np.ndarray:
    """The host's distances truncated at 2, in ``host.vertices()`` order."""
    verts = list(host.vertices())
    total = len(verts)
    table = np.full((total, total), 2, dtype=np.uint8)
    for x, v in enumerate(verts):
        near = host.neighbors(v)
        for y, w in enumerate(verts):
            if v != w and w in near:
                table[x, y] = 1
    np.fill_diagonal(table, 0)
    return table


def bfs_classify_components(aux) -> ComponentReport:
    """Connected components by BFS, labeled path (with order) or non-path."""
    vertices = aux.vertices()
    adj = {v: aux.neighbors(v) for v in vertices}
    seen: set = set()
    path_orders: list[int] = []
    non_path = 0
    isolated_right = sum(1 for v in aux.right if not adj[v])
    max_degree = max((len(adj[v]) for v in vertices), default=0)
    for start in vertices:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        degrees = [len(adj[v]) for v in comp]
        edge_count = sum(degrees) // 2
        if max(degrees, default=0) <= 2 and edge_count == len(comp) - 1:
            path_orders.append(len(comp))
        else:
            non_path += 1
    path_orders.sort(reverse=True)
    return ComponentReport(tuple(path_orders), non_path, isolated_right, max_degree)


def adjacency_code(host, v, S) -> tuple[int, ...]:
    """Distance-truncated-at-2 code of v against the ordered landmarks S: an
    entry is 0 exactly when v is that landmark, 1 when adjacent, else 2."""
    lm = tuple(S)
    if not lm:
        raise InputError("landmark set must be nonempty")
    near = set(host.neighbors(v))
    return tuple(0 if v == w else (1 if w in near else 2) for w in lm)


def is_adjacency_resolving(host, U, S) -> Verdict:
    """Check adjacency-code injectivity over the vertex subset U; the witness
    is the lexicographically first colliding pair in the host's vertex
    order."""
    lm = tuple(S)
    if not lm:
        raise InputError("landmark set must be nonempty")
    position = {v: i for i, v in enumerate(host.vertices())}
    members = sorted(U, key=position.__getitem__)
    first_seen: dict[tuple[int, ...], int] = {}
    best: tuple[int, int] | None = None
    for idx, v in enumerate(members):
        prev = first_seen.setdefault(adjacency_code(host, v, lm), idx)
        if prev != idx and (best is None or (prev, idx) < best):
            best = (prev, idx)
    if best is None:
        return Verdict(True)
    return Verdict(False, (members[best[0]], members[best[1]]))


def adjacency_resolved_by_neighborhoods(host, U, S) -> bool:
    """Equivalent formulation: N(v) & S is distinct for every v in U \\ S.
    A vertex of U in S is told apart by its own zero entry."""
    lm = tuple(S)
    if not lm:
        raise InputError("landmark set must be nonempty")
    in_s = set(lm)
    seen: set[frozenset] = set()
    for v in U:
        if v in in_s:
            continue
        sig = frozenset(in_s.intersection(host.neighbors(v)))
        if sig in seen:
            return False
        seen.add(sig)
    return True


def transpose(v):
    """Map a vertex through the (m, n) -> (n, m) grid isomorphism: the hub
    maps to itself, rows and columns swap roles, and cells flip their
    indices.  Involutive: ``transpose(transpose(v)) == v``."""
    if isinstance(v, Hub):
        return HUB
    if isinstance(v, Row):
        return Col(v.i)
    if isinstance(v, Col):
        return Row(v.j)
    if isinstance(v, Cell):
        return Cell(v.j, v.i)
    raise InputError(f"not a vertex: {v!r}")
