"""Reference implementations for the tests, kept slow and independent.

:class:`Host` is a graph on the vertices 0..N-1 with the two methods the
oracle reads a host through, ``vertex_count()`` and ``adjacency()``, and
nothing else; :func:`path`, :func:`cycle` and :func:`star` build the small
hosts the adjacency-dimension tests search.

:func:`canonical_points` lists the point (x, y) of every vertex in
canonical order, straight from that order's definition.  From it and
:func:`stargrid.grid.star_distance`, :func:`code_matrix` builds the N x k
matrix of hop distances to a landmark list and :func:`distance_matrix` the
N x N one: closed-form twins of the code table's matrix that share no code
with it beyond the star distance.

:func:`sort_is_resolving` is the verifier :func:`stargrid.resolve.is_resolving`
used before it became a structural check.  It sorts the full N x k code
matrix, so it costs O(N k) memory and O(N k log N) time; keep it to small
grids.  Returns the same ``Verdict``: truthy, or the lexicographically first
colliding pair in canonical vertex order.  :func:`hash_is_resolving` returns
the same verdict in O(N) memory at the sizes ``stargrid basis`` builds: it
sorts one 64-bit linear hash per code and compares the codes of colliding
hashes exactly.

:func:`pairwise_min_l1` is the all-pairs scan ``CodeTable`` used for
``min_pairwise_l1`` before the closed form over landmark counts: O(N^2 k).

:func:`int_pair_masks` and :func:`combination_resolving_subsets` are the
oracle's subset scan before it tested blocks of candidates with numpy: one
Python int bitmask per vertex pair, and one candidate at a time, pruned at
the first pair it leaves unresolved.  :func:`int_resolving_subsets` yields
the same subsets depth first, cutting every prefix that some pair can no
longer meet; it is the reference the tests compare the oracle's scan with,
and it is itself checked against :func:`combination_resolving_subsets`.

Host references read a grid one vertex at a time, through
``GridGraph.neighbors``, which is independent of the ``adjacency()`` lists
the oracle reads; they read any other host, an aux graph or a
:class:`Host`, through ``adjacency()``, with indices for vertices.
:func:`python_bfs_distances` is :func:`stargrid.bfs_distances` before it
searched from every source at once with numpy: one pure-Python BFS per
source.  :func:`square_adjacency_table` is the oracle's adjacency table
built pair by pair: every ordered pair is looked up in the first vertex's
neighbour list.

:func:`adjacency_code`, :func:`is_adjacency_resolving` and
:func:`adjacency_resolved_by_neighborhoods` are the adjacency-code
definitions (Chartrand, Eroh, Johnson & Oellermann 2000) read straight from
a host's neighbours: the slow references for the oracle's adjacency search
and for the relay rule (``stargrid.resolve._relay_verdict``) on aux graphs.

:func:`brute_force_decode` is nearest-code decoding by broadcasting every
probe against the full code matrix, a (T, N, k) tensor, the naive batch
form of :func:`stargrid.decode` that :func:`stargrid.decode_batch` avoids.

:func:`bfs_classify_components` is :func:`stargrid.classify_components`
before it ran union-find over relay indices: a breadth-first search over
the auxiliary graph's integer vertices, read through ``adjacency()`` and
``right``.

:func:`transpose` is the (m, n) -> (n, m) grid isomorphism on vertex
objects, which :func:`stargrid.build_basis` once applied to the bases of
swapped grids; it now makes each vertex in the caller's orientation.
"""

import itertools
from collections import deque

import numpy as np

from stargrid import HUB, Cell, Col, ComponentReport, GridGraph, Hub, InputError, Row, Verdict
from stargrid.grid import star_distance


class Host:
    """An undirected graph on the vertices 0..N-1, read as the oracle reads
    a host."""

    def __init__(self, order: int, edges=()):
        self._near: list[set[int]] = [set() for _ in range(order)]
        for u, v in edges:
            self._near[u].add(v)
            self._near[v].add(u)

    def vertex_count(self) -> int:
        return len(self._near)

    def adjacency(self) -> list[list[int]]:
        return [sorted(near) for near in self._near]


def path(order: int) -> Host:
    return Host(order, [(i, i + 1) for i in range(order - 1)])


def cycle(order: int) -> Host:
    return Host(order, [(i, (i + 1) % order) for i in range(order)])


def star(leaves: int) -> Host:
    return Host(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def canonical_points(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The points (x, y) of the hub, the rows, the columns and the cells in
    row-major order: the canonical vertex order."""
    rows, cols = np.arange(1, m + 1), np.arange(1, n + 1)
    xs = np.concatenate([[0], rows, np.zeros(n, dtype=int), np.repeat(rows, n)])
    ys = np.concatenate([[0], np.zeros(m, dtype=int), cols, np.tile(cols, m)])
    return xs, ys


def _distances(xs, ys, a, b) -> np.ndarray:
    """uint8 hop distances from the points (xs, ys) to the points (a, b),
    one row per (x, y); each column is contiguous, which the all-pairs
    scans of the tests read faster."""
    sx = star_distance(np.asarray(a)[:, None], np.asarray(xs)[None, :])
    sy = star_distance(np.asarray(b)[:, None], np.asarray(ys)[None, :])
    return (sx + sy).astype(np.uint8).T


def code_matrix(g: GridGraph, landmarks) -> np.ndarray:
    """(N, k) uint8 hop distances to the landmarks, rows in canonical order;
    repeated landmarks are allowed."""
    a, b = np.array([g.point(w) for w in landmarks], dtype=int).reshape(-1, 2).T
    return _distances(*canonical_points(g.m, g.n), a, b)


def distance_matrix(g: GridGraph) -> np.ndarray:
    """(N, N) uint8 hop distances between all vertices, in canonical order."""
    xs, ys = canonical_points(g.m, g.n)
    return _distances(xs, ys, xs, ys)


def _first_collision(codes: np.ndarray) -> tuple[int, int] | None:
    """The lexicographically first pair of row positions holding equal rows."""
    codes = np.ascontiguousarray(codes)
    keyed = codes.view(np.dtype((np.void, codes.dtype.itemsize * codes.shape[1]))).ravel()
    order = np.argsort(keyed, kind="stable")
    srt = keyed[order]
    dup = srt[1:] == srt[:-1]
    if not dup.any():
        return None
    # the stable sort keeps equal codes in row order, so the start with the
    # smallest row begins the first colliding pair
    starts = np.flatnonzero(dup)
    best = starts[int(np.argmin(order[starts]))]
    return int(order[best]), int(order[best + 1])


def sort_is_resolving(g: GridGraph, landmarks) -> Verdict:
    """Resolution check by sorting the rows of the code matrix."""
    pair = _first_collision(code_matrix(g, landmarks))
    if pair is None:
        return Verdict(True)
    return Verdict(False, (g.vertex_at(pair[0]), g.vertex_at(pair[1])))


def hash_is_resolving(g: GridGraph, landmarks) -> Verdict:
    """:func:`sort_is_resolving`'s verdict and witness in O(N) memory.

    With random uint64 weights h_w, vertex (x, y) hashes its code to
    H = R[x] + C[y] mod 2^64, where R[x] = sum_w h_w s(x, a_w) over the
    landmarks' points (a_w, b_w) and C likewise.  R[0] sums the h_w with
    a_w != 0, and R[x] for x >= 1 is the sum of the h_w with a_w = 0 plus
    twice those with a_w not in {0, x}: O(m + k) in all.  Equal codes hash equally,
    so sorting the N hashes finds every collision; the vertices whose hash
    collides have their codes compared exactly, in canonical order, and the
    first colliding pair among them is the witness.  The weights move only
    the time, never the answer.
    """
    m, n = g.m, g.n
    a, b = np.array([g.point(w) for w in landmarks], dtype=np.intp).reshape(-1, 2).T
    h = np.random.default_rng(14).integers(0, 2**64, size=len(a), dtype=np.uint64)

    def line_hash(points, size):
        on = np.zeros(size + 1, dtype=np.uint64)
        np.add.at(on, points, h)  # wraps mod 2^64
        centre, off = on[0], h.sum(dtype=np.uint64) - on[0]
        out = centre + np.uint64(2) * (off - on)
        out[0] = off
        return out

    with np.errstate(over="ignore"):
        R, C = line_hash(a, m), line_hash(b, n)
        # canonical order: the hub and the rows, the columns, then the cells
        hashes = np.empty(g.vertex_count(), dtype=np.uint64)
        hashes[:m + 1] = R + C[0]
        hashes[m + 1:m + n + 1] = R[0] + C[1:]
        np.add(R[1:, None], C[1:], out=hashes[m + n + 1:].reshape(m, n))
    order = np.argsort(hashes)
    srt = hashes[order]
    del hashes
    same = np.flatnonzero(srt[1:] == srt[:-1])
    suspects = np.unique(np.concatenate([order[same], order[same + 1]]))
    vertices = [g.vertex_at(int(i)) for i in suspects]
    points = np.array([g.point(v) for v in vertices], dtype=np.intp).reshape(-1, 2).T
    pair = _first_collision(_distances(*points, a, b))
    if pair is None:
        return Verdict(True)
    return Verdict(False, (vertices[pair[0]], vertices[pair[1]]))


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


def _neighbourhoods(host) -> dict:
    """Each vertex's set of neighbours, vertices in host order: a grid's
    vertex objects through ``neighbors``, any other host's indices through
    ``adjacency()``."""
    if isinstance(host, GridGraph):
        return {v: set(host.neighbors(v)) for v in host.vertices()}
    return {v: set(near) for v, near in enumerate(host.adjacency())}


def _neighbour_lists(host) -> list[list[int]]:
    """Each vertex's neighbour indices in increasing order, vertices in
    index order, from :func:`_neighbourhoods`."""
    hoods = _neighbourhoods(host)
    index = {v: i for i, v in enumerate(hoods)}
    return [sorted(index[w] for w in near) for near in hoods.values()]


def python_bfs_distances(host) -> np.ndarray:
    """(N, N) uint8 hop counts in index order, 255 where unreachable."""
    adj = _neighbour_lists(host)
    total = len(adj)
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
    """The host's distances truncated at 2, in index order."""
    adj = _neighbour_lists(host)
    total = len(adj)
    table = np.full((total, total), 2, dtype=np.uint8)
    for x in range(total):
        for y in range(total):
            if x != y and y in adj[x]:
                table[x, y] = 1
    np.fill_diagonal(table, 0)
    return table


def bfs_classify_components(aux) -> ComponentReport:
    """Connected components by BFS, labeled path (with order) or non-path."""
    adj = aux.adjacency()
    vertices = range(len(adj))
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


def _landmark_tuple(S) -> tuple:
    lm = tuple(S)
    if not lm:
        raise InputError("landmark set must be nonempty")
    return lm


def _truncated_code(near: set, v, lm: tuple) -> tuple[int, ...]:
    return tuple(0 if v == w else (1 if w in near else 2) for w in lm)


def adjacency_code(host, v, S) -> tuple[int, ...]:
    """Distance-truncated-at-2 code of v against the ordered landmarks S: an
    entry is 0 exactly when v is that landmark, 1 when adjacent, else 2."""
    return _truncated_code(_neighbourhoods(host)[v], v, _landmark_tuple(S))


def is_adjacency_resolving(host, U, S) -> Verdict:
    """Check adjacency-code injectivity over the vertex subset U; the witness
    is the lexicographically first colliding pair in the host's vertex
    order."""
    lm = _landmark_tuple(S)
    hoods = _neighbourhoods(host)
    position = {v: i for i, v in enumerate(hoods)}
    members = sorted(U, key=position.__getitem__)
    first_seen: dict[tuple[int, ...], int] = {}
    best: tuple[int, int] | None = None
    for idx, v in enumerate(members):
        prev = first_seen.setdefault(_truncated_code(hoods[v], v, lm), idx)
        if prev != idx and (best is None or (prev, idx) < best):
            best = (prev, idx)
    if best is None:
        return Verdict(True)
    return Verdict(False, (members[best[0]], members[best[1]]))


def adjacency_resolved_by_neighborhoods(host, U, S) -> bool:
    """Equivalent formulation: N(v) & S is distinct for every v in U \\ S.
    A vertex of U in S is told apart by its own zero entry."""
    in_s = set(_landmark_tuple(S))
    hoods = _neighbourhoods(host)
    seen: set[frozenset] = set()
    for v in U:
        if v in in_s:
            continue
        sig = frozenset(in_s & hoods[v])
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
