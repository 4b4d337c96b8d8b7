"""Hop-count localization demo: code tables, nearest-code decoding, noise.

A verified landmark set assigns every vertex a unique hop-count signature.
The sink can then identify a sender from a (possibly perturbed) signature
by nearest-code lookup.  Ties are surfaced, never broken arbitrarily: a
localization system has to distinguish "confidently wrong" from
"ambiguous".
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .grid import GridGraph, Vertex, coordinates, vertex_name
from .resolve import ResolvingSet, code_matrix, is_resolving

_METRICS = ("hamming", "l1")


@dataclass(frozen=True)
class NoiseModel:
    """Independent per-coordinate hop noise.

    Each coordinate is perturbed with probability ``flip_probability`` by
    +-1 hop (equal odds), clamped at 0.  The seed fixes the whole trial
    stream; each trial draws from a substream derived from (seed, trial
    index), so results do not depend on how trials are sharded.
    """

    flip_probability: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.flip_probability <= 1.0:
            raise InputError(
                f"flip probability must be in [0, 1], got {self.flip_probability}"
            )


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

    The landmarks are re-checked against this grid: a set verified on
    another grid, or flagged ``verified`` by hand, is refused rather than
    allowed to make decoding silently ambiguous.

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

    def __init__(self, g: GridGraph, landmarks: ResolvingSet):
        if not isinstance(landmarks, ResolvingSet) or not landmarks.verified:
            raise InputError("code tables require a verified resolving set")
        verdict = is_resolving(g, landmarks)
        if not verdict:
            x, y = verdict.witness
            raise InputError(
                f"landmark set does not resolve grid ({g.m}, {g.n}): "
                f"{vertex_name(x)} and {vertex_name(y)} share a code"
            )
        self.graph = g
        self.landmarks = landmarks
        self.matrix = code_matrix(g, landmarks.landmarks).astype(np.int16)
        self.min_pairwise_l1 = self._min_pairwise_l1()

    def __len__(self) -> int:
        return self.graph.vertex_count()

    @property
    def code_length(self) -> int:
        return self.matrix.shape[1]

    def code_of(self, v: Vertex) -> tuple[int, ...]:
        return tuple(int(x) for x in self.matrix[self.graph.index_of(v)])

    def _min_pairwise_l1(self) -> int:
        """Closed form from the case table in the class docstring."""
        m, n, k = self.graph.m, self.graph.n, len(self.landmarks)
        x, y = np.array([coordinates(w) for w in self.landmarks], dtype=np.intp).T
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


def code_table(g: GridGraph, landmarks: ResolvingSet) -> CodeTable:
    """Build the signature table for a verified landmark set."""
    return CodeTable(g, landmarks)


def decode(code, table: CodeTable, metric: str = "hamming") -> DecodeResult:
    """Nearest table entry under Hamming or L1 distance.

    Hamming counts differing coordinates; L1 sums hop errors, which suits
    magnitude-structured perturbations.  A unique minimum decodes to that
    vertex; otherwise all tied vertices are reported.  Code entries must be
    Python or numpy integers that fit int16, else it raises InputError.
    """
    best, hits = _nearest(code, table, metric)
    vertex_at = table.graph.vertex_at
    if hits.shape[0] == 1:
        return DecodeResult(vertex_at(int(hits[0])), best)
    return DecodeResult(None, best, ties=tuple(vertex_at(int(i)) for i in hits))


def _nearest(code, table: CodeTable, metric: str) -> tuple[int, np.ndarray]:
    """Smallest distance from the probe to a table code, and the canonical
    indices of the vertices at that distance."""
    if metric not in _METRICS:
        raise InputError(f"metric must be one of {_METRICS}, got {metric!r}")
    probe = np.asarray(tuple(code))
    if probe.ndim != 1 or probe.shape[0] != table.code_length:
        raise InputError(
            f"code length {probe.shape} does not match table width {table.code_length}"
        )
    if probe.dtype.kind not in "iu":
        raise InputError(f"code entries must be integers, got {probe.dtype}")
    arr = probe.astype(np.int16)
    wrapped = arr != probe
    if np.count_nonzero(wrapped):
        raise InputError(f"code entry {probe[wrapped][0]} does not fit int16")
    # int32 sums of at most 10^4 int16 terms (k <= N, N k <= MAX_TABLE_CELLS)
    # are exact, and faster than numpy's default int64
    if metric == "hamming":
        dists = (table.matrix != arr).sum(axis=1, dtype=np.int32)
    else:
        dists = np.abs(table.matrix - arr).sum(axis=1, dtype=np.int32)
    best = int(dists.min())
    return best, np.flatnonzero(dists == best)


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
        return {
            "m": self.m,
            "n": self.n,
            "basis_size": self.basis_size,
            "metric": self.metric,
            "p": self.p,
            "trials": self.trials,
            "seed": self.seed,
            "misidentification_rate": self.misidentification_rate,
            "ambiguity_rate": self.ambiguity_rate,
            "min_pairwise_l1": self.min_pairwise_l1,
        }


def _trial_rng(seed: int, trial: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{trial}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def simulate(
    g: GridGraph,
    landmarks: ResolvingSet,
    noise: NoiseModel,
    trials: int,
    metric: str = "hamming",
    first_trial: int = 0,
) -> SimulationResult:
    """Round-robin decode trials under the noise model.

    Trial t perturbs the ideal code of vertex t mod N and decodes it; the
    reported rates are wrong decodes per trial and ties per trial.  With
    trials a multiple of N the rates are exact vertex-set averages.

    Bit-reproducible for a fixed seed: each trial draws from a substream
    keyed by (seed, trial index) alone, so a run over [0, trials) equals
    the aggregate of disjoint shards (``first_trial`` is the shard offset).
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    if first_trial < 0:
        raise InputError("first_trial must be >= 0")
    table = code_table(g, landmarks)
    total = len(table)
    p = noise.flip_probability
    wrong = 0
    ties = 0
    for t in range(first_trial, first_trial + trials):
        idx = t % total
        ideal = table.matrix[idx]
        if p == 0.0:
            noisy = ideal
        else:
            rng = _trial_rng(noise.seed, t)
            perturbed = []
            for entry in ideal.tolist():
                if rng.random() < p:
                    entry += 1 if rng.random() < 0.5 else -1
                    if entry < 0:
                        entry = 0
                perturbed.append(entry)
            noisy = perturbed
        _, hits = _nearest(noisy, table, metric)
        if hits.shape[0] > 1:
            ties += 1
        elif hits[0] != idx:
            wrong += 1
    return SimulationResult(
        m=g.m,
        n=g.n,
        basis_size=len(landmarks),
        metric=metric,
        p=p,
        trials=trials,
        seed=noise.seed,
        misidentification_rate=wrong / trials,
        ambiguity_rate=ties / trials,
        min_pairwise_l1=table.min_pairwise_l1,
    )
