"""Channel assignment and per-link symbol-rate optimization.

The network objective is the summed semantic spectral efficiency over all
served users, in units of the source's suts-per-word ratio. It decouples
into (a) a per-(user, channel) scan for the symbols-per-word count k that
maximizes similarity/k under the similarity and SE floors, and (b) a
maximum-weight bipartite matching of users to channels over those per-pair
optima, solved by shortest augmenting path. Pairs that cannot meet the
floors carry weight 0; the matching may then leave such users unserved,
which is reported as an SE contribution of exactly 0.

Conventional bit-pipe baselines go through the same matching with weights
equal to their transformed semantic SE (bit SE divided by bits per word).
All weights and totals here are normalized, i.e. expressed per unit of
``SourceStats.info_per_word``; the reporting layer applies that scale.

``brute_force_allocation`` enumerates every injective user-to-channel map
jointly with every per-user k and exists purely as a test oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .link_adaptation import CqiTable, SystemKind, shannon_se, table_se
from .metrics import TransformFactor, require_finite_fields
from .similarity import SimilaritySurface

# largest joint k-combination tensor the oracle materializes at once;
# beyond this it iterates the first user's k and holds K**(n-1) floats
_JOINT_BLOCK_LIMIT = 1 << 22


@dataclass(frozen=True)
class Constraints:
    """Feasibility floors for a served link."""

    k_max: int = 20
    similarity_threshold: float = 0.9
    sse_threshold: float = 0.025  # normalized, suts/s/Hz per unit info_per_word

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if not 0.0 <= self.similarity_threshold <= 1.0:
            raise ValueError(
                f"similarity_threshold must be in [0, 1], got {self.similarity_threshold}"
            )
        if self.sse_threshold < 0:
            raise ValueError(f"sse_threshold must be >= 0, got {self.sse_threshold}")


@dataclass(frozen=True)
class PairPlan:
    """Best plan for one (user, channel) pair.

    ``weight`` is the normalized SE similarity/k, or 0 if no k satisfies
    the floors (then ``k`` is None and ``feasible`` False).
    """

    user: int
    channel: int
    k: int | None
    similarity: float
    weight: float
    feasible: bool


@dataclass(frozen=True)
class Assignment:
    """A partial user-to-channel matching and its objective value.

    ``pairs`` holds (user, channel) tuples sorted by user, each user and
    each channel appearing at most once. ``total_weight`` is the plain
    left-to-right sum of the matched weights in that order.
    """

    pairs: tuple
    total_weight: float
    per_user: tuple = field(default_factory=tuple)


def best_pair_plan(
    surface: SimilaritySurface, snr_db: float, cons: Constraints,
    user: int = -1, channel: int = -1,
) -> PairPlan:
    """Scan k = 1..k_max for the feasible k maximizing similarity/k.

    Ties break toward smaller k (same SE, less latency); with both floors at
    0 a pair of similarity 0 is feasible at k = 1 with weight 0. Reference
    scalar implementation; ``build_pair_plans`` is the vectorized equivalent.
    """
    _require_k_coverage(surface, cons.k_max)
    best_k, best_xi, best_w = None, 0.0, 0.0
    for k in range(1, cons.k_max + 1):
        xi = surface.query(k, snr_db)
        w = xi / k
        ok = xi >= cons.similarity_threshold and w >= cons.sse_threshold
        if ok and (best_k is None or w > best_w):
            best_k, best_xi, best_w = k, xi, w
    if best_k is None:
        return PairPlan(user, channel, None, 0.0, 0.0, False)
    return PairPlan(user, channel, best_k, best_xi, best_w, True)


def _require_k_coverage(surface: SimilaritySurface, k_max: int) -> None:
    if not surface.covers_k_range(k_max):
        raise ValueError(f"surface does not tabulate every k in 1..{k_max}")


class PlanArrays(NamedTuple):
    """Best plan of every pair of a link-matrix stack, shape (..., users, channels).

    Where no k meets the floors, ``k`` is 0, ``similarity`` and ``weight``
    are 0 and ``feasible`` is False.
    """

    k: np.ndarray
    similarity: np.ndarray
    weight: np.ndarray
    feasible: np.ndarray

    def plan(self, user: int, channel: int) -> PairPlan:
        """The ``PairPlan`` of one pair of a single drop's arrays."""
        k = int(self.k[user, channel])
        return PairPlan(user, channel, k or None, float(self.similarity[user, channel]),
                        float(self.weight[user, channel]), bool(self.feasible[user, channel]))


def build_pair_plans(
    snr_db: np.ndarray, surface: SimilaritySurface, cons: Constraints
) -> PlanArrays:
    """Per-pair optimal plans for SNR of shape (..., users, channels).

    Scans k = 1..k_max with one surface-row interpolation per k over the
    whole array, keeping the first k of the largest feasible weight, so
    ties break toward smaller k as in ``best_pair_plan``.
    """
    _require_k_coverage(surface, cons.k_max)
    snr = np.atleast_2d(np.asarray(snr_db, dtype=float))
    best_k = np.zeros(snr.shape, dtype=int)
    best_xi = np.zeros(snr.shape)
    best_w = np.zeros(snr.shape)
    feasible = np.zeros(snr.shape, dtype=bool)
    for k in range(1, cons.k_max + 1):
        xi = surface.query(k, snr)
        w = xi / k
        take = (xi >= cons.similarity_threshold) & (w >= cons.sse_threshold)
        take &= (w > best_w) | ~feasible
        np.copyto(best_k, k, where=take)
        np.copyto(best_xi, xi, where=take)
        np.copyto(best_w, w, where=take)
        feasible |= take
    return PlanArrays(best_k, best_xi, best_w, feasible)


def weight_matrix(plans: PlanArrays) -> np.ndarray:
    return plans.weight


def _min_cost_rect(cost: list[list[float]]) -> list[int]:
    """Minimum-cost assignment of every row of a rectangular cost matrix.

    ``cost`` is a list of rows with no more rows than columns. Returns
    ``col_of_row``. Shortest augmenting path (Crouse, "On implementing 2D
    rectangular assignment algorithms", IEEE TAES 2016): each row grows one
    Dijkstra search over the columns not yet reached, preferring a free
    column on ties so the search ends early, and the duals are updated once
    per augmentation. O(rows^2 * cols) in the worst case.
    """
    inf = float("inf")
    n, m = len(cost), len(cost[0])
    u = [0.0] * n
    v = [0.0] * m
    col_of_row = [-1] * n
    row_of_col = [-1] * m
    path = [-1] * m
    for cur in range(n):
        dist = [inf] * m
        # Scan high to low, as Crouse's reference code does. A tying free
        # column replaces the current pick, so the lower-numbered one wins;
        # an appended channel then seldom displaces a tied optimum, and the
        # per-drop totals of a channel sweep stay non-decreasing to the bit.
        remaining = list(range(m - 1, -1, -1))
        rows_seen = []
        cols_seen = []
        i = cur
        min_val = 0.0
        while True:
            rows_seen.append(i)
            row = cost[i]
            base = min_val - u[i]
            lowest = inf
            index = -1
            for it, j in enumerate(remaining):
                r = base + row[j] - v[j]
                d = dist[j]
                if r < d:
                    path[j] = i
                    dist[j] = d = r
                if d <= lowest and (d < lowest or row_of_col[j] < 0):
                    lowest = d
                    index = it
            min_val = lowest
            j = remaining[index]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            i = row_of_col[j]
            if i < 0:
                break
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - dist[col_of_row[i]]
        for c in cols_seen:
            v[c] -= min_val - dist[c]
        while True:  # augment along the path back to row ``cur``
            i = path[j]
            row_of_col[j] = i
            col_of_row[i], j = j, col_of_row[i]
            if i == cur:
                break
    return col_of_row


def hungarian_max(weights) -> Assignment:
    """Maximum-weight matching of a non-negative weight matrix.

    Solved as a minimum-cost assignment of the negated weights on the
    rectangular matrix, transposed so that rows are the shorter side.
    Matched pairs of zero weight are reported as unmatched. Only the
    optimal total is contractual; which optimal matching is returned is not.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.size == 0:
        raise ValueError("weights must be a non-empty 2-D matrix")
    lo, hi = w.min(), w.max()
    if not (0.0 <= lo and hi < np.inf):  # NaN fails both comparisons
        raise ValueError("weights must be finite and non-negative")
    n, m = w.shape
    flip = n > m
    col_of_row = _min_cost_rect((-(w.T if flip else w)).tolist())
    vals = w.tolist()
    pairs = []
    total = 0.0
    for i, j in sorted(zip(col_of_row, range(m))) if flip else enumerate(col_of_row):
        if vals[i][j] > 0.0:
            pairs.append((i, j))
            total += vals[i][j]
    return Assignment(pairs=tuple(pairs), total_weight=total)


def allocate_semantic(
    snr_db: np.ndarray, surface: SimilaritySurface, cons: Constraints
) -> Assignment:
    """Jointly optimal service plan: per-pair k scan, then channel matching."""
    plans = build_pair_plans(snr_db, surface, cons)
    match = hungarian_max(weight_matrix(plans))
    per_user = tuple(plans.plan(i, j) for i, j in match.pairs)
    return Assignment(match.pairs, match.total_weight, per_user)


def semantic_drops(
    snr_db: np.ndarray, surface: SimilaritySurface, cons: Constraints
) -> Iterator[Assignment]:
    """``allocate_semantic`` of each drop of a (drops, users, channels) stack.

    The k scan runs at once over the whole stack. Each drop is then matched
    on its own as the result is iterated, so one matching at a time is held.
    No per-pair plans are built.
    """
    weights = weight_matrix(build_pair_plans(snr_db, surface, cons))
    return (hungarian_max(w) for w in weights)


def conventional_weights(
    snr_db: np.ndarray,
    snr_linear: np.ndarray,
    system: SystemKind,
    tables: dict,
    tf: TransformFactor,
    cons: Constraints,
) -> np.ndarray:
    """Normalized semantic-SE weights of a bit-pipe system, floors applied."""
    if system is SystemKind.IDEAL:
        se_bits = shannon_se(snr_linear)
    elif system in (SystemKind.FOUR_G, SystemKind.FIVE_G):
        se_bits = table_se(tables[system], snr_db)
    else:
        raise ValueError(f"no bit-domain baseline for {system}")
    w = np.asarray(se_bits, dtype=float) / tf.bits_per_word
    return np.where(w >= cons.sse_threshold, w, 0.0)


def allocate_conventional(
    snr_db: np.ndarray,
    snr_linear: np.ndarray,
    system: SystemKind,
    tables: dict[SystemKind, CqiTable],
    tf: TransformFactor,
    cons: Constraints,
) -> Assignment:
    """Best channel matching for an ideal/4G/5G system, in normalized S-SE."""
    w = conventional_weights(snr_db, snr_linear, system, tables, tf, cons)
    return hungarian_max(np.atleast_2d(w))


def conventional_drops(
    snr_db: np.ndarray,
    snr_linear: np.ndarray,
    system: SystemKind,
    tables: dict[SystemKind, CqiTable],
    tf: TransformFactor,
    cons: Constraints,
) -> Iterator[Assignment]:
    """``allocate_conventional`` of each drop of a (drops, users, channels) stack.

    The weights are computed at once; the drops are matched as the result
    is iterated.
    """
    weights = conventional_weights(snr_db, snr_linear, system, tables, tf, cons)
    return (hungarian_max(w) for w in weights)


def brute_force_allocation(
    snr_db: np.ndarray, surface: SimilaritySurface, cons: Constraints
) -> Assignment:
    """Exhaustive joint optimum over assignments and per-user k. Test oracle.

    Enumerates every injective map between users and channels together with
    every k combination for the mapped users. Bounded to 6x6 links and
    k_max 20.
    """
    snr = np.atleast_2d(np.asarray(snr_db, dtype=float))
    n, m = snr.shape
    if n > 6 or m > 6 or cons.k_max > 20:
        raise ValueError(f"instance {n}x{m} with k_max {cons.k_max} exceeds oracle bound")
    _require_k_coverage(surface, cons.k_max)
    ks = np.arange(1, cons.k_max + 1)
    xi = np.stack([surface.query(int(k), snr) for k in ks])  # (K, N, M)
    w = xi / ks[:, None, None]
    ok = (xi >= cons.similarity_threshold) & (w >= cons.sse_threshold)
    value = np.where(ok, w, 0.0)  # value[k-1, user, channel]

    if n <= m:
        maps = [list(zip(range(n), combo)) for combo in itertools.permutations(range(m), n)]
    else:
        maps = [list(zip(combo, range(m))) for combo in itertools.permutations(range(n), m)]

    best_total = -1.0
    best_pairs: list[tuple[int, int]] = []
    best_kvec: tuple[int, ...] = ()
    n_mapped = min(n, m)
    for pairs in maps:
        per_pair = [value[:, i, j] for i, j in pairs]
        if cons.k_max ** n_mapped <= _JOINT_BLOCK_LIMIT:
            totals = per_pair[0]
            for vals in per_pair[1:]:
                totals = (totals[:, None] + vals[None, :]).ravel()
            flat_idx = int(np.argmax(totals))
            total = float(totals[flat_idx])
            kvec = np.unravel_index(flat_idx, (cons.k_max,) * n_mapped)
        else:
            total = -1.0
            kvec = ()
            for k0 in range(cons.k_max):
                totals = np.asarray([per_pair[0][k0]])
                for vals in per_pair[1:]:
                    totals = (totals[:, None] + vals[None, :]).ravel()
                fi = int(np.argmax(totals))
                if float(totals[fi]) > total:
                    total = float(totals[fi])
                    kvec = (k0,) + np.unravel_index(fi, (cons.k_max,) * (n_mapped - 1))
        if total > best_total:
            best_total = total
            best_pairs = pairs
            best_kvec = tuple(int(x) for x in kvec)

    kept = []
    for (i, j), kz in zip(best_pairs, best_kvec):
        if value[kz, i, j] > 0.0:
            kept.append((i, j, int(ks[kz])))
    kept.sort()
    total = 0.0
    per_user = []
    pairs_out = []
    for i, j, k in kept:
        kz = k - 1
        total += float(value[kz, i, j])
        pairs_out.append((i, j))
        per_user.append(PairPlan(i, j, k, float(xi[kz, i, j]), float(value[kz, i, j]), True))
    return Assignment(tuple(pairs_out), total, tuple(per_user))
