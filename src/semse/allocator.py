"""Channel assignment and per-link symbol-rate optimization.

The network objective is the summed semantic spectral efficiency over all
served users, in units of the source's suts-per-word ratio. It decouples
into (a) a per-(user, channel) scan for the symbols-per-word count k that
maximizes similarity/k under the similarity and SE floors, and (b) a
maximum-weight bipartite matching of users to channels over those per-pair
optima, solved by shortest augmenting path. Pairs that cannot meet the
floors carry weight 0; the matching may then leave such users unserved,
which is reported as an SE contribution of exactly 0.

Both steps run on arrays. A drop's semantic allocation is ``plans =
build_pair_plans(snr_db, surface, cons)``, then ``hungarian_max(plans.weight)``;
a matched pair (i, j) has k ``plans.k[i, j]`` and similarity
``plans.similarity[i, j]``. A stack of drops goes through
``semantic_weights`` and ``match_drops``.

``hungarian_max`` matches one drop. ``match_drops`` matches a stack of
drops: from ``_STACK_MIN_DROPS`` drops up it runs every drop's search at
once, with numpy over the drop axis, and below that it calls
``hungarian_max`` per drop. Both find each drop the same matching, so the
totals are bit-identical whichever runs.

Conventional bit-pipe baselines go through the same matching with weights
equal to their transformed semantic SE, ``metrics.equivalent_semantic_se``
of their bit SE. All weights and totals here are normalized, i.e. expressed
per unit of ``SourceStats.info_per_word``; the reporting layer applies that
scale. The exhaustive joint oracle the tests compare against lives in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .link_adaptation import SystemKind, shannon_se, table_se
from .metrics import SourceStats, TransformFactor, equivalent_semantic_se, require_finite_fields
from .similarity import SimilaritySurface


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
class Assignment:
    """A partial user-to-channel matching and its objective value.

    ``pairs`` holds (user, channel) tuples sorted by user, each user and
    each channel appearing at most once. ``total_weight`` is the plain
    left-to-right sum of the matched weights in that order.
    """

    pairs: tuple
    total_weight: float


def _require_k_coverage(surface: SimilaritySurface, k_max: int) -> None:
    if not surface.covers_k_range(k_max):
        raise ValueError(f"surface does not tabulate every k in 1..{k_max}")


def sse_at_k(surface: SimilaritySurface, k: int, located: tuple, cons: Constraints):
    """(similarity, normalized S-SE similarity/k, both floors met) of links at one k.

    ``located`` is ``surface.locate`` of the links' SNR.
    """
    xi = surface.interpolate(k, located)
    w = xi / k
    return xi, w, (xi >= cons.similarity_threshold) & (w >= cons.sse_threshold)


class PlanArrays(NamedTuple):
    """Best plan of every pair of a link-matrix stack, shape (..., users, channels).

    Where no k meets the floors, ``k`` is 0, ``similarity`` and ``weight``
    are 0 and ``feasible`` is False.
    """

    k: np.ndarray
    similarity: np.ndarray
    weight: np.ndarray
    feasible: np.ndarray


def build_pair_plans(
    snr_db: np.ndarray, surface: SimilaritySurface, cons: Constraints
) -> PlanArrays:
    """Per-pair optimal plans for SNR of shape (..., users, channels).

    Locates the SNR on the surface grid once, then scans k = 1..k_max with
    one surface-row evaluation per k over the whole array, keeping the
    first k of the largest feasible weight, so ties break toward smaller k
    (same SE, less latency). With both floors at 0 a pair of similarity 0
    is feasible at k = 1 with weight 0.
    """
    _require_k_coverage(surface, cons.k_max)
    snr = np.atleast_2d(np.asarray(snr_db, dtype=float))
    best_k = np.zeros(snr.shape, dtype=int)
    best_xi = np.zeros(snr.shape)
    best_w = np.zeros(snr.shape)
    feasible = np.zeros(snr.shape, dtype=bool)
    located = surface.locate(snr)
    for k in range(1, cons.k_max + 1):
        xi, w, take = sse_at_k(surface, k, located, cons)
        take &= (w > best_w) | ~feasible
        np.copyto(best_k, k, where=take)
        np.copyto(best_xi, xi, where=take)
        np.copyto(best_w, w, where=take)
        feasible |= take
    return PlanArrays(best_k, best_xi, best_w, feasible)


def weight_matrix(plans: PlanArrays) -> np.ndarray:
    return plans.weight


def _max_weight_rect(weights: list[list[float]]) -> list[int]:
    """Maximum-weight assignment of every row of a rectangular weight matrix.

    ``weights`` is a list of rows with no more rows than columns. Returns
    ``col_of_row``. Shortest augmenting path on the costs ``-weights``
    (Crouse, "On implementing 2D rectangular assignment algorithms", IEEE
    TAES 2016): each row grows one Dijkstra search over the columns not yet
    reached, preferring a free column on ties so the search ends early, and
    the duals are updated once per augmentation. O(rows^2 * cols) in the
    worst case. The reduced cost ``base - row[j] - v[j]`` is bit-identical
    to ``base + (-row[j]) - v[j]``, so no negated copy is made.
    """
    inf = float("inf")
    n, m = len(weights), len(weights[0])
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
            row = weights[i]
            base = min_val - u[i]
            lowest = inf
            index = -1
            for it, j in enumerate(remaining):
                r = base - row[j] - v[j]
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


def _max_weight_stack(weights: np.ndarray) -> np.ndarray:
    """``_max_weight_rect`` of every matrix of a (drops, rows, cols) stack.

    Each step of the scalar code runs once for all drops still searching,
    with numpy over the drop axis: the same float expressions, the same
    swap-remove scan order and tie rule (the last free tied column in scan
    order, else the first tied one), one dual update per augmentation. So
    every drop gets the scalar matching. Returns ``col_of_row``, shape
    (drops, rows).

    State is held drop-minor and flat, ``x[row_or_col * drops + drop]``, so
    each step gathers with one flat index and reduces over a leading axis.
    """
    n_drops, n, m = weights.shape
    drops = np.arange(n_drops)
    w = np.ascontiguousarray(weights.transpose(1, 2, 0)).reshape(-1)
    u = np.zeros(n * n_drops)
    v = np.zeros(m * n_drops)
    col_of_row = np.full(n * n_drops, -1)
    row_of_col = np.full(m * n_drops, -1)
    path = np.full(m * n_drops, -1)
    dist = np.empty(m * n_drops)
    rows_seen = np.empty(n * n_drops, dtype=bool)  # rows other than ``cur``
    cols_seen = np.empty(m * n_drops, dtype=bool)
    scan = np.arange(m - 1, -1, -1)
    pos = np.arange(m)[:, None]
    for cur in range(n):
        dist.fill(np.inf)
        rows_seen.fill(False)
        cols_seen.fill(False)
        remaining = np.repeat(scan, n_drops)  # [p * drops + d]: d's p-th column to scan
        min_val = np.zeros(n_drops)
        sink = np.empty(n_drops, dtype=int)  # the free column each search ends at
        active = drops
        i = np.full(n_drops, cur)
        for size in range(m, 0, -1):
            p = pos[:size]
            cols = remaining[p * n_drops + active]  # (size, active drops)
            at = cols * n_drops + active
            base = min_val[active] - u[i * n_drops + active]
            r = base - w[at + i * (m * n_drops)] - v[at]
            d = dist[at]
            better = r < d
            path[at] = np.where(better, i, path[at])
            d = np.where(better, r, d)
            dist[at] = d
            # tied free columns key above size, later ones higher; other tied
            # columns key 1..size, earlier ones higher; untied ones key 0
            tied = d == d.min(axis=0)
            key = tied * (size - p + (row_of_col[at] < 0) * (2 * p + 1))
            top = key.max(axis=0)
            index = np.where(top > size, top - size - 1, size - top)
            pick = index * active.size + np.arange(active.size)
            min_val[active] = d.reshape(-1)[pick]
            j = cols.reshape(-1)[pick]
            j_at = j * n_drops + active
            cols_seen[j_at] = True
            remaining[index * n_drops + active] = remaining[(size - 1) * n_drops + active]
            i = row_of_col[j_at]
            done = i < 0
            sink[active[done]] = j[done]
            active, i = active[~done], i[~done]
            if not active.size:
                break
            rows_seen[i * n_drops + active] = True
        u[cur * n_drops:(cur + 1) * n_drops] += min_val
        seen = np.flatnonzero(rows_seen)
        d_of = seen % n_drops
        u[seen] += min_val[d_of] - dist[col_of_row[seen] * n_drops + d_of]
        seen = np.flatnonzero(cols_seen)
        v[seen] -= min_val[seen % n_drops] - dist[seen]
        active, j = drops, sink
        while active.size:  # augment along each path back to row ``cur``
            j_at = j * n_drops + active
            i = path[j_at]
            row_of_col[j_at] = i
            i_at = i * n_drops + active
            col_of_row[i_at], j = j, col_of_row[i_at]
            keep = i != cur
            active, j = active[keep], j[keep]
    return col_of_row.reshape(n, n_drops).T


def _checked_weights(weights, ndim: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != ndim or w.size == 0:
        raise ValueError(f"weights must be a non-empty {ndim}-D array")
    lo, hi = w.min(), w.max()
    if not (0.0 <= lo and hi < np.inf):  # NaN fails both comparisons
        raise ValueError("weights must be finite and non-negative")
    return w


def hungarian_max(weights) -> Assignment:
    """Maximum-weight matching of a non-negative weight matrix.

    Solved on the rectangular matrix, transposed so that rows are the
    shorter side. Matched pairs of zero weight are reported as unmatched.
    Only the optimal total is contractual; which optimal matching is
    returned is not.
    """
    w = _checked_weights(weights, 2)
    n, m = w.shape
    flip = n > m
    rows = (w.T if flip else w).tolist()
    col_of_row = _max_weight_rect(rows)
    pairs = []
    total = 0.0
    for i, j in sorted(zip(col_of_row, range(m))) if flip else enumerate(col_of_row):
        x = rows[j][i] if flip else rows[i][j]
        if x > 0.0:
            pairs.append((i, j))
            total += x
    return Assignment(pairs=tuple(pairs), total_weight=total)


class DropMatches(NamedTuple):
    """Maximum-weight matchings of a (drops, users, channels) weight stack.

    ``total`` (drops,) is each drop's matched weight summed left to right in
    user order, as ``hungarian_max`` sums it; ``channel`` (drops, users) is
    each user's matched channel, -1 where the user is unmatched or matched at
    zero weight.
    """

    total: np.ndarray
    channel: np.ndarray


# Fewest drops in a stack for which ``match_drops`` uses the stacked
# matcher. The stacked matcher pays numpy dispatch per search step, the
# scalar one Python work per drop. Timed on sampled semantic and 4G weights
# (2-core host), the stacked one breaks even at about 50-90 drops from 5x5
# to 20x20 and is 2-3.5x faster at 256; on larger matrices it breaks even
# sooner (32-64 drops at 50x50, 2-8 at 120x80) but takes 2.5-2.8x as long
# as the scalar one on 2 drops of 120x80. A stack may mix systems. On ideal
# (Shannon) weights, which seldom tie or fall to 0 so every search runs
# longer, it breaks even at 50-90 drops up to 50x50 and at 16-24 drops of
# 120x80, and takes 4.2-4.5x as long on 2 drops of 120x80.
_STACK_MIN_DROPS = 64


def sum_by_user(x: np.ndarray) -> np.ndarray:
    """Per-drop sums of a (drops, users) array, left to right in user order.

    ``hungarian_max`` sums a drop's matched weights in that order, so a total
    summed here has the same rounding.
    """
    total = np.zeros(len(x))
    for column in x.T:
        total += column
    return total


def _matches_by_drop(w: np.ndarray) -> DropMatches:
    """``match_drops`` with one ``hungarian_max`` call per drop."""
    total = np.zeros(w.shape[0])
    channel = np.full(w.shape[:2], -1)
    for d, drop in enumerate(w):
        match = hungarian_max(drop)
        total[d] = match.total_weight
        for i, j in match.pairs:
            channel[d, i] = j
    return DropMatches(total, channel)


def _matches_stacked(w: np.ndarray) -> DropMatches:
    """``match_drops`` with every drop matched at once by ``_max_weight_stack``."""
    n_drops, n, m = w.shape
    if n > m:  # rows are channels: invert to each user's channel
        channel = np.full((n_drops, n), -1)
        users = _max_weight_stack(w.transpose(0, 2, 1))
        channel[np.arange(n_drops)[:, None], users] = np.arange(m)
    else:
        channel = _max_weight_stack(w)
    matched = np.take_along_axis(w, np.maximum(channel, 0)[..., None], axis=2)[..., 0]
    served = (channel >= 0) & (matched > 0.0)
    return DropMatches(sum_by_user(np.where(served, matched, 0.0)), np.where(served, channel, -1))


def match_drops(weights) -> DropMatches:
    """Maximum-weight matching of every drop of a (drops, users, channels) stack.

    A stack of at least ``_STACK_MIN_DROPS`` drops is matched at once,
    fewer drops one ``hungarian_max`` call at a time; each drop gets the
    same matching and total either way.
    """
    w = _checked_weights(weights, 3)
    return _matches_stacked(w) if len(w) >= _STACK_MIN_DROPS else _matches_by_drop(w)


def semantic_weights(
    snr_db: np.ndarray, surface: SimilaritySurface, cons: Constraints
) -> np.ndarray:
    """Normalized semantic-SE weights of every pair, shape (..., users, channels).

    ``build_pair_plans(...).weight``: the weights a semantic allocation
    matches, from one k scan over the whole array.
    """
    return weight_matrix(build_pair_plans(snr_db, surface, cons))


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
    w = equivalent_semantic_se(se_bits, tf, SourceStats())
    return np.where(w >= cons.sse_threshold, w, 0.0)
