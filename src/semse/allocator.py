"""Channel assignment and per-link symbol-rate optimization.

The network objective is the summed semantic spectral efficiency over all
served users, in units of the source's suts-per-word ratio. It decouples
into (a) a per-(user, channel) scan for the symbols-per-word count k that
maximizes similarity/k under the similarity and SE floors, and (b) a
maximum-weight bipartite matching of users to channels over those per-pair
optima, solved by shortest augmenting path. Pairs that cannot meet the
floors carry k 0 and weight 0; the matching may then leave such users
unserved, which is reported as an SE contribution of exactly 0.

Both steps run on arrays, over a (drops, users, channels) stack. The
semantic allocation is ``plans = build_pair_plans(snr_db, surface, cons)``,
then ``match_drops(plans.weight)``; a user i matched to channel j =
``channel[d, i]`` in drop d has k ``plans.k[d, i, j]`` and similarity
``plans.similarity[d, i, j]``.

``match_drops`` is the one matcher entry point. It checks the weights once,
takes the shorter side of each matrix as the matcher's rows, finds each
row's column, and assembles every drop's ``DropMatches`` in user order. Two
engines run one method, scipy's shortest augmenting path (Crouse, "On
implementing 2D rectangular assignment algorithms", IEEE TAES 2016). Below
``_STACK_MIN_DROPS`` drops, ``hungarian_max`` matches one drop at a time with
scipy's compiled ``linear_sum_assignment``. From there up,
``_max_weight_stack`` runs every drop's search at once, with numpy over the
drop axis, step for step scipy's, float expressions and tie rule included.
So both return the same matching: a stack's depth decides only the speed.

This module owns how a weight is computed and stored. Conventional
bit-pipe baselines go through the same matching, with weights equal to
their bit SE transformed to S-SE: ``bit_se`` computes a system's bit SE,
and ``bit_pipe_weights`` applies the one bit-to-S-SE transform, se /
bits_per_word, and the S-SE floor. ``score_channels`` scores given
channels on a weight stack: ``match_drops`` scores its matching there, and
a caller can score one matching on other weights, such as a system's bit
SE matching on its weights at each bits_per_word. ``weight_stacks`` lays
out the buffer a caller writes a block's weight stacks into, drop-minor
with the matcher's rows outermost, so that ``match_drops`` reads it
without a copy. All
weights and totals here are normalized, i.e. expressed per unit of
``SourceStats.info_per_word``; the reporting layer applies that scale.
The exhaustive joint oracle the tests compare against lives in
``tests/oracles.py``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import operator
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .link_adaptation import SystemKind, shannon_se, table_se
from .metrics import TransformFactor, require_finite_fields
from .similarity import SimilaritySurface


@dataclass(frozen=True)
class Constraints:
    """Feasibility floors for a served link."""

    k_max: int = 20
    similarity_threshold: float = 0.9
    sse_threshold: float = 0.025  # normalized, suts/s/Hz per unit info_per_word

    def __post_init__(self) -> None:
        require_finite_fields(self)
        try:
            operator.index(self.k_max)
        except TypeError:
            raise ValueError(f"k_max must be an integer, got {self.k_max!r}") from None
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
    """A partial row-to-column matching of one matrix and its objective value.

    ``pairs`` holds (row, column) tuples sorted by row, each row and each
    column appearing at most once. ``total_weight`` is the sum of the
    matched weights in ascending order, as ``sum_by_user`` sums.
    """

    pairs: tuple
    total_weight: float


def _sse(xi, k, cons: Constraints):
    """(normalized S-SE similarity/k, both floors met) of similarities xi at k."""
    w = xi / k
    return w, (xi >= cons.similarity_threshold) & (w >= cons.sse_threshold)


def sse_at_k(surface: SimilaritySurface, k: int, located: tuple, cons: Constraints):
    """(similarity, normalized S-SE similarity/k, both floors met) of links at one k.

    ``located`` is ``surface.locate`` of the links' SNR.
    """
    xi = surface.interpolate(k, located)
    return (xi, *_sse(xi, k, cons))


class PlanArrays(NamedTuple):
    """Best plan of every pair of a link-matrix stack, shape (..., users, channels).

    Where no k meets the floors, ``k``, ``similarity`` and ``weight`` are 0;
    ``k > 0`` marks the pairs where some k does.
    """

    k: np.ndarray
    similarity: np.ndarray
    weight: np.ndarray


def _k_candidates(surface: SimilaritySurface, cons: Constraints) -> tuple:
    """(k, piece) of the k values that can be chosen on each SNR grid column.

    Each is (slots, columns): slot s of column j holds the column's s-th
    candidate k in ascending order and that k's linear piece there, and the
    slots past them its other k of 1..k_max, never 0, so nothing is divided
    by 0. A k leaves a column's candidates only if, over the column's SNRs,
    - it meets the floors nowhere, or
    - another k meets them everywhere, with a least weight above this k's
      greatest weight.
    Both are judged on ``piece_range``'s bounds: the scan's own similarity
    at the column's two ends, then the scan's ``/ k`` and floor tests of
    those. The division and the tests are monotone in the similarity too,
    so the bounds hold for every value the scan computes there, rounding
    included, and a k that leaves is never the first feasible k of the
    largest weight.

    Nor does ``build_pair_plans`` ever take a padding slot, so it needs no
    mask for them. The slot's k meets the floors nowhere on the column, or
    its weights there are all below the least weight of k*, the k that
    meets them everywhere with the greatest least weight. k* is a candidate
    (its least weight is not above its greatest), and candidates are
    scanned first, so by then the pair holds k* or a k of larger weight:
    ``best_k > 0``, ``best_w`` is above the slot's weight, and the take
    rule fails.
    """
    ks = range(1, cons.k_max + 1)
    pieces = surface.pieces(ks)
    k = np.array(ks)[:, None]
    lo, hi = surface.piece_range(pieces)
    lo_w, everywhere = _sse(lo, k, cons)
    hi_w, somewhere = _sse(hi, k, cons)
    floor = np.where(everywhere, lo_w, -np.inf).max(axis=0)
    candidate = somewhere & ~(floor > hi_w)
    # stable: each column's candidates first, in ascending k
    order = np.argsort(~candidate, axis=0, kind="stable")[:candidate.sum(axis=0).max()]
    return order + 1, np.take_along_axis(pieces, order, 0)


def build_pair_plans(
    snr_db: np.ndarray, surface: SimilaritySurface, cons: Constraints
) -> PlanArrays:
    """Per-pair optimal plans for SNR of shape (..., users, channels).

    Locates the SNR on the surface grid once, then scans each pair's
    candidate k values (``_k_candidates`` of its grid column) in ascending
    order, one candidate slot at a time over the whole array, keeping the
    first k of the largest feasible weight, so ties break toward smaller k
    (same SE, less latency). That is the choice a scan of every k in
    1..k_max makes. With both floors at 0 a pair of similarity 0 is
    feasible at k = 1 with weight 0. Raises ValueError naming the first k
    of 1..k_max that ``surface`` does not tabulate.
    """
    snr = np.atleast_2d(np.asarray(snr_db, dtype=float))
    best_k = np.zeros(snr.shape, dtype=int)
    best_xi = np.zeros(snr.shape)
    best_w = np.zeros(snr.shape)
    j, dx = surface.locate(snr)
    for k_slot, piece_slot in zip(*_k_candidates(surface, cons)):
        k = k_slot.take(j)
        xi = surface.evaluate(piece_slot.take(j), dx)
        w, take = _sse(xi, k, cons)
        take &= (w > best_w) | (best_k == 0)
        np.copyto(best_k, k, where=take)
        np.copyto(best_xi, xi, where=take)
        np.copyto(best_w, w, where=take)
    return PlanArrays(best_k, best_xi, best_w)


def weight_matrix(plans: PlanArrays) -> np.ndarray:
    return plans.weight


@np.errstate(over="ignore", invalid="ignore")
def _max_weight_stack(weights: np.ndarray) -> np.ndarray:
    """Maximum-weight assignment of every row of each matrix of a (drops, rows, cols) stack.

    Each matrix has no more rows than columns. scipy's ``augmenting_path``
    (read in scipy 1.17.1) on the costs ``-weights``, with numpy over the drop
    axis: each row grows one Dijkstra search over the columns not yet
    reached, and the duals are updated once per augmentation. Each step runs
    once for all drops still searching, with scipy's float expressions (its
    reduced cost ``min_val + cost - u - v`` is ``min_val - w - u - v``, as
    ``a + (-b) == a - b``), swap-remove scan order, high to low, and tie rule
    (the last free tied column in scan order, else the first tied one). So
    every drop gets scipy's matching, which ``plain_max_weight_rect`` in
    ``tests/oracles.py`` transcribes. Like scipy's compiled code, it does not
    warn on overflow. Returns ``col_of_row``, shape (drops, rows).

    State is held drop-minor and flat, ``x[row_or_col * drops + drop]``, so
    each step gathers with one flat index and reduces over a leading axis. A
    drop-minor stack, one whose ``transpose(1, 2, 0)`` is C-contiguous, is
    read without a copy. Rows and columns are stored in the narrowest integer
    types that hold them, and a step picks its column by the largest of
    small integer tie keys. A search's first step is the same for every
    drop: all drops search, from row ``cur``, with every column unscanned
    and ``min_val`` 0. It computes the reduced costs in place in the column
    state's contiguous (cols, drops) slices, in reversed scan order. A
    search keeps one record, ``cols_seen``, its picks: a matched pick's row
    (``row_of_col``) is a row it reached, a drop's one free pick its sink.
    One step ``min_val - dist`` per pick updates its ``v``, and a matched
    pick's row's ``u``.
    """
    n_drops, n, m = weights.shape
    drops = np.arange(n_drops)
    w = np.ascontiguousarray(weights.transpose(1, 2, 0)).reshape(n, m * n_drops)
    u = np.zeros(n * n_drops)
    v = np.zeros(m * n_drops)
    # columns and rows in the narrowest signed types that hold them and -1
    col_of_row = np.full(n * n_drops, -1, dtype=np.min_scalar_type(-m))
    row_type = np.min_scalar_type(-n)
    row_of_col = np.full(m * n_drops, -1, dtype=row_type)
    path = np.full(m * n_drops, -1, dtype=row_type)
    dist = np.empty(m * n_drops)
    # [p * drops + d]: the flat offset, column * drops + d, of drop d's p-th column to scan
    remaining = np.empty(m * n_drops, dtype=int)
    cols_seen = np.empty(m * n_drops, dtype=bool)  # a search's one record: its picks
    # Tie keys by scan position p, in the narrowest unsigned type: a tied
    # free column keys m+1+p (later ones higher), another tied column m-p
    # (earlier ones higher), an untied one 0. The largest key is then
    # scipy's tie rule pick and position[key] its p; a scan of the first s
    # positions keeps that order with key_free[:s] and key_other[:s].
    p = np.arange(m)[:, None]
    key_type = np.min_scalar_type(2 * m)
    key_free, key_other = (m + 1 + p).astype(key_type), (m - p).astype(key_type)
    position = np.concatenate((np.arange(m, -1, -1), np.arange(m)))
    at_pos = p * n_drops  # [p]: offset of scan position p
    # (cols, drops) views for the first step; column c is scan position m-1-c
    v_cols, dist_cols, path_cols, row_of_cols = (
        x.reshape(m, n_drops) for x in (v, dist, path, row_of_col))
    free_first, other_first = key_free[::-1], key_other[::-1]
    for cur in range(n):
        cols_seen.fill(False)
        np.add(at_pos[::-1], drops, out=remaining.reshape(m, n_drops))
        active = drops
        for size in range(m, 0, -1):
            if size == m:  # first step: every column of every drop, dist all inf
                # min_val and u[cur] are still 0.0: the reduced cost is 0.0 - w - v
                r = np.subtract(0.0, w[cur].reshape(m, n_drops), out=dist_cols)
                r -= v_cols
                better = r < np.inf
                np.copyto(path_cols, cur, where=better)
                np.copyto(dist_cols, np.inf, where=~better)
                key = np.where(row_of_cols < 0, free_first, other_first)
                key *= dist_cols == dist_cols.min(axis=0)
                index = position[key.max(axis=0)]
                j_at = (m - 1 - index) * n_drops + drops
                min_val = dist[j_at]
            else:
                at = remaining[at_pos[:size] + active]  # (size, active drops)
                r = w[i, at]
                np.subtract(min_val[active], r, out=r)
                r -= u[i_at]
                r -= v[at]
                d = dist[at]
                better = r < d
                path_at = path[at]
                np.copyto(path_at, i, where=better)
                path[at] = path_at
                np.copyto(d, r, where=better)
                del r  # frees a (size, active) float array for the tie keys
                dist[at] = d
                key = np.where(row_of_col[at] < 0, key_free[:size], key_other[:size])
                key *= d == d.min(axis=0)
                index = position[key.max(axis=0)]
                pick = index * active.size + drops[:active.size]
                min_val[active] = d.reshape(-1)[pick]
                j_at = at.reshape(-1)[pick]
            cols_seen[j_at] = True
            remaining[index * n_drops + active] = remaining[at_pos[size - 1] + active]
            i = row_of_col[j_at]
            active, i = active[i >= 0], i[i >= 0]
            if not active.size:
                break
            i_at = np.multiply(i, n_drops, dtype=np.intp) + active
        u[cur * n_drops:(cur + 1) * n_drops] += min_val
        seen = np.flatnonzero(cols_seen)
        drop = seen % n_drops
        step = min_val[drop] - dist[seen]
        v[seen] -= step
        row = row_of_col[seen]
        matched = row >= 0
        sink = seen[~matched]  # each drop's one free pick, the column its search ends at
        u[np.multiply(row[matched], n_drops, dtype=np.intp) + drop[matched]] += step[matched]
        active, j = sink % n_drops, sink // n_drops
        while active.size:  # augment along each path back to row ``cur``
            j_at = np.multiply(j, n_drops, dtype=np.intp) + active
            i = path[j_at]
            row_of_col[j_at] = i
            i_at = np.multiply(i, n_drops, dtype=np.intp) + active
            col_of_row[i_at], j = j, col_of_row[i_at]
            keep = i != cur
            active, j = active[keep], j[keep]
    return col_of_row.reshape(n, n_drops).T.astype(int)


def _load_linear_sum_assignment():
    """scipy's compiled ``linear_sum_assignment``, without importing ``scipy.optimize``.

    Importing ``scipy.optimize`` costs about half a second and 50 MiB; its
    ``_lsap`` extension alone loads in under a millisecond. So the extension
    is loaded from its file, under its own name, and a later ``import
    scipy.optimize`` reuses that module. Where the file is not found, the
    public import supplies the same function.
    """
    name = "scipy.optimize._lsap"
    if name not in sys.modules:
        scipy = importlib.util.find_spec("scipy")
        paths = [os.path.join(root, "optimize", "_lsap" + suffix)
                 for root in (scipy.submodule_search_locations if scipy else ())
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is None:
            from scipy.optimize import linear_sum_assignment

            return linear_sum_assignment
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
        loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name].linear_sum_assignment


_linear_sum_assignment = _load_linear_sum_assignment()


def hungarian_max(rows: np.ndarray) -> Assignment:
    """Maximum-weight matching of one checked matrix with no more rows than columns.

    ``match_drops``'s per-drop engine: ``rows`` is finite, non-negative and
    already oriented. Returns the (row, column) pairs of positive weight in
    row order and their total, summed as ``sum_by_user`` sums: in ascending
    order, left to right from 0.0 (in Python floats, a few microseconds
    cheaper on a small matrix than numpy's sort and accumulate).
    """
    row, col = _linear_sum_assignment(rows, maximize=True)
    weights = rows[row, col].tolist()
    total = 0.0
    for x in sorted(weights):
        total += x
    pairs = tuple((i, j) for i, j, x in zip(row.tolist(), col.tolist(), weights) if x > 0.0)
    return Assignment(pairs=pairs, total_weight=total)


class DropMatches(NamedTuple):
    """``match_drops`` of a (drops, users, channels) weight stack.

    ``total`` (drops,) is each drop's maximum matched weight, summed by
    ``sum_by_user``; ``channel`` (drops, users) is each user's matched
    channel, -1 where the user is unmatched or matched at zero weight.
    """

    total: np.ndarray
    channel: np.ndarray


# Fewest drops in a stack for which ``match_drops`` uses the stacked
# matcher. The stacked matcher pays numpy dispatch per search step, the
# compiled per-drop one a few microseconds of Python per drop. Timed on
# sampled semantic, 4G and ideal (Shannon) weights (2-core host; README
# crossover table), the stacked one breaks even at about 128 drops of 5x5
# and is 1.5-1.8x faster at 256. On larger matrices it breaks even later:
# at about 256 drops of 10x10 and of 20x80 on semantic and 4G weights, at
# about 1,000 of 10x10 and beyond 400 of 20x80 on ideal ones, which seldom
# tie or fall to 0, and beyond 512 of 20x20; on 120x80 the per-drop one is
# 1-25x faster at 8-64 drops. A stack may mix systems. The shipped
# scenarios match 800-2,000 matrices of 5x5 a call.
_STACK_MIN_DROPS = 256


def sum_by_user(x: np.ndarray) -> np.ndarray:
    """Per-drop sums of a (drops, users) array, each drop's values in ascending order.

    ``DropMatches.total`` is summed here, so a total of other per-user
    values summed here has the same rounding. The order makes a sum depend
    only on the values, not on which user holds which, so two optimal
    matchings of the same weights give the same total. A sum past the float
    range is inf, without a warning: the caller that reports it names its
    cause. Accumulate adds left to right (a pairwise ``x.sum(axis=1)``
    rounds otherwise from 9 users up); ``+ 0.0`` makes a row of -0.0 sum to
    0.0.
    """
    with np.errstate(over="ignore"):
        return np.add.accumulate(np.sort(x, axis=1), axis=1)[:, -1] + 0.0


def weight_stacks(n_stacks: int, n_drops: int, n_users: int, n_channels: int) -> np.ndarray:
    """A writable (stacks, drops, users, channels) view of an uninitialized weight buffer.

    The buffer is drop-minor, with the matcher's rows (the shorter side)
    outermost: its ``reshape(-1, n_users, n_channels)`` is a view, and
    ``match_drops`` of that reads it without a copy.
    """
    buffer = np.empty((*sorted((n_users, n_channels)), n_stacks, n_drops))
    return buffer.transpose(2, 3, 0, 1) if n_users <= n_channels else buffer.transpose(2, 3, 1, 0)


def match_drops(weights) -> DropMatches:
    """Maximum-weight matching of every drop of a (drops, users, channels) stack.

    The matcher's rows are the shorter side, the channels when there are
    more users than channels. A stack of at least ``_STACK_MIN_DROPS`` drops
    is matched at once, fewer drops one ``hungarian_max`` call at a time. A
    stack laid out by ``weight_stacks`` is read without a copy. Both
    engines return the same ``DropMatches``.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 3 or w.size == 0:
        raise ValueError("weights must be a non-empty 3-D array")
    if not (0.0 <= w.min() and w.max() < np.inf):  # NaN fails both comparisons
        raise ValueError("weights must be finite and non-negative")
    n_drops, n, m = w.shape
    rows = w.transpose(0, 2, 1) if n > m else w
    if n_drops >= _STACK_MIN_DROPS:
        col_of_row = _max_weight_stack(rows)
    else:
        col_of_row = np.full(rows.shape[:2], -1)
        for d, drop in enumerate(rows):
            for i, j in hungarian_max(drop).pairs:
                col_of_row[d, i] = j
    if n > m:  # rows are channels: invert to each user's channel
        channel = np.full((n_drops, n), -1)
        d, j = np.nonzero(col_of_row >= 0)
        channel[d, col_of_row[d, j]] = j
    else:
        channel = col_of_row
    return score_channels(w, channel)


def score_channels(weights: np.ndarray, channel: np.ndarray) -> DropMatches:
    """``DropMatches`` of a (drops, users, channels) stack with each user on a given channel.

    ``channel`` (drops, users) is -1 for a user with none. A user is served
    only where its weight there is positive, and each drop's total is its
    served users' weights summed by ``sum_by_user``. ``match_drops`` scores
    its matching here, and so does a caller that scores one matching on
    other weights.
    """
    matched = np.take_along_axis(weights, np.maximum(channel, 0)[..., None], axis=2)[..., 0]
    served = (channel >= 0) & (matched > 0.0)
    return DropMatches(sum_by_user(np.where(served, matched, 0.0)), np.where(served, channel, -1))


def bit_se(snr_db: np.ndarray, snr_linear: np.ndarray, system: SystemKind, tables: dict):
    """Bit-domain SE of every link of a bit-pipe system, in bits/s/Hz."""
    if system is SystemKind.IDEAL:
        return shannon_se(snr_linear)
    if system in (SystemKind.FOUR_G, SystemKind.FIVE_G):
        return table_se(tables[system], snr_db)
    raise ValueError(f"no bit-domain baseline for {system}")


def bit_pipe_weights(se_bits, tf: TransformFactor, cons: Constraints) -> np.ndarray:
    """Normalized semantic-SE weights se_bits / bits_per_word of bit SE ``se_bits``, floors applied.

    The one bit-to-S-SE transform. Raises ValueError if an entry of
    ``se_bits`` is NaN or negative, or if the transform overflows.
    """
    se = np.asarray(se_bits, dtype=float)
    if se.size and not se.min() >= 0.0:  # NaN fails the comparison
        raise ValueError(f"bit SE must be >= 0 and not NaN, got {se.min()}")
    try:
        with np.errstate(over="raise"):
            w = se / tf.bits_per_word
    except FloatingPointError:
        raise ValueError(f"S-SE overflows at bits_per_word = {tf.bits_per_word}") from None
    return np.where(w >= cons.sse_threshold, w, 0.0)
