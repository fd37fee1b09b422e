"""Reference implementations the tests compare the package against.

``query`` is the scalar similarity lookup that ``SimilaritySurface.locate``
and ``interpolate`` split in two for the vectorized paths.
``best_pair_plan`` is the scalar k scan that ``allocator.build_pair_plans``
vectorizes, and ``full_k_scan`` the array scan of every k in 1..k_max that
its candidate-k scan must equal; all three give k = 0 where no k meets the
floors, and raise ValueError naming the first k in 1..k_max that the
surface does not tabulate. ``brute_force_links`` enumerates every
injective user-to-channel map jointly with every per-user k, and
``brute_force_allocation`` reports its optimum as an ``Assignment``.
``match_one`` is the package's matcher, ``allocator.match_drops``, on one
drop, reported the same way; ``brute_max_total`` is the maximum matching
total by enumeration, and ``plain_max_weight_rect`` a transcription of
scipy's ``augmenting_path``, the full scan that both of ``match_drops``'s
engines run and that the stacked one, ``allocator._max_weight_stack``, must
equal step for step.
``reference_drop_totals`` is ``harness.drop_totals`` by its definition, one
drop, system and sweep value at a time, on these oracles and, for drops
larger than the fuzzed ones, scipy's public ``linear_sum_assignment``.
Every total here is summed as ``allocator.sum_by_user`` sums, in ascending
order (``ascending_sum``).
"""

import dataclasses
import itertools

import numpy as np
from scipy.optimize import linear_sum_assignment

from semse.allocator import (
    Assignment,
    Constraints,
    PlanArrays,
    bit_pipe_weights,
    bit_se,
    match_drops,
    sse_at_k,
)
from semse.channel import sample_drops
from semse.harness import _swept, surface_for, tables_for
from semse.link_adaptation import SystemKind
from semse.similarity import SimilaritySurface

# largest joint k-combination tensor the oracle materializes at once;
# beyond this it iterates the first user's k and holds K**(n-1) floats
_JOINT_BLOCK_LIMIT = 1 << 22
# longest side the reference pipeline matches with ``plain_max_weight_rect``,
# the fuzzed shapes' largest; scipy's public solver matches larger drops
_PLAIN_MATCH_SIDE = 6


def ascending_sum(values) -> float:
    """``values`` summed left to right from 0.0 in ascending order, as ``sum_by_user`` sums."""
    total = 0.0
    for x in sorted(values):
        total += x
    return total


def query(surface: SimilaritySurface, k: int, snr_db):
    """Similarity of ``surface``'s row k at snr_db; k must be tabulated exactly.

    ``snr_db`` may be a scalar, giving a float, or an array of any shape,
    giving an array of that shape.
    """
    out = surface.interpolate(k, surface.locate(snr_db))
    return float(out) if np.ndim(out) == 0 else out


def best_pair_plan(surface: SimilaritySurface, snr_db: float, cons: Constraints) -> PlanArrays:
    """Scan k = 1..k_max for the feasible k maximizing similarity/k, one pair.

    Returns a ``PlanArrays`` of scalars, with ``build_pair_plans``'s
    convention: k, similarity and weight 0 where no k is feasible. Ties break
    toward smaller k (same SE, less latency); with both floors at 0 a pair of
    similarity 0 is feasible at k = 1 with weight 0. Reference scalar
    implementation; ``build_pair_plans`` is the vectorized equivalent.
    """
    best_k, best_xi, best_w = None, 0.0, 0.0
    for k in range(1, cons.k_max + 1):
        xi = query(surface, k, snr_db)
        w = xi / k
        ok = xi >= cons.similarity_threshold and w >= cons.sse_threshold
        if ok and (best_k is None or w > best_w):
            best_k, best_xi, best_w = k, xi, w
    if best_k is None:
        return PlanArrays(0, 0.0, 0.0)
    return PlanArrays(best_k, best_xi, best_w)


def full_k_scan(snr_db, surface: SimilaritySurface, cons: Constraints) -> PlanArrays:
    """``build_pair_plans`` by evaluating every k = 1..k_max at every pair.

    One ``sse_at_k`` pass over the whole array per k, in ascending order,
    keeping the first k of the largest feasible weight.
    """
    snr = np.atleast_2d(np.asarray(snr_db, dtype=float))
    best_k = np.zeros(snr.shape, dtype=int)
    best_xi = np.zeros(snr.shape)
    best_w = np.zeros(snr.shape)
    located = surface.locate(snr)
    for k in range(1, cons.k_max + 1):
        xi, w, take = sse_at_k(surface, k, located, cons)
        take &= (w > best_w) | (best_k == 0)
        np.copyto(best_k, k, where=take)
        np.copyto(best_xi, xi, where=take)
        np.copyto(best_w, w, where=take)
    return PlanArrays(best_k, best_xi, best_w)


def brute_force_links(
    snr_db: np.ndarray, surface: SimilaritySurface, cons: Constraints
) -> list[tuple[int, int, int, float, float]]:
    """Exhaustive joint optimum over assignments and per-user k. Test oracle.

    Enumerates every injective map between users and channels together with
    every k combination for the mapped users, and returns the optimum's
    links of positive weight as sorted (user, channel, k, similarity, weight)
    tuples. Bounded to 6x6 links and k_max 20.
    """
    snr = np.atleast_2d(np.asarray(snr_db, dtype=float))
    n, m = snr.shape
    if n > 6 or m > 6 or cons.k_max > 20:
        raise ValueError(f"instance {n}x{m} with k_max {cons.k_max} exceeds oracle bound")
    ks = np.arange(1, cons.k_max + 1)
    xi = np.stack([query(surface, int(k), snr) for k in ks])  # (K, N, M)
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

    return sorted(
        (i, j, kz + 1, float(xi[kz, i, j]), float(value[kz, i, j]))
        for (i, j), kz in zip(best_pairs, best_kvec) if value[kz, i, j] > 0.0
    )


def brute_force_allocation(
    snr_db: np.ndarray, surface: SimilaritySurface, cons: Constraints
) -> Assignment:
    """``brute_force_links``'s optimum as the pairs and total weight ``match_one`` returns."""
    links = brute_force_links(snr_db, surface, cons)
    total = ascending_sum(w for *_link, w in links)
    return Assignment(tuple((i, j) for i, j, *_plan in links), total)


def match_one(weights) -> Assignment:
    """``match_drops`` of one (users, channels) matrix, as an ``Assignment``.

    ``pairs`` holds the matched (user, channel) pairs of positive weight
    sorted by user, and ``total_weight`` their ascending sum.
    """
    match = match_drops(np.asarray(weights, dtype=float)[None])
    channel = match.channel[0]
    users = np.flatnonzero(channel >= 0)
    return Assignment(tuple(zip(users.tolist(), channel[users].tolist())), float(match.total[0]))


def brute_max_total(weights) -> float:
    """Maximum matching total of a small matrix, by enumerating every injective map.

    Each map of the shorter side into the longer one has its weights
    summed in ascending order, so the total of a map equals ``match_one``'s
    sum of the same pairs.
    """
    w = np.asarray(weights, dtype=float)
    rows = (w if w.shape[0] <= w.shape[1] else w.T).tolist()
    return max(ascending_sum(row[j] for row, j in zip(rows, cols))
               for cols in itertools.permutations(range(len(rows[0])), len(rows)))


def plain_max_weight_rect(weights: list[list[float]]) -> list[int]:
    """Maximum-weight assignment of every row of a rectangular weight matrix.

    ``weights`` is a list of rows with no more rows than columns. Returns
    ``col_of_row``. scipy's ``augmenting_path`` (scipy 1.17.1), transcribed:
    shortest augmenting path on the costs ``-weights`` (Crouse, "On
    implementing 2D rectangular assignment algorithms", IEEE TAES 2016).
    Each row grows one Dijkstra search over the columns not yet reached,
    preferring a free column on ties so the search ends early, and the duals
    are updated once per augmentation. O(rows^2 * cols) in the worst case.
    scipy's reduced cost ``min_val + cost - u[i] - v[j]`` is bit for bit
    ``min_val - row[j] - u[i] - v[j]``, as ``a + (-b) == a - b``, so no
    negated copy is made.
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
            lowest = inf
            index = -1
            for it, j in enumerate(remaining):
                r = min_val - row[j] - u[i] - v[j]
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


def _served_links(weights) -> list[tuple[int, int]]:
    """The matched (user, channel) pairs of positive weight.

    The matrix's shorter side is the matcher's rows, as in ``match_drops``.
    Up to ``_PLAIN_MATCH_SIDE`` a side ``plain_max_weight_rect`` matches
    them, above it scipy's public ``linear_sum_assignment``.
    """
    w = np.asarray(weights, dtype=float)
    rows = w if w.shape[0] <= w.shape[1] else w.T
    if max(w.shape) <= _PLAIN_MATCH_SIDE:
        cols = plain_max_weight_rect(rows.tolist())
    else:
        cols = linear_sum_assignment(rows, maximize=True)[1].tolist()
    pairs = enumerate(cols) if rows is w else ((i, j) for j, i in enumerate(cols))
    return [(i, j) for i, j in pairs if w[i, j] > 0.0]


def _fixed_k_total(surface: SimilaritySurface, k: int, snr_db, links, cons: Constraints) -> float:
    """Each link's S-SE at k by ``query``, where both floors hold, summed."""
    scores = []
    for i, j in links:
        xi = query(surface, k, float(snr_db[i, j]))
        if xi >= cons.similarity_threshold and xi / k >= cons.sse_threshold:
            scores.append(xi / k)
    return ascending_sum(scores)


def reference_drop_totals(cfg, fixed_k_values) -> dict:
    """``harness.drop_totals(cfg, fixed_k_values)`` by its definition: {row key: (n_drops,) totals}.

    For each sweep value, system and drop it samples that drop alone, with
    ``sample_drops(..., [seed])``, and weighs it: ``full_k_scan`` for the
    semantic system, ``bit_pipe_weights(bit_se(...))`` for a bit pipe. It
    matches the weights with ``plain_max_weight_rect``, or above its size
    with scipy's public solver, and sums the served links' weights with
    ``ascending_sum``. With ``sse_threshold = 0`` a bit pipe is matched on
    its bit SE, and the value's weights are scored on those links. For
    ``compare`` the scenario runs unswept with the ideal and semantic
    systems: each fixed k scores the ideal system's served links with
    ``query``, and the optimized row is the semantic total. No blocks,
    table, buffer or engine fork.
    """
    if fixed_k_values is not None:
        cfg = dataclasses.replace(cfg, systems=(SystemKind.IDEAL, SystemKind.SEMANTIC),
                                  sweep_param=None, sweep_values=())
    cons, tables = cfg.constraints, tables_for(cfg)
    surface = surface_for(cfg) if SystemKind.SEMANTIC in cfg.systems else None
    totals: dict = {}
    for value in cfg.sweep_values or (None,):
        at = _swept(cfg, value)
        key = (cfg.sweep_param or "none", 0.0 if value is None else float(value))
        for system in cfg.systems:
            for d in range(cfg.n_drops):
                drop = sample_drops(at.n_users, at.n_channels, at.radio, [cfg.base_seed + d])[0]
                if system is SystemKind.SEMANTIC:
                    w = full_k_scan(drop.snr_db, surface, cons).weight
                    links = _served_links(w)
                else:
                    se = bit_se(drop.snr_db, drop.snr_linear, system, tables)
                    w = bit_pipe_weights(se, at.tf, cons)
                    links = _served_links(se if cons.sse_threshold == 0 else w)
                total = ascending_sum(w[i, j] for i, j in links)
                if fixed_k_values is None:
                    rows = {(system, *key): total}
                elif system is SystemKind.IDEAL:
                    rows = {(SystemKind.SEMANTIC, "fixed_k", float(k)):
                            _fixed_k_total(surface, k, drop.snr_db, links, cons)
                            for k in fixed_k_values}
                else:
                    rows = {(SystemKind.SEMANTIC, "optimized_k", 0.0): total}
                for row, x in rows.items():
                    totals.setdefault(row, []).append(x)
    return {row: np.array(x, dtype=float) for row, x in totals.items()}
