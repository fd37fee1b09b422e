"""Reference implementations the tests compare the allocator against.

``best_pair_plan`` is the scalar k scan that ``allocator.build_pair_plans``
vectorizes; ``brute_force_links`` enumerates every injective
user-to-channel map jointly with every per-user k, and
``brute_force_allocation`` reports its optimum as an ``Assignment``.
"""

import itertools

import numpy as np

from semse.allocator import Assignment, Constraints, PlanArrays, _require_k_coverage
from semse.similarity import SimilaritySurface

# largest joint k-combination tensor the oracle materializes at once;
# beyond this it iterates the first user's k and holds K**(n-1) floats
_JOINT_BLOCK_LIMIT = 1 << 22


def best_pair_plan(surface: SimilaritySurface, snr_db: float, cons: Constraints) -> PlanArrays:
    """Scan k = 1..k_max for the feasible k maximizing similarity/k, one pair.

    Returns a ``PlanArrays`` of scalars, with ``build_pair_plans``'s
    convention: k, similarity and weight 0 where no k is feasible. Ties break
    toward smaller k (same SE, less latency); with both floors at 0 a pair of
    similarity 0 is feasible at k = 1 with weight 0. Reference scalar
    implementation; ``build_pair_plans`` is the vectorized equivalent.
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
        return PlanArrays(0, 0.0, 0.0, False)
    return PlanArrays(best_k, best_xi, best_w, True)


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

    return sorted(
        (i, j, kz + 1, float(xi[kz, i, j]), float(value[kz, i, j]))
        for (i, j), kz in zip(best_pairs, best_kvec) if value[kz, i, j] > 0.0
    )


def brute_force_allocation(
    snr_db: np.ndarray, surface: SimilaritySurface, cons: Constraints
) -> Assignment:
    """``brute_force_links``'s optimum as the pairs and total weight ``hungarian_max`` returns."""
    links = brute_force_links(snr_db, surface, cons)
    total = 0.0
    for *_link, w in links:
        total += w
    return Assignment(tuple((i, j) for i, j, *_plan in links), total)
