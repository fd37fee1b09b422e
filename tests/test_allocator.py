import importlib.machinery
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from semse import allocator, harness
from semse.allocator import (
    Assignment,
    Constraints,
    _k_candidates,
    bit_pipe_weights,
    bit_se,
    build_pair_plans,
    match_drops,
    sum_by_user,
    weight_stacks,
)
from semse.channel import RadioParams, sample_drops
from semse.link_adaptation import SystemKind, builtin_table
from semse.metrics import TransformFactor
from semse.similarity import SimilaritySurface, SurfaceError, default_surrogate

import oracles
from oracles import (
    best_pair_plan, brute_force_allocation, brute_force_links, brute_max_total, match_one,
    query,
)

# the k scan and both matchers are checked against references computed in
# the same process, not pinned bytes, so they run at the oldest supported numpy
pytestmark = pytest.mark.numpy_floor

MU40 = TransformFactor(40.0)
FLOORLESS = Constraints(sse_threshold=0.0)
TABLES = {
    SystemKind.FOUR_G: builtin_table(SystemKind.FOUR_G),
    SystemKind.FIVE_G: builtin_table(SystemKind.FIVE_G),
}


def flat_surface(xi_by_k):
    """Surface whose similarity is constant in SNR: row per k."""
    ks = np.arange(1, len(xi_by_k) + 1)
    xi = np.repeat(np.asarray(xi_by_k, dtype=float)[:, None], 2, axis=1)
    return SimilaritySurface(ks, np.array([-50.0, 50.0]), xi)


def assert_valid_matching(assignment: Assignment, n, m, weight=None):
    """A partial injective matching of an n x m matrix; its total is ``weight``'s if given."""
    users = [i for i, _ in assignment.pairs]
    channels = [j for _, j in assignment.pairs]
    assert len(set(users)) == len(users)
    assert len(set(channels)) == len(channels)
    assert all(0 <= i < n for i in users)
    assert all(0 <= j < m for j in channels)
    if weight is not None:
        recomputed = sum(float(weight[i, j]) for i, j in assignment.pairs)
        assert assignment.total_weight == pytest.approx(recomputed, abs=1e-12)


def semantic_allocation(snr, surface, cons):
    """(plans, matching) of one drop: the k scan, then the channel matching."""
    plans = build_pair_plans(snr, surface, cons)
    return plans, match_one(plans.weight)


class TestBestPairPlan:
    def test_threshold_steers_choice(self):
        surface = flat_surface([0.5, 0.92, 0.95])
        cons = Constraints(k_max=3, similarity_threshold=0.9, sse_threshold=0.0)
        plan = best_pair_plan(surface, 0.0, cons)
        assert plan.k == 2
        assert plan.similarity == pytest.approx(0.92)
        assert plan.weight == pytest.approx(0.46)

    def test_all_below_similarity_floor(self):
        surface = flat_surface([0.5, 0.6, 0.7])
        cons = Constraints(k_max=3, similarity_threshold=0.9, sse_threshold=0.0)
        plan = best_pair_plan(surface, 0.0, cons)
        assert plan.k == 0 and plan.weight == 0.0

    def test_constant_similarity_prefers_smallest_k(self):
        surface = flat_surface([0.7, 0.7, 0.7, 0.7])
        cons = Constraints(k_max=4, similarity_threshold=0.0, sse_threshold=0.0)
        plan = best_pair_plan(surface, 0.0, cons)
        assert plan.k == 1 and plan.weight == pytest.approx(0.7)

    def test_sse_floor_can_exclude_feasible_similarity(self):
        surface = flat_surface([0.2, 0.95])
        cons = Constraints(k_max=2, similarity_threshold=0.9, sse_threshold=0.5)
        # only k=2 clears the similarity floor but 0.95/2 < 0.5
        plan = best_pair_plan(surface, 0.0, cons)
        assert plan.k == 0

    def test_missing_k_row_is_error(self):
        surface = flat_surface([0.5, 0.9])
        with pytest.raises(ValueError, match="tabulate"):
            best_pair_plan(surface, 0.0, Constraints(k_max=5))
        with pytest.raises(ValueError, match=r"^k=3 is not tabulated in this surface$"):
            build_pair_plans(np.zeros((2, 2)), surface, Constraints(k_max=5))


class TestBuildPairPlans:
    def test_single_link(self):
        surface = default_surrogate(5)
        cons = Constraints(k_max=5, similarity_threshold=0.0, sse_threshold=0.0)
        plans = build_pair_plans(np.array([[10.0]]), surface, cons)
        assert plans.weight.shape == (1, 1)
        assert plans.k[0, 0] >= 1

    def test_identical_links_give_identical_weights(self):
        surface = default_surrogate(10)
        cons = Constraints(k_max=10)
        snr = np.full((4, 3), 12.0)
        w = build_pair_plans(snr, surface, cons).weight
        assert np.all(w == w[0, 0])

    def test_matches_scalar_scan(self):
        # zero similarity below 0 dB: with both floors at 0 such a pair is
        # feasible at k = 1 with weight 0
        ks = np.arange(1, 13)
        grid = np.array([-50.0, 0.0, 5.0, 25.0])
        xi = np.stack([[0.0, 0.0, 0.9 - 0.2 / k, 1.0 - 0.1 / k] for k in ks])
        surfaces = [default_surrogate(12), SimilaritySurface(ks, grid, xi)]
        rng = np.random.default_rng(21)
        snr = rng.uniform(-15, 25, size=(4, 5, 6))
        for floors in ((0.85, 0.02), (0.6, 0.0), (0.0, 0.0)):
            cons = Constraints(12, *floors)
            for surface in surfaces:
                stack = build_pair_plans(snr, surface, cons)
                for d in range(4):
                    plans = build_pair_plans(snr[d], surface, cons)
                    for whole, single in zip(stack, plans):
                        assert whole[d].dtype == single.dtype
                        assert np.array_equal(whole[d], single)
                    for i in range(5):
                        for j in range(6):
                            ref = best_pair_plan(surface, float(snr[d, i, j]), cons)
                            assert tuple(a[i, j] for a in plans) == ref
        zero = build_pair_plans(np.array([[-10.0]]), surfaces[1], cons)
        assert zero.k[0, 0] == 1 and zero.weight[0, 0] == 0.0

    def test_matched_plans_respect_floors(self):
        surface = default_surrogate(20)
        cons = Constraints()
        rng = np.random.default_rng(22)
        plans = build_pair_plans(rng.uniform(-10, 25, size=(3, 5, 5)), surface, cons)
        ok = plans.k > 0
        assert ok.any() and not ok.all()
        assert np.all(plans.similarity[ok] >= cons.similarity_threshold)
        assert np.all(plans.weight[ok] >= cons.sse_threshold)
        assert np.all((plans.k[ok] >= 1) & (plans.k[ok] <= cons.k_max))
        assert np.all(plans.weight[~ok] == 0.0) and np.all(plans.k[~ok] == 0)
        assert np.all(plans.similarity[~ok] == 0.0)


@st.composite
def k_scan_cases(draw):
    """(surface, constraints, SNRs) at the edges of the candidate-k table.

    Rows are non-decreasing in SNR and cross each other, or are also
    non-decreasing in k; entries come from a few values whose weights tie
    across k, or anywhere in [0, 1]. Grids are uneven, some spacings tiny
    enough for steep rows, and the surface may tabulate k beyond k_max.
    SNRs sit on grid points, 1 ulp either side of them, off the grid at both
    ends, at +-inf and NaN; floors include 0, 1 and the similarities and
    weights the scan computes at those SNRs, each possibly 1 ulp off.
    """
    k_max = draw(st.integers(1, 6))
    ks = list(range(1, k_max + 1 + draw(st.integers(0, 2))))
    grid = sorted(draw(st.lists(
        st.one_of(st.floats(-60.0, 60.0), st.floats(-1e-300, 1e-300), st.floats(-1e306, 1e306)),
        min_size=1, max_size=6, unique=True,
    )))
    entry = st.one_of(st.sampled_from([0.0, 0.3, 0.45, 0.6, 0.9, 1.0]), st.floats(0.0, 1.0))
    row = st.lists(entry, min_size=len(grid), max_size=len(grid)).map(sorted)
    xi = np.array([draw(row) for _ in ks])
    if draw(st.booleans()):
        xi = np.sort(xi, axis=0)
    try:
        surface = SimilaritySurface(ks, grid, xi)
    except SurfaceError as exc:
        assert "slope" in str(exc)
        assume(False)
    g = np.asarray(grid)
    snr = np.concatenate([
        g, np.nextafter(g, -np.inf), np.nextafter(g, np.inf),
        [g[0] - 1.0, g[-1] + 1.0, -1e308, 1e308, -np.inf, np.inf, np.nan],
        draw(st.lists(st.floats(-100.0, 100.0), max_size=4)),
    ])
    # similarities and weights the scan computes at those SNRs but NaN
    values = np.stack([query(surface, k, snr[~np.isnan(snr)]) for k in range(1, k_max + 1)])
    weights = values / np.arange(1, k_max + 1)[:, None]
    near = st.sampled_from([0, 0, -1, 1]).map(lambda step: lambda x: (
        x if step == 0 else float(np.nextafter(x, step * np.inf))))
    sim = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0),
                         st.sampled_from(values.ravel().tolist()).map(draw(near))))
    sse = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0),
                         st.sampled_from(weights.ravel().tolist()).map(draw(near))))
    cons = Constraints(k_max, min(max(sim, 0.0), 1.0), max(sse, 0.0))
    return surface, cons, snr


# One grid column over which the float interpolation ends 1 ulp above the
# next grid value: at 1 ulp below 0.10879241866929235 dB, k = 1 reads
# 0.9820047109996625 where the table holds 0.9820047109996624
STEEP_GRID = [-28.210547596904338, 0.10879241866929235]
STEEP_ROW = [0.0027001174570217, 0.9820047109996624]
STEEP_SNR = np.array([np.nextafter(STEEP_GRID[1], -np.inf)])
# the same 1 ulp on a second column, read against a flat k = 2 row that ties it
TIE_GRID = [-13.732821800622304, 0.16461453027374873]
TIE_ROWS = [[0.02385863771416319, 0.49003477547050817], [0.9800695509410164] * 2]
TIE_SNR = np.array([np.nextafter(TIE_GRID[1], -np.inf)])


class TestCandidateKScan:
    """The candidate-k scan chooses what a scan of every k chooses, to the bit."""

    @settings(max_examples=500, deadline=None)
    @given(k_scan_cases())
    @example((SimilaritySurface([1], STEEP_GRID, [STEEP_ROW]),
              Constraints(1, 0.9820047109996625, 0.0), STEEP_SNR))
    @example((SimilaritySurface([1], STEEP_GRID, [STEEP_ROW]),
              Constraints(1, 0.0, 0.9820047109996625), STEEP_SNR))
    @example((SimilaritySurface([1, 2], TIE_GRID, TIE_ROWS), Constraints(2, 0.0, 0.0), TIE_SNR))
    @example((flat_surface([0.5, 1.0, 0.9]), Constraints(3, 0.0, 0.0), np.array([0.0])))
    @example((default_surrogate(5), Constraints(5, 1.0, 0.0), np.array([20.0, np.nan])))
    def test_equals_full_scan_bit_for_bit(self, case):
        surface, cons, snr = case
        got = build_pair_plans(snr, surface, cons)
        want = oracles.full_k_scan(snr, surface, cons)
        assert got.k.dtype == want.k.dtype and np.array_equal(got.k, want.k)
        for a, b in ((got.similarity, want.similarity), (got.weight, want.weight)):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_surrogate_columns_hold_at_most_two_candidates(self):
        for floors in ((0.9, 0.025), (0.9, 0.0)):
            k, _piece = _k_candidates(default_surrogate(20), Constraints(20, *floors))
            assert len(k) == 2


class TestConstraints:
    @pytest.mark.parametrize("k_max", [2.5, 2.0])
    def test_non_integer_k_max_rejected(self, k_max):
        # 2.5 used to fail inside build_pair_plans with a TypeError from range()
        with pytest.raises(ValueError, match=f"k_max must be an integer, got {k_max!r}"):
            Constraints(k_max=k_max)


class TestHungarian:
    def test_identity_weights(self):
        w = np.eye(4)
        a = match_one(w)
        assert a.pairs == ((0, 0), (1, 1), (2, 2), (3, 3))
        assert a.total_weight == 4.0
        rect = match_one(np.eye(3, 5))
        assert rect.pairs == ((0, 0), (1, 1), (2, 2))
        assert rect.total_weight == 3.0

    def test_two_by_two(self):
        a = match_one([[3.0, 1.0], [1.0, 3.0]])
        assert a.total_weight == 6.0
        assert a.pairs == ((0, 0), (1, 1))

    def test_zero_weight_pairs_unmatched(self):
        a = match_one([[1.0, 0.0], [0.0, 0.0]])
        assert a.pairs == ((0, 0),)
        assert a.total_weight == 1.0
        assert match_one(np.zeros((3, 3))).pairs == ()

    def test_hungarian_max_reports_positive_pairs_only(self):
        # match_drops filters zero weights again, but the traced bench counts
        # hungarian_max's own pairs as served users
        a = allocator.hungarian_max(np.array([[0.0, 0.0], [0.0, 3.0]]))
        assert a.pairs == ((1, 1),) and a.total_weight == 3.0

    def test_hungarian_max_total_is_summed_as_sum_by_user(self):
        # the matching is the diagonal, whose ascending sum differs from its sum in row order
        diagonal = [0.6, 0.9, 0.5, 0.6, 0.9, 0.7, 0.6, 0.5, 0.6, 0.9]
        a = allocator.hungarian_max(np.diag(diagonal))
        assert a.pairs == tuple((i, i) for i in range(10))
        assert a.total_weight == sum_by_user(np.array([diagonal]))[0] != sum(diagonal)

    def test_random_square_matches_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            w = rng.uniform(0, 10, size=(5, 5))
            assert match_one(w).total_weight == brute_max_total(w)

    @pytest.mark.parametrize("shape", [(3, 6), (6, 3), (1, 4), (4, 1), (2, 5)])
    def test_rectangular_matches_brute_force(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        for _ in range(60):
            w = rng.uniform(0, 5, size=shape)
            a = match_one(w)
            assert a.total_weight == brute_max_total(w)
            assert_valid_matching(a, *shape)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            match_one([[1.0, -0.1], [0.0, 1.0]])
        with pytest.raises(ValueError):
            match_one([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError):
            match_one([[1.0, np.inf], [0.0, 1.0]])
        with pytest.raises(ValueError):
            match_one(np.zeros((0, 3)))

    def test_scaling_by_powers_of_two_is_exact(self):
        rng = np.random.default_rng(24)
        w = rng.uniform(0, 3, size=(5, 5))
        base = match_one(w).total_weight
        for c in (0.25, 0.5, 2.0, 8.0):
            assert match_one(c * w).total_weight == c * base

    def test_scale_invariance_generic(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            w = rng.uniform(0, 3, size=(4, 6))
            c = rng.uniform(0.1, 10)
            base = match_one(w).total_weight
            assert match_one(c * w).total_weight == pytest.approx(c * base, rel=1e-12)

    def test_adding_a_channel_never_hurts(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            w = rng.uniform(0, 4, size=(5, 8))
            totals = [match_one(w[:, :m]).total_weight for m in range(1, 9)]
            assert all(b >= a for a, b in zip(totals, totals[1:]))


@st.composite
def tied_weights(draw):
    """Small matrices on a 0.1 grid, with zeroed rows/columns and copied columns."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    tenths = draw(st.lists(st.integers(0, 20), min_size=n * m, max_size=n * m))
    w = np.asarray(tenths, dtype=float).reshape(n, m) / 10
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        w[i, :] = 0.0
    for j in draw(st.sets(st.integers(0, m - 1), max_size=m)):
        w[:, j] = 0.0
    for src, dst in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                                  max_size=3)):
        w[:, dst] = w[:, src]
    return w


class TestHungarianProperties:
    @settings(max_examples=300, deadline=None)
    @given(tied_weights())
    def test_matches_permutation_enumeration(self, w):
        n, m = w.shape
        expect = brute_max_total(w)
        for weights, shape in ((w, (n, m)), (w.T, (m, n))):
            a = match_one(weights)
            assert_valid_matching(a, *shape)
            assert a.total_weight == pytest.approx(expect, abs=1e-9)
            assert all(weights[i, j] > 0.0 for i, j in a.pairs)
            assert list(a.pairs) == sorted(a.pairs)
            assert a.total_weight == oracles.ascending_sum(float(weights[i, j])
                                                          for i, j in a.pairs)


# Entry values of ``rect_weights``: integer ties; 0.1 + 0.2, which rounds
# apart from 0.3; and values near 1e16 / 3, whose reduced costs round together
# once the duals grow to 1e16, where the float spacing is 2.
PALETTES = [
    [0.0, 1.0, 2.0, 3.0],
    [0.0, 0.1, 0.2, 0.3, 0.1 + 0.2],
    [0.0, 1e16 / 3, 1e16 / 3 + 0.5, 1e16 / 3 + 1.0, 2e16 / 3, 1e16],
]
# On the 1e16 palette, a dual update of this matrix rounds a column dual
# above 0.0.
_a, _b, _c, _t, _x = PALETTES[2][1:]
LIFTS_A_DUAL = np.array([
    [0.0, _x, _c, _t, _x, _c],
    [_c, _a, _t, _b, _a, _b],
    [0.0, _a, _a, 0.0, 0.0, 0.0],
    [_c, _t, 0.0, _t, 0.0, _t],
    [_t, 0.0, _x, _t, 0.0, 0.0],
    [_b, _t, _c, _c, _b, _c],
])


@st.composite
def rect_weights(draw):
    """Matrices with rows <= columns, square or far wider.

    Entries come from a palette of tied values, or are any floats in [0, 1];
    some rows are all zero.
    """
    n = draw(st.integers(1, 8))
    m = draw(st.one_of(st.just(n), st.integers(n, 4 * n + 8)))
    palette = draw(st.sampled_from(PALETTES + [None]))
    if palette is None:
        entries = st.floats(0.0, 1.0)
    else:
        entries = st.sampled_from(palette)
    w = np.array(draw(st.lists(entries, min_size=n * m, max_size=n * m))).reshape(n, m)
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        w[i] = 0.0
    return w


@st.composite
def tied_stacks(draw):
    """Stacks of 1-4 drops on a 0.1 grid, with zeroed rows and columns in some drops."""
    d, n, m = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    tenths = draw(st.lists(st.integers(0, 4), min_size=d * n * m, max_size=d * n * m))
    w = np.asarray(tenths, dtype=float).reshape(d, n, m) / 10
    for drop, i in draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, n - 1)),
                                 max_size=3)):
        w[drop, i, :] = 0.0
    for drop, j in draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, m - 1)),
                                 max_size=3)):
        w[drop, :, j] = 0.0
    return w


def per_drop_matches(w):
    """(totals, channel of each user or -1) of ``match_one`` on each drop."""
    totals, channels = [], np.full(w.shape[:2], -1)
    for d, drop in enumerate(w):
        match = match_one(drop)
        totals.append(match.total_weight)
        for i, j in match.pairs:
            channels[d, i] = j
    return totals, channels


def plain_scan(w):
    """(totals, channel of each user or -1) of ``oracles.plain_max_weight_rect`` on each drop.

    The scan's rows are each matrix's shorter side. A user unmatched or
    matched at zero weight has channel -1, as in ``DropMatches.channel``.
    """
    totals, channels = [], np.full(w.shape[:2], -1)
    for d, drop in enumerate(w):
        by_user = drop.shape[0] <= drop.shape[1]
        rows = drop if by_user else drop.T
        matched = []
        for i, j in enumerate(oracles.plain_max_weight_rect(rows.tolist())):
            if rows[i, j] > 0.0:
                user, channel = (i, j) if by_user else (j, i)
                channels[d, user] = channel
                matched.append(float(rows[i, j]))
        totals.append(oracles.ascending_sum(matched))
    return totals, channels


def match_on_fork(w, stacked):
    """``match_drops(w)`` forced onto its stacked fork, or its per-drop one."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(allocator, "_STACK_MIN_DROPS", 1 if stacked else len(w) + 1)
        return match_drops(w)


def assert_forks_identical(w):
    """Both forks of ``match_drops`` give ``w`` the same totals, bit for bit, and channels."""
    stacked, per_drop = match_on_fork(w, stacked=True), match_on_fork(w, stacked=False)
    assert stacked.total.tobytes() == per_drop.total.tobytes()
    assert np.array_equal(stacked.channel, per_drop.channel)
    return stacked


# Two optimal matchings of equal exact sum on a 0.1 grid: 0.3 + 0.3 + 0.3 and
# 0.2 + 0.3 + 0.4, whose float sums are 0.8999999999999999 and 0.9.
TIED_TENTHS = np.array([[0.3, 0.1, 0.1, 0.3], [0.4, 0.1, 0.3, 0.0], [0.0, 0.2, 0.0, 0.3]])
# Reduced costs overflow here, so the sink column's dual step is NaN, not 0.0.
OVERFLOWS = np.array([[1.0, 1.7e308, 0.0, 1.7e308], [0.0, 1.7e308, 0.0, 0.0],
                      [1.0, 0.0, 1.0, 1.7e308]])


class TestStackedMatcher:
    """The stacked fork gives every drop the plain scan's matching."""

    @settings(max_examples=300, deadline=None)
    @given(tied_stacks())
    @example(np.array([[[0.2, 0.2, 0.0], [0.2, 0.2, 0.1]]]))
    @example(TIED_TENTHS[None])
    def test_equals_plain_scan_bit_for_bit(self, w):
        for stack in (w, w.transpose(0, 2, 1)):
            got = match_on_fork(stack, stacked=True)
            totals, channels = plain_scan(stack)
            assert got.total.tolist() == totals
            assert np.array_equal(got.channel, channels)

    @settings(max_examples=300, deadline=None)
    @given(rect_weights())
    @example(np.zeros((3, 7)))
    @example(np.array([[0.3, 0.1 + 0.2, 0.3], [0.1 + 0.2, 0.3, 0.3]]))
    @example(LIFTS_A_DUAL)
    @example(OVERFLOWS)
    def test_equals_plain_scan_on_tied_and_huge_weights(self, w):
        assert allocator._max_weight_stack(w[None]).tolist() == [
            oracles.plain_max_weight_rect(w.tolist())]

    @pytest.mark.parametrize("sse_threshold", [Constraints().sse_threshold, 0.0])
    @pytest.mark.parametrize("seed", [7, 8, 9])
    @pytest.mark.parametrize("system", list(SystemKind))
    def test_sampled_overloaded_drop_equals_plain_scan(self, system, seed, sse_threshold):
        # a 120-user, 80-channel drop, transposed as match_drops does
        cons = Constraints(sse_threshold=sse_threshold)
        rows = sampled_weights(system, (1, 120, 80), seed, cons)[0].T
        assert allocator._max_weight_stack(rows[None]).tolist() == [
            oracles.plain_max_weight_rect(rows.tolist())]

    @staticmethod
    def assert_stacked_equals_per_drop(w):
        for stack in (w, w.transpose(0, 2, 1)):
            got = assert_forks_identical(stack)
            totals, channels = plain_scan(stack)
            assert got.total.tolist() == totals
            assert np.array_equal(got.channel, channels)

    def test_every_search_ends_at_its_first_step(self):
        # each row's heaviest column is its own and still free when it searches
        rng = np.random.default_rng(31)
        w = rng.uniform(0.0, 0.4, size=(70, 5, 7))
        for d in range(len(w)):
            w[d, np.arange(5), rng.permutation(7)[:5]] = rng.uniform(0.5, 1.0, 5)
        self.assert_stacked_equals_per_drop(w)

    def test_every_search_collides_on_one_column(self):
        rng = np.random.default_rng(32)
        w = rng.uniform(0.0, 0.4, size=(70, 5, 6))
        w[:, :, 2] = 1.0
        self.assert_stacked_equals_per_drop(w)

    def test_all_zero_stack(self):
        self.assert_stacked_equals_per_drop(np.zeros((70, 4, 6)))

    @pytest.mark.parametrize("shape", [(70, 1, 1), (70, 1, 5), (70, 5, 1)])
    def test_single_row_or_column(self, shape):
        w = np.random.default_rng(33).uniform(0.0, 1.0, size=shape).round(1)
        self.assert_stacked_equals_per_drop(w)

    @pytest.mark.parametrize("shape", [(2, 120, 80), (64, 20, 20), (500, 5, 5)])
    def test_match_drops_equals_per_drop_hungarian(self, shape):
        drops = sample_drops(shape[1], shape[2], RadioParams(), range(shape[0]))
        w = build_pair_plans(drops.snr_db, default_surrogate(20), Constraints()).weight
        got = assert_forks_identical(w)
        totals, channels = plain_scan(w)
        assert got.total.tolist() == totals
        assert np.array_equal(got.channel, channels)

    def test_rejects_bad_stacks(self):
        with pytest.raises(ValueError):
            match_drops(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            match_drops(np.zeros((0, 3, 3)))
        with pytest.raises(ValueError):
            match_drops(np.full((100, 2, 2), -1.0))
        with pytest.raises(ValueError):
            match_drops(np.full((100, 2, 2), np.nan))

    @pytest.mark.parametrize("stacked", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, -0.1])
    @pytest.mark.parametrize("shape", [(3, 4, 6), (3, 6, 4)])
    def test_rejects_a_bad_entry_on_either_fork(self, stacked, bad, shape):
        w = np.random.default_rng(34).uniform(0.0, 1.0, size=shape)
        w[2, 3, 1] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            match_on_fork(w, stacked)

    @pytest.mark.parametrize("shape", [(3, 4, 6), (3, 6, 4), (2, 5, 5)])
    def test_per_drop_fork_calls_hungarian_max_once_per_drop(self, monkeypatch, shape):
        # the traced bench wraps allocator.hungarian_max and checks each call's
        # weights against scipy, so each drop must reach it as one oriented matrix
        calls = []
        real = allocator.hungarian_max
        monkeypatch.setattr(allocator, "hungarian_max", lambda w: calls.append(w) or real(w))
        w = np.random.default_rng(35).uniform(0.0, 1.0, size=shape)
        got = match_on_fork(w, stacked=False)
        assert len(calls) == shape[0]
        for drop, rows in zip(w, calls):
            assert rows.ndim == 2 and rows.shape[0] <= rows.shape[1]
            assert np.array_equal(rows, drop if shape[1] <= shape[2] else drop.T)
        assert got.total.tolist() == per_drop_matches(w)[0]

    @pytest.mark.parametrize("workload, fixed_k, stacked", [
        ("default.txt", None, True),
        ("bits_per_word_sweep.txt", None, True),
        ("default.txt", [1, 2, 3, 4, 5], True),
        (None, None, False),  # overloaded cell: 120 users x 80 channels, 2 drops
    ])
    def test_benchmark_workloads_take_the_intended_matcher(
        self, monkeypatch, workload, fixed_k, stacked
    ):
        if workload is None:
            cfg = harness.ScenarioConfig(n_users=120, n_channels=80, n_drops=2)
        else:
            root = Path(__file__).resolve().parent.parent
            cfg = harness.load_scenario(root / "scenarios" / workload)
        paths = []
        for name in ("_max_weight_stack", "hungarian_max"):
            real = getattr(allocator, name)
            monkeypatch.setattr(
                allocator, name,
                lambda w, name=name, real=real: paths.append(name) or real(w),
            )
        if fixed_k:
            harness.run_model_comparison(cfg, fixed_k)
        else:
            harness.run_scenario(cfg)
        assert set(paths) == {"_max_weight_stack" if stacked else "hungarian_max"}


def sampled_weights(system, shape, seed, cons=Constraints()):
    """A (drops, users, channels) weight stack of ``system`` on sampled drops."""
    drops = sample_drops(shape[1], shape[2], RadioParams(), range(seed, seed + shape[0]))
    if system is SystemKind.SEMANTIC:
        return build_pair_plans(drops.snr_db, default_surrogate(20), cons).weight
    return bit_pipe_weights(bit_se(drops.snr_db, drops.snr_linear, system, TABLES), MU40, cons)


class TestForkIdentity:
    """Both engines give every drop the same ``DropMatches``, and it is optimal.

    The stacked matcher and scipy's compiled solver are separate
    implementations of one method, step for step, so their identity is the
    check on each.
    """

    @settings(max_examples=300, deadline=None)
    @given(tied_stacks())
    @example(TIED_TENTHS[None])
    @example(OVERFLOWS[None])
    def test_forks_agree_on_tied_stacks(self, w):
        for stack in (w, w.transpose(0, 2, 1)):
            assert_forks_identical(stack)

    def test_tied_tenths_total_scipys_sum(self):
        for stack in (TIED_TENTHS[None], TIED_TENTHS.T[None]):
            assert assert_forks_identical(stack).total.tolist() == [0.8999999999999999]

    @pytest.mark.parametrize("shape", [(300, 5, 5), (300, 8, 3), (300, 3, 8), (4, 120, 80),
                                       (2, 80, 120), (1, 200, 200)],
                             ids=["5x5", "8x3", "3x8", "120x80", "80x120", "200x200"])
    @pytest.mark.parametrize("system", list(SystemKind), ids=lambda s: s.value)
    def test_forks_agree_on_sampled_stacks(self, system, shape):
        self.assert_identical_and_optimal(sampled_weights(system, shape, seed=sum(shape)))

    @pytest.mark.parametrize("shape", [(300, 5, 5), (300, 8, 3), (300, 3, 8)],
                             ids=["5x5", "8x3", "3x8"])
    @pytest.mark.parametrize("system", list(SystemKind), ids=lambda s: s.value)
    def test_forks_agree_at_a_zero_sse_floor(self, system, shape):
        # no floor keeps the weak links' small weights, so other ties arise
        cons = Constraints(sse_threshold=0.0)
        self.assert_identical_and_optimal(sampled_weights(system, shape, sum(shape) + 1, cons))

    @staticmethod
    def assert_identical_and_optimal(w):
        got = assert_forks_identical(w)
        served = got.channel >= 0
        matched = np.take_along_axis(w, np.maximum(got.channel, 0)[..., None], 2)[..., 0]
        assert np.all(matched[served] > 0.0)
        for d in range(len(w)):
            channels = got.channel[d, served[d]].tolist()
            assert len(set(channels)) == len(channels)
            assert got.total[d] == oracles.ascending_sum(matched[d, served[d]].tolist())
        if w.shape[1] * w.shape[2] <= 25:  # small enough to enumerate
            assert got.total[:40].tolist() == [brute_max_total(drop) for drop in w[:40]]


class TestSolverLoader:
    """scipy's compiled solver is loaded from its extension file, or else through scipy.optimize."""

    def test_cli_loads_the_extension_alone_and_scipy_optimize_reuses_it(self):
        # importing scipy.optimize costs about half a second: the CLI must not
        probe = ("import sys, semse.cli; from semse import allocator; "
                 "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')); "
                 "import scipy.optimize; "
                 "print(allocator._linear_sum_assignment is scipy.optimize.linear_sum_assignment)")
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=str(Path(allocator.__file__).parents[1])),
        ).stdout
        assert out.splitlines() == ["['scipy.optimize._lsap']", "True"]

    def test_fallback_without_the_extension_file_gives_the_same_matchings(
        self, monkeypatch, tmp_path
    ):
        import scipy.optimize

        w = sampled_weights(SystemKind.FOUR_G, (20, 8, 6), seed=40)
        expect = match_on_fork(w, stacked=False)
        # a scipy package whose directory holds no extension file
        hidden = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        hidden.submodule_search_locations = [str(tmp_path)]
        find_spec = importlib.util.find_spec
        monkeypatch.setattr(importlib.util, "find_spec",
                            lambda name, *a: hidden if name == "scipy" else find_spec(name, *a))
        monkeypatch.delitem(sys.modules, "scipy.optimize._lsap")
        solver = allocator._load_linear_sum_assignment()
        assert "scipy.optimize._lsap" not in sys.modules  # the file loader did not run
        assert solver is scipy.optimize.linear_sum_assignment
        monkeypatch.setattr(allocator, "_linear_sum_assignment", solver)
        got = match_on_fork(w, stacked=False)
        assert got.total.tobytes() == expect.total.tobytes()
        assert np.array_equal(got.channel, expect.channel)


class TestWeightStacks:
    """The harness's weight buffer reaches the stacked matcher uncopied either way round."""

    @pytest.mark.parametrize("n_users, n_channels", [(20, 10), (10, 20), (10, 10)])
    def test_stacked_matcher_reads_the_stack_uncopied(self, monkeypatch, n_users, n_channels):
        stacks = weight_stacks(4, 20, n_users, n_channels)
        assert stacks.shape == (4, 20, n_users, n_channels) and stacks.flags.writeable
        rng = np.random.default_rng(36)
        for s in range(4):
            stacks[s] = rng.uniform(0.0, 1.0, size=(20, n_users, n_channels)).round(1)
        flat = stacks.reshape(-1, n_users, n_channels)
        assert np.shares_memory(flat, stacks)
        seen = []
        real = allocator._max_weight_stack
        monkeypatch.setattr(allocator, "_max_weight_stack", lambda w: seen.append(w) or real(w))
        got = match_on_fork(flat, stacked=True)
        (matched,) = seen
        assert matched.shape == (80, min(n_users, n_channels), max(n_users, n_channels))
        # the matcher's drop-minor copy, ascontiguousarray(w.transpose(1, 2, 0)), is the stack
        assert np.shares_memory(np.ascontiguousarray(matched.transpose(1, 2, 0)), stacks)
        totals, channels = plain_scan(flat)
        assert got.total.tolist() == totals
        assert np.array_equal(got.channel, channels)


class TestSumByUser:
    """Per-drop totals: each drop summed in ascending order from 0.0, inf past the float range."""

    def test_row_of_negative_zeros_sums_to_positive_zero(self):
        total = sum_by_user(np.full((2, 3), -0.0))
        assert total.tolist() == [0.0, 0.0]
        assert not np.signbit(total).any()

    def test_overflowing_row_is_inf_without_a_warning(self):
        # pytest's filterwarnings turns an overflow RuntimeWarning into an error
        total = sum_by_user(np.array([[1e308, 1e308, 1e308], [3.0, 1.0, 2.0]]))
        assert total.tolist() == [np.inf, 6.0]

    def test_ten_users_are_summed_in_ascending_order(self):
        # a row whose ascending sum differs from its sum in user order, in
        # descending order and pairwise, sorted or not
        row = [0.6, 0.9, 0.5, 0.6, 0.9, 0.7, 0.6, 0.5, 0.6, 0.9]
        ascending = oracles.ascending_sum(row)
        assert sum_by_user(np.array([row])).tolist() == [ascending]
        for other in (sum(row), sum(sorted(row, reverse=True)), np.sum(row), np.sum(sorted(row))):
            assert other != ascending
        # the total depends only on the values: any order of the users gives it
        x = np.array([row, row[::-1], sorted(row, reverse=True)])
        assert sum_by_user(x).tolist() == [ascending] * 3

    def test_equals_a_column_by_column_sum_of_each_sorted_row_bit_for_bit(self):
        rng = np.random.default_rng(21)
        tiny_or_huge = np.where(rng.random((40, 9)) < 0.5, 1e-320, 1e308 * rng.random((40, 9)))
        for x in (rng.random((50, 12)), rng.random((12, 50)).T, tiny_or_huge):
            reference = np.zeros(len(x))
            with np.errstate(over="ignore"):
                for column in np.sort(x, axis=1).T:
                    reference += column
            assert sum_by_user(x).tobytes() == reference.tobytes()


class TestScoreChannels:
    """A user is served on its given channel only where its weight there is positive."""

    def test_zero_weight_on_its_channel_is_unserved(self):
        w = np.array([[[0.0, 2.0], [1.0, 3.0]], [[0.5, 0.0], [0.0, 0.25]]])
        scored = allocator.score_channels(w, np.array([[0, 1], [-1, 0]]))
        np.testing.assert_array_equal(scored.channel, [[-1, 1], [-1, -1]])
        np.testing.assert_array_equal(scored.total, [3.0, 0.0])


class TestAllocateSemantic:
    def test_single_feasible_link(self):
        surface = default_surrogate(20)
        cons = Constraints()
        plans, a = semantic_allocation(np.array([[18.0]]), surface, cons)
        assert a.pairs == ((0, 0),)
        assert plans.k[0, 0] > 0 and plans.weight[0, 0] == a.total_weight

    def test_two_by_two_against_joint_enumeration(self):
        surface = flat_surface([0.5, 0.92, 0.95])
        cons = Constraints(k_max=3, similarity_threshold=0.9, sse_threshold=0.0)
        snr = np.array([[0.0, 5.0], [5.0, 0.0]])
        _plans, a = semantic_allocation(snr, surface, cons)
        b = brute_force_allocation(snr, surface, cons)
        assert a.total_weight == b.total_weight == pytest.approx(0.92)

    def test_matches_brute_force_on_random_instances(self):
        surface = default_surrogate(5)
        cons = Constraints(k_max=5, similarity_threshold=0.6, sse_threshold=0.05)
        rng = np.random.default_rng(27)
        for _ in range(100):
            snr = rng.uniform(-12, 24, size=(4, 4))
            plans, a = semantic_allocation(snr, surface, cons)
            b = brute_force_allocation(snr, surface, cons)
            assert a.total_weight == b.total_weight
            assert_valid_matching(a, 4, 4, plans.weight)

    def test_beats_random_feasible_policies(self):
        surface = default_surrogate(8)
        cons = Constraints(k_max=8, similarity_threshold=0.5, sse_threshold=0.0)
        rng = np.random.default_rng(28)
        for _ in range(30):
            snr = rng.uniform(-10, 20, size=(4, 5))
            best = semantic_allocation(snr, surface, cons)[1].total_weight
            for _ in range(20):
                cols = rng.permutation(5)[:4]
                total = 0.0
                for i, j in enumerate(cols):
                    k = int(rng.integers(1, 9))
                    xi = query(surface, k, float(snr[i, j]))
                    w = xi / k
                    if xi >= cons.similarity_threshold and w >= cons.sse_threshold:
                        total += w
                assert best >= total - 1e-12


class TestConventionalWeights:
    """Bit-pipe weights matched the way the harness matches them."""

    def test_all_links_in_outage(self):
        snr_db = np.full((3, 3), -40.0)
        snr_lin = 10 ** (snr_db / 10)
        a = match_one(bit_pipe_weights(
            bit_se(snr_db, snr_lin, SystemKind.FOUR_G, TABLES), MU40, Constraints()
        ))
        assert a.pairs == () and a.total_weight == 0.0

    def test_single_ideal_link_value(self):
        snr_db = np.array([[14.666]])
        snr_lin = 10 ** (snr_db / 10)
        a = match_one(bit_pipe_weights(
            bit_se(snr_db, snr_lin, SystemKind.IDEAL, {}), MU40, Constraints()
        ))
        assert a.total_weight == pytest.approx(0.1229, abs=1e-3)

    def test_ideal_dominates_table_systems(self):
        rng = np.random.default_rng(29)
        cons = Constraints()
        for _ in range(40):
            snr_db = rng.uniform(-10, 30, size=(5, 5))
            snr_lin = 10 ** (snr_db / 10)
            totals = {
                s: match_one(
                    bit_pipe_weights(bit_se(snr_db, snr_lin, s, TABLES), MU40, cons)
                ).total_weight
                for s in (SystemKind.IDEAL, SystemKind.FOUR_G, SystemKind.FIVE_G)
            }
            assert totals[SystemKind.IDEAL] >= totals[SystemKind.FOUR_G]
            assert totals[SystemKind.IDEAL] >= totals[SystemKind.FIVE_G]

    def test_sse_floor_zeroes_weak_links(self):
        # R/mu below the floor contributes nothing even if positive
        cons = Constraints(sse_threshold=0.2)
        snr_db = np.array([[0.0]])  # shannon 1 bit/s/Hz -> 0.025 < 0.2
        w = bit_pipe_weights(bit_se(snr_db, np.array([[1.0]]), SystemKind.IDEAL, {}), MU40, cons)
        a = match_one(w)
        assert a.total_weight == 0.0 and a.pairs == ()

    def test_semantic_system_is_rejected(self):
        with pytest.raises(ValueError):
            bit_se(np.zeros((2, 2)), np.ones((2, 2)), SystemKind.SEMANTIC, TABLES)


class TestBitPipeWeights:
    """The bit-to-S-SE transform, se / bits_per_word, with the floor at 0."""

    def test_top_lte_entry(self):
        assert bit_pipe_weights(5.5547, MU40, FLOORLESS) == pytest.approx(0.13887, abs=1e-5)

    def test_zero(self):
        assert bit_pipe_weights(0.0, MU40, FLOORLESS) == 0.0

    def test_shannon_link(self):
        snr_linear = 10 ** (14.666 / 10)
        se_bits = math.log2(1 + snr_linear)
        assert se_bits == pytest.approx(4.920, abs=1e-3)
        assert bit_pipe_weights(se_bits, MU40, FLOORLESS) == pytest.approx(0.1229, abs=1e-3)

    def test_homogeneous_in_mu(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            se, mu, c = rng.uniform(0, 10), rng.uniform(1, 100), rng.uniform(0.1, 10)
            base = bit_pipe_weights(se, TransformFactor(mu), FLOORLESS)
            scaled = bit_pipe_weights(se, TransformFactor(c * mu), FLOORLESS)
            assert scaled == pytest.approx(base / c, rel=1e-12)

    def test_accepts_arrays(self):
        out = bit_pipe_weights(np.array([0.0, 4.0, 8.0]), MU40, FLOORLESS)
        assert np.allclose(out, [0.0, 0.1, 0.2])

    def test_all_zeros_and_empty(self):
        zeros = bit_pipe_weights(np.zeros((2, 3, 3)), MU40, FLOORLESS)
        assert zeros.shape == (2, 3, 3) and not zeros.any()
        empty = bit_pipe_weights(np.zeros((0, 3, 3)), MU40, FLOORLESS)
        assert empty.shape == (0, 3, 3)

    @pytest.mark.parametrize("bad", [-0.1, np.nan])
    def test_rejects_a_negative_or_nan_bit_se(self, bad):
        # the floor would turn either into a weight of 0 that match_drops accepts
        with pytest.raises(ValueError, match="bit SE"):
            bit_pipe_weights(bad, MU40, FLOORLESS)
        se = np.full((3, 4, 4), 2.0)
        se[1, 2, 3] = bad
        for cons in (FLOORLESS, Constraints()):
            with pytest.raises(ValueError, match="bit SE"):
                bit_pipe_weights(se, MU40, cons)

    def test_weight_at_the_floor_is_kept(self):
        # 1.0 / 40.0 is exactly 0.025: a weight equal to sse_threshold stays, as in _sse
        out = bit_pipe_weights(np.array([1.0]), MU40, Constraints(sse_threshold=0.025))
        assert out.tolist() == [0.025]

    def test_overflow_names_bits_per_word(self):
        with pytest.raises(ValueError, match="bits_per_word = 5e-324"):
            bit_pipe_weights(np.array([0.0, 1.0]), TransformFactor(5e-324), FLOORLESS)


class TestBruteForce:
    def test_size_bound(self):
        surface = default_surrogate(3)
        cons = Constraints(k_max=3)
        with pytest.raises(ValueError, match="bound"):
            brute_force_allocation(np.zeros((7, 3)), surface, cons)
        with pytest.raises(ValueError, match="bound"):
            brute_force_allocation(np.zeros((3, 7)), surface, cons)

    def test_single_pair_equals_scalar_scan(self):
        surface = default_surrogate(6)
        cons = Constraints(k_max=6, similarity_threshold=0.7, sse_threshold=0.01)
        for s in (-5.0, 3.0, 12.0, 19.0):
            plan = best_pair_plan(surface, s, cons)
            b = brute_force_allocation(np.array([[s]]), surface, cons)
            assert b.total_weight == plan.weight

    def test_all_infeasible_gives_zero(self):
        surface = flat_surface([0.3, 0.4])
        cons = Constraints(k_max=2, similarity_threshold=0.9, sse_threshold=0.0)
        b = brute_force_allocation(np.zeros((3, 3)), surface, cons)
        assert b.total_weight == 0.0 and b.pairs == ()

    def test_rectangular_instances(self):
        surface = default_surrogate(4)
        cons = Constraints(k_max=4, similarity_threshold=0.5, sse_threshold=0.0)
        rng = np.random.default_rng(30)
        for shape in ((2, 5), (5, 2), (3, 4), (4, 3)):
            for _ in range(20):
                snr = rng.uniform(-10, 20, size=shape)
                _plans, a = semantic_allocation(snr, surface, cons)
                b = brute_force_allocation(snr, surface, cons)
                assert a.total_weight == b.total_weight

    def test_blocked_path_matches_direct_path(self, monkeypatch):
        surface = default_surrogate(6)
        cons = Constraints(k_max=6, similarity_threshold=0.5, sse_threshold=0.0)
        rng = np.random.default_rng(31)
        instances = [rng.uniform(-10, 20, size=(3, 3)) for _ in range(10)]
        direct = [brute_force_links(s, surface, cons) for s in instances]
        direct_totals = [brute_force_allocation(s, surface, cons) for s in instances]
        monkeypatch.setattr(oracles, "_JOINT_BLOCK_LIMIT", 4)
        blocked = [brute_force_links(s, surface, cons) for s in instances]
        blocked_totals = [brute_force_allocation(s, surface, cons) for s in instances]
        for a, b in zip(direct_totals, blocked_totals):
            assert a.total_weight == b.total_weight
            assert a.pairs == b.pairs
        # same k, and so the same similarity and weight, on every kept link
        assert direct == blocked
