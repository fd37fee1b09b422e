"""End-to-end acceptance gate.

Each test pins one release criterion at its stated tolerance and prints a
PASS line with its runtime (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import math
import time

import numpy as np
import pytest

from semse.allocator import (
    Constraints,
    bit_pipe_weights,
    build_pair_plans,
)
from semse.channel import RadioParams, pathloss_db, sample_drop, snr
from semse.harness import (
    ScenarioConfig,
    crossover_bits_per_word,
    drop_totals,
    run_scenario,
)
from semse.link_adaptation import (
    SystemKind,
    builtin_table,
    check_builtin_tables,
    shannon_se,
)
from semse.metrics import TransformFactor
from semse.similarity import default_surrogate
from oracles import brute_force_allocation, brute_max_total, match_one, query

LTE_EFFICIENCIES = [
    0.1523, 0.2344, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766,
    1.9141, 2.4063, 2.7305, 3.3223, 3.9023, 4.5234, 5.1152, 5.5547,
]
NR_EFFICIENCIES = [
    0.1523, 0.3770, 0.8770, 1.4766, 1.9141, 2.4063, 2.7305,
    3.3223, 3.9023, 4.5234, 5.1152, 5.5547, 6.2266, 6.9141, 7.4063,
]

ALL_SYSTEMS = (
    SystemKind.SEMANTIC,
    SystemKind.IDEAL,
    SystemKind.FOUR_G,
    SystemKind.FIVE_G,
)


def _pass(num: int, label: str, t0: float, budget_s: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"criterion {num} PASS ({elapsed:.2f}s): {label}")


def test_criterion_1_link_budget():
    t0 = time.perf_counter()
    params = RadioParams()  # 180 kHz, -174 dBm/Hz, 10 dBm, 6 dB shadow, 500 m
    gain = 10 ** (-pathloss_db(0.5, params) / 10)  # no shadowing
    _, snr_db = snr(params, gain, 1.0)  # unit fading
    assert snr_db == pytest.approx(14.666, abs=0.01)
    _pass(1, "link budget at 0.5 km is 14.666 dB +- 0.01", t0, 1.0)


def test_criterion_2_hungarian_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    for _ in range(1000):
        w = rng.uniform(0.0, 10.0, size=(5, 5))
        assert match_one(w).total_weight == brute_max_total(w)
    for shape in ((3, 6), (6, 3)):
        for _ in range(100):
            w = rng.uniform(0.0, 5.0, size=shape)
            assert match_one(w).total_weight == brute_max_total(w)
    _pass(2, "matching equals exhaustive optimum on 1000 square + 200 rectangular", t0, 5.0)


def test_criterion_3_decomposition_equivalence():
    t0 = time.perf_counter()
    surface = default_surrogate(5)
    rng = np.random.default_rng(1003)
    settings = [
        Constraints(k_max=5, similarity_threshold=0.9, sse_threshold=0.025),
        Constraints(k_max=5, similarity_threshold=0.6, sse_threshold=0.01),
    ]
    for trial in range(500):
        cons = settings[trial % 2]
        snr_db = rng.uniform(-12.0, 24.0, size=(4, 4))
        fast = match_one(build_pair_plans(snr_db, surface, cons).weight)
        oracle = brute_force_allocation(snr_db, surface, cons)
        assert fast.total_weight == oracle.total_weight
    _pass(3, "per-pair scan + matching equals joint brute force on 500 instances", t0, 30.0)


def test_criterion_4_transform_method_and_tables():
    t0 = time.perf_counter()
    snr_linear = 10 ** (14.666 / 10)
    sse = bit_pipe_weights(
        shannon_se(snr_linear), TransformFactor(40.0), Constraints(sse_threshold=0.0)
    )
    assert sse == pytest.approx(0.1229, abs=0.001)

    lte = builtin_table(SystemKind.FOUR_G)
    nr = builtin_table(SystemKind.FIVE_G)
    assert list(lte.efficiencies) == LTE_EFFICIENCIES
    assert list(nr.efficiencies) == NR_EFFICIENCIES
    assert lte.efficiencies[0] == 0.1523 and lte.efficiencies[14] == 5.5547
    assert nr.efficiencies[14] == 7.4063
    check_builtin_tables()  # raises on any hash or capacity mismatch
    _pass(4, "ideal equivalent S-SE 0.1229 and 30 pinned CQI entries", t0, 10.0)


# with more users than channels, the ideal matching leaves users unserved,
# and fixed k must score them 0, not at some channel's SNR
@pytest.mark.parametrize("n_users, n_channels", [(5, 5), (8, 3), (20, 5)],
                         ids=["5x5", "8x3", "20x5"])
def test_criterion_5_fixed_k_policy_dominated(n_users, n_channels):
    t0 = time.perf_counter()
    # table defaults otherwise: thresholds 0.9 / 0.025
    cfg = ScenarioConfig(n_drops=500, n_users=n_users, n_channels=n_channels)
    fixed_ks = [1, 2, 3, 4, 5]
    totals = drop_totals(cfg, fixed_ks)
    optimized = totals[SystemKind.SEMANTIC, "optimized_k", 0.0]
    sums = {}
    for k in fixed_ks:
        total = totals[SystemKind.SEMANTIC, "fixed_k", float(k)]
        assert np.all(optimized >= total)  # per-drop, exact
        sums[k] = total.sum()
    assert any(v == 0.0 for v in sums.values()), (
        "similarity threshold 0.9 should shut out at least one fixed k entirely"
    )
    _pass(5, "joint optimization dominates every fixed-k policy on all 500 "
             f"{n_users}x{n_channels} drops", t0, 120.0)


def test_criterion_6_more_channels_never_hurt():
    t0 = time.perf_counter()
    cfg = ScenarioConfig(
        n_drops=500,
        sweep_param="n_channels",
        sweep_values=tuple(float(m) for m in range(1, 11)),
    )
    totals = drop_totals(cfg, None)
    for system in ALL_SYSTEMS:
        # series[v, d]: drop d's total at the v-th channel count
        series = np.stack([totals[system, "n_channels", v] for v in cfg.sweep_values])
        assert series.shape == (len(cfg.sweep_values), cfg.n_drops)
        fell = np.flatnonzero(~np.all(series[1:] >= series[:-1], axis=0))
        assert fell.size == 0, (
            f"drops {fell.tolist()}, {system}: total decreased when a channel was added"
        )
        means = [row.mean() for row in series]
        assert all(b >= a for a, b in zip(means, means[1:]))
    _pass(6, "mean and per-drop totals non-decreasing in channel count, 4 systems", t0, 300.0)


def test_criterion_7_power_saturation():
    t0 = time.perf_counter()
    cfg = ScenarioConfig(
        n_drops=500, sweep_param="tx_power_dbm", sweep_values=(40.0, 60.0)
    )
    by = {(r.system, r.sweep_value): r.mean_total_sse for r in run_scenario(cfg)}
    for system in (SystemKind.SEMANTIC, SystemKind.FOUR_G, SystemKind.FIVE_G):
        lo, hi = by[(system, 40.0)], by[(system, 60.0)]
        assert abs(hi - lo) / hi < 0.01, f"{system} not saturated: {lo} vs {hi}"
    assert by[(SystemKind.IDEAL, 60.0)] > 1.10 * by[(SystemKind.IDEAL, 40.0)]
    _pass(7, "practical systems saturate in power, ideal keeps growing", t0, 300.0)


def test_criterion_8_transform_factor_sweep():
    t0 = time.perf_counter()
    # thresholds off: with an SE floor active the set of zeroed links would
    # depend on bits_per_word and the exact inverse scaling below could not hold
    cfg = ScenarioConfig(
        n_drops=500,
        constraints=Constraints(sse_threshold=0.0),
        sweep_param="bits_per_word",
        sweep_values=(10.0, 19.0, 27.0, 40.0, 60.0),
    )
    records = run_scenario(cfg)
    semantic = [r for r in records if r.system is SystemKind.SEMANTIC]
    assert len({(r.mean_total_sse, r.std_error) for r in semantic}) == 1, (
        "semantic records must be bit-identical across the sweep"
    )
    for system in (SystemKind.IDEAL, SystemKind.FOUR_G, SystemKind.FIVE_G):
        scaled = [
            r.mean_total_sse * r.sweep_value for r in records if r.system is system
        ]
        spread = (max(scaled) - min(scaled)) / max(scaled)
        assert spread < 1e-9, f"{system}: mean * bits_per_word varies by {spread}"
    cross = crossover_bits_per_word(records)
    assert set(cross) == {SystemKind.IDEAL, SystemKind.FOUR_G, SystemKind.FIVE_G}
    for system, cross_value in cross.items():
        assert math.isfinite(cross_value) and cross_value > 0
        print(f"  crossover vs semantic: {system.value} at {cross_value:.4g} bits/word")
    _pass(8, "semantic flat, conventional scale exactly inversely, crossovers emitted", t0, 300.0)


def test_criterion_9_invariant_suites():
    t0 = time.perf_counter()
    params = RadioParams()
    rng = np.random.default_rng(1009)

    # similarity range and monotonicity in SNR
    surface = default_surrogate(20)
    assert np.all(surface.xi >= 0) and np.all(surface.xi <= 1)
    assert np.all(np.diff(surface.xi, axis=1) >= 0)
    for _ in range(200):
        k = int(rng.integers(1, 21))
        a, b = np.sort(rng.uniform(-30, 40, 2))
        qa, qb = query(surface, k, a), query(surface, k, b)
        assert 0.0 <= qa <= qb <= 1.0

    # SNR multiplicative linearity
    for _ in range(100):
        g, f, c = rng.uniform(1e-14, 1e-6), rng.uniform(0.01, 5), rng.uniform(0.1, 10)
        base, _ = snr(params, g, f)
        assert snr(params, c * g, f)[0] == pytest.approx(c * base, rel=1e-12)
        assert snr(params, g, c * f)[0] == pytest.approx(c * base, rel=1e-12)

    # placement and fading distributions
    drop = sample_drop(100_000, 1, params, 77)
    assert np.mean(drop.user_distances_km < params.cell_radius_km / 2) == pytest.approx(
        0.25, abs=0.01
    )
    x = np.sort(drop.fading_power.ravel())
    n = x.size
    cdf = 1.0 - np.exp(-x)
    ks = max(
        np.max(np.abs(np.arange(1, n + 1) / n - cdf)),
        np.max(np.abs(cdf - np.arange(0, n) / n)),
    )
    assert ks < 0.01

    # matching structure on random drops
    surface5 = default_surrogate(20)
    cons = Constraints()
    for seed in range(20):
        d = sample_drop(5, 5, params, 4000 + seed)
        plans = build_pair_plans(d.snr_db, surface5, cons)
        a = match_one(plans.weight)
        users = [i for i, _ in a.pairs]
        channels = [j for _, j in a.pairs]
        assert len(set(users)) == len(users) and len(set(channels)) == len(channels)
        assert a.total_weight == pytest.approx(
            sum(plans.weight[i, j] for i, j in a.pairs), abs=1e-12
        )
        for i, j in a.pairs:
            assert plans.similarity[i, j] >= cons.similarity_threshold
            assert plans.weight[i, j] >= cons.sse_threshold

    # seed determinism end to end
    d1 = sample_drop(5, 5, params, 123)
    d2 = sample_drop(5, 5, params, 123)
    assert np.array_equal(d1.snr_db, d2.snr_db)
    cfg = ScenarioConfig(n_users=3, n_channels=3, n_drops=10)
    assert run_scenario(cfg) == run_scenario(cfg)

    _pass(9, "similarity, SNR, distribution, matching and determinism invariants", t0, 60.0)
