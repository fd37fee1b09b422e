import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semse.channel import (
    MIN_DISTANCE_KM,
    RadioParams,
    pathloss_db,
    sample_drops,
    snr,
)

# channel.py reproduces numpy's seeding, so its tests run at the oldest supported numpy
pytestmark = pytest.mark.numpy_floor

PARAMS = RadioParams()


def test_pathloss_intercept_at_1km():
    assert pathloss_db(1.0, PARAMS) == pytest.approx(128.1)


def test_pathloss_half_km():
    # 128.1 - 37.6 * log10(2)
    assert pathloss_db(0.5, PARAMS) == pytest.approx(116.781, abs=1e-3)


def test_pathloss_100m():
    assert pathloss_db(0.1, PARAMS) == pytest.approx(90.5, abs=1e-3)


@pytest.mark.parametrize("bad", [0.0, -0.3])
def test_pathloss_rejects_nonpositive_distance(bad):
    with pytest.raises(ValueError):
        pathloss_db(bad, PARAMS)


def test_radio_params_validation():
    with pytest.raises(ValueError):
        RadioParams(bandwidth_hz=0)
    with pytest.raises(ValueError):
        RadioParams(cell_radius_km=-1)
    with pytest.raises(ValueError):
        RadioParams(shadow_sigma_db=-0.1)


def test_unit_snr_construction():
    # transmit power equal to total noise power gives SNR exactly 1 (0 dB)
    noise_dbm = PARAMS.noise_psd_dbm_hz + 10 * math.log10(PARAMS.bandwidth_hz)
    params = RadioParams(tx_power_dbm=noise_dbm)
    lin, db = snr(params, 1.0, 1.0)
    assert lin == pytest.approx(1.0, rel=1e-12)
    assert db == pytest.approx(0.0, abs=1e-12)


def test_link_budget_half_km():
    # 10 dBm over 116.781 dB pathloss against -121.447 dBm noise
    gain = 10 ** (-pathloss_db(0.5, PARAMS) / 10)
    _, db = snr(PARAMS, gain, 1.0)
    assert db == pytest.approx(14.666, abs=0.01)


def test_snr_doubles_with_fading():
    lin1, _ = snr(PARAMS, 1e-10, 0.7)
    lin2, _ = snr(PARAMS, 1e-10, 1.4)
    assert lin2 == 2.0 * lin1


def test_snr_multiplicative_linearity():
    rng = np.random.default_rng(7)
    for _ in range(200):
        g, f, c = rng.uniform(1e-14, 1e-6), rng.uniform(0.01, 5.0), rng.uniform(0.1, 10.0)
        base, _ = snr(PARAMS, g, f)
        scaled_g, _ = snr(PARAMS, c * g, f)
        scaled_f, _ = snr(PARAMS, g, c * f)
        assert scaled_g == pytest.approx(c * base, rel=1e-12)
        assert scaled_f == pytest.approx(c * base, rel=1e-12)
        p2 = RadioParams(tx_power_dbm=PARAMS.tx_power_dbm + 10 * math.log10(c))
        scaled_p, _ = snr(p2, g, f)
        assert scaled_p == pytest.approx(c * base, rel=1e-12)


def test_snr_rejects_nonpositive_gains():
    with pytest.raises(ValueError):
        snr(PARAMS, 0.0, 1.0)
    with pytest.raises(ValueError):
        snr(PARAMS, 1.0, -0.5)


def test_sample_drop_is_deterministic():
    a = sample_drops(5, 4, PARAMS, [123])[0]
    b = sample_drops(5, 4, PARAMS, [123])[0]
    assert np.array_equal(a.user_distances_km, b.user_distances_km)
    assert np.array_equal(a.large_scale_gain, b.large_scale_gain)
    assert np.array_equal(a.fading_power, b.fading_power)
    assert np.array_equal(a.snr_db, b.snr_db)
    c = sample_drops(5, 4, PARAMS, [124])[0]
    assert not np.array_equal(a.snr_db, c.snr_db)


def reference_drop(n_users, n_channels, params, seed):
    """One drop computed on its own, step by step, as (name, array) pairs."""
    rng = np.random.default_rng(seed)
    distances = params.cell_radius_km * np.sqrt(rng.random(n_users))
    distances = np.maximum(distances, MIN_DISTANCE_KM)
    shadow_db = rng.normal(0.0, params.shadow_sigma_db, n_users)
    fading = rng.exponential(1.0, size=(n_channels, n_users)).T.copy()
    gain = 10.0 ** (-(pathloss_db(distances, params) + shadow_db) / 10.0)
    snr_linear, snr_db = snr(params, gain[:, None], fading)
    return {
        "user_distances_km": distances, "large_scale_gain": gain,
        "fading_power": fading, "snr_linear": snr_linear, "snr_db": snr_db,
    }


@pytest.mark.parametrize("shape", [(5, 5), (1, 1), (7, 3), (2, 9)])
def test_sample_drops_equal_single_drops_bit_for_bit(shape):
    params = RadioParams(tx_power_dbm=3.0, shadow_sigma_db=8.0)
    seeds = list(range(40, 57))
    block = sample_drops(*shape, params, seeds)
    assert block.snr_db.shape == (len(seeds), *shape)
    for d, seed in enumerate(seeds):
        single = sample_drops(*shape, params, [seed])[0]
        for name, expect in reference_drop(*shape, params, seed).items():
            assert np.array_equal(getattr(block[d], name), expect)
            assert np.array_equal(getattr(single, name), expect)
            assert getattr(single, name).shape == expect.shape


@st.composite
def seed_blocks(draw):
    """A block of consecutive seeds in [0, 2**128), often across a 32-bit word edge."""
    size = draw(st.integers(1, 5))
    edge = draw(st.sampled_from([None, 2**32, 2**64, 2**96, 2**128]))
    if edge is None:
        start = draw(st.integers(0, 2**128 - size))
    elif edge == 2**128:
        start = edge - size  # the block ends at the largest seed
    else:
        start = edge - draw(st.integers(1, size))
    return list(range(start, start + size))


@settings(deadline=None)
@given(seed_blocks(), st.integers(1, 4), st.integers(1, 4), st.sampled_from([0.0, 6.0, 8.5]))
def test_sample_drops_equal_default_rng_drops_for_every_seed_width(seeds, n, m, sigma):
    params = RadioParams(shadow_sigma_db=sigma)
    block = sample_drops(n, m, params, seeds)
    for d, seed in enumerate(seeds):
        for name, expect in reference_drop(n, m, params, seed).items():
            assert np.array_equal(getattr(block[d], name), expect)


def test_sample_drops_takes_numpy_integer_seeds():
    seeds = [np.int64(3), np.uint64(2**64 - 1), np.uint32(7)]
    block = sample_drops(3, 2, PARAMS, seeds)
    for d, seed in enumerate(seeds):
        assert np.array_equal(block[d].snr_db, reference_drop(3, 2, PARAMS, seed)["snr_db"])


@pytest.mark.parametrize("seed", [2**128, -1, 2**130 + 5])
def test_sample_drops_rejects_seeds_outside_128_bits(seed):
    with pytest.raises(ValueError, match=rf"seed {seed} is outside \[0, 2\*\*128\)"):
        sample_drops(2, 2, PARAMS, [5, seed, 6])


def test_sample_drops_rejects_a_non_integer_seed():
    with pytest.raises(TypeError):
        sample_drops(2, 2, PARAMS, [1.5])


def test_sample_drop_rejects_zero_counts():
    with pytest.raises(ValueError):
        sample_drops(0, 4, PARAMS, [1])
    with pytest.raises(ValueError):
        sample_drops(4, 0, PARAMS, [1])


def test_sample_drop_shapes_and_bounds():
    drop = sample_drops(6, 3, PARAMS, [5])[0]
    assert drop.snr_db.shape == (6, 3)
    assert np.all(drop.user_distances_km > 0)
    assert np.all(drop.user_distances_km <= PARAMS.cell_radius_km)
    assert np.all(drop.user_distances_km >= MIN_DISTANCE_KM)
    assert np.all(drop.fading_power > 0)
    assert np.all(drop.snr_linear > 0)


def test_snr_arrays_follow_the_link_budget():
    drop = sample_drops(4, 5, PARAMS, [11])[0]
    p_mw = 10 ** (PARAMS.tx_power_dbm / 10)
    noise_mw = 10 ** (PARAMS.noise_psd_dbm_hz / 10) * PARAMS.bandwidth_hz
    for n in range(4):
        for m in range(5):
            snr_linear = float(drop.snr_linear[n, m])
            expect = drop.large_scale_gain[n] * drop.fading_power[n, m] * p_mw / noise_mw
            assert snr_linear == pytest.approx(expect, rel=1e-12)
            assert drop.snr_db[n, m] == pytest.approx(10 * math.log10(snr_linear), rel=1e-12)


def test_channel_columns_are_nested_across_m():
    # same seed: the m-channel drop is the first m columns of the (m+1)-channel drop
    for m in range(1, 6):
        small = sample_drops(5, m, PARAMS, [77])[0]
        big = sample_drops(5, m + 1, PARAMS, [77])[0]
        assert np.array_equal(small.fading_power, big.fading_power[:, :m])
        assert np.array_equal(small.snr_db, big.snr_db[:, :m])
        assert np.array_equal(small.user_distances_km, big.user_distances_km)


def test_uniform_disc_placement():
    drop = sample_drops(100_000, 1, PARAMS, [2024])[0]
    frac = np.mean(drop.user_distances_km < PARAMS.cell_radius_km / 2)
    assert frac == pytest.approx(0.25, abs=0.01)


def test_fading_mean_is_one():
    drop = sample_drops(1000, 1000, PARAMS, [99])[0]
    assert drop.fading_power.mean() == pytest.approx(1.0, abs=0.01)


def test_fading_is_exponential_ks():
    drop = sample_drops(100_000, 1, PARAMS, [31])[0]
    x = np.sort(drop.fading_power.ravel())
    n = x.size
    cdf = 1.0 - np.exp(-x)
    up = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    ks = max(np.max(np.abs(up - cdf)), np.max(np.abs(cdf - lo)))
    assert ks < 0.01


def test_no_shadowing_pins_gain_to_pathloss():
    params = RadioParams(shadow_sigma_db=0.0)
    drop = sample_drops(50, 2, params, [8])[0]
    expect = 10 ** (-pathloss_db(drop.user_distances_km, params) / 10)
    assert np.allclose(drop.large_scale_gain, expect, rtol=1e-12)
