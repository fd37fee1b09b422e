"""Cellular channel model: geometry, large-scale fading, Rayleigh fading, SNR.

Uplink single-cell model: users uniform on a disc around the base station,
log-distance pathloss with log-normal shadowing per user, i.i.d. Rayleigh
fading per (user, channel). Channels are orthogonal, so there is no
interference term and the link quality is a plain SNR.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields

import numpy as np

from .metrics import require_finite_fields

# Users closer than 1 m are pushed out to 1 m; the log-distance pathloss
# diverges at d -> 0 and uniform disc sampling can land arbitrarily close.
MIN_DISTANCE_KM = 1e-3


def db_to_linear(x_db: float) -> float:
    """dB (or dBm) to linear power ratio (or mW)."""
    return 10.0 ** (np.asarray(x_db) / 10.0)


def linear_to_db(x: float) -> float:
    return 10.0 * np.log10(np.asarray(x))


@dataclass(frozen=True)
class RadioParams:
    """Radio configuration of one cell.

    Defaults are the standard desk-scale setup: 180 kHz channels,
    -174 dBm/Hz thermal noise, 10 dBm uplink power, 128.1 + 37.6*log10(d[km])
    pathloss, 6 dB shadowing, 500 m cell radius.
    """

    bandwidth_hz: float = 180e3
    noise_psd_dbm_hz: float = -174.0
    tx_power_dbm: float = 10.0
    pathloss_a: float = 128.1
    pathloss_b: float = 37.6
    shadow_sigma_db: float = 6.0
    cell_radius_km: float = 0.5

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.bandwidth_hz <= 0:
            raise ValueError(f"bandwidth_hz must be > 0, got {self.bandwidth_hz}")
        if self.cell_radius_km <= 0:
            raise ValueError(f"cell_radius_km must be > 0, got {self.cell_radius_km}")
        if self.pathloss_b < 0:
            raise ValueError(f"pathloss_b must be >= 0, got {self.pathloss_b}")
        if self.shadow_sigma_db < 0:
            raise ValueError(f"shadow_sigma_db must be >= 0, got {self.shadow_sigma_db}")
        try:
            10.0 ** (self.tx_power_dbm / 10.0)
        except OverflowError:
            raise ValueError(
                f"tx_power_dbm = {self.tx_power_dbm} overflows the transmit power in mW"
            ) from None
        with np.errstate(over="ignore"):
            noise_mw = self.noise_power_mw
        if not 0.0 < noise_mw < np.inf:
            raise ValueError(f"noise_psd_dbm_hz = {self.noise_psd_dbm_hz} and bandwidth_hz = "
                             f"{self.bandwidth_hz} give a noise power of {noise_mw} mW")

    @property
    def noise_power_mw(self) -> float:
        """Total noise power over one channel, in mW."""
        return float(db_to_linear(self.noise_psd_dbm_hz)) * self.bandwidth_hz


@dataclass(frozen=True, eq=False)
class NetworkDrop:
    """Monte-Carlo realizations of user positions, shadowing and fading.

    Per-link quantities are stored as arrays; ``fading_power``, ``snr_linear``
    and ``snr_db`` have shape (..., n_users, n_channels), the rest
    (..., n_users). A block of drops has one leading drop axis, and
    ``block[d]`` is its drop ``d``.
    """

    user_distances_km: np.ndarray
    large_scale_gain: np.ndarray
    fading_power: np.ndarray
    snr_linear: np.ndarray
    snr_db: np.ndarray

    def __getitem__(self, d) -> "NetworkDrop":
        return NetworkDrop(*(getattr(self, f.name)[d] for f in fields(self)))


def pathloss_db(distance_km: float, params: RadioParams) -> float:
    """Log-distance pathloss: a + b*log10(d[km])."""
    if np.any(np.asarray(distance_km) <= 0):
        raise ValueError(f"distance must be > 0 km, got {distance_km}")
    return params.pathloss_a + params.pathloss_b * np.log10(distance_km)


def snr(params: RadioParams, large_scale_gain, fading_power):
    """SNR of a link: p * g * |h|^2 / (W * N0).

    All inputs linear; returns (snr_linear, snr_db). Accepts scalars or
    arrays (broadcast).
    """
    g = np.asarray(large_scale_gain, dtype=float)
    f = np.asarray(fading_power, dtype=float)
    if np.any(g <= 0) or np.any(f <= 0):
        raise ValueError("gains must be positive")
    p_mw = float(db_to_linear(params.tx_power_dbm))
    snr_linear = p_mw * g * f / params.noise_power_mw
    return snr_linear, linear_to_db(snr_linear)


# numpy's SeedSequence pool hash (4 pool words, 8 output words) and PCG64's
# 128-bit LCG multiplier, as numpy's bit_generator.pyx and pcg64.h define them
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
SEED_LIMIT = 1 << 128


def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) pair of each of n successive hash calls, as columns.

    Each call xors its word with the running constant, then multiplies the
    constant by ``mult`` and the word by the new constant.
    """
    xor, mul = [], []
    for _ in range(n):
        xor.append(init)
        init = init * mult & _MASK32
        mul.append(init)
    return np.array(xor, np.uint32)[:, None], np.array(mul, np.uint32)[:, None]


# the pool takes 4 calls to fill and 4 x 3 to cross-mix; the output 8
_POOL_XOR, _POOL_MUL = _hash_constants(_INIT_A, _MULT_A, 16)
_OUT_XOR, _OUT_MUL = _hash_constants(_INIT_B, _MULT_B, 8)
# cross-mix round src: (src, the other 3 pool words, its 3 hash calls)
_ROUNDS = [(src, np.array([i for i in range(4) if i != src]), slice(4 + 3 * src, 7 + 3 * src))
           for src in range(4)]


def _hashmix(words: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    words = (words ^ xor) * mul
    return words ^ (words >> _XSHIFT)


def _pcg64_states(seeds: list[int]):
    """Yield the PCG64 state of ``default_rng(seed)`` for every seed in [0, 2**128).

    Runs numpy's ``SeedSequence(seed)`` pool hash for all seeds at once over
    a (4, seeds) array of 32-bit seed words (a seed below 2**128 fills at
    most the 4 pool words, and the unused ones hash as 0), takes the 8
    output words as PCG64's (initstate, initseq), then makes PCG64's two
    seeding steps in Python ints. The hash constants do not depend on the
    data, so each cross-mix round hashes its source word into the other 3
    words at once.
    """
    words = np.frombuffer(b"".join(s.to_bytes(16, "little") for s in seeds), "<u4")
    pool = _hashmix(words.reshape(-1, 4).T, _POOL_XOR[:4], _POOL_MUL[:4])
    for src, dst, calls in _ROUNDS:
        hashed = _hashmix(pool[src], _POOL_XOR[calls], _POOL_MUL[calls])
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
        pool[dst] = mixed ^ (mixed >> _XSHIFT)
    out = _hashmix(np.concatenate([pool, pool]), _OUT_XOR, _OUT_MUL).astype(np.uint64)
    # little-endian word pairs: (initstate high, low, initseq high, low)
    limbs = (out[0::2] | (out[1::2] << np.uint64(32))).T.tolist()
    for state_hi, state_lo, seq_hi, seq_lo in limbs:
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def sample_drops(
    n_users: int, n_channels: int, params: RadioParams, seeds
) -> NetworkDrop:
    """Draw one network realization per seed, as a block with a leading drop axis.

    Drop d's draws equal those of ``numpy.random.default_rng(seeds[d])``, so
    it does not depend on the other seeds of the block; every seed must be an
    integer in [0, 2**128). The generator start states of the whole block are
    computed in one numpy pass, and one reused generator draws every drop.
    Distances are uniform over the disc (CDF proportional to d^2), shadowing
    is Normal(0, shadow_sigma_db) per user, fading power Exponential(1) per
    (user, channel). Fading is drawn channel-by-channel, so for a fixed seed
    the drop with m channels is exactly the first m channel-columns of the
    drop with m+1 channels; channel sweeps therefore see nested realizations.
    Pathloss and SNR are computed once for the whole block.
    """
    if n_users < 1 or n_channels < 1:
        raise ValueError(
            f"need at least one user and one channel, got {n_users}x{n_channels}"
        )
    seeds = [operator.index(s) for s in seeds]
    bad = [s for s in seeds if not 0 <= s < SEED_LIMIT]
    if bad:
        raise ValueError(f"seed {bad[0]} is outside [0, 2**128)")
    n_drops = len(seeds)
    uniform = np.empty((n_drops, n_users))
    normal = np.empty((n_drops, n_users))
    fading = np.empty((n_drops, n_channels, n_users))
    rng = np.random.Generator(np.random.PCG64(0))
    # rng.normal(0.0, sigma, n) is 0.0 + sigma * standard_normal and
    # rng.exponential(1.0, ...) is 1.0 * standard_exponential, so drawing the
    # standard variates in place and scaling the block after gives the same bits
    for d, state in enumerate(_pcg64_states(seeds)):
        rng.bit_generator.state = state
        rng.random(out=uniform[d])
        rng.standard_normal(out=normal[d])
        rng.standard_exponential(out=fading[d])
    shadow_db = 0.0 + params.shadow_sigma_db * normal
    fading = np.ascontiguousarray(fading.transpose(0, 2, 1))
    distances = np.maximum(params.cell_radius_km * np.sqrt(uniform), MIN_DISTANCE_KM)

    with np.errstate(over="ignore", invalid="ignore"):
        loss_db = pathloss_db(distances, params) + shadow_db
        gain = db_to_linear(-loss_db)
    # a loss above about 3233 dB underflows the gain to 0, one below -3083 dB overflows it
    if not np.all((gain > 0) & (gain < np.inf)):
        raise ValueError(
            f"losses of {loss_db.min():.4g} to {loss_db.max():.4g} dB put the received "
            f"power outside the float range (pathloss_a = {params.pathloss_a}, pathloss_b = "
            f"{params.pathloss_b}, cell_radius_km = {params.cell_radius_km}, "
            f"shadow_sigma_db = {params.shadow_sigma_db})"
        )
    with np.errstate(over="ignore", divide="ignore"):
        snr_linear, snr_db_ = snr(params, gain[..., None], fading)
    if not np.all((snr_linear > 0) & (snr_linear < np.inf)):
        budget = ", ".join(f"{f.name} = {getattr(params, f.name)}" for f in fields(params))
        raise ValueError(f"the link budget puts an SNR outside the float range ({budget})")
    return NetworkDrop(
        user_distances_km=distances,
        large_scale_gain=gain,
        fading_power=fading,
        snr_linear=snr_linear,
        snr_db=snr_db_,
    )


def sample_drop(
    n_users: int, n_channels: int, params: RadioParams, rng_seed: int
) -> NetworkDrop:
    """Draw one network realization, deterministic for a given seed.

    The one-seed block of ``sample_drops``, without the drop axis.
    """
    return sample_drops(n_users, n_channels, params, [rng_seed])[0]
