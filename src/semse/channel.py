"""Cellular channel model: geometry, large-scale fading, Rayleigh fading, SNR.

Uplink single-cell model: users uniform on a disc around the base station,
log-distance pathloss with log-normal shadowing per user, i.i.d. Rayleigh
fading per (user, channel). Channels are orthogonal, so there is no
interference term and the link quality is a plain SNR.
"""

from __future__ import annotations

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


def sample_drops(
    n_users: int, n_channels: int, params: RadioParams, seeds
) -> NetworkDrop:
    """Draw one network realization per seed, as a block with a leading drop axis.

    Drop d comes from its own generator, ``default_rng(seeds[d])``, so it does
    not depend on the other seeds of the block. Distances are uniform over the
    disc (CDF proportional to d^2), shadowing is Normal(0, shadow_sigma_db)
    per user, fading power Exponential(1) per (user, channel). Fading is drawn
    channel-by-channel, so for a fixed seed the drop with m channels is exactly
    the first m channel-columns of the drop with m+1 channels; channel sweeps
    therefore see nested realizations. Pathloss and SNR are computed once for
    the whole block.
    """
    if n_users < 1 or n_channels < 1:
        raise ValueError(
            f"need at least one user and one channel, got {n_users}x{n_channels}"
        )
    n_drops = len(seeds)
    uniform = np.empty((n_drops, n_users))
    shadow_db = np.empty((n_drops, n_users))
    fading = np.empty((n_drops, n_users, n_channels))
    for d, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        uniform[d] = rng.random(n_users)
        shadow_db[d] = rng.normal(0.0, params.shadow_sigma_db, n_users)
        fading[d] = rng.exponential(1.0, size=(n_channels, n_users)).T
    distances = np.maximum(params.cell_radius_km * np.sqrt(uniform), MIN_DISTANCE_KM)

    loss_db = pathloss_db(distances, params) + shadow_db
    gain = db_to_linear(-loss_db)
    if not np.all(gain > 0):  # a loss beyond about 3233 dB underflows to 0
        raise ValueError(
            f"a loss of {loss_db.max():.4g} dB leaves no received power (pathloss_a = "
            f"{params.pathloss_a}, pathloss_b = {params.pathloss_b}, cell_radius_km = "
            f"{params.cell_radius_km}, shadow_sigma_db = {params.shadow_sigma_db})"
        )
    snr_linear, snr_db_ = snr(params, gain[..., None], fading)
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
