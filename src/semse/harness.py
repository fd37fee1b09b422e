"""Monte-Carlo experiment driver: scenario files, sweeps, CSV output.

A scenario is a flat UTF-8 text file, one ``key = value`` per line, ``#``
comments and blank lines allowed, lists comma-separated. Every key has a
default (the standard desk-scale setup), so a file only states what it
changes. Example::

    n_users = 5
    n_channels = 5
    systems = semantic, ideal, 4g, 5g
    sweep_param = bits_per_word
    sweep_values = 10, 19, 27, 40, 60

Each drop d of a run uses seed ``base_seed + d``. All systems and all sweep
values share those seeds, so every system sees the identical network
realizations and curve differences are attributable to the system or the
swept parameter, never to sampling noise. Sweeping ``n_channels`` extends
drops without re-randomizing existing links (see ``channel.sample_drops``),
so per-drop totals are exactly monotone in the channel count.

Drops are evaluated in blocks of whole drops, at most ``_BLOCK_PAIRS``
(user, channel) pairs each, so memory does not grow with ``n_drops``. A
block is sampled once per distinct radio and channel count among the sweep
values, and its per-pair k scan runs once over the whole block; the
semantic matchings are shared by every ``bits_per_word`` value, which only
the bit-pipe weights depend on. Each system's matchings of a block come
from one ``match_drops`` call, as arrays of per-drop totals and matched
channels, so no per-pair Python object is built.

Totals are accumulated in normalized units and scaled by the source's
``info_per_word`` only in the emitted records.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .allocator import Constraints, conventional_drops, semantic_drops
from .channel import RadioParams, sample_drops
from .link_adaptation import CqiTable, SystemKind, builtin_table, load_cqi_table
from .metrics import SourceStats, TransformFactor
from .similarity import SimilaritySurface, default_surrogate, load_surface

SWEEPABLE = ("n_channels", "tx_power_dbm", "bits_per_word")

CSV_HEADER = "system,sweep_param,sweep_value,mean_total_sse,std_error,n_drops"

_SYSTEM_ORDER = {kind: i for i, kind in enumerate(SystemKind)}

# Most (user, channel) pairs evaluated at once; a block holds at least one drop.
_BLOCK_PAIRS = 1 << 16


class ScenarioError(ValueError):
    """Raised for unparseable or invalid scenario files."""


@dataclass(frozen=True)
class ScenarioConfig:
    n_users: int = 5
    n_channels: int = 5
    radio: RadioParams = field(default_factory=RadioParams)
    constraints: Constraints = field(default_factory=Constraints)
    tf: TransformFactor = field(default_factory=TransformFactor)
    src: SourceStats = field(default_factory=SourceStats)
    systems: tuple = (
        SystemKind.SEMANTIC,
        SystemKind.IDEAL,
        SystemKind.FOUR_G,
        SystemKind.FIVE_G,
    )
    surface_source: str = "surrogate"
    cqi_4g: str = "builtin"
    cqi_5g: str = "builtin"
    n_drops: int = 500
    base_seed: int = 1
    sweep_param: str | None = None
    sweep_values: tuple = ()

    def __post_init__(self) -> None:
        if self.n_users < 1 or self.n_channels < 1:
            raise ScenarioError("n_users and n_channels must be >= 1")
        if self.n_drops < 1:
            raise ScenarioError("n_drops must be >= 1")
        if not self.systems:
            raise ScenarioError("systems must not be empty")
        if len(set(self.systems)) != len(self.systems):
            raise ScenarioError("systems must not repeat")
        if self.sweep_param is not None:
            if self.sweep_param not in SWEEPABLE:
                raise ScenarioError(
                    f"sweep_param must be one of {SWEEPABLE}, got {self.sweep_param!r}"
                )
            if not self.sweep_values:
                raise ScenarioError("sweep_values must not be empty when sweeping")
            if len(set(self.sweep_values)) < len(self.sweep_values):
                raise ScenarioError(f"sweep_values must not repeat, got {self.sweep_values}")
            if self.sweep_param == "n_channels":
                if any(v != int(v) or v < 1 for v in self.sweep_values):
                    raise ScenarioError("n_channels sweep values must be integers >= 1")
            if self.sweep_param == "bits_per_word" and any(
                v <= 0 for v in self.sweep_values
            ):
                raise ScenarioError("bits_per_word sweep values must be > 0")


@dataclass(frozen=True)
class SweepRecord:
    system: SystemKind
    sweep_param: str
    sweep_value: float
    mean_total_sse: float
    std_error: float
    n_drops: int


_INT_KEYS = {"n_users", "n_channels", "k_max", "n_drops", "base_seed"}
_FLOAT_KEYS = {
    "bandwidth_hz", "noise_psd_dbm_hz", "tx_power_dbm", "pathloss_a",
    "pathloss_b", "shadow_sigma_db", "cell_radius_km",
    "similarity_threshold", "sse_threshold", "bits_per_word", "info_per_word",
}
_STR_KEYS = {"surface", "cqi_4g", "cqi_5g", "sweep_param"}
_LIST_KEYS = {"systems", "sweep_values"}


def _finite(key: str, text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{key} must be finite, got {text.strip()!r}")
    return x


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file."""
    raw: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ScenarioError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key in raw:
                raise ScenarioError(f"{path}:{lineno}: duplicate key {key!r}")
            known = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS | _LIST_KEYS
            if key not in known:
                raise ScenarioError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                if key in _INT_KEYS:
                    raw[key] = int(value)
                elif key in _FLOAT_KEYS:
                    raw[key] = _finite(key, value)
                elif key == "systems":
                    raw[key] = tuple(
                        SystemKind.parse(tok) for tok in value.split(",") if tok.strip()
                    )
                elif key == "sweep_values":
                    raw[key] = tuple(
                        _finite(key, tok) for tok in value.split(",") if tok.strip()
                    )
                else:
                    raw[key] = value
            except ValueError as exc:
                raise ScenarioError(f"{path}:{lineno}: {exc}") from None

    radio_kwargs = {
        k: raw.pop(k)
        for k in (
            "bandwidth_hz", "noise_psd_dbm_hz", "tx_power_dbm", "pathloss_a",
            "pathloss_b", "shadow_sigma_db", "cell_radius_km",
        )
        if k in raw
    }
    cons_kwargs = {
        k: raw.pop(k)
        for k in ("k_max", "similarity_threshold", "sse_threshold")
        if k in raw
    }
    cfg_kwargs = {}
    if "bits_per_word" in raw:
        cfg_kwargs["tf"] = TransformFactor(raw.pop("bits_per_word"))
    if "info_per_word" in raw:
        cfg_kwargs["src"] = SourceStats(raw.pop("info_per_word"))
    if "surface" in raw:
        cfg_kwargs["surface_source"] = raw.pop("surface")
    for k in ("n_users", "n_channels", "systems", "cqi_4g", "cqi_5g",
              "n_drops", "base_seed", "sweep_param", "sweep_values"):
        if k in raw:
            cfg_kwargs[k] = raw.pop(k)
    try:
        return ScenarioConfig(
            radio=RadioParams(**radio_kwargs),
            constraints=Constraints(**cons_kwargs),
            **cfg_kwargs,
        )
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def surface_for(cfg: ScenarioConfig) -> SimilaritySurface:
    if cfg.surface_source == "surrogate":
        return default_surrogate(cfg.constraints.k_max)
    return load_surface(cfg.surface_source)


def tables_for(cfg: ScenarioConfig) -> dict[SystemKind, CqiTable]:
    tables = {}
    for system, source in ((SystemKind.FOUR_G, cfg.cqi_4g), (SystemKind.FIVE_G, cfg.cqi_5g)):
        tables[system] = builtin_table(system) if source == "builtin" else load_cqi_table(source)
    return tables


def _apply_sweep(cfg: ScenarioConfig, value):
    """Resolve (radio, n_channels, tf) for one sweep value."""
    radio, n_channels, tf = cfg.radio, cfg.n_channels, cfg.tf
    if cfg.sweep_param == "n_channels":
        n_channels = int(value)
    elif cfg.sweep_param == "tx_power_dbm":
        radio = dataclasses.replace(radio, tx_power_dbm=float(value))
    elif cfg.sweep_param == "bits_per_word":
        tf = TransformFactor(float(value))
    return radio, n_channels, tf


def _blocks(n_drops: int, pairs_per_drop: int):
    """Drop-index ranges of the evaluation blocks, in order."""
    size = max(1, _BLOCK_PAIRS // pairs_per_drop)
    for start in range(0, n_drops, size):
        yield range(start, min(start + size, n_drops))


def iter_scenario_drops(cfg: ScenarioConfig):
    """Yield (sweep_value, drop_index, {system: normalized total}) per drop.

    sweep_value is None when the scenario has no sweep. The order is
    block-major: for each block of drops, each sweep value in turn with the
    block's drops in ascending order, so every (sweep_value, drop_index)
    appears once and, per sweep value, the drops ascend.
    """
    surface = surface_for(cfg) if SystemKind.SEMANTIC in cfg.systems else None
    need_tables = any(s in cfg.systems for s in (SystemKind.FOUR_G, SystemKind.FIVE_G))
    tables = tables_for(cfg) if need_tables else {}
    cons = cfg.constraints
    values = cfg.sweep_values if cfg.sweep_param else (None,)
    settings = [(value, *_apply_sweep(cfg, value)) for value in values]
    max_channels = max(n_channels for _value, _radio, n_channels, _tf in settings)
    for block in _blocks(cfg.n_drops, cfg.n_users * max_channels):
        seeds = [cfg.base_seed + d for d in block]
        key = None
        for value, radio, n_channels, tf in settings:
            if key != (radio, n_channels):  # bits_per_word values share one sample
                key = radio, n_channels
                drops = sample_drops(cfg.n_users, n_channels, radio, seeds)
                semantic = (
                    semantic_drops(drops.snr_db, surface, cons).total.tolist()
                    if surface is not None else None
                )
            totals = {
                system: semantic if system is SystemKind.SEMANTIC else conventional_drops(
                    drops.snr_db, drops.snr_linear, system, tables, tf, cons
                ).total.tolist()
                for system in cfg.systems
            }
            for i, d in enumerate(block):
                yield value, d, {system: t[i] for system, t in totals.items()}


def _aggregate(totals: list[float], src: SourceStats, n: int) -> tuple[float, float]:
    arr = np.asarray(totals)
    mean = float(arr.mean()) * src.info_per_word
    stderr = 0.0 if n == 1 else float(arr.std(ddof=1)) / math.sqrt(n) * src.info_per_word
    return mean, stderr


def run_scenario(cfg: ScenarioConfig) -> list[SweepRecord]:
    """Run the configured sweep and return one record per (system, value)."""
    acc: dict = {}
    for value, _d, totals in iter_scenario_drops(cfg):
        for system, total in totals.items():
            acc.setdefault((system, value), []).append(total)
    records = []
    for value in (cfg.sweep_values if cfg.sweep_param else (None,)):
        for system in cfg.systems:
            mean, stderr = _aggregate(acc[(system, value)], cfg.src, cfg.n_drops)
            records.append(
                SweepRecord(
                    system=system,
                    sweep_param=cfg.sweep_param or "none",
                    sweep_value=float(value) if value is not None else 0.0,
                    mean_total_sse=mean,
                    std_error=stderr,
                    n_drops=cfg.n_drops,
                )
            )
    return records


def crossover_bits_per_word(records: list[SweepRecord]) -> dict[SystemKind, float]:
    """Bits-per-word value at which each bit-pipe curve meets the semantic one.

    Meaningful for a ``bits_per_word`` sweep: conventional means scale as the
    inverse of bits_per_word while the semantic mean does not move, so each
    conventional curve crosses the semantic level at
    (mean * bits_per_word) / semantic_mean, averaged over the sweep values.
    That scaling, and so the value, is exact only with ``sse_threshold = 0``:
    a floor above 0 zeroes a set of links that depends on bits_per_word, and
    the value is then an approximation (the CLI labels it so).
    """
    mu_records = [r for r in records if r.sweep_param == "bits_per_word"]
    semantic = [r for r in mu_records if r.system is SystemKind.SEMANTIC]
    if not semantic:
        return {}
    level = semantic[0].mean_total_sse
    out: dict[SystemKind, float] = {}
    for system in (SystemKind.IDEAL, SystemKind.FOUR_G, SystemKind.FIVE_G):
        rows = [r for r in mu_records if r.system is system]
        if not rows:
            continue
        scaled = float(np.mean([r.mean_total_sse * r.sweep_value for r in rows]))
        out[system] = math.inf if level == 0.0 else scaled / level
    return out


def iter_comparison_drops(cfg: ScenarioConfig, fixed_k_values: list[int]):
    """Per-drop totals of the fixed-k conventional-assignment policy vs ours.

    For each drop: match channels by the ideal system's bit-domain weights,
    then score that matching's semantic SE with every user forced to the
    given k (pairs violating the similarity or SE floor score 0); also solve
    the joint semantic optimization. Yields (drop_index, {k: total},
    optimized_total), all normalized.
    """
    cons = cfg.constraints
    for k in fixed_k_values:
        if not 1 <= k <= cons.k_max:
            raise ScenarioError(f"fixed k={k} outside 1..{cons.k_max}")
    if len(set(fixed_k_values)) < len(fixed_k_values):
        raise ScenarioError(f"fixed k values must not repeat, got {fixed_k_values}")
    surface = surface_for(cfg)
    for block in _blocks(cfg.n_drops, cfg.n_users * cfg.n_channels):
        drops = sample_drops(
            cfg.n_users, cfg.n_channels, cfg.radio, [cfg.base_seed + d for d in block]
        )
        channel = conventional_drops(
            drops.snr_db, drops.snr_linear, SystemKind.IDEAL, {}, cfg.tf, cons
        ).channel
        optimized = semantic_drops(drops.snr_db, surface, cons).total.tolist()
        # SNR of each user's ideal-matched pair; unmatched users score 0
        matched = channel >= 0
        snr_matched = np.take_along_axis(
            drops.snr_db, np.where(matched, channel, 0)[..., None], axis=2
        )[..., 0]
        fixed_totals = {}
        for k in fixed_k_values:
            xi = surface.query(k, snr_matched)
            w = xi / k
            score = np.where(
                matched & (xi >= cons.similarity_threshold) & (w >= cons.sse_threshold), w, 0.0
            )
            total = np.zeros(len(block))
            for user in range(cfg.n_users):  # left to right in user order: same rounding
                total += score[:, user]
            fixed_totals[k] = total.tolist()
        for i, d in enumerate(block):
            yield d, {k: t[i] for k, t in fixed_totals.items()}, optimized[i]


def run_model_comparison(
    cfg: ScenarioConfig, fixed_k_values: list[int]
) -> list[SweepRecord]:
    """Aggregate records for the fixed-k policy comparison.

    One record per fixed k (sweep_param ``fixed_k``) plus one for the joint
    optimization (sweep_param ``optimized_k``, sweep_value 0).
    """
    fixed_acc: dict[int, list[float]] = {k: [] for k in fixed_k_values}
    opt_acc: list[float] = []
    for _d, fixed_totals, optimized in iter_comparison_drops(cfg, fixed_k_values):
        for k, total in fixed_totals.items():
            fixed_acc[k].append(total)
        opt_acc.append(optimized)
    records = []
    for k in fixed_k_values:
        mean, stderr = _aggregate(fixed_acc[k], cfg.src, cfg.n_drops)
        records.append(
            SweepRecord(SystemKind.SEMANTIC, "fixed_k", float(k), mean, stderr, cfg.n_drops)
        )
    mean, stderr = _aggregate(opt_acc, cfg.src, cfg.n_drops)
    records.append(
        SweepRecord(SystemKind.SEMANTIC, "optimized_k", 0.0, mean, stderr, cfg.n_drops)
    )
    return records


def format_csv(records: list[SweepRecord]) -> str:
    """Render records as CSV text, deterministically ordered."""
    rows = sorted(
        records,
        key=lambda r: (_SYSTEM_ORDER[r.system], r.sweep_param, r.sweep_value),
    )
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.system.value},{r.sweep_param},{r.sweep_value:.6g},"
            f"{r.mean_total_sse:.6g},{r.std_error:.6g},{r.n_drops}"
        )
    return "\n".join(lines) + "\n"


def emit_csv(records: list[SweepRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_csv(records))
