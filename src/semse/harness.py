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

One block loop serves ``semse run`` and ``semse compare``. It evaluates
blocks of whole drops, so memory does not grow with ``n_drops``; one
``_BLOCK_PAIRS`` budget bounds the weights one ``match_drops`` call matches.
A block is sampled once per distinct radio and channel count among the
sweep values, its per-pair k scan runs once over the whole block, and every
weight stack of the sample (the semantic one, shared by every
``bits_per_word`` value, and each bit-pipe system at each of those values)
is matched in one call that returns per-drop totals as arrays. ``compare``
runs the loop with the ideal and semantic systems and no sweep.

Each per-drop total is keyed by the (system, sweep_param, sweep_value) of
the CSV row it averages into. ``drop_totals`` joins a row's blocks into one
(n_drops,) array, and the CSV row is that array's mean and standard error,
scaled by the source's ``info_per_word``. Totals stay arrays until then.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import allocator  # looked up per call, so wrappers installed there see it
from .allocator import Constraints, DropMatches
from .channel import SEED_LIMIT, RadioParams, sample_drops
from .link_adaptation import CqiTable, CqiTableError, SystemKind, builtin_table, load_cqi_table
from .metrics import SourceStats, TransformFactor
from .similarity import SimilaritySurface, default_surrogate, load_surface

SWEEPABLE = ("n_channels", "tx_power_dbm", "bits_per_word")

CSV_HEADER = "system,sweep_param,sweep_value,mean_total_sse,std_error,n_drops"
_csv_number = "{:.6g}".format  # how the results CSV prints every number

_SYSTEM_ORDER = {kind: i for i, kind in enumerate(SystemKind)}

# Most weights (users x channels x stacks) matched in one call; a block holds
# at least one drop. The stacked matcher's temporaries take about 37 bytes a
# weight: 1 << 16 raised the CLI's peak RSS on a bits_per_word sweep by 6%,
# 1 << 15 by under 3%, and 1 << 14 left a 500-drop 5x5 scenario no faster
# than one call per system.
_BLOCK_PAIRS = 1 << 15


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
        if self.base_seed < 0:
            raise ScenarioError(f"base_seed must be >= 0, got {self.base_seed}")
        if self.base_seed + self.n_drops - 1 >= SEED_LIMIT:
            raise ScenarioError(f"base_seed + n_drops - 1 must be below 2**128, got base_seed "
                                f"= {self.base_seed} with n_drops = {self.n_drops}")
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
            printed: dict = {}  # each value's sweep_value text in the results CSV
            for v in self.sweep_values:
                text = _csv_number(float(v) + 0.0)  # + 0.0: -0.0 repeats 0.0
                if text in printed and v == printed[text]:
                    raise ScenarioError(f"sweep_values must not repeat, got {self.sweep_values}")
                if text in printed:
                    raise ScenarioError(f"sweep_values {printed[text]!r} and {v!r} both print "
                                        f"as {text} in the results CSV")
                printed[text] = v
            if self.sweep_param == "n_channels":
                if any(v != int(v) or v < 1 for v in self.sweep_values):
                    raise ScenarioError("n_channels sweep values must be integers >= 1")
            if self.sweep_param == "bits_per_word" and any(
                v <= 0 for v in self.sweep_values
            ):
                raise ScenarioError("bits_per_word sweep values must be > 0")
        elif self.sweep_values:
            raise ScenarioError("sweep_values given without sweep_param")


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

    radio_kwargs, cons_kwargs = (
        {f.name: raw.pop(f.name) for f in dataclasses.fields(cls) if f.name in raw}
        for cls in (RadioParams, Constraints)
    )
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
    for system, key in ((SystemKind.FOUR_G, "cqi_4g"), (SystemKind.FIVE_G, "cqi_5g")):
        source = getattr(cfg, key)
        try:
            tables[system] = builtin_table(system) if source == "builtin" else load_cqi_table(source)
        except CqiTableError as exc:
            raise CqiTableError(f"{key}: {exc}") from None
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


def _blocks(n_drops: int, weights_per_drop: int):
    """Drop-index ranges of the evaluation blocks, in order."""
    size = max(1, _BLOCK_PAIRS // weights_per_drop)
    for start in range(0, n_drops, size):
        yield range(start, min(start + size, n_drops))


def _sweep_values(cfg: ScenarioConfig) -> tuple:
    return cfg.sweep_values if cfg.sweep_param else (None,)


def _row(system: SystemKind, sweep_param: str | None, value) -> tuple:
    """Key (system, sweep_param, sweep_value) of the CSV row a total averages into."""
    return system, sweep_param or "none", 0.0 if value is None else float(value)


def _matched_blocks(cfg: ScenarioConfig, surface: SimilaritySurface | None):
    """Yield (drops, {row key: DropMatches}) per block and sample, blocks in order.

    A sample is a distinct (radio, n_channels) among the sweep values. One
    ``match_drops`` call matches all its stacks: the semantic one if
    ``surface`` is given, shared by its ``bits_per_word`` values, and each
    bit-pipe system's at each of those values.
    """
    need_tables = any(s in cfg.systems for s in (SystemKind.FOUR_G, SystemKind.FIVE_G))
    tables = tables_for(cfg) if need_tables else {}
    cons = cfg.constraints
    pipes = [s for s in cfg.systems if s is not SystemKind.SEMANTIC]
    samples: dict = {}  # (radio, n_channels) -> [(sweep_value, tf), ...]
    for value in _sweep_values(cfg):
        radio, n_channels, tf = _apply_sweep(cfg, value)
        samples.setdefault((radio, n_channels), []).append((value, tf))
    n_stacks = {key: (surface is not None) + len(pipes) * len(group)
                for key, group in samples.items()}
    weights_per_drop = max(cfg.n_users * n_channels * n_stacks[radio, n_channels]
                           for radio, n_channels in samples)
    for block in _blocks(cfg.n_drops, weights_per_drop):
        seeds = [cfg.base_seed + d for d in block]
        for (radio, n_channels), group in samples.items():
            drops = sample_drops(cfg.n_users, n_channels, radio, seeds)
            # stack s holds the weights of every row in rows[s]
            weights = np.empty((n_stacks[radio, n_channels], *drops.snr_db.shape))
            rows = []
            if surface is not None:
                weights[0] = allocator.semantic_weights(drops.snr_db, surface, cons)
                rows.append([_row(SystemKind.SEMANTIC, cfg.sweep_param, v) for v, _tf in group])
            for value, tf in group:
                for system in pipes:
                    weights[len(rows)] = allocator.conventional_weights(
                        drops.snr_db, drops.snr_linear, system, tables, tf, cons
                    )
                    rows.append([_row(system, cfg.sweep_param, value)])
            matched = allocator.match_drops(weights.reshape(-1, cfg.n_users, n_channels))
            stacks = zip(rows, matched.total.reshape(len(rows), len(block)),
                         matched.channel.reshape(len(rows), len(block), cfg.n_users))
            yield drops, {row: DropMatches(total, channel)
                          for names, total, channel in stacks for row in names}


def drop_totals(cfg: ScenarioConfig, fixed_k_values: list[int] | None) -> dict:
    """{row key: (n_drops,) normalized totals}, drop d's total at index d.

    A row key is the (system, sweep_param, sweep_value) of a record of
    ``run_scenario(cfg)`` if ``fixed_k_values`` is None, else of
    ``run_model_comparison(cfg, fixed_k_values)``: the unswept scenario runs
    with the ideal and semantic systems, and the ideal matching is scored
    with every user at each fixed k (pairs below the similarity or S-SE
    floor score 0) next to the optimized total. The record's mean is the
    array's mean times ``info_per_word``.
    """
    if fixed_k_values is None:
        surface = surface_for(cfg) if SystemKind.SEMANTIC in cfg.systems else None
    else:
        cons = cfg.constraints
        for k in fixed_k_values:
            if not 1 <= k <= cons.k_max:
                raise ScenarioError(f"fixed k={k} outside 1..{cons.k_max}")
        if len(set(fixed_k_values)) < len(fixed_k_values):
            raise ScenarioError(f"fixed k values must not repeat, got {fixed_k_values}")
        surface = surface_for(cfg)
        cfg = dataclasses.replace(cfg, systems=(SystemKind.IDEAL, SystemKind.SEMANTIC),
                                  sweep_param=None, sweep_values=())
    parts: dict = {}  # {row key: its per-drop totals, block by block}
    for drops, matches in _matched_blocks(cfg, surface):
        if fixed_k_values is None:
            totals = {row: m.total for row, m in matches.items()}
        else:
            channel = matches[SystemKind.IDEAL, "none", 0.0].channel
            # SNR of each user's ideal-matched pair; unmatched users score 0
            served = channel >= 0
            snr_matched = np.take_along_axis(
                drops.snr_db, np.where(served, channel, 0)[..., None], axis=2
            )[..., 0]
            located = surface.locate(snr_matched)
            totals = {}
            for k in fixed_k_values:
                _xi, w, ok = allocator.sse_at_k(surface, k, located, cons)
                score = np.where(served & ok, w, 0.0)
                totals[SystemKind.SEMANTIC, "fixed_k", float(k)] = allocator.sum_by_user(score)
            optimized = matches[SystemKind.SEMANTIC, "none", 0.0].total
            totals[SystemKind.SEMANTIC, "optimized_k", 0.0] = optimized
        for row, total in totals.items():
            parts.setdefault(row, []).append(total)
    return {row: np.concatenate(p) for row, p in parts.items()}


def _records(cfg: ScenarioConfig, rows: list, fixed_k_values: list[int] | None):
    """A record per row key, in order: its totals' mean and std error times info_per_word."""
    by_row = drop_totals(cfg, fixed_k_values)
    assert by_row.keys() == set(rows), f"block rows {list(by_row)} are not the records' {rows}"
    n, scale = cfg.n_drops, cfg.src.info_per_word
    records = []
    for row in rows:
        totals = by_row[row]
        mean = float(totals.mean()) * scale
        stderr = 0.0 if n == 1 else float(totals.std(ddof=1)) / math.sqrt(n) * scale
        if not (math.isfinite(mean) and math.isfinite(stderr)):
            raise ValueError(f"the {row[0].value} mean S-SE or its std error "
                             f"overflows at info_per_word = {scale}")
        records.append(SweepRecord(*row, mean, stderr, n))
    return records


def run_scenario(cfg: ScenarioConfig) -> list[SweepRecord]:
    """Run the configured sweep and return one record per (system, value)."""
    rows = [_row(system, cfg.sweep_param, value)
            for value in _sweep_values(cfg) for system in cfg.systems]
    return _records(cfg, rows, None)


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


def run_model_comparison(
    cfg: ScenarioConfig, fixed_k_values: list[int]
) -> list[SweepRecord]:
    """Aggregate records for the fixed-k policy comparison.

    One record per fixed k (sweep_param ``fixed_k``) plus one for the joint
    optimization (sweep_param ``optimized_k``, sweep_value 0).
    """
    rows = [(SystemKind.SEMANTIC, "fixed_k", float(k)) for k in fixed_k_values]
    rows.append((SystemKind.SEMANTIC, "optimized_k", 0.0))
    return _records(cfg, rows, fixed_k_values)


def format_csv(records: list[SweepRecord]) -> str:
    """Render records as CSV text, deterministically ordered."""
    rows = sorted(
        records,
        key=lambda r: (_SYSTEM_ORDER[r.system], r.sweep_param, r.sweep_value),
    )
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.system.value},{r.sweep_param},{_csv_number(r.sweep_value)},"
            f"{_csv_number(r.mean_total_sse)},{_csv_number(r.std_error)},{r.n_drops}"
        )
    return "\n".join(lines) + "\n"


def emit_csv(records: list[SweepRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_csv(records))
