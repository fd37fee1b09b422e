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

Each key is parsed by the type of its default and set and validated by the
dataclass that holds it: ``_OWNER`` routes the keys of ``RadioParams``,
``Constraints``, ``TransformFactor`` and ``SourceStats`` to the
``ScenarioConfig`` field of that type, every other key to the field of its
name. A sweep value is the swept key's value in one unswept scenario,
``_swept(cfg, value)``, so it is checked exactly as that value set as its
key in the file, and the error names ``sweep_values``.

Each drop d of a run uses seed ``base_seed + d``. All systems and all sweep
values share those seeds, so every system sees the identical network
realizations and curve differences are attributable to the system or the
swept parameter, never to sampling noise. Sweeping ``n_channels`` extends
drops without re-randomizing existing links (see ``channel.sample_drops``),
so per-drop totals are exactly monotone in the channel count.

One block loop serves ``semse run`` and ``semse compare``. It runs over
the samples, each a distinct radio and channel count among the sweep
values, and evaluates each sample in blocks of whole drops, so memory does
not grow with ``n_drops``. A sample's blocks are sized from its own pairs
and stacks per drop under two budgets: a block holds at most
``_BLOCK_PAIRS`` pairs (users x channels x drops), which bounds sampling
and the k scan, and at most ``_CALL_WEIGHTS`` weights (pairs x stacks),
which bounds the matcher; it always holds at least one drop. A block's
per-pair k scan runs once over the whole block, and each bit-pipe system's
bit SE is computed once per block and weighed per ``bits_per_word`` value
by ``allocator.bit_pipe_weights``. Every weight stack of the sample (the
semantic one, shared by every ``bits_per_word`` value, and each bit-pipe
system at each of those values) is written into one
``allocator.weight_stacks`` buffer, whose layout the allocator chooses, and
matched in one call that returns per-drop totals as arrays. ``compare``
runs the loop with the ideal and semantic systems and no sweep.

Each per-drop total is keyed by the (system, sweep_param, sweep_value) of
the CSV row it averages into. ``drop_totals`` joins a row's blocks into one
(n_drops,) array, and the CSV row is that array's mean and standard error.
Every weight and total is normalized; ``_records`` alone scales the mean
and standard error by the source's ``info_per_word``. Totals stay arrays
until then, and the rows are those keys, in the block loop's order. A mean
or std error out of the float range names the row's own inputs before the
scaling, and ``info_per_word`` only after it.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import allocator  # looked up per call, so wrappers installed there see it
from .allocator import Constraints, DropMatches
from .channel import SEED_LIMIT, RadioParams, sample_drops
from .link_adaptation import CqiTable, CqiTableError, SystemKind, builtin_table, load_cqi_table
from .metrics import SourceStats, TransformFactor
from .similarity import SimilaritySurface, SurfaceError, default_surrogate, load_surface

SWEEPABLE = ("n_channels", "tx_power_dbm", "bits_per_word")

CSV_HEADER = "system,sweep_param,sweep_value,mean_total_sse,std_error,n_drops"
_csv_number = "{:.6g}".format  # how the results CSV prints every number

_SYSTEM_ORDER = {kind: i for i, kind in enumerate(SystemKind)}
_CQI_KEY = {SystemKind.FOUR_G: "cqi_4g", SystemKind.FIVE_G: "cqi_5g"}  # each table's file key

# Most pairs (users x channels) a drop may have: numpy cannot size a float
# array of more
_MAX_DROP_PAIRS = np.iinfo(np.intp).max // np.dtype(float).itemsize

# A block holds at least one drop, and otherwise as many as both budgets
# allow. Most pairs (users x channels x drops) in one block: this bounds
# sampling and the k scan, and keeps a 120 x 80 sample at one drop per block.
_BLOCK_PAIRS = 1 << 14
# Most weights (pairs x stacks) in one match_drops call: this bounds the
# weight buffer (8 bytes a weight) and the stacked matcher's working set
# (a tracemalloc peak of 13.2 bytes a weight on 5 x 5 stacks), and lets the
# shipped 500-drop scenario and 200-drop bits_per_word sweep match in one
# call each.
_CALL_WEIGHTS = 1 << 17


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
    surface: str = "surrogate"
    cqi_4g: str = "builtin"
    cqi_5g: str = "builtin"
    n_drops: int = 500
    base_seed: int = 1
    sweep_param: str | None = None
    sweep_values: tuple = ()

    def __post_init__(self) -> None:
        if self.n_users < 1 or self.n_channels < 1:
            raise ScenarioError("n_users and n_channels must be >= 1")
        if self.n_users > _MAX_DROP_PAIRS:
            raise ScenarioError(f"n_users must be at most {_MAX_DROP_PAIRS}, got {self.n_users}")
        max_channels = _MAX_DROP_PAIRS // self.n_users
        if self.n_channels > max_channels:
            raise ScenarioError(f"n_channels must be at most {max_channels} with n_users = "
                                f"{self.n_users}, got {self.n_channels}")
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
                try:
                    _swept(self, v)
                except ValueError as exc:
                    raise ScenarioError(f"sweep_values {v!r}: {exc}") from None
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


# Every scenario key's default, whose type picks the key's parser, and the
# ScenarioConfig field that holds each key of a nested dataclass; every
# other key is the ScenarioConfig field of the same name
_DEFAULT, _OWNER = {}, {}
for _f in dataclasses.fields(ScenarioConfig):
    if dataclasses.is_dataclass(_f.default_factory):  # radio, constraints, tf, src
        for _g in dataclasses.fields(_f.default_factory):
            _DEFAULT[_g.name], _OWNER[_g.name] = _g.default, _f.name
    else:
        _DEFAULT[_f.name] = _f.default


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
            if key not in _DEFAULT:
                raise ScenarioError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                if key == "systems":
                    raw[key] = tuple(
                        SystemKind.parse(tok) for tok in value.split(",") if tok.strip()
                    )
                elif key == "sweep_values":
                    raw[key] = tuple(
                        _finite(key, tok) for tok in value.split(",") if tok.strip()
                    )
                elif type(_DEFAULT[key]) is int:
                    raw[key] = int(value)
                elif type(_DEFAULT[key]) is float:
                    raw[key] = _finite(key, value)
                else:  # a text key: its default is a str, or None
                    raw[key] = value
            except ValueError as exc:
                named = str(exc) if str(exc).startswith(key) else f"{key}: {exc}"
                raise ScenarioError(f"{path}:{lineno}: {named}") from None

    try:
        return _replace(ScenarioConfig(), raw)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def surface_for(cfg: ScenarioConfig) -> SimilaritySurface:
    if cfg.surface == "surrogate":
        try:
            return default_surrogate(cfg.constraints.k_max)
        except MemoryError:
            raise ScenarioError(f"a surrogate surface of k_max = {cfg.constraints.k_max} "
                                f"rows is too large to allocate") from None
    try:
        surface = load_surface(cfg.surface)
    except SurfaceError as exc:
        raise SurfaceError(f"surface: {exc}") from None
    if not surface.covers_k_range(cfg.constraints.k_max):
        raise ScenarioError(f"surface {cfg.surface} does not tabulate every k in "
                            f"1..k_max = {cfg.constraints.k_max}")
    return surface


def tables_for(cfg: ScenarioConfig) -> dict[SystemKind, CqiTable]:
    tables = {}
    for system, key in _CQI_KEY.items():
        source = getattr(cfg, key)
        try:
            tables[system] = builtin_table(system) if source == "builtin" else load_cqi_table(source)
        except CqiTableError as exc:
            raise CqiTableError(f"{key}: {exc}") from None
    return tables


def _replace(cfg: ScenarioConfig, keys: dict) -> ScenarioConfig:
    """``cfg`` with each scenario key in ``keys`` set in the dataclass that holds it."""
    by_owner: dict = {}
    for key, value in keys.items():
        by_owner.setdefault(_OWNER.get(key), {})[key] = value
    fields = by_owner.pop(None, {})
    for owner, values in by_owner.items():
        fields[owner] = dataclasses.replace(getattr(cfg, owner), **values)
    return dataclasses.replace(cfg, **fields)


def _swept(cfg: ScenarioConfig, value) -> ScenarioConfig:
    """The unswept scenario at one sweep value; ``cfg`` itself if it sweeps nothing."""
    if cfg.sweep_param is None:
        return cfg
    key, unswept = cfg.sweep_param, {"sweep_param": None, "sweep_values": ()}
    if type(_DEFAULT[key]) is not int:
        return _replace(cfg, {**unswept, key: float(value)})
    if not float(value).is_integer():
        raise ValueError(f"{key} must be an integer")
    n = int(value)
    try:
        return _replace(cfg, {**unswept, key: n})
    except ValueError as exc:  # name the value as given, not its int() (309 digits at 1e308)
        raise ValueError(str(exc).replace(f"got {n}", f"got {value}")) from None


def _blocks(n_drops: int, pairs_per_drop: int, stacks: int):
    """Drop-index ranges of the evaluation blocks, in order."""
    weights_per_drop = pairs_per_drop * stacks
    size = max(1, min(_BLOCK_PAIRS // pairs_per_drop, _CALL_WEIGHTS // weights_per_drop))
    for start in range(0, n_drops, size):
        yield range(start, min(start + size, n_drops))


def _row(system: SystemKind, sweep_param: str | None, value) -> tuple:
    """Key (system, sweep_param, sweep_value) of the CSV row a total averages into."""
    return system, sweep_param or "none", 0.0 if value is None else float(value)


def _matched_blocks(cfg: ScenarioConfig, surface: SimilaritySurface | None):
    """Yield (drops, {row key: DropMatches}) per sample and block, blocks in order.

    A sample is a distinct (radio, n_channels) among the sweep values. One
    ``match_drops`` call per block matches all its stacks: the semantic one
    if ``surface`` is given, shared by its ``bits_per_word`` values, and each
    bit-pipe system's at each of those values, from one bit SE per system.
    The sample's blocks are sized from its own pairs and stacks per drop.
    """
    need_tables = any(s in cfg.systems for s in (SystemKind.FOUR_G, SystemKind.FIVE_G))
    tables = tables_for(cfg) if need_tables else {}
    cons = cfg.constraints
    pipes = [s for s in cfg.systems if s is not SystemKind.SEMANTIC]
    first_pipe = int(surface is not None)  # stack index of the first bit-pipe stack
    samples: dict = {}  # (radio, n_channels) -> [(sweep_value, tf), ...]
    for value in cfg.sweep_values or (None,):
        at = _swept(cfg, value)
        samples.setdefault((at.radio, at.n_channels), []).append((value, at.tf))
    for (radio, n_channels), group in samples.items():
        # stack s holds the weights of every row in rows[s]
        rows = [[_row(system, cfg.sweep_param, value)] for value, _tf in group for system in pipes]
        if surface is not None:
            rows.insert(0, [_row(SystemKind.SEMANTIC, cfg.sweep_param, v) for v, _tf in group])
        for block in _blocks(cfg.n_drops, cfg.n_users * n_channels, len(rows)):
            seeds = [cfg.base_seed + d for d in block]
            try:
                drops = sample_drops(cfg.n_users, n_channels, radio, seeds)
            except MemoryError:
                channels = (f"the n_channels sweep value {n_channels}"
                            if cfg.sweep_param == "n_channels" else f"n_channels = {n_channels}")
                raise ScenarioError(f"a drop of n_users = {cfg.n_users} by {channels} "
                                    f"is too large to allocate") from None
            # the k scan runs before the weight buffer exists, so that their
            # peaks do not add
            semantic = (allocator.semantic_weights(drops.snr_db, surface, cons)
                        if surface is not None else None)
            weights = allocator.weight_stacks(len(rows), len(block), cfg.n_users, n_channels)
            if semantic is not None:
                weights[0] = semantic
            se_bits = [allocator.bit_se(drops.snr_db, drops.snr_linear, system, tables)
                       for system in pipes]
            for s, ((_value, tf), se) in enumerate(itertools.product(group, se_bits), first_pipe):
                weights[s] = allocator.bit_pipe_weights(se, tf, cons)
            del se_bits, semantic  # freed before the matcher allocates its working set
            matched = allocator.match_drops(weights.reshape(-1, cfg.n_users, n_channels))
            del weights  # freed before the next block samples
            per_stack = zip(rows, matched.total.reshape(len(rows), len(block)),
                            matched.channel.reshape(len(rows), len(block), cfg.n_users))
            yield drops, {row: DropMatches(total, channel)
                          for names, total, channel in per_stack for row in names}


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


def _std(totals: np.ndarray) -> float:
    """Sample standard deviation of ``totals``, computed on them scaled by a power of two.

    The scale brings the largest magnitude into [0.5, 1), so the squared
    deviations of tiny totals do not underflow, nor those of huge ones
    overflow. The deviations are taken from the first total, which leaves
    the variance unchanged and makes that of equal totals exactly 0.
    """
    _, e = np.frexp(np.abs(totals).max())
    scaled = np.ldexp(totals, -e)
    return float(np.ldexp((scaled - scaled[0]).std(ddof=1), e))


def _require_range(system: SystemKind, mean: float, stderr: float, at: str) -> None:
    """Raise ValueError naming ``at`` unless the mean and std error print exactly."""
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise ValueError(f"the {system.value} mean S-SE or its std error overflows at {at}")
    # a subnormal float has lost digits, so it would print a wrong value
    if any(0.0 < abs(x) < sys.float_info.min for x in (mean, stderr)):
        raise ValueError(f"the {system.value} mean S-SE or its std error underflows at {at}")


def _inputs(cfg: ScenarioConfig, row: tuple) -> str:
    """The scenario keys a row's normalized totals come from, as ``key = value`` text."""
    system, sweep_param, value = row
    if system is SystemKind.SEMANTIC:
        return f"surface = {cfg.surface}"
    mu = value if sweep_param == "bits_per_word" else cfg.tf.bits_per_word
    table = _CQI_KEY.get(system)
    return f"bits_per_word = {mu}" + (f" with {table} = {getattr(cfg, table)}" if table else "")


def _records(cfg: ScenarioConfig, fixed_k_values: list[int] | None):
    """A record per ``drop_totals`` row, in order: its mean and std error times info_per_word.

    A mean or std error out of the float range names the row's own inputs;
    ``info_per_word`` only if the scaling by it leaves the range.
    """
    n, scale = cfg.n_drops, cfg.src.info_per_word
    by_row = drop_totals(cfg, fixed_k_values)
    # the first total plus the mean deviation from it, so that equal totals
    # have their value as mean; an overflow or inf total gives inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        means = [float(t[0] + (t - t[0]).mean()) for t in by_row.values()]
    records = []
    for (row, totals), mean in zip(by_row.items(), means):
        stderr = 0.0 if n == 1 or not math.isfinite(mean) else _std(totals) / math.sqrt(n)
        _require_range(row[0], mean, stderr, _inputs(cfg, row))
        mean, stderr = mean * scale, stderr * scale
        _require_range(row[0], mean, stderr, f"info_per_word = {scale}")
        records.append(SweepRecord(*row, mean, stderr, n))
    return records


def run_scenario(cfg: ScenarioConfig) -> list[SweepRecord]:
    """Run the configured sweep and return one record per (system, value)."""
    return _records(cfg, None)


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
    return _records(cfg, fixed_k_values)


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
