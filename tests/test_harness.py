import dataclasses
import errno
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semse import allocator, harness
from semse.cli import main
from semse.harness import (
    _DEFAULT,
    _OWNER,
    CSV_HEADER,
    SWEEPABLE,
    ScenarioConfig,
    ScenarioError,
    SweepRecord,
    crossover_bits_per_word,
    drop_totals,
    emit_csv,
    format_csv,
    load_scenario,
    run_model_comparison,
    run_scenario,
    surface_for,
    tables_for,
)
from semse.allocator import (
    Constraints,
    bit_pipe_weights,
    bit_se,
    build_pair_plans,
)
from semse.channel import RadioParams, sample_drop
from semse.link_adaptation import SystemKind, builtin_table
from semse.metrics import SourceStats, TransformFactor
from semse.similarity import SimilaritySurface

from oracles import ascending_sum, match_one, query, reference_drop_totals

ALL_SYSTEMS = (
    SystemKind.SEMANTIC,
    SystemKind.IDEAL,
    SystemKind.FOUR_G,
    SystemKind.FIVE_G,
)


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# the scenario keys parsed as floats: those whose default is a float
FLOAT_KEYS = sorted(key for key, default in _DEFAULT.items() if type(default) is float)


def write_scenario(tmp_path, text, name="scenario.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadScenario:
    def test_defaults_from_empty_file(self, tmp_path):
        cfg = load_scenario(write_scenario(tmp_path, "# nothing overridden\n"))
        assert cfg.n_users == 5 and cfg.n_channels == 5
        assert cfg.radio.bandwidth_hz == 180e3
        assert cfg.constraints.k_max == 20
        assert cfg.tf.bits_per_word == 40.0
        assert cfg.systems == ALL_SYSTEMS
        assert cfg.n_drops == 500

    def test_overrides(self, tmp_path):
        cfg = load_scenario(write_scenario(
            tmp_path,
            "n_users = 3\ntx_power_dbm = 20\nsystems = semantic, ideal\n"
            "sweep_param = bits_per_word\nsweep_values = 10, 20\nn_drops = 7\n",
        ))
        assert cfg.n_users == 3
        assert cfg.radio.tx_power_dbm == 20.0
        assert cfg.systems == (SystemKind.SEMANTIC, SystemKind.IDEAL)
        assert cfg.sweep_param == "bits_per_word" and cfg.sweep_values == (10.0, 20.0)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="unknown key"):
            load_scenario(write_scenario(tmp_path, "frobnicate = 3\n"))

    def test_bad_value_rejected(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, "n_users = many\n"))

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="duplicate"):
            load_scenario(write_scenario(tmp_path, "n_users = 2\nn_users = 3\n"))

    def test_missing_equals_rejected(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, "n_users 5\n"))

    def test_bad_sweep_param_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="sweep_param"):
            load_scenario(write_scenario(
                tmp_path, "sweep_param = n_users\nsweep_values = 1, 2\n"
            ))

    def test_sweep_without_values_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="sweep_values"):
            load_scenario(write_scenario(tmp_path, "sweep_param = bits_per_word\n"))

    def test_fractional_channel_sweep_rejected(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(
                tmp_path, "sweep_param = n_channels\nsweep_values = 1.5, 2\n"
            ))

    def test_repeated_sweep_value_rejected(self, tmp_path, capsys):
        # a repeat would emit the row twice, its mean over 2 x n_drops totals
        path = write_scenario(
            tmp_path, "n_drops = 3\nsweep_param = tx_power_dbm\nsweep_values = 10, 20, 10\n"
        )
        with pytest.raises(ScenarioError, match=r"must not repeat, got \(10.0, 20.0, 10.0\)"):
            load_scenario(path)
        assert main(["run", str(path)]) == 1
        assert "sweep_values must not repeat" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep_param, values", [
        ("tx_power_dbm", "10.0000001, 10.0000002"),
        ("bits_per_word", "40, 20, 40.0000004"),
        ("n_channels", "1000000, 1000001"),
    ])
    def test_sweep_values_that_print_alike_rejected(self, tmp_path, capsys, sweep_param, values):
        # both would print as the same sweep_value in two rows of the CSV
        path = write_scenario(
            tmp_path, f"n_drops = 3\nsweep_param = {sweep_param}\nsweep_values = {values}\n"
        )
        first, *_, last = (float(v) for v in values.split(","))
        message = f"sweep_values {first!r} and {last!r} both print as {first:.6g} in the results CSV"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            load_scenario(path)
        assert main(["run", str(path)]) == 1
        assert "sweep_values" in capsys.readouterr().err

    @pytest.mark.parametrize("key", FLOAT_KEYS + ["sweep_values"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_float_rejected(self, tmp_path, capsys, key, bad):
        value = f"10, {bad}" if key == "sweep_values" else bad
        path = write_scenario(tmp_path, f"n_drops = 1\n{key} = {value}\n")
        with pytest.raises(ScenarioError, match=rf":2: {key} must be finite"):
            load_scenario(path)
        assert main(["run", str(path)]) == 1
        assert f"{key} must be finite" in capsys.readouterr().err

    def test_every_key_lands_in_the_field_of_its_name(self, tmp_path):
        # a value no default has, for every key the sweep keys leave
        values = {**{key: "0.5" for key in FLOAT_KEYS},
                  **{key: "3" for key in _DEFAULT if type(_DEFAULT[key]) is int},
                  "surface": "s.csv", "cqi_4g": "a.csv", "cqi_5g": "b.csv", "systems": "ideal"}
        assert sorted(values) == sorted(_DEFAULT.keys() - {"sweep_param", "sweep_values"})
        cfg = load_scenario(write_scenario(
            tmp_path, "".join(f"{key} = {text}\n" for key, text in values.items())
        ))
        assert cfg.systems == (SystemKind.IDEAL,)
        for key, text in values.items():
            if key != "systems":
                holder = getattr(cfg, _OWNER[key]) if key in _OWNER else cfg
                assert str(getattr(holder, key)) == text, key

    @pytest.mark.parametrize("value", ["0", "-1", "1.5", "4000", "1e308"])
    @pytest.mark.parametrize("key", SWEEPABLE)
    def test_sweep_value_is_rejected_exactly_when_its_file_key_is(
        self, tmp_path, key, value
    ):
        # tx_power_dbm = 4000 used to pass as a sweep value and fail at run time
        errors = []
        for name, text in (("key.txt", f"{key} = {value}\n"),
                           ("swept.txt", f"sweep_param = {key}\nsweep_values = 3, {value}\n")):
            try:
                load_scenario(write_scenario(tmp_path, text, name))
            except ScenarioError as exc:
                errors.append(str(exc))
            else:
                errors.append(None)
        as_key, swept = errors
        assert (as_key is None) == (swept is None)
        if as_key is not None:
            assert key in as_key
            assert f"sweep_values {float(value)!r}: " in swept

    @pytest.mark.parametrize("key, value", [
        ("n_channels", "7"), ("tx_power_dbm", "-3.5"), ("bits_per_word", "12.5"),
    ])
    def test_sweep_value_resolves_to_the_scenario_with_its_file_key(
        self, tmp_path, key, value
    ):
        swept = load_scenario(write_scenario(
            tmp_path, f"n_users = 2\nsweep_param = {key}\nsweep_values = 3, {value}\n", "a.txt"
        ))
        as_key = load_scenario(write_scenario(tmp_path, f"n_users = 2\n{key} = {value}\n", "b.txt"))
        assert harness._swept(swept, float(value)) == as_key


NUMBER_FIELDS = [
    (cls, f.name)
    for cls in (RadioParams, Constraints, TransformFactor, SourceStats)
    for f in dataclasses.fields(cls)
    if f.type in ("float", float)
]


class TestLibraryBoundary:
    def test_every_float_field_is_covered(self):
        assert len(NUMBER_FIELDS) == 11

    @pytest.mark.parametrize("cls, name", NUMBER_FIELDS,
                             ids=[f"{c.__name__}.{n}" for c, n in NUMBER_FIELDS])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_field_rejected(self, cls, name, bad):
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            cls(**{name: bad})

    @pytest.mark.parametrize("sweep_param", SWEEPABLE)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_sweep_value_rejected(self, sweep_param, bad):
        # used to pass for tx_power_dbm, and to raise int()'s error for n_channels
        with pytest.raises(ScenarioError, match=rf"^sweep_values {bad!r}: "):
            ScenarioConfig(sweep_param=sweep_param, sweep_values=(3.0, bad))


def split_comparison(totals: dict) -> tuple[dict, float]:
    """Compare totals as ({k: fixed-k totals}, optimized totals), per drop or per run."""
    fixed = {int(k): t for (_s, param, k), t in totals.items() if param == "fixed_k"}
    return fixed, totals[SystemKind.SEMANTIC, "optimized_k", 0.0]


def quick_cfg(**kw) -> ScenarioConfig:
    defaults = dict(n_users=3, n_channels=3, n_drops=20, base_seed=9)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestRunScenario:
    def test_repeat_runs_are_identical(self):
        cfg = quick_cfg()
        assert run_scenario(cfg) == run_scenario(cfg)

    @pytest.mark.parametrize("sse_threshold", [0.0, 0.025])
    @pytest.mark.parametrize("systems", [
        (SystemKind.SEMANTIC,),
        (SystemKind.IDEAL, SystemKind.FIVE_G),  # stack 0 is a bit pipe
        (SystemKind.SEMANTIC, SystemKind.FOUR_G),
        (SystemKind.FIVE_G, SystemKind.SEMANTIC, SystemKind.IDEAL),
    ], ids=lambda systems: "-".join(s.value for s in systems))
    def test_system_subset_does_not_perturb_results(self, systems, sse_threshold):
        cfg = quick_cfg(constraints=Constraints(sse_threshold=sse_threshold),
                        sweep_param="bits_per_word", sweep_values=(10.0, 19.0, 40.0))
        full = drop_totals(cfg, None)
        subset = drop_totals(dataclasses.replace(cfg, systems=systems), None)
        assert subset.keys() == {row for row in full if row[0] in systems}
        for row, totals in subset.items():
            assert totals.tobytes() == full[row].tobytes()

    def test_record_per_system_and_value(self):
        systems = (SystemKind.FIVE_G, SystemKind.SEMANTIC, SystemKind.IDEAL)
        sweeps = {"tx_power_dbm": (0.0, 10.0), "n_channels": (4.0, 1.0, 2.0)}
        for sweep_param, values in sweeps.items():
            cfg = quick_cfg(systems=systems, sweep_param=sweep_param, sweep_values=values)
            records = run_scenario(cfg)
            assert len(records) == len(systems) * len(values)
            assert {(r.system, r.sweep_param, r.sweep_value) for r in records} == {
                (system, sweep_param, value) for system in systems for value in values
            }
            assert all(r.n_drops == 20 for r in records)
            assert all(r.mean_total_sse >= 0 and r.std_error >= 0 for r in records)

    def test_bits_per_word_sweep_scales_conventional_exactly(self):
        cfg = quick_cfg(
            constraints=Constraints(sse_threshold=0.0),
            sweep_param="bits_per_word",
            sweep_values=(20.0, 40.0),
        )
        records = run_scenario(cfg)
        by = {(r.system, r.sweep_value): r for r in records}
        for system in (SystemKind.IDEAL, SystemKind.FOUR_G, SystemKind.FIVE_G):
            assert by[(system, 20.0)].mean_total_sse == 2.0 * by[(system, 40.0)].mean_total_sse
        assert (
            by[(SystemKind.SEMANTIC, 20.0)].mean_total_sse
            == by[(SystemKind.SEMANTIC, 40.0)].mean_total_sse
        )

    def test_info_per_word_scales_reported_means(self):
        base = run_scenario(quick_cfg())
        scaled = run_scenario(quick_cfg(src=SourceStats(2.0)))
        for a, b in zip(base, scaled):
            assert b.mean_total_sse == pytest.approx(2.0 * a.mean_total_sse, rel=1e-12)

    def test_equal_totals_have_zero_std_error(self):
        # at 3000 dBm every 5G user gets the top CQI: the three totals are
        # equal, yet their std error used to print 7.85046e-17
        cfg = ScenarioConfig(n_drops=3, sweep_param="tx_power_dbm", sweep_values=(3000.0, 10.0))
        equal = {row for row, totals in drop_totals(cfg, None).items()
                 if np.unique(totals).size == 1}
        assert (SystemKind.FIVE_G, "tx_power_dbm", 3000.0) in equal
        for r in run_scenario(cfg):
            assert (r.std_error == 0.0) == ((r.system, r.sweep_param, r.sweep_value) in equal)

    def test_single_drop_has_zero_std_error(self):
        records = run_scenario(quick_cfg(n_drops=1))
        assert all(r.std_error == 0.0 for r in records)


class TestBlocks:
    """Drops evaluated in blocks give the totals of one drop solved at a time.

    Both budgets are set small here, so that every case spans several blocks
    whatever values the harness ships.
    """

    PAIRS, WEIGHTS = 1 << 10, 1 << 12

    @pytest.fixture(autouse=True)
    def small_budgets(self, monkeypatch):
        monkeypatch.setattr(harness, "_BLOCK_PAIRS", self.PAIRS)
        monkeypatch.setattr(harness, "_CALL_WEIGHTS", self.WEIGHTS)

    @pytest.mark.parametrize("kw, fixed_k, stacks, samples", [
        # the weight budget binds: 10 stacks of 36 pairs, one per bit pipe and
        # value above a zero S-SE floor
        (dict(n_users=6, n_channels=6, n_drops=100, sweep_param="bits_per_word",
              sweep_values=(10.0, 20.0, 40.0)), None, 10, 1),
        (dict(n_users=6, n_channels=6, n_drops=300, sweep_param="tx_power_dbm",
              sweep_values=(0.0, 10.0)), None, 4, 2),
        (dict(n_users=6, n_drops=300, sweep_param="n_channels", sweep_values=(2.0, 5.0)),
         None, 4, 2),
        (dict(n_users=100, n_channels=100, n_drops=2), None, 4, 1),  # one drop per block
        (dict(n_users=6, n_channels=6, n_drops=1000), [1, 2], 2, 1),
        # the pair budget binds: one stack
        (dict(n_users=6, n_channels=6, n_drops=300, systems=(SystemKind.SEMANTIC,)),
         None, 1, 1),
        # at sse_threshold 0 a bit pipe's one stack serves every value
        (dict(n_users=6, n_channels=6, n_drops=100, constraints=Constraints(sse_threshold=0.0),
              sweep_param="bits_per_word", sweep_values=(10.0, 20.0, 40.0)), None, 4, 1),
    ])
    def test_one_match_drops_call_per_block_and_sample(
        self, monkeypatch, kw, fixed_k, stacks, samples
    ):
        cfg = quick_cfg(**kw)
        blocks, shapes = [], []
        real_sample, real_match = harness.sample_drops, allocator.match_drops
        monkeypatch.setattr(
            harness, "sample_drops", lambda *args: blocks.append(args[3]) or real_sample(*args)
        )
        monkeypatch.setattr(
            allocator, "match_drops", lambda w: shapes.append(w.shape) or real_match(w)
        )
        if fixed_k:
            run_model_comparison(cfg, fixed_k)
        else:
            run_scenario(cfg)
        assert len(shapes) == len(blocks) > samples
        for seeds, shape in zip(blocks, shapes):
            assert shape[0] == stacks * len(seeds)
            pairs = shape[1] * shape[2]
            assert len(seeds) == 1 or (
                pairs * len(seeds) <= self.PAIRS and np.prod(shape) <= self.WEIGHTS
            )
            # a sample's blocks but its last are as large as both budgets allow
            if seeds[-1] != cfg.base_seed + cfg.n_drops - 1:
                most = min(self.PAIRS // pairs, self.WEIGHTS // (stacks * pairs))
                assert len(seeds) == max(1, most)
        seeds = [s for block in blocks for s in block]
        every_seed = range(cfg.base_seed, cfg.base_seed + cfg.n_drops)
        assert sorted(seeds) == sorted([*every_seed] * samples)

    def big_cfg(self, **kw):
        cfg = quick_cfg(n_users=60, n_channels=60, n_drops=20, base_seed=3, **kw)
        assert cfg.n_users * cfg.n_channels * cfg.n_drops > harness._BLOCK_PAIRS
        return cfg

    def test_totals_past_the_pair_budget_equal_single_drop_solves(self):
        cfg = self.big_cfg()
        cons, surface, tables = cfg.constraints, surface_for(cfg), tables_for(cfg)
        totals = drop_totals(cfg, None)
        assert all(t.shape == (cfg.n_drops,) for t in totals.values())
        for d in range(cfg.n_drops):
            drop = sample_drop(cfg.n_users, cfg.n_channels, cfg.radio, cfg.base_seed + d)
            semantic = build_pair_plans(drop.snr_db, surface, cons).weight
            expect = {SystemKind.SEMANTIC: match_one(semantic)}
            for system in ALL_SYSTEMS[1:]:
                expect[system] = match_one(bit_pipe_weights(
                    bit_se(drop.snr_db, drop.snr_linear, system, tables), cfg.tf, cons
                ))
            assert {row: t[d] for row, t in totals.items()} == {
                (s, "none", 0.0): a.total_weight for s, a in expect.items()
            }

    def test_comparison_past_the_pair_budget_equals_per_pair_scoring(self):
        cfg = self.big_cfg()
        cons, surface = cfg.constraints, surface_for(cfg)
        scored = 0
        totals = drop_totals(cfg, [3, 5, 8])
        assert all(t.shape == (cfg.n_drops,) for t in totals.values())
        for d in range(cfg.n_drops):
            fixed, optimized = split_comparison({row: t[d] for row, t in totals.items()})
            drop = sample_drop(cfg.n_users, cfg.n_channels, cfg.radio, cfg.base_seed + d)
            ideal = match_one(bit_pipe_weights(
                bit_se(drop.snr_db, drop.snr_linear, SystemKind.IDEAL, {}), cfg.tf, cons
            ))
            for k, total in fixed.items():
                scores = []
                for i, j in ideal.pairs:
                    xi = query(surface, k, float(drop.snr_db[i, j]))
                    if xi >= cons.similarity_threshold and xi / k >= cons.sse_threshold:
                        scores.append(xi / k)
                scored += len(scores)
                assert total == ascending_sum(scores)
            semantic = build_pair_plans(drop.snr_db, surface, cons).weight
            assert optimized == match_one(semantic).total_weight
        assert scored > 0

    @pytest.mark.parametrize("sweep_param, values, samples", [
        ("bits_per_word", (10.0, 20.0, 40.0), 1),
        ("tx_power_dbm", (0.0, 10.0), 2),
    ])
    def test_sweep_values_share_a_sample_only_when_the_drop_is_the_same(
        self, monkeypatch, sweep_param, values, samples
    ):
        seeds = []
        real = harness.sample_drops
        monkeypatch.setattr(
            harness, "sample_drops", lambda *args: seeds.append(args[3]) or real(*args)
        )
        cfg = quick_cfg(sweep_param=sweep_param, sweep_values=values)
        totals = drop_totals(cfg, None)
        assert len(totals) == len(values) * len(cfg.systems)
        assert all(t.shape == (cfg.n_drops,) for t in totals.values())
        assert seeds == [list(range(9, 29))] * samples

    @pytest.mark.parametrize("fixed_k", [None, [1, 3, 5]], ids=["run", "compare"])
    def test_view_totals_average_to_the_csv_row_means(self, fixed_k):
        cfg = quick_cfg(src=SourceStats(2.5), sweep_param="tx_power_dbm",
                        sweep_values=(0.0, 10.0))
        by_row = drop_totals(cfg, fixed_k)
        records = run_scenario(cfg) if fixed_k is None else run_model_comparison(cfg, fixed_k)
        assert len(by_row) == (8 if fixed_k is None else 4)
        # the records' mean: the first total plus the mean deviation from it
        assert {(r.system, r.sweep_param, r.sweep_value): r.mean_total_sse for r in records} == {
            row: float(t[0] + (t - t[0]).mean()) * cfg.src.info_per_word
            for row, t in by_row.items()
        }
        assert all(len(totals) == cfg.n_drops for totals in by_row.values())


# a few values of each sweep parameter, none printing like another
REFERENCE_SWEEPS = {
    "n_channels": (1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
    "tx_power_dbm": (-10.0, 0.0, 10.0, 30.0),
    "bits_per_word": (5.0, 10.0, 19.0, 40.0),
}


@st.composite
def reference_cases(draw):
    """(cfg, fixed k values or None, (_BLOCK_PAIRS, _CALL_WEIGHTS, _STACK_MIN_DROPS))."""
    sweep_param = draw(st.sampled_from([None, *SWEEPABLE]))
    values = () if sweep_param is None else tuple(draw(st.lists(
        st.sampled_from(REFERENCE_SWEEPS[sweep_param]), min_size=1, max_size=3, unique=True)))
    cfg = ScenarioConfig(
        n_users=draw(st.integers(1, 6)), n_channels=draw(st.integers(1, 6)),
        constraints=Constraints(sse_threshold=draw(st.sampled_from([0.0, 0.025]))),
        systems=tuple(draw(st.lists(st.sampled_from(ALL_SYSTEMS), min_size=1, unique=True))),
        n_drops=draw(st.integers(1, 12)), base_seed=draw(st.integers(0, 1000)),
        sweep_param=sweep_param, sweep_values=values,
    )
    fixed_k = draw(st.none() | st.lists(st.integers(1, cfg.constraints.k_max), max_size=3,
                                        unique=True))
    budgets = draw(st.integers(1, 256)), draw(st.integers(1, 1024)), draw(st.integers(1, 8))
    return cfg, fixed_k, budgets


def reference_records(cfg: ScenarioConfig, by_row: dict) -> list:
    """A record per row, its mean and std error times info_per_word.

    The mean is the first total plus the mean deviation from it, and the
    std error that of the deviations, as ``harness._records`` takes them.
    """
    n, scale = cfg.n_drops, cfg.src.info_per_word
    records = []
    for row, t in by_row.items():
        mean = float(t[0] + (t - t[0]).mean())
        stderr = float((t - t[0]).std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
        records.append(SweepRecord(*row, mean * scale, stderr * scale, n))
    return records


class TestReferencePipeline:
    """Every row of a run or a comparison equals ``oracles.reference_drop_totals``.

    Each example lowers both block budgets and the stacked matcher's drop
    threshold, so that a sample spans several blocks and both matching
    engines run.
    """

    @settings(max_examples=40, deadline=None)
    @given(reference_cases())
    # equal totals of 0.1388675, which print at the rounding edge: a mean or
    # std error taken without the first total's shift prints otherwise
    @example((quick_cfg(n_users=6, n_channels=1, n_drops=10, systems=(SystemKind.FOUR_G,),
                        radio=RadioParams(tx_power_dbm=30.0)), None, (64, 256, 4)))
    # more users than channels: the ideal matching leaves users unserved
    @example((quick_cfg(n_users=6, n_channels=2, n_drops=10), [1, 3, 5], (48, 96, 4)))
    # one bit-pipe matching per block and value above a zero floor, where at
    # -10 dBm the floor moves optimal channels; one per block below it
    @example((quick_cfg(n_users=4, n_channels=4, n_drops=10, sweep_param="bits_per_word",
                        sweep_values=(19.0, 40.0), radio=RadioParams(tx_power_dbm=-10.0)),
              None, (64, 512, 4)))
    @example((quick_cfg(n_users=4, n_channels=4, n_drops=10, sweep_param="bits_per_word",
                        sweep_values=(10.0, 40.0), constraints=Constraints(sse_threshold=0.0)),
              None, (64, 512, 4)))
    def test_every_row_equals_the_reference(self, case):
        cfg, fixed_k, (block_pairs, call_weights, stack_min_drops) = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_BLOCK_PAIRS", block_pairs)
            mp.setattr(harness, "_CALL_WEIGHTS", call_weights)
            mp.setattr(allocator, "_STACK_MIN_DROPS", stack_min_drops)
            by_row = drop_totals(cfg, fixed_k)
            records = run_scenario(cfg) if fixed_k is None else run_model_comparison(cfg, fixed_k)
        expect = reference_drop_totals(cfg, fixed_k)
        assert by_row.keys() == expect.keys()
        for row, totals in expect.items():
            assert by_row[row].tobytes() == totals.tobytes(), row
        assert format_csv(records) == format_csv(reference_records(cfg, expect))


class TestSharedBitPipeMatching:
    """At sse_threshold 0 each bit pipe is matched once per block, on its bit SE.

    Every ``bits_per_word`` value's row is then scored on those channels
    with the value's own weights.
    """

    @pytest.fixture(scope="class")
    def cfg(self):
        cfg = load_scenario(SCENARIOS / "bits_per_word_sweep.txt")
        assert cfg.constraints.sse_threshold == 0.0
        return cfg

    def test_each_bit_pipe_keeps_its_channels_across_the_values(self, cfg):
        blocks = 0
        for _drops, matches in harness._matched_blocks(cfg, surface_for(cfg)):
            blocks += 1
            for system in ALL_SYSTEMS[1:]:
                first = matches[system, "bits_per_word", cfg.sweep_values[0]].channel
                for value in cfg.sweep_values[1:]:
                    np.testing.assert_array_equal(
                        matches[system, "bits_per_word", value].channel, first)
        assert blocks == 1

    def test_each_value_is_scored_with_its_own_weights_on_those_channels(self, cfg):
        # at -10 dBm many 4G and 5G users are below the lowest CQI threshold
        # on every channel, so the matching gives them a channel of weight 0
        cfg = dataclasses.replace(cfg, radio=dataclasses.replace(cfg.radio, tx_power_dbm=-10.0))
        cons, tables, unserved = cfg.constraints, tables_for(cfg), 0
        for drops, matches in harness._matched_blocks(cfg, surface_for(cfg)):
            for system in ALL_SYSTEMS[1:]:
                se = bit_se(drops.snr_db, drops.snr_linear, system, tables)
                for value in cfg.sweep_values:
                    m = matches[system, "bits_per_word", value]
                    w = bit_pipe_weights(se, harness._swept(cfg, value).tf, cons)
                    expect = allocator.score_channels(w, m.channel)
                    np.testing.assert_array_equal(m.total, expect.total)
                    # a user is served exactly where its weight on its channel is positive
                    d, i = np.nonzero(m.channel >= 0)
                    assert (w[d, i, m.channel[d, i]] > 0.0).all()
                    unserved += (m.channel < 0).sum()
        assert unserved > 0

    def test_sweep_row_equals_the_unswept_run_at_its_value(self, cfg):
        swept = drop_totals(cfg, None)
        for value in cfg.sweep_values:
            alone = drop_totals(harness._swept(cfg, value), None)
            assert len(alone) == len(cfg.systems)
            for (system, _param, _value), totals in alone.items():
                np.testing.assert_array_equal(swept[system, "bits_per_word", value], totals)


class TestBlockBudgets:
    """The shipped budgets: one call per shipped scenario, one drop of a large cell per block."""

    @pytest.mark.parametrize("stacks", [1, 4, 16])
    def test_a_sample_of_9600_pairs_per_drop_keeps_one_drop_per_block(self, stacks):
        assert list(harness._blocks(3, 120 * 80, stacks)) == [range(d, d + 1) for d in range(3)]

    @pytest.mark.parametrize("name, fixed_k, stacks", [
        ("default.txt", None, 4),
        ("bits_per_word_sweep.txt", None, 4),  # sse_threshold 0: a bit pipe matched once
        ("default.txt", [1, 2, 3, 4, 5], 2),
    ])
    def test_shipped_scenarios_match_in_one_call(self, monkeypatch, name, fixed_k, stacks):
        cfg = load_scenario(SCENARIOS / name)
        shapes = []
        real = allocator.match_drops
        monkeypatch.setattr(allocator, "match_drops", lambda w: shapes.append(w.shape) or real(w))
        if fixed_k:
            run_model_comparison(cfg, fixed_k)
        else:
            run_scenario(cfg)
        assert shapes == [(stacks * cfg.n_drops, cfg.n_users, cfg.n_channels)]

    def test_sweep_stack_reaches_the_matcher_uncopied_in_16_bytes_a_weight(self, monkeypatch):
        stacks, seen = [], []
        real_match, real_stack = allocator.match_drops, allocator._max_weight_stack
        monkeypatch.setattr(allocator, "match_drops", lambda w: stacks.append(w) or real_match(w))
        monkeypatch.setattr(
            allocator, "_max_weight_stack", lambda w: seen.append(w) or real_stack(w)
        )
        run_scenario(load_scenario(SCENARIOS / "bits_per_word_sweep.txt"))
        (stack,), (matched,) = stacks, seen
        assert stack.shape == (800, 5, 5)
        # the matcher's drop-minor copy, ascontiguousarray(w.transpose(1, 2, 0)), is the stack
        assert np.shares_memory(np.ascontiguousarray(matched.transpose(1, 2, 0)), stack)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            real_match(stack)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 16 * stack.size

    @pytest.mark.parametrize("n_users, n_channels", [(20, 10), (10, 20), (10, 10)])
    def test_stack_reaches_the_stacked_matcher_uncopied_either_way_round(
        self, monkeypatch, n_users, n_channels
    ):
        # 81 drops of 4 stacks: one block, matched stacked; with more users
        # than channels the matcher's rows are the channels
        stacks, seen = [], []
        real_match, real_stack = allocator.match_drops, allocator._max_weight_stack
        monkeypatch.setattr(allocator, "match_drops", lambda w: stacks.append(w) or real_match(w))
        monkeypatch.setattr(
            allocator, "_max_weight_stack", lambda w: seen.append(w) or real_stack(w)
        )
        run_scenario(ScenarioConfig(n_users=n_users, n_channels=n_channels, n_drops=81))
        (stack,), (matched,) = stacks, seen
        assert stack.shape == (324, n_users, n_channels)
        assert matched.shape == (324, min(n_users, n_channels), max(n_users, n_channels))
        assert np.shares_memory(np.ascontiguousarray(matched.transpose(1, 2, 0)), stack)


class TestCrossover:
    def test_bits_per_word_sweep_crossovers(self):
        cfg = quick_cfg(
            constraints=Constraints(sse_threshold=0.0),
            sweep_param="bits_per_word",
            sweep_values=(10.0, 40.0),
        )
        records = run_scenario(cfg)
        cross = crossover_bits_per_word(records)
        assert set(cross) == {SystemKind.IDEAL, SystemKind.FOUR_G, SystemKind.FIVE_G}
        semantic_mean = next(
            r.mean_total_sse for r in records if r.system is SystemKind.SEMANTIC
        )
        for system, cross_value in cross.items():
            scaled = next(
                r.mean_total_sse * r.sweep_value
                for r in records
                if r.system is system
            )
            assert cross_value == pytest.approx(scaled / semantic_mean, rel=1e-9)
            assert cross_value > 0

    def test_empty_without_sweep(self):
        assert crossover_bits_per_word(run_scenario(quick_cfg())) == {}


class TestComparison:
    def test_empty_fixed_list_gives_only_optimized_record(self):
        records = run_model_comparison(quick_cfg(), [])
        assert len(records) == 1
        assert records[0].sweep_param == "optimized_k"

    def test_fixed_k_out_of_range(self):
        with pytest.raises(ScenarioError, match="fixed k"):
            drop_totals(quick_cfg(), [25])

    def test_optimized_dominates_fixed_per_drop(self):
        fixed, optimized = split_comparison(drop_totals(quick_cfg(), [1, 3, 5]))
        for total in fixed.values():
            assert np.all(optimized >= total)

    def test_records_shape(self):
        records = run_model_comparison(quick_cfg(), [2, 4])
        params = [r.sweep_param for r in records]
        assert params == ["fixed_k", "fixed_k", "optimized_k"]
        assert [r.sweep_value for r in records] == [2.0, 4.0, 0.0]

    def test_fixed_k_rows_are_scored_on_gathered_links(self, monkeypatch):
        # each block gathers the ideal stack's matched links and locates them
        # once, and each k scores those (drops, users) links, not every pair
        cfg = load_scenario(SCENARIOS / "default.txt")
        blocks, located, scored = [], [], []
        real_sample, real_locate, real_sse = (
            harness.sample_drops, SimilaritySurface.locate, allocator.sse_at_k)
        monkeypatch.setattr(
            harness, "sample_drops", lambda *args: blocks.append(args[3]) or real_sample(*args))
        monkeypatch.setattr(SimilaritySurface, "locate",
                            lambda self, snr: located.append(np.shape(snr)) or real_locate(self, snr))
        monkeypatch.setattr(allocator, "sse_at_k", lambda surface, k, at, cons: (
            scored.append((k, at[0].shape)) or real_sse(surface, k, at, cons)))
        run_model_comparison(cfg, [1, 2, 3, 4, 5])
        links = [(len(seeds), cfg.n_users) for seeds in blocks]
        # the k scan locates the (drops, users, channels) pairs
        assert [shape for shape in located if len(shape) == 2] == links
        assert scored == [(k, shape) for shape in links for k in range(1, 6)]


class TestCsv:
    def test_header_only_for_empty_records(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit_csv([], out)
        assert out.read_text(encoding="utf-8") == CSV_HEADER + "\n"

    def test_round_trip_six_significant_digits(self, tmp_path):
        records = run_scenario(quick_cfg())
        out = tmp_path / "r.csv"
        emit_csv(records, out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        parsed = [ln.split(",") for ln in lines[1:]]
        by_system = {row[0]: row for row in parsed}
        for r in records:
            row = by_system[r.system.value]
            assert float(row[3]) == pytest.approx(r.mean_total_sse, rel=1e-5)
            assert float(row[4]) == pytest.approx(r.std_error, rel=1e-5)
            assert int(row[5]) == r.n_drops

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_scenario(quick_cfg()), a)
        emit_csv(run_scenario(quick_cfg()), b)
        assert a.read_bytes() == b.read_bytes()

    def test_row_order_is_deterministic(self):
        records = [
            SweepRecord(SystemKind.FOUR_G, "mu", 2.0, 1.0, 0.0, 1),
            SweepRecord(SystemKind.SEMANTIC, "mu", 1.0, 1.0, 0.0, 1),
            SweepRecord(SystemKind.SEMANTIC, "mu", 2.0, 1.0, 0.0, 1),
        ]
        text = format_csv(records)
        systems = [ln.split(",")[0] for ln in text.splitlines()[1:]]
        assert systems == ["semantic", "semantic", "4g"]


class TestCli:
    def scenario(self, tmp_path):
        return write_scenario(
            tmp_path, "n_users = 2\nn_channels = 2\nn_drops = 3\n"
        )

    def test_run_to_file(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(["run", str(self.scenario(tmp_path)), "--out", str(out)])
        assert code == 0
        assert out.read_text(encoding="utf-8").startswith(CSV_HEADER)

    def test_run_to_stdout_matches_file(self, tmp_path, capsys):
        scenario = self.scenario(tmp_path)
        out = tmp_path / "out.csv"
        assert main(["run", str(scenario), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["run", str(scenario)]) == 0
        captured = capsys.readouterr()
        assert captured.out == out.read_text(encoding="utf-8")

    def test_run_overrides(self, tmp_path, capsys):
        assert main(["run", str(self.scenario(tmp_path)), "--drops", "2", "--seed", "5"]) == 0
        assert ",2\n" in capsys.readouterr().out

    def test_compare(self, tmp_path, capsys):
        assert main(["compare", str(self.scenario(tmp_path)), "--k", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "fixed_k" in out and "optimized_k" in out

    def test_compare_rejects_repeated_k(self, tmp_path, capsys):
        assert main(["compare", str(self.scenario(tmp_path)), "--k", "2,3,2"]) == 1
        captured = capsys.readouterr()
        assert "fixed k values must not repeat, got [2, 3, 2]" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("k", ["", "abc", "1.5"])
    def test_compare_rejects_k_that_is_not_a_list_of_integers(self, tmp_path, capsys, k):
        # "" used to print only the optimized_k row with exit 0, the others
        # to fail with int()'s message, which does not name the flag
        assert main(["compare", str(self.scenario(tmp_path)), "--k", k]) == 1
        captured = capsys.readouterr()
        assert f"--k must be comma-separated integers, got {k!r}" in captured.err
        assert captured.out == ""

    def test_compare_skips_an_empty_k_token(self, capsys):
        # as a scenario list skips its empty tokens
        scenario = str(SCENARIOS / "default.txt")
        assert main(["compare", scenario, "--k", "1,3"]) == 0
        expected = capsys.readouterr()
        assert main(["compare", scenario, "--k", "1,3,"]) == 0
        assert capsys.readouterr() == expected

    def test_tables_check(self, capsys):
        assert main(["tables", "--check"]) == 0
        out = capsys.readouterr().out
        assert "cqi_4g.csv" in out and "cqi_5g.csv" in out

    def test_validation_error_exit_code(self, tmp_path, capsys):
        bad = write_scenario(tmp_path, "n_users = -2\n")
        assert main(["run", str(bad)]) == 1

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.txt")]) == 2

    def test_sweep_values_without_sweep_param_rejected(self, tmp_path, capsys):
        # used to run unswept and print one "none" row per system, exit 0
        scenario = write_scenario(tmp_path, "n_drops = 2\nsweep_values = 10, 20\n")
        assert main(["run", str(scenario)]) == 1
        captured = capsys.readouterr()
        assert "sweep_values given without sweep_param" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("text, argv", [
        ("n_drops = 2\nbase_seed = -1\n", []),
        ("n_drops = 2\n", ["--seed", "-1"]),
    ])
    def test_negative_base_seed_rejected(self, tmp_path, capsys, text, argv):
        scenario = write_scenario(tmp_path, text)
        assert main(["run", str(scenario), *argv]) == 1
        captured = capsys.readouterr()
        assert "base_seed must be >= 0, got -1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("text, argv", [
        (f"n_drops = 2\nbase_seed = {2**128 - 1}\n", []),
        ("n_drops = 2\n", ["--seed", str(2**128 - 1)]),
    ])
    def test_seed_past_128_bits_rejected(self, tmp_path, capsys, text, argv):
        # drop 1 would take seed 2**128, which numpy's 4-word seed pool cannot hold
        scenario = write_scenario(tmp_path, text)
        assert main(["run", str(scenario), *argv]) == 1
        captured = capsys.readouterr()
        assert f"got base_seed = {2**128 - 1} with n_drops = 2" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["1e308", "1e18"])
    def test_huge_n_channels_sweep_value_is_printed_as_given(self, tmp_path, capsys, value):
        # int(1e308) used to be printed in full, 309 digits
        scenario = write_scenario(
            tmp_path, f"n_drops = 2\nsweep_param = n_channels\nsweep_values = 10, {value}\n"
        )
        assert main(["run", str(scenario)]) == 1
        captured = capsys.readouterr()
        given = repr(float(value))
        assert captured.err.endswith(f"sweep_values {given}: n_channels must be at most "
                                     f"{harness._MAX_DROP_PAIRS // 5} with n_users = 5, "
                                     f"got {given}\n")
        assert captured.out == ""

    def test_last_128_bit_seeds_run(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, "n_users = 2\nn_channels = 2\nn_drops = 2\n")
        assert main(["run", str(scenario), "--seed", str(2**128 - 2)]) == 0
        assert ",2\n" in capsys.readouterr().out

    @pytest.mark.parametrize("key, value", [
        ("tx_power_dbm", "1e308"),
        ("bits_per_word", "5e-324"),
        ("pathloss_a", "1e308"),
        ("cell_radius_km", "1e308"),
        ("info_per_word", "1.5e308"),  # used to print an inf mean with exit 0
        ("noise_psd_dbm_hz", "-1e308"),  # the noise power underflows to 0
        ("bandwidth_hz", "5e-324"),
        ("pathloss_a", "-1e308"),  # the gain overflows
        ("tx_power_dbm", "3082"),  # the SNR overflows
    ])
    def test_finite_value_that_overflows_is_rejected_by_key(
        self, tmp_path, capsys, key, value
    ):
        # each used to fail in the matcher or in snr() with a message naming no key
        scenario = write_scenario(tmp_path, f"n_drops = 3\n{key} = {value}\n")
        for argv in (["run", str(scenario)], ["compare", str(scenario), "--k", "1"]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert f"{key} = {float(value)}" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("lines, argv", [
        ("bits_per_word = 1e-310\n", ["compare", "--k", "1"]),
        ("bits_per_word = 1e-310\n", ["run"]),
        ("sweep_param = bits_per_word\nsweep_values = 40, 1e-310\n", ["run"]),
    ], ids=["compare", "run", "run_sweep"])
    def test_bits_per_word_overflow_names_only_what_the_scenario_set(
        self, tmp_path, capsys, lines, argv
    ):
        # used to name info_per_word = 1.0, a value the scenario did not set
        scenario = write_scenario(tmp_path, f"n_drops = 3\ninfo_per_word = 2\n{lines}")
        command, *flags = argv
        assert main([command, str(scenario), *flags]) == 1
        captured = capsys.readouterr()
        assert "bits_per_word = 1e-310" in captured.err
        assert "info_per_word = 1.0" not in captured.err
        assert captured.out == ""

    def test_compare_at_a_zero_floor_reads_no_weight_at_bits_per_word(self, tmp_path, capsys):
        # the ideal system is then matched on its bit SE, and no compare row
        # scores it at bits_per_word, so a value whose S-SE overflows runs
        outputs = []
        for value in ("40", "1e-310"):
            scenario = write_scenario(
                tmp_path, f"n_drops = 3\nsse_threshold = 0\nbits_per_word = {value}\n")
            assert main(["compare", str(scenario), "--k", "1,2"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    def test_table_whose_totals_overflow_is_named_with_bits_per_word(self, tmp_path, capsys):
        # the per-drop totals overflow in the user-order sum: that used to
        # print two numpy RuntimeWarnings (each fails this test, as pytest
        # raises warnings) and blame info_per_word = 1.0
        thresholds = builtin_table(SystemKind.FOUR_G).thresholds_db
        rows = zip(np.geomspace(1e300, 1.7e308, 15), thresholds)
        table = write_scenario(tmp_path, "index,efficiency,threshold_db\n" + "".join(
            f"{i},{float(e)!r},{float(t)!r}\n" for i, (e, t) in enumerate(rows, 1)
        ), "huge.csv")
        scenario = write_scenario(
            tmp_path, f"n_drops = 3\nsystems = 4g\ncqi_4g = {table}\nbits_per_word = 1\n"
        )
        assert main(["run", str(scenario)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: the 4g mean S-SE or its std error overflows at "
                                f"bits_per_word = 1.0 with cqi_4g = {table}\n")
        assert captured.out == ""

    def test_finite_totals_whose_sum_overflows_print_their_mean(self, tmp_path, capsys):
        # every user sits at the top CQI, so each drop's total is 1e308 and
        # their plain sum overflows: that used to exit 1 naming bits_per_word
        rows = zip(np.linspace(0.9e308, 1e308, 15), np.arange(-400.0, -385.0))
        table = write_scenario(tmp_path, "index,efficiency,threshold_db\n" + "".join(
            f"{i},{float(e)!r},{float(t)!r}\n" for i, (e, t) in enumerate(rows, 1)
        ), "huge.csv")
        scenario = write_scenario(
            tmp_path, f"n_drops = 3\nsystems = 4g\ncqi_4g = {table}\nbits_per_word = 5\n"
        )
        assert main(["run", str(scenario)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "4g,none,0,1e+308,0,3"

    @pytest.mark.parametrize("lines", [
        "bits_per_word = 1e308\n",
        "sweep_param = bits_per_word\nsweep_values = 40, 1e308\n",
    ], ids=["key", "sweep"])
    def test_subnormal_bit_pipe_mean_is_named_with_bits_per_word(self, tmp_path, capsys, lines):
        # used to blame info_per_word = 1.0, a value the scenario did not set
        scenario = write_scenario(tmp_path, f"n_drops = 3\nsse_threshold = 0\n{lines}")
        assert main(["run", str(scenario)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: the 4g mean S-SE or its std error underflows at "
                                "bits_per_word = 1e+308 with cqi_4g = builtin\n")
        assert captured.out == ""

    @pytest.mark.parametrize("command, flags", [("run", []), ("compare", ["--k", "1,2"])])
    def test_surface_missing_a_k_is_rejected_by_key(self, tmp_path, capsys, command, flags):
        # used to exit 1 with build_pair_plans' message, which names neither key
        surface = write_scenario(tmp_path, "k\\snr,0,10\n1,0.2,0.9\n2,0.3,0.95\n", "surf.csv")
        scenario = write_scenario(tmp_path, f"n_drops = 3\nsurface = {surface}\n")
        assert main([command, str(scenario), *flags]) == 1
        captured = capsys.readouterr()
        assert (f"surface {surface} does not tabulate every k in 1..k_max = 20: "
                "k=3 is not tabulated in this surface") in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("key, systems", [("surface", "semantic"), ("cqi_5g", "5g")])
    @pytest.mark.parametrize("is_dir, code", [(False, errno.ENOENT), (True, errno.EISDIR)])
    def test_unreadable_file_is_named_by_key(self, tmp_path, capsys, key, systems, is_dir, code):
        # used to print the OSError alone, which names the path but not the key
        path = tmp_path / "table"
        if is_dir:
            path.mkdir()
        scenario = write_scenario(tmp_path, f"n_drops = 3\nsystems = {systems}\n{key} = {path}\n")
        assert main(["run", str(scenario)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"i/o error: {key}: [Errno {code}] ")
        assert str(path) in captured.err and captured.out == ""

    def test_cqi_key_of_a_system_that_does_not_run_is_not_read(self, tmp_path, capsys):
        # a 4G-only run used to read cqi_5g too, and exit 2 when it was missing
        outputs = []
        for cqi_5g in ("builtin", tmp_path / "missing.csv"):
            scenario = write_scenario(tmp_path, f"n_drops = 3\nsystems = 4g\ncqi_5g = {cqi_5g}\n")
            assert main(["run", str(scenario)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv", [["run"], ["compare", "--k", "1"]], ids=["run", "compare"])
    def test_run_of_no_cqi_system_reads_no_cqi_key(self, tmp_path, capsys, argv):
        missing = tmp_path / "missing.csv"
        scenario = write_scenario(tmp_path, f"n_drops = 3\nsystems = semantic, ideal\n"
                                            f"cqi_4g = {missing}\ncqi_5g = {missing}\n")
        command, *flags = argv
        assert main([command, str(scenario), *flags]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("key", ["scenario", "surface", "cqi_4g"])
    def test_file_that_is_not_utf8_is_named(self, tmp_path, capsys, key):
        # used to print only the codec's message, which names neither file nor key
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe = 2\n")
        if key == "scenario":
            scenario, prefix = bad, f"error: {bad}: "
        else:
            scenario = write_scenario(tmp_path, f"n_drops = 3\n{key} = {bad}\n")
            prefix = f"error: {key}: {bad}: "
        assert main(["run", str(scenario)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(prefix + "'utf-8' codec can't decode byte 0xff")
        assert captured.out == ""

    def test_crossover_is_inf_at_a_zero_semantic_level(self, tmp_path, capsys):
        # the surrogate's similarity stays below 1, so no semantic link is served
        scenario = write_scenario(
            tmp_path,
            "n_drops = 20\nsimilarity_threshold = 1\nsse_threshold = 0\n"
            "sweep_param = bits_per_word\nsweep_values = 10, 40\n",
        )
        assert main(["run", str(scenario)]) == 0
        assert capsys.readouterr().err == "".join(
            f"crossover vs semantic: {s} at inf bits/word\n" for s in ("ideal", "4g", "5g")
        )

    def test_crossover_emitted_on_bits_per_word_sweep(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path,
            "n_users = 2\nn_channels = 2\nn_drops = 3\nsse_threshold = 0\n"
            "sweep_param = bits_per_word\nsweep_values = 10, 40\n",
        )
        assert main(["run", str(scenario)]) == 0
        captured = capsys.readouterr()
        assert "crossover vs semantic" in captured.err

    @pytest.mark.parametrize("floor, approximate", [("0", False), ("0.01", True)])
    def test_crossover_is_labelled_approximate_above_a_zero_floor(
        self, tmp_path, capsys, floor, approximate
    ):
        scenario = write_scenario(
            tmp_path,
            f"n_users = 2\nn_channels = 2\nn_drops = 3\nsse_threshold = {floor}\n"
            "sweep_param = bits_per_word\nsweep_values = 10, 40\n",
        )
        assert main(["run", str(scenario)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 3
        for line in lines:
            assert line.startswith("crossover vs semantic: ")
            assert line.endswith(
                " bits/word (approximate, sse_threshold > 0)" if approximate else " bits/word"
            )
