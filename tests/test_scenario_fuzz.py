"""Fuzzed scenario files through ``semse run``: exit 0, 1 or 2, never a traceback.

Files are built from the known keys with valid, boundary and garbage
values, plus unknown keys and malformed lines. Sizes stay small (users and
channels at most 6, n_drops at most 3, k_max at most 26) so each run is
quick.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from semse.allocator import Constraints
from semse.cli import main
from semse.harness import (
    _DEFAULT,
    CSV_HEADER,
    SWEEPABLE,
    ScenarioConfig,
    run_scenario,
)
from semse.link_adaptation import SystemKind
from semse.metrics import TransformFactor


def floats(lo, hi):
    return st.floats(lo, hi).map(repr)


HUGE = ["1e308", "-1e308", "5e-324"]
SYSTEMS = ["semantic", "ideal", "4g", "5g"]
SWEEP_TOKENS = ["1", "2", "3", "6", "10", "40", "0.5", "-5"]

# key -> (valid values, boundary values that may or may not be accepted)
VALUES = {
    "n_drops": (st.integers(1, 3).map(str), ["0", "-1"]),
    "n_users": (st.integers(1, 6).map(str), ["0", "-1"]),
    "n_channels": (st.integers(1, 6).map(str), ["0", "-1"]),
    "k_max": (st.integers(1, 25).map(str), ["0", "-1", "26"]),
    "base_seed": (st.integers(0, 1000).map(str), ["-1", str(2**64)]),
    "bandwidth_hz": (floats(1e3, 1e7), ["0", "-1", *HUGE]),
    "noise_psd_dbm_hz": (floats(-200, -100), ["0", *HUGE]),
    "tx_power_dbm": (floats(-30, 60), HUGE),
    "pathloss_a": (floats(0, 200), HUGE),
    "pathloss_b": (floats(0, 60), ["-1", *HUGE]),
    "shadow_sigma_db": (floats(0, 20), ["0", "-1", *HUGE]),
    "cell_radius_km": (floats(0.01, 5), ["0", "-1", *HUGE]),
    "similarity_threshold": (floats(0, 1), ["-0.1", "1.1"]),
    "sse_threshold": (floats(0, 0.2), ["-1", *HUGE]),
    "bits_per_word": (floats(1, 100), ["0", "-1", *HUGE]),
    "info_per_word": (floats(0.1, 10), ["0", "-1", *HUGE]),
    "surface": (st.just("surrogate"), ["missing.csv", "."]),
    "cqi_4g": (st.just("builtin"), ["missing.csv", "."]),
    "cqi_5g": (st.just("builtin"), ["missing.csv", "."]),
    "sweep_param": (st.sampled_from(SWEEPABLE), ["n_users", "none"]),
    "sweep_values": (
        st.lists(st.sampled_from(SWEEP_TOKENS), min_size=1, max_size=4, unique=True)
        .map(", ".join),
        ["0", "1, 1", "2,, 3", "1e-9"],
    ),
    "systems": (
        st.lists(st.sampled_from(SYSTEMS), min_size=1, max_size=4, unique=True).map(", ".join),
        ["semantic, semantic", "lte", "5G"],
    ),
}
GARBAGE = [
    "", "abc", "1.5.2", "0x10", "--1", "1,2", ",", "= 3", "1e999", "nan", "-inf", "é", "\x00",
    '"5"', " 5 5 ",
]
KEYS = sorted(_DEFAULT.keys() - {"n_drops"})
# the scenario keys parsed as floats: those whose default is a float
FLOAT_KEYS = sorted(key for key, default in _DEFAULT.items() if type(default) is float)
HARMLESS_LINES = ["# comment", "", "   ", "\t", "# n_users = 4"]
BAD_LINES = [
    "frobnicate = 3", "N_USERS = 2", "n_users 5", "= 3", "=", "n_users == 2", "sweep_values",
    "n_drops = 2", "systems = ,,,",
]


def test_every_key_has_values():
    assert sorted(VALUES) == sorted(KEYS + ["n_drops"])


@st.composite
def value_for(draw, key):
    valid, boundary = VALUES[key]
    kind = draw(st.integers(0, 9))  # mostly valid, so that many files run
    if kind == 0:
        return draw(st.sampled_from(GARBAGE))
    if kind == 1:
        return draw(st.sampled_from(boundary))
    return draw(valid)


@st.composite
def scenario_files(draw):
    # n_drops comes first and is otherwise only repeated on purpose (a
    # duplicate key), so a file that runs evaluates at most 3 drops
    lines = [f"n_drops = {draw(value_for('n_drops'))}"]
    for key in draw(st.lists(st.sampled_from(KEYS), unique=True, max_size=8)):
        lines.append(f"{key} = {draw(value_for(key))}")
    extra = draw(st.lists(st.sampled_from(HARMLESS_LINES), max_size=2))
    if draw(st.integers(0, 4)) == 0:
        extra.append(draw(st.sampled_from(BAD_LINES)))
    for line in extra:
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


# huge radio values overflow numpy arithmetic on purpose; the run must still
# end with an exit code
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(scenario_files())
def test_run_exits_0_1_or_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        scenario, out = Path(tmp) / "scenario.txt", Path(tmp) / "out.csv"
        scenario.write_text(text, encoding="utf-8")
        code = main(["run", str(scenario), "--out", str(out)])
        assert code in (0, 1, 2)
        if code == 0:
            assert out.read_text(encoding="utf-8").startswith(CSV_HEADER)


EXTREMES = ["1e308", "-1e308", "1e-310", "5e-324"]


def assert_rejected_by_key_or_printed_exactly(path, capsys, lines: dict) -> None:
    """Run a scenario of ``lines`` ({key: value}) plus ``n_drops = 3``.

    No silent wrong answer: the run either exits 1 naming a key the file
    sets (a swept key counts as set), or prints only means and std errors
    that are 0 or normal floats (a subnormal has lost digits). No
    RuntimeWarning filter here, so any numpy warning fails the test.
    """
    path.write_text("".join(f"{k} = {v}\n" for k, v in {"n_drops": 3, **lines}.items()),
                    encoding="utf-8")
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert code in (0, 1)
    if code == 1:
        named = {*lines, lines.get("sweep_param")} - {"n_drops", None}
        assert any(key in captured.err for key in named), captured.err
        return
    lines = captured.out.splitlines()
    assert lines[0] == CSV_HEADER and len(lines) > 1
    for line in lines[1:]:
        for printed in line.split(",")[3:5]:
            x = abs(float(printed))
            assert x == 0.0 or sys.float_info.min <= x < float("inf"), line


# how an overflow warning surfaces may differ at the oldest supported numpy,
# so every extreme-value run is also run there
@pytest.mark.numpy_floor
@pytest.mark.parametrize("value", EXTREMES)
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_extreme_float_is_rejected_by_key_or_printed_exactly(tmp_path, capsys, key, value):
    assert_rejected_by_key_or_printed_exactly(tmp_path / "scenario.txt", capsys, {key: value})


@pytest.mark.numpy_floor
@pytest.mark.parametrize("value", EXTREMES)
@pytest.mark.parametrize("key", [key for key in FLOAT_KEYS if key != "sse_threshold"])
def test_extreme_float_with_no_sse_floor_is_rejected_by_key_or_printed_exactly(
    tmp_path, capsys, key, value
):
    # a zero floor keeps the tiny weights a huge bits_per_word gives
    assert_rejected_by_key_or_printed_exactly(
        tmp_path / "scenario.txt", capsys, {"sse_threshold": 0, key: value}
    )


@pytest.mark.numpy_floor
@pytest.mark.parametrize("floor", [None, "0"], ids=["default_floor", "no_floor"])
@pytest.mark.parametrize("value", EXTREMES)
@pytest.mark.parametrize("sweep_param", SWEEPABLE)
def test_extreme_sweep_value_is_rejected_by_key_or_printed_exactly(
    tmp_path, capsys, sweep_param, value, floor
):
    lines = {"sweep_param": sweep_param, "sweep_values": f"3, {value}"}
    if floor is not None:
        lines["sse_threshold"] = floor
    assert_rejected_by_key_or_printed_exactly(tmp_path / "scenario.txt", capsys, lines)


# capsys is read, and the scenario file rewritten, by every example
@pytest.mark.numpy_floor
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.sampled_from(FLOAT_KEYS), min_size=2, max_size=2, unique=True),
       st.lists(st.sampled_from(EXTREMES), min_size=2, max_size=2))
def test_two_extreme_floats_are_rejected_by_key_or_printed_exactly(tmp_path, capsys, keys, values):
    assert_rejected_by_key_or_printed_exactly(
        tmp_path / "scenario.txt", capsys, dict(zip(keys, values))
    )


def spaced(lo, hi):
    """15 increasing floats from lo to hi, as file text; lo and hi may be +-1.7e308."""
    return [repr(float(x)) for x in np.linspace(lo / 2, hi / 2, 15) * 2]


# The file inputs at extreme but valid values, and some just past them. Each
# file and its scenario are run from their own directory, so that only the
# file's key, and no part of a path, can name a key in a message.
FLOORS = {"default_floors": {}, "no_floors": {"similarity_threshold": 0, "sse_threshold": 0}}
SURFACE_GRIDS = {"too_wide": "-1e308, 1e308", "from_-1e308": "-1e308, 0", "to_1e308": "0, 1e308",
                 "below_-1e307": "-1e308, -1e307", "subnormal": "-5e-324, 5e-324",
                 "one_column": "1e308"}
SIMILARITIES = {"subnormal": "5e-324, 5e-324", "0_to_subnormal": "0, 5e-324",
                "subnormal_to_1": "5e-324, 1", "0_to_1.7e308": "0, 1.7e308", "0_to_1": "0, 1"}
CQI_EFFICIENCIES = {
    "subnormal": [repr(i * 5e-324) for i in range(1, 16)],
    "least_normal": [repr(i * sys.float_info.min) for i in range(1, 16)],
    "huge": spaced(1e307, 1.7e308),
}
CQI_THRESHOLDS = {
    "outage": spaced(9e307, 1e308),
    "top_cqi": spaced(-1e308, -9e307),
    "spread": spaced(-1e308, 1e308),
    "subnormal": [repr(i * 5e-324) for i in range(-7, 8)],
}


@pytest.mark.numpy_floor
@pytest.mark.parametrize("floors", FLOORS)
@pytest.mark.parametrize("xi", SIMILARITIES)
@pytest.mark.parametrize("grid", SURFACE_GRIDS)
def test_extreme_surface_file_is_rejected_by_key_or_printed_exactly(
    tmp_path, capsys, monkeypatch, grid, xi, floors
):
    monkeypatch.chdir(tmp_path)
    grid = SURFACE_GRIDS[grid]
    row = ", ".join(SIMILARITIES[xi].split(", ")[-len(grid.split(",")):])
    Path("table.csv").write_text(f"k\\snr, {grid}\n1, {row}\n2, {row}\n", encoding="utf-8")
    assert_rejected_by_key_or_printed_exactly(
        Path("scenario.txt"), capsys, {"surface": "table.csv", "k_max": 2, **FLOORS[floors]}
    )


@pytest.mark.numpy_floor
@pytest.mark.parametrize("floors", FLOORS)
@pytest.mark.parametrize("thresholds", CQI_THRESHOLDS)
@pytest.mark.parametrize("efficiencies", CQI_EFFICIENCIES)
@pytest.mark.parametrize("key", ["cqi_4g", "cqi_5g"])
def test_extreme_cqi_file_is_rejected_by_key_or_printed_exactly(
    tmp_path, capsys, monkeypatch, key, efficiencies, thresholds, floors
):
    monkeypatch.chdir(tmp_path)
    rows = zip(CQI_EFFICIENCIES[efficiencies], CQI_THRESHOLDS[thresholds])
    Path("table.csv").write_text("index,efficiency,threshold_db\n" + "".join(
        f"{i},{e},{t}\n" for i, (e, t) in enumerate(rows, 1)
    ), encoding="utf-8")
    assert_rejected_by_key_or_printed_exactly(
        Path("scenario.txt"), capsys, {key: "table.csv", **FLOORS[floors]}
    )


@pytest.mark.numpy_floor  # the oldest supported numpy's mean and std may differ
def test_std_error_of_tiny_totals_keeps_its_digits():
    # at bits_per_word = 1e300 the ideal totals are about 1e-299: their
    # squared deviations underflow unless the totals are scaled first
    std = {}
    for mu in (10.0, 1e300):
        cfg = ScenarioConfig(n_drops=3, constraints=Constraints(sse_threshold=0.0),
                             tf=TransformFactor(mu))
        std[mu] = next(r.std_error for r in run_scenario(cfg) if r.system is SystemKind.IDEAL)
    assert std[10.0] == pytest.approx(0.297795, rel=1e-6)
    assert std[1e300] * 1e299 == pytest.approx(std[10.0], rel=1e-6)


# Each size is rejected before any array is built.
@pytest.mark.numpy_floor  # the oldest supported numpy's dimension errors may differ
@pytest.mark.parametrize("text, key", [
    ("n_users = 100000000000000000000", "n_users"),
    ("n_channels = 100000000000000000000", "n_channels"),
    ("n_users = 3000000000\nn_channels = 3000000000", "n_channels"),
    ("sweep_param = n_channels\nsweep_values = 10, 1e308", "sweep_values"),
])
def test_size_numpy_cannot_index_is_rejected_by_key(tmp_path, capsys, text, key):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(f"n_drops = 3\n{text}\n", encoding="utf-8")
    assert main(["run", str(scenario)]) == 1
    assert key in capsys.readouterr().err


# 10**17 channels pass the size check, but a drop's fading array would take
# 4 EiB: numpy refuses it at allocation, before touching any memory
@pytest.mark.parametrize("command, text, named", [
    (["run"], "n_channels = 100000000000000000", "n_channels = 100000000000000000"),
    (["compare", "--k", "1,2"], "n_channels = 100000000000000000",
     "n_channels = 100000000000000000"),
    (["run"], "sweep_param = n_channels\nsweep_values = 2, 100000000000000000",
     "n_channels sweep value 100000000000000000"),
])
def test_drop_too_large_to_allocate_is_rejected_by_key(tmp_path, capsys, command, text, named):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(f"n_drops = 3\nn_users = 5\n{text}\n", encoding="utf-8")
    assert main([command[0], str(scenario), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n_users = 5" in err and named in err


# A surrogate surface of 10**12 k rows would take 8 TB: numpy refuses its
# first array at allocation, before touching any memory
@pytest.mark.parametrize("command", [["run"], ["compare", "--k", "1,2"]])
def test_surrogate_too_large_to_allocate_is_rejected_by_key(tmp_path, capsys, command):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text("n_drops = 3\nk_max = 1000000000000\n", encoding="utf-8")
    assert main([command[0], str(scenario), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "k_max = 1000000000000" in err
