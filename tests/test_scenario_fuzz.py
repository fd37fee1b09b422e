"""Fuzzed scenario files through ``semse run``: exit 0, 1 or 2, never a traceback.

Files are built from the known keys with valid, boundary and garbage
values, plus unknown keys and malformed lines. Sizes stay small (users and
channels at most 6, n_drops at most 3, k_max at most 26) so each run is
quick.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semse.cli import main
from semse.harness import _FLOAT_KEYS, _INT_KEYS, _LIST_KEYS, _STR_KEYS, CSV_HEADER, SWEEPABLE


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
KEYS = sorted((_INT_KEYS | _FLOAT_KEYS | _STR_KEYS | _LIST_KEYS) - {"n_drops"})
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
