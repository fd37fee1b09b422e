"""Byte-level regression gate on the CLI's output.

``tests/golden/`` pins the output of ``semse run`` on each file in
``scenarios/`` and on the sweep scenarios kept beside the goldens, and of
``semse compare`` on the default scenario, on a swept one (``compare``
ignores the sweep and ``systems``) and on one with more users than
channels: the CSV, and where there is one
the ``<name>.stderr`` file with the crossover lines. Each case is one
``<name> <argv...>`` line of ``tests/golden/cases.txt``, the one list of
cases that these tests and the CI job without test extras both read. A
refactor or speed-up must reproduce these bytes exactly; a change that
alters them on purpose regenerates them with

    PYTHONPATH=src python -m semse.cli <argv> \\
        > tests/golden/<name>.csv 2> tests/golden/<name>.stderr

(deleting an empty stderr file) and says why.

``bench/golden.json`` pins the benchmark's outputs, every workload at seeds
0..31; they are replayed here in process, through the benchmark's own
scenario writer, so a change that moves one fails here, not only in the
benchmark.
"""

import dataclasses
import functools
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from semse.cli import main
from semse.harness import drop_totals, load_scenario
from semse.link_adaptation import SystemKind

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

BENCH_GOLDEN = json.loads((ROOT / "bench" / "golden.json").read_text(encoding="utf-8"))

CASES = {name: argv for name, *argv in map(
    str.split, (GOLDEN / "cases.txt").read_text(encoding="utf-8").splitlines())}


@pytest.mark.parametrize("name", list(CASES))
def test_run_output_is_byte_identical(name, capsysbinary):
    command, scenario, *rest = CASES[name]
    assert main([command, str(ROOT / scenario), *rest]) == 0
    out = capsysbinary.readouterr()
    assert out.out == (GOLDEN / f"{name}.csv").read_bytes()
    stderr = GOLDEN / f"{name}.stderr"
    assert out.err == (stderr.read_bytes() if stderr.exists() else b"")


def test_equal_totals_print_a_zero_std_error():
    # at one channel all 100 semantic, 4G and 5G totals of the channel-count
    # sweep are equal: their rows used to pin rounding noise as the std error,
    # and a 4G and a 5G mean that numpy's pairwise sum rounded below the total
    cfg = load_scenario(ROOT / CASES["n_channels_sweep"][1])
    totals = drop_totals(dataclasses.replace(cfg, sweep_values=(1.0,)), None)
    rows = (GOLDEN / "n_channels_sweep.csv").read_text(encoding="utf-8").splitlines()
    printed = {tuple(row.split(",")[:3]): row.split(",")[3:5] for row in rows[1:]}
    for system in (SystemKind.SEMANTIC, SystemKind.FOUR_G, SystemKind.FIVE_G):
        (total,) = np.unique(totals[system, "n_channels", 1.0])
        mean, std_error = printed[system.value, "n_channels", "1"]
        assert mean == f"{total * cfg.src.info_per_word:.6g}" and std_error == "0"


@functools.cache
def bench_run_module():
    """``bench/run.py``, imported from its file: its workloads and scenario writer."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(BENCH_GOLDEN))
def test_bench_golden_outputs_reproduce(workload, tmp_path, monkeypatch, capsys):
    bench = bench_run_module()
    wl = bench.WORKLOADS[workload]
    monkeypatch.chdir(ROOT)  # the benchmark runs the CLI from the root
    out = tmp_path / "out.csv"
    differ = []
    for seed, pinned in sorted(BENCH_GOLDEN[workload].items(), key=lambda item: int(item[0])):
        scenario = bench.write_scenario(workload, int(seed), tmp_path)
        argv = [wl.command, str(scenario), "--out", str(out)]
        if wl.fixed_k:
            argv += ["--k", ",".join(map(str, wl.fixed_k))]
        code = main(argv)
        err = capsys.readouterr().err
        if (code, out.read_text(encoding="utf-8"), err) != (0, pinned["csv"], pinned["stderr"]):
            differ.append(seed)
    assert len(BENCH_GOLDEN[workload]) == 32 and not differ
