"""Byte-level regression gate on the CLI's output.

``tests/golden/`` pins the output of ``semse run`` on each file in
``scenarios/`` and on the sweep scenarios kept beside the goldens, and of
``semse compare`` on the default scenario and on a swept one (``compare``
ignores the sweep and ``systems``): the CSV, and where there is one
the ``<name>.stderr`` file with the crossover lines. A refactor or speed-up
must reproduce these bytes exactly; a change that alters them on purpose
regenerates them with

    PYTHONPATH=src python -m semse.cli <argv below> \\
        > tests/golden/<name>.csv 2> tests/golden/<name>.stderr

(deleting an empty stderr file) and says why.
"""

from pathlib import Path

import pytest

from semse.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CASES = {
    "default": ["run", "scenarios/default.txt"],
    "bits_per_word_sweep": ["run", "scenarios/bits_per_word_sweep.txt"],
    "n_channels_sweep": ["run", "tests/golden/n_channels_sweep.txt"],
    "tx_power_sweep": ["run", "tests/golden/tx_power_sweep.txt"],
    "compare_default": ["compare", "scenarios/default.txt", "--k", "1,2,3,4,5"],
    "compare_swept": ["compare", "tests/golden/compare_swept.txt", "--k", "1,3,5"],
}


@pytest.mark.parametrize("name", list(CASES))
def test_run_output_is_byte_identical(name, capsysbinary):
    command, scenario, *rest = CASES[name]
    assert main([command, str(ROOT / scenario), *rest]) == 0
    out = capsysbinary.readouterr()
    assert out.out == (GOLDEN / f"{name}.csv").read_bytes()
    stderr = GOLDEN / f"{name}.stderr"
    assert out.err == (stderr.read_bytes() if stderr.exists() else b"")
