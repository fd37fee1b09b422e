"""Byte-level regression gate on the shipped scenarios.

``tests/golden/`` pins the output of ``semse run`` on each file in
``scenarios/``: the CSV, and for the sweep also the crossover lines on
stderr. A refactor or speed-up must reproduce these bytes exactly; a change
that alters them on purpose regenerates them with

    PYTHONPATH=src python -m semse.cli run scenarios/<name>.txt \\
        > tests/golden/<name>.csv 2> tests/golden/<name>.stderr

and says why.
"""

from pathlib import Path

import pytest

from semse.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("name", ["default", "bits_per_word_sweep"])
def test_run_output_is_byte_identical(name, capsysbinary):
    assert main(["run", str(ROOT / "scenarios" / f"{name}.txt")]) == 0
    out = capsysbinary.readouterr()
    assert out.out == (GOLDEN / f"{name}.csv").read_bytes()
    stderr = GOLDEN / f"{name}.stderr"
    assert out.err == (stderr.read_bytes() if stderr.exists() else b"")
