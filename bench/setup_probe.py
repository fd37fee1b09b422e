"""Child process that times the package's set-up, stage by stage.

    python3 bench/setup_probe.py <scenario>   (with src/ on PYTHONPATH)

Timing starts at the first statement, so interpreter start is excluded. numpy
is imported on its own first, so ``setup.import_semse_s`` excludes it. Prints
one JSON object; ``setup_s`` is the sum of the five stages.
"""

import sys
import time

t0 = time.perf_counter()
import numpy  # noqa: E402,F401

t1 = time.perf_counter()
import semse  # noqa: E402,F401
from semse import harness  # noqa: E402

t2 = time.perf_counter()
cfg = harness.load_scenario(sys.argv[1])
t3 = time.perf_counter()
harness.surface_for(cfg)
t4 = time.perf_counter()
harness.tables_for(cfg)
t5 = time.perf_counter()

import json  # noqa: E402

print(json.dumps({
    "setup_s": t5 - t0,
    "setup.import_numpy_s": t1 - t0,
    "setup.import_semse_s": t2 - t1,
    "harness.load_scenario.self_s": t3 - t2,
    "harness.surface_for.self_s": t4 - t3,
    "harness.tables_for.self_s": t5 - t4,
}))
