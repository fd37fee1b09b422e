"""Pin the CLI's output bytes for every workload at seeds 0..31.

    python3 bench/make_golden.py

Run from the root of a checkout. Writes bench/golden.json, which maps
workload -> seed -> {"csv": ..., "stderr": ...}. run.py fails every run whose
output differs from it. Regenerate only when a change alters the results on
purpose, and say why with that change.
"""

import json
import sys
import tempfile
from pathlib import Path

import run

SEEDS = range(32)


def main() -> int:
    golden = {}
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        directory = Path(tmp)
        for name, wl in run.WORKLOADS.items():
            golden[name] = {}
            for seed in SEEDS:
                scenario = run.write_scenario(name, seed, directory)
                _wall, code, _rss, csv, err = run.run_cli(wl, scenario, directory)
                if code != 0:
                    print(f"{name} seed {seed}: exit {code}\n{err}", file=sys.stderr)
                    return 1
                golden[name][str(seed)] = {"csv": csv, "stderr": err}
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
