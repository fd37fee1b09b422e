"""Benchmark of the semse Monte-Carlo loop: sample, weigh, match, aggregate.

    python3 bench/run.py --workload default --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is loaded from ``src/``. The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the seed, the code
version, the library versions and the machine.

Workloads. Each is a closed loop from one process: one child process or one
in-process call at a time. ``--seed`` goes only into the scenario file the
benchmark writes (as ``base_seed``); everything else is as listed.

- ``default``: scenarios/default.txt, 5x5, all four systems. Per-drop Python
  overhead dominates; drop batching and per-call cuts show here.
- ``bpw_sweep``: scenarios/bits_per_word_sweep.txt. Each drop is sampled and
  the semantic system solved again at every sweep value although neither
  depends on it, so drop-major reuse shows here and only here.
- ``overloaded_cell``: 120 users x 80 channels, generated. The matching on a
  padded 120x120 matrix is nearly all of the time; replacing it shows here.
- ``fixed_k_compare``: ``semse compare`` on the default scenario with
  k = 1..5, the only path through the scalar ``SimilaritySurface.query``.

End-to-end metrics (``--trace 0``, tracing off):

- ``drops_per_s``: drop evaluations (one drop at one sweep value, every
  system solved) divided by the wall time of ``run_scenario`` or
  ``run_model_comparison`` plus ``format_csv``, in process, summed over the
  runs after a warm-up run.
- ``cli_s``: wall time of ``semse run|compare <scenario> --out <file>``
  from spawn to exit. Mean: on a shared host the per-run times fall into a
  fast and a slow mode, and the mean follows the share of slow runs where the
  median jumps between the modes, so the mean repeats better across runs.
- ``setup_s``: in a fresh child, import semse, then ``load_scenario``,
  ``surface_for`` and ``tables_for``; interpreter start excluded. Median.
- ``peak_rss_mb``: peak RSS of the CLI child, from its own rusage. Median.

Every run's CSV bytes (and, from the CLI, its stderr, which holds the
crossover lines of ``bpw_sweep``) must equal the copy pinned in
bench/golden.json for that workload and seed. For a seed not pinned there,
every output of the run must equal the first one. A run that differs, or a
CLI that exits non-zero, counts in ``failed``.

Per-layer metrics (``--trace 1``), from in-process runs with spans around
the package's entry points (see spans.py), and the end-to-end metric each
should move:

- ``channel.sample_drop``: drops_per_s on default and bpw_sweep (calls fall
  from 5x to 1x per drop on bpw_sweep with drop-major reuse).
- ``similarity.query_all_k`` and ``allocator.build_pair_plans`` (with the
  ``points`` and ``pairs`` work counts): drops_per_s on default and
  bpw_sweep, peak_rss_mb if batched.
- ``similarity.query``: drops_per_s on fixed_k_compare only.
- ``allocator.hungarian_max`` (``cells``, the sum of padded size squared):
  drops_per_s on overloaded_cell and default.
- ``allocator.{conventional_weights, weight_matrix, allocate_semantic,
  allocate_conventional}`` and ``link_adaptation.{table_se, shannon_se}``:
  drops_per_s on default.
- ``harness.self_s``: traced wall time not covered by any span (drop loop and
  aggregation); drops_per_s on default and fixed_k_compare.
- ``allocator.served_frac`` and ``allocator.feasible_pair_frac``: what the
  optimizer decided, over every matching; a refactor must not move them.
- ``setup.*`` and ``harness.{load_scenario, surface_for, tables_for}``: the
  parts of setup_s, plus the interpreter start it excludes.
- ``stage.<fn>.ms.n<N>``: one call on an N x N drop the benchmark samples.
- ``trace.overhead_frac`` (traced against untraced wall time, minus 1) and
  ``trace.coverage_frac`` (span time over traced wall time).

The traced run also checks every ``hungarian_max`` total against
``scipy.optimize.linear_sum_assignment`` on the same weights (a traced run
with a mismatch counts in ``failed``), and that two traced runs give
identical counts; a failure of either makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
GOLDEN = BENCH / "golden.json"

# Least number of timed runs of each kind, whatever --seconds says.
MIN_SAMPLES = 3
# Set-up children per measurement cycle; set-up time varies more per sample
# than the loop does, so it gets more samples.
SETUP_PER_CYCLE = 2
# A child still running after this long is killed and its run fails.
CHILD_TIMEOUT_S = 150.0
STAGE_SIZES = (5, 20, 50, 100, 200)
LSA_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    command: str  # semse subcommand
    scenario: str | None  # shipped scenario file; None for OVERLOADED_CELL
    fixed_k: tuple = ()


WORKLOADS = {
    "default": Workload("run", "scenarios/default.txt"),
    "bpw_sweep": Workload("run", "scenarios/bits_per_word_sweep.txt"),
    "overloaded_cell": Workload("run", None),
    "fixed_k_compare": Workload("compare", "scenarios/default.txt", (1, 2, 3, 4, 5)),
}

# Two drops keep one in-process run at 2-3 s on 2 cores while the matching
# stays the dominant stage; other keys take the package defaults.
OVERLOADED_CELL = """\
# 120 users compete for 80 channels: a padded 120x120 matching per system.
n_users = 120
n_channels = 80
n_drops = 2
"""


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def write_scenario(name: str, seed: int, directory: Path) -> Path:
    """The workload's scenario with ``base_seed = seed``, written to directory."""
    shipped = WORKLOADS[name].scenario
    text = (ROOT / shipped).read_text(encoding="utf-8") if shipped else OVERLOADED_CELL
    lines = [
        ln for ln in text.splitlines()
        if ln.split("#", 1)[0].partition("=")[0].strip() != "base_seed"
    ]
    path = directory / f"{name}.txt"
    path.write_text("\n".join(lines + [f"base_seed = {seed}"]) + "\n", encoding="utf-8")
    return path


def spawn(argv: list, stdout, stderr) -> tuple[float, int, float]:
    """Run a child to exit; (wall s, exit code, peak RSS MiB of that child)."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=stdout, stderr=stderr,
    )
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def run_cli(wl: Workload, scenario: Path, directory: Path):
    """One ``semse`` CLI run; (wall s, exit code, peak RSS MiB, csv, stderr)."""
    out, err = directory / "out.csv", directory / "err.txt"
    out.unlink(missing_ok=True)
    argv = [sys.executable, "-m", "semse.cli", wl.command, str(scenario), "--out", str(out)]
    if wl.fixed_k:
        argv += ["--k", ",".join(map(str, wl.fixed_k))]
    with open(err, "wb") as fh:
        wall, code, rss = spawn(argv, subprocess.DEVNULL, fh)
    csv = out.read_bytes().decode("utf-8") if out.exists() else None
    return wall, code, rss, csv, err.read_bytes().decode("utf-8")


def run_in_process(harness, wl: Workload, cfg) -> tuple[float, str]:
    t0 = perf_counter()
    if wl.fixed_k:
        records = harness.run_model_comparison(cfg, list(wl.fixed_k))
    else:
        records = harness.run_scenario(cfg)
    csv = harness.format_csv(records)
    return perf_counter() - t0, csv


def drop_evaluations(cfg, wl: Workload) -> int:
    if wl.fixed_k or not cfg.sweep_param:
        return cfg.n_drops
    return cfg.n_drops * len(cfg.sweep_values)


class Gate:
    """Counts runs, and those whose outputs differ from the expected bytes.

    ``expected`` maps "csv" and "stderr" to the pinned outputs. A key with no
    pinned value takes the first output seen, so later runs must repeat it.
    """

    def __init__(self, expected: dict | None) -> None:
        self.expected = dict(expected or {})
        self.attempted = 0
        self.failed = 0

    def check(self, exit_ok: bool, **outputs: str | None) -> None:
        self.attempted += 1
        same = all(
            value is not None and self.expected.setdefault(key, value) == value
            for key, value in outputs.items()
        )
        if not (exit_ok and same):
            self.failed += 1


def setup_sample(scenario: Path) -> dict:
    """Set-up stages timed in one fresh child."""
    probe = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(scenario)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(probe.stdout)


def time_call(call, budget_s: float = 0.2, max_reps: int = 200) -> float:
    """Median wall time of repeated calls: at least one, then up to the budget."""
    times = []
    end = perf_counter() + budget_s
    while not times or (perf_counter() < end and len(times) < max_reps):
        t0 = perf_counter()
        call()
        times.append(perf_counter() - t0)
    return median(times)


def stage_scan(seed: int) -> dict:
    """``stage.<fn>.ms.n<N>``: one call of each stage on a sampled N x N drop.

    The matching runs on the semantic weights of that drop. A stage whose
    function no longer exists reports 0.
    """
    from semse import allocator, channel
    from semse.link_adaptation import SystemKind, builtin_table
    from semse.metrics import TransformFactor
    from semse.similarity import default_surrogate

    radio, cons, tf = channel.RadioParams(), allocator.Constraints(), TransformFactor()
    surface = default_surrogate(cons.k_max)
    tables = {SystemKind.FOUR_G: builtin_table(SystemKind.FOUR_G)}
    out = {}
    for n in STAGE_SIZES:
        drop = channel.sample_drop(n, n, radio, seed)
        stages = {
            "sample_drop": lambda: channel.sample_drop(n, n, radio, seed),
            "build_pair_plans": lambda: allocator.build_pair_plans(drop.snr_db, surface, cons),
            "conventional_weights": lambda: allocator.conventional_weights(
                drop.snr_db, drop.snr_linear, SystemKind.FOUR_G, tables, tf, cons),
        }
        try:
            weights = allocator.weight_matrix(allocator.build_pair_plans(drop.snr_db, surface, cons))
            stages["hungarian_max"] = lambda: allocator.hungarian_max(weights)
        except AttributeError:
            pass
        for name in ("sample_drop", "build_pair_plans", "conventional_weights", "hungarian_max"):
            try:
                ms = time_call(stages[name]) * 1e3
            except (KeyError, AttributeError):
                ms = 0.0
            out[f"stage.{name}.ms.n{n}"] = ms
    return out


def lsa_mismatches(matchings) -> int:
    """Matchings whose total differs from scipy's optimum by more than LSA_RTOL."""
    from scipy.optimize import linear_sum_assignment

    bad = 0
    for w, total in matchings:
        rows, cols = linear_sum_assignment(w, maximize=True)
        best = float(w[rows, cols].sum())
        if abs(total - best) > LSA_RTOL * abs(best):
            bad += 1
    return bad


def measure_untraced(harness, wl, cfg, scenario, directory, seconds, gate):
    """Cycle set-up child, CLI child and in-process run until ``seconds`` pass."""
    gate.check(True, csv=run_in_process(harness, wl, cfg)[1])  # warm-up, not timed
    setups, walls, clis, rss = [], [], [], []
    deadline = perf_counter() + seconds
    while len(walls) < MIN_SAMPLES or perf_counter() < deadline:
        setups += [setup_sample(scenario)["setup_s"] for _ in range(SETUP_PER_CYCLE)]
        wall, code, peak, csv, err = run_cli(wl, scenario, directory)
        gate.check(code == 0, csv=csv, stderr=err)
        clis.append(wall)
        rss.append(peak)
        wall, csv = run_in_process(harness, wl, cfg)
        gate.check(True, csv=csv)
        walls.append(wall)
    metrics = {
        "drops_per_s": (drop_evaluations(cfg, wl) * len(walls) / sum(walls), "drops/s"),
        "cli_s": (sum(clis) / len(clis), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median(rss), "MiB"),
    }
    samples = {"in_process_s": walls, "cli_s": clis, "setup_s": setups}
    return metrics, {"samples": {k: [round(x, 4) for x in v] for k, v in samples.items()}}, True


def measure_traced(harness, wl, cfg, scenario, seconds, gate, seed):
    """Cycle set-up child, untraced and traced in-process runs until ``seconds`` pass."""
    from spans import Tracer

    gate.check(True, csv=run_in_process(harness, wl, cfg)[1])  # warm-up, not timed
    setups, plain, traced, summaries = [], [], [], []
    mismatches = checked = 0
    deadline = perf_counter() + seconds
    while len(traced) < 2 or perf_counter() < deadline:
        for _ in range(SETUP_PER_CYCLE):
            setups.append(setup_sample(scenario))
            setups[-1]["setup.interpreter_s"] = spawn(
                [sys.executable, "-c", "pass"], subprocess.DEVNULL, subprocess.DEVNULL)[0]
        wall, csv = run_in_process(harness, wl, cfg)
        gate.check(True, csv=csv)
        plain.append(wall)
        tracer = Tracer()
        tracer.install()
        try:
            wall, csv = run_in_process(harness, wl, cfg)
        finally:
            tracer.uninstall()
        traced.append(wall)
        summaries.append(tracer.summary(wall))
        matchings = tracer.matchings()
        bad = lsa_mismatches(matchings)
        gate.check(bad == 0, csv=csv)
        checked += len(matchings)
        mismatches += bad
    counts = summaries[0][0]
    counts_repeat = all(c == counts for c, _times in summaries)
    metrics = {key: (value, "ratio" if key.endswith("frac") else "count")
               for key, value in counts.items()}
    metrics.update({key: (median(times[key] for _c, times in summaries),
                          "ratio" if key.endswith("frac") else "s")
                    for key in summaries[0][1]})
    metrics["trace.overhead_frac"] = (median(traced) / median(plain) - 1.0, "ratio")
    metrics.update({key: (median(s[key] for s in setups), "s")
                    for key in setups[0] if key != "setup_s"})
    metrics.update({key: (value, "ms") for key, value in stage_scan(seed).items()})
    info = {
        "traced_runs": len(traced), "untraced_runs": len(plain),
        "lsa_checked": checked, "lsa_mismatches": mismatches,
        "counts_repeat": counts_repeat,
    }
    return metrics, info, mismatches == 0 and counts_repeat


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return res.stdout.strip() or None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "semse").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "semse" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"bench: no semse checkout at {ROOT} (need src/semse and scenarios/)",
              file=sys.stderr)
        return 2
    loadavg = os.getloadavg()
    sys.path.insert(0, str(SRC))
    from semse import harness

    wl = WORKLOADS[args.workload]
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    pinned = golden.get(args.workload, {}).get(str(args.seed))
    gate = Gate(pinned)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        directory = Path(tmp)
        scenario = write_scenario(args.workload, args.seed, directory)
        cfg = harness.load_scenario(scenario)
        if args.trace:
            metrics, info, checks_ok = measure_traced(
                harness, wl, cfg, scenario, args.seconds, gate, args.seed)
        else:
            metrics, info, checks_ok = measure_untraced(
                harness, wl, cfg, scenario, directory, args.seconds, gate)
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "golden_pinned": pinned is not None,
        "failed_frac": gate.failed / gate.attempted, **info,
        "git_commit": git_commit(), "src_sha256": src_digest(),
        "python": sys.version.split()[0], "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": gate.failed == 0 and checks_ok,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
