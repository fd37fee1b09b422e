"""Mutants of the arguments that keep every matching and output byte exact.

Each mutant is (name, file under ``src/``, old text, new text, killing test
ids). For each one this script requires that the old text occurs exactly
once in the file, applies the mutant to a copy of ``src/`` in a temporary
directory, runs only the killing tests against that copy, and requires
every one of them to fail. It exits 1 naming each mutant that is not killed.

A mutant that survives is a test gap: close it with a test, never by
deleting the mutant. A change that moves or rewrites a mutated line updates
the mutant's text in the same change.

Left out, because no test can kill it:
- dropping the ``matched`` filter from ``_max_weight_stack``'s ``u`` step.
  The sink's step ``min_val - dist`` is then added, since its row is -1, to
  the ``u`` of row n-1 of its drop too. No step reads that ``u``: no search
  reaches row n-1 before it is matched, which is by its own search, the
  last, whose first step takes its ``u`` as 0.0 without reading it.

Run it from any directory as ``python tests/mutants.py``. pytest does not
collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 60  # per mutant


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids relative to the repository root


ALLOCATOR, HARNESS, CHANNEL = "semse/allocator.py", "semse/harness.py", "semse/channel.py"
CLI = "semse/cli.py"
PLAN_SCAN = (
    "tests/test_allocator.py::TestBuildPairPlans::test_matches_scalar_scan",
    "tests/test_allocator.py::TestCandidateKScan::test_equals_full_scan_bit_for_bit",
)
GOLDEN_SWEEP = ("tests/test_golden.py::test_run_output_is_byte_identical[n_channels_sweep]",)
STACKED = ("tests/test_allocator.py::TestStackedMatcher::test_equals_plain_scan_bit_for_bit",)
IDENTITY = "tests/test_allocator.py::TestForkIdentity::"
SEEDING = (
    "tests/test_channel.py::test_sample_drops_equal_default_rng_drops_for_every_seed_width",
)
SUM_BY_USER = "tests/test_allocator.py::TestSumByUser::"
CLI_TESTS = "tests/test_harness.py::TestCli::"
SHARED = "tests/test_harness.py::TestSharedBitPipeMatching::"
# every CSV row's totals and the CSV itself, against a plain definition of each row
REFERENCE = "tests/test_harness.py::TestReferencePipeline::test_every_row_equals_the_reference"

MUTANTS = [
    # the k scan: its take rule and its candidate pruning
    Mutant("take rule without best_k == 0", ALLOCATOR,
           "take &= (w > best_w) | (best_k == 0)", "take &= w > best_w", PLAN_SCAN),
    Mutant("take rule w >= best_w", ALLOCATOR,
           "take &= (w > best_w) | (best_k == 0)", "take &= (w >= best_w) | (best_k == 0)",
           PLAN_SCAN),
    Mutant("candidate = somewhere", ALLOCATOR,
           "candidate = somewhere & ~(floor > hi_w)", "candidate = somewhere",
           ("tests/test_allocator.py::TestCandidateKScan"
            "::test_surrogate_columns_hold_at_most_two_candidates",)),
    # the mean and std of the totals, shifted by the first total
    Mutant("_std without - scaled[0]", HARNESS,
           "(scaled - scaled[0]).std(ddof=1)", "scaled.std(ddof=1)", GOLDEN_SWEEP + (REFERENCE,)),
    Mutant("plain t.mean() in _records", HARNESS,
           "float(t[0] + (t - t[0]).mean())", "float(t.mean())", GOLDEN_SWEEP + (REFERENCE,)),
    # which matcher runs, and how a total is summed
    Mutant("_STACK_MIN_DROPS = 1", ALLOCATOR,
           "_STACK_MIN_DROPS = 256", "_STACK_MIN_DROPS = 1",
           ("tests/test_allocator.py::TestStackedMatcher"
            "::test_benchmark_workloads_take_the_intended_matcher[None-None-False]",)),
    Mutant("sum_by_user without the sort", ALLOCATOR,
           "np.add.accumulate(np.sort(x, axis=1), axis=1)", "np.add.accumulate(x, axis=1)",
           (SUM_BY_USER + "test_ten_users_are_summed_in_ascending_order",)),
    Mutant("sum_by_user in descending order", ALLOCATOR,
           "np.add.accumulate(np.sort(x, axis=1), axis=1)",
           "np.add.accumulate(np.sort(x, axis=1)[:, ::-1], axis=1)",
           ("tests/test_acceptance.py::test_criterion_2_hungarian_optimality",
            SUM_BY_USER + "test_ten_users_are_summed_in_ascending_order")),
    Mutant("sum_by_user pairwise", ALLOCATOR,
           "np.add.accumulate(np.sort(x, axis=1), axis=1)[:, -1]", "np.sort(x, axis=1).sum(axis=1)",
           (SUM_BY_USER + "test_ten_users_are_summed_in_ascending_order",)),
    Mutant("sum_by_user without + 0.0", ALLOCATOR,
           "np.add.accumulate(np.sort(x, axis=1), axis=1)[:, -1] + 0.0",
           "np.add.accumulate(np.sort(x, axis=1), axis=1)[:, -1]",
           (SUM_BY_USER + "test_row_of_negative_zeros_sums_to_positive_zero",)),
    Mutant("sum_by_user warns on overflow", ALLOCATOR,
           'with np.errstate(over="ignore"):\n        return np.add.accumulate',
           "if True:\n        return np.add.accumulate",
           (SUM_BY_USER + "test_overflowing_row_is_inf_without_a_warning",)),
    # the stacked matcher: tie keys, scipy's evaluation order and dual steps, its one
    # record per search
    Mutant("stacked key_free/key_other swapped", ALLOCATOR,
           "key_free, key_other = (m + 1 + p)", "key_other, key_free = (m + 1 + p)", STACKED),
    Mutant("stacked tie key: the earliest tied free column", ALLOCATOR,
           "(m + 1 + p).astype(key_type)", "(2 * m - p).astype(key_type)", STACKED),
    Mutant("stacked: no free-column preference past the first step", ALLOCATOR,
           "row_of_col[at] < 0, key_free[:size]", "row_of_col[at] < -1, key_free[:size]",
           STACKED + ("tests/test_allocator.py::TestStackedMatcher"
                      "::test_match_drops_equals_per_drop_hungarian[shape1]",)),
    Mutant("stacked evaluation order (min_val - u) - w - v", ALLOCATOR,
           "np.subtract(min_val[active], r, out=r)\n                r -= u[i_at]\n",
           "np.subtract(min_val[active] - u[i_at], r, out=r)\n",
           STACKED + (IDENTITY + "test_forks_agree_on_tied_stacks",
                      IDENTITY + "test_tied_tenths_total_scipys_sum")),
    Mutant("stacked sink without its v step", ALLOCATOR,
           "        v[seen] -= step\n        row = row_of_col[seen]\n",
           "        v[seen[row_of_col[seen] >= 0]] -= step[row_of_col[seen] >= 0]\n"
           "        row = row_of_col[seen]\n",
           (IDENTITY + "test_forks_agree_on_tied_stacks",)),
    # with two sinks in a drop the augmentation can loop forever; this stack fails first
    Mutant("stacked sink row <= 0", ALLOCATOR,
           "sink = seen[~matched]", "sink = seen[row <= 0]",
           (IDENTITY + "test_forks_agree_on_sampled_stacks[5g-3x8]",)),
    # the per-drop matcher: a maximum, its positive pairs, its total summed as sum_by_user sums
    Mutant("hungarian_max with maximize=False", ALLOCATOR,
           "_linear_sum_assignment(rows, maximize=True)",
           "_linear_sum_assignment(rows, maximize=False)",
           ("tests/test_acceptance.py::test_criterion_2_hungarian_optimality",
            IDENTITY + "test_forks_agree_on_sampled_stacks[semantic-5x5]")),
    Mutant("hungarian_max total in row order", ALLOCATOR,
           "for x in sorted(weights):", "for x in weights:",
           ("tests/test_allocator.py::TestHungarian"
            "::test_hungarian_max_total_is_summed_as_sum_by_user",)),
    # the results' boundaries: positive pairs only, the bit-pipe floor, unserved users
    Mutant("hungarian_max keeps zero-weight pairs", ALLOCATOR,
           "if x > 0.0)", "if x >= 0.0)",
           ("tests/test_allocator.py::TestHungarian"
            "::test_hungarian_max_reports_positive_pairs_only",)),
    Mutant("bit-pipe floor w > sse_threshold", ALLOCATOR,
           "np.where(w >= cons.sse_threshold, w, 0.0)", "np.where(w > cons.sse_threshold, w, 0.0)",
           ("tests/test_allocator.py::TestBitPipeWeights::test_weight_at_the_floor_is_kept",)),
    Mutant("fixed k scores unserved users", HARNESS,
           "served = (channel[s] >= 0) & ok", "served = ok",
           ("tests/test_acceptance.py::test_criterion_5_fixed_k_policy_dominated[8x3]",
            "tests/test_acceptance.py::test_criterion_5_fixed_k_policy_dominated[20x5]",
            "tests/test_golden.py::test_run_output_is_byte_identical[compare_overloaded]",
            REFERENCE)),
    Mutant("fixed k scored on the semantic stack's channels", HARNESS,
           ", ideal, k) for k in fixed_k_values]", ", 0, k) for k in fixed_k_values]",
           ("tests/test_golden.py::test_run_output_is_byte_identical[compare_overloaded]",
            REFERENCE)),
    # one matching per bit pipe at sse_threshold 0, each value scored on it
    Mutant("bit pipes matched once above a zero floor", HARNESS,
           "shared = cons.sse_threshold == 0", "shared = True",
           ("tests/test_harness.py::TestBlocks::test_one_match_drops_call_per_block_and_sample"
            "[kw0-None-10-1]",
            "tests/test_golden.py::test_run_output_is_byte_identical[floored_bits_per_word_sweep]",
            REFERENCE)),
    Mutant("every value scored with the first value's weights", HARNESS,
           "allocator.bit_pipe_weights(weights[s], scorer, cons)",
           "allocator.bit_pipe_weights(weights[s], group[0][1], cons)",
           (SHARED + "test_each_value_is_scored_with_its_own_weights_on_those_channels",
            "tests/test_golden.py::test_run_output_is_byte_identical[bits_per_word_sweep]",
            REFERENCE)),
    Mutant("a zero-weight matched pair scored as served", ALLOCATOR,
           "served = (channel >= 0) & (matched > 0.0)", "served = channel >= 0",
           (SHARED + "test_each_value_is_scored_with_its_own_weights_on_those_channels",
            "tests/test_allocator.py::TestScoreChannels"
            "::test_zero_weight_on_its_channel_is_unserved")),
    # which inputs a run reads, and the CLI's edge cases
    Mutant("tables_for reads every CQI table", HARNESS,
           "        if system not in cfg.systems:\n            continue\n", "",
           (CLI_TESTS + "test_cqi_key_of_a_system_that_does_not_run_is_not_read",
            CLI_TESTS + "test_run_of_no_cqi_system_reads_no_cqi_key[run]",
            CLI_TESTS + "test_run_of_no_cqi_system_reads_no_cqi_key[compare]")),
    Mutant("surface_for without its coverage check", HARNESS,
           "surface.pieces(range(1, cfg.constraints.k_max + 1))", "pass",
           (CLI_TESTS + "test_surface_missing_a_k_is_rejected_by_key[run-flags0]",
            CLI_TESTS + "test_surface_missing_a_k_is_rejected_by_key[compare-flags1]")),
    Mutant("crossover 0 at a zero semantic level", HARNESS,
           "math.inf if level == 0.0 else scaled / level", "scaled / level if level else 0.0",
           (CLI_TESTS + "test_crossover_is_inf_at_a_zero_semantic_level",)),
    Mutant("cli does not import ScenarioConfig", CLI,
           "from .harness import (\n    ScenarioConfig,\n", "from .harness import (\n",
           ("tests/test_api.py::test_every_annotation_resolves",)),
    Mutant("--k keeps empty tokens", CLI,
           'for tok in args.k.split(",") if tok.strip()]', 'for tok in args.k.split(",")]',
           (CLI_TESTS + "test_compare_skips_an_empty_k_token",)),
    # seeding numpy's generator for a block of drops
    Mutant("seeding mix constant", CHANNEL,
           "np.uint32(0xCA01F9DD)", "np.uint32(0xCA01F9DC)", SEEDING),
    Mutant("seed-word order", CHANNEL,
           "words.reshape(-1, 4).T", "words.reshape(-1, 4)[:, ::-1].T", SEEDING),
]


def failed_ids(output: str, cwd: Path) -> set[str]:
    """The ids, relative to the repository root, that pytest's ``-rfE`` summary
    reports as failed or in error; the summary names them relative to ``cwd``."""
    ids = set()
    for line in output.splitlines():
        for outcome in ("FAILED ", "ERROR "):
            if line.startswith(outcome):
                path, _, test = line[len(outcome):].split(" - ")[0].partition("::")
                path = os.path.relpath(os.path.normpath(cwd / path), ROOT)
                ids.add(f"{Path(path).as_posix()}::{test}")
    return ids


def check(mutant: Mutant, work: Path) -> str | None:
    """None if every killing test fails on the mutant, else why it is not killed."""
    src = work / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        return f"its old text occurs {count} times in src/{mutant.file}"
    path.write_text(text.replace(mutant.old, mutant.new))
    # run from the temp directory so that hypothesis keeps its database there
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *(str(ROOT / t) for t in mutant.tests)],
            cwd=work, capture_output=True, text=True, timeout=TIMEOUT_S,
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1"),
        )
    except subprocess.TimeoutExpired:  # a mutant can loop forever: name a test that fails
        return f"its tests ran past {TIMEOUT_S} s"
    if result.returncode not in (0, 1):  # 1: tests failed; else pytest could not run them
        return f"pytest exited {result.returncode}:\n{result.stdout}{result.stderr}"
    survivors = set(mutant.tests) - failed_ids(result.stdout, work)
    if survivors:
        return "these tests pass on it: " + ", ".join(sorted(survivors))
    return None


def main() -> int:
    start = time.perf_counter()
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        # the copy, not an installed semse, must be what the tests import
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        found = subprocess.run(
            [sys.executable, "-c", "import semse; print(semse.__file__)"], cwd=work,
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(work / "src")),
        ).stdout.strip()
        if not Path(found).resolve().is_relative_to(work.resolve()):
            print(f"the tests would import semse from {found or 'nowhere'}, not from the copy")
            return 1
        for mutant in MUTANTS:
            t0 = time.perf_counter()
            why = check(mutant, work)
            failures += why is not None
            status = "killed" if why is None else "NOT KILLED: " + why
            print(f"{time.perf_counter() - t0:5.1f} s  {mutant.name}: {status}", flush=True)
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed"
          f" in {time.perf_counter() - start:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
