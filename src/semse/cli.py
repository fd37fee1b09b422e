"""Command line front end.

    semse run <scenario> [--out results.csv] [--drops N] [--seed S]
    semse compare <scenario> --k 1,2,3 [--out results.csv]
    semse tables --check

Exit codes: 0 success, 1 validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .harness import (
    ScenarioConfig,
    crossover_bits_per_word,
    emit_csv,
    format_csv,
    load_scenario,
    run_model_comparison,
    run_scenario,
)
from .link_adaptation import check_builtin_tables


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semse",
        description="Semantic spectral efficiency network simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario, optionally with a sweep")
    run_p.add_argument("scenario", help="path to a scenario file")
    run_p.add_argument("--out", help="write CSV here instead of stdout")
    run_p.add_argument("--drops", type=int, help="override n_drops")
    run_p.add_argument("--seed", type=int, help="override base_seed")

    cmp_p = sub.add_parser(
        "compare", help="score the ideal-system channel assignment at fixed k values"
    )
    cmp_p.add_argument("scenario", help="path to a scenario file")
    cmp_p.add_argument("--k", required=True, help="comma-separated fixed k values")
    cmp_p.add_argument("--out", help="write CSV here instead of stdout")

    tab_p = sub.add_parser("tables", help="CQI table utilities")
    tab_p.add_argument("--check", action="store_true",
                       help="verify the shipped CQI tables against pinned hashes")
    return parser


def _load(args) -> ScenarioConfig:
    cfg = load_scenario(args.scenario)
    overrides = {}
    if getattr(args, "drops", None) is not None:
        overrides["n_drops"] = args.drops
    if getattr(args, "seed", None) is not None:
        overrides["base_seed"] = args.seed
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _emit(records, out: str | None) -> None:
    if out:
        emit_csv(records, out)
    else:
        sys.stdout.write(format_csv(records))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _load(args)
            records = run_scenario(cfg)
            _emit(records, args.out)
            # the closed form is exact only when no S-SE floor zeroes links
            note = " (approximate, sse_threshold > 0)" if cfg.constraints.sse_threshold else ""
            for system, cross in crossover_bits_per_word(records).items():
                print(
                    f"crossover vs semantic: {system.value} at {cross:.4g} bits/word{note}",
                    file=sys.stderr,
                )
        elif args.command == "compare":
            cfg = _load(args)
            try:
                fixed_ks = [int(tok) for tok in args.k.split(",") if tok.strip()]
            except ValueError:
                fixed_ks = []
            if not fixed_ks:
                raise ValueError(f"--k must be comma-separated integers, got {args.k!r}")
            records = run_model_comparison(cfg, fixed_ks)
            _emit(records, args.out)
        elif args.command == "tables":
            if not args.check:
                print("nothing to do; pass --check", file=sys.stderr)
                return 1
            for line in check_builtin_tables():
                print(line)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
