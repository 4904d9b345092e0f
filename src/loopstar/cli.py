"""Command line entry point for running verification suites.

Exit codes: 0 when every check passes, 1 when any check fails, 2 when the
configuration cannot be loaded or is inconsistent, or the report path ends
in .txt, where its text summary goes.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

from .config import ConfigError, check_suite_requirements, load_config
from .report import emit_report, summary_path, text_summary
from .suites import SUITE_RUNNERS, run_suites


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run the verification suites described by a JSON config.")
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--suite", action="append", default=None, metavar="NAME",
                        choices=sorted(SUITE_RUNNERS),
                        help="restrict to this suite (repeatable)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the canonical JSON report here (plus a .txt summary "
                             "beside it; PATH itself must not end in .txt)")
    parser.add_argument("--seed", type=int, default=None, metavar="U64",
                        help="override the configured seed")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run the exact suites' checks on N processes (default 1); "
                             "the report is the same")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if not (0 <= args.seed < 2 ** 64):
                raise ConfigError(f"--seed must be an unsigned 64-bit value, got {args.seed}")
            cfg = dataclasses.replace(cfg, mc=dataclasses.replace(cfg.mc, seed=args.seed))
        if args.suite:
            cfg = dataclasses.replace(cfg, suites=tuple(dict.fromkeys(args.suite)))  # dedupe
            check_suite_requirements(cfg, args.config)
        out_path = args.out if args.out is not None else cfg.output_path
        if out_path is not None:
            summary_path(out_path)      # refuses a .txt report path before any suite runs
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    report = run_suites(cfg, args.jobs)
    if out_path is not None:
        emit_report(report, out_path)
    print(text_summary(report))
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
