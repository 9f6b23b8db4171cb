"""Command-line front end.

Three subcommands: ``run`` executes a JSON experiment config and writes one
report per experiment, ``compare`` diffs two reports field by field, and
``schema`` prints the accepted config layout.  All heavy lifting lives in
``reporting``; this module only parses arguments and maps results to exit
codes (0 ok, 2 config problem, 3 numeric precondition failure).
"""

from __future__ import annotations

import argparse
import sys

from . import reporting


def _parse_budget(text: str) -> reporting.Budget:
    parts = text.split(",")
    if len(parts) > 2 or not all(p.strip() for p in parts):
        raise ValueError("expected ENTRIES or ENTRIES,WORDS")
    try:
        numbers = [int(p) for p in parts]
    except ValueError:
        raise ValueError("budget values must be integers") from None
    if any(n < 1000 for n in numbers):
        raise ValueError("budget values must be >= 1000")
    entries = numbers[0]
    words = numbers[1] if len(numbers) == 2 else reporting.DEFAULT_WORD_BUDGET
    return reporting.Budget(entries=entries, words=words)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fractrace",
        description="Run traceability experiments from JSON configs and "
                    "compare their reports.")
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="execute a config file",
        description="Execute a config file; experiments run round-robin on "
                    "one process per CPU in the affinity mask "
                    "(taskset -c 0 gives a one-CPU run).")
    run_p.add_argument("--config", required=True, metavar="FILE",
                       help="JSON experiment config")
    run_p.add_argument("--out-dir", default=".", metavar="DIR",
                       help="directory for reports and series, created if "
                            "missing (default .)")
    run_p.add_argument("--budget", default=None, metavar="ENTRIES[,WORDS]",
                       help="override the global eigenvalue-entry and word "
                            f"budgets (default {reporting.DEFAULT_ENTRY_BUDGET}"
                            f",{reporting.DEFAULT_WORD_BUDGET})")
    run_p.add_argument("--quiet", action="store_true",
                       help="suppress per-experiment summary lines")

    cmp_p = sub.add_parser("compare", help="diff two report files")
    cmp_p.add_argument("report_a", help="baseline report JSON")
    cmp_p.add_argument("report_b", help="candidate report JSON")
    cmp_p.add_argument("--out", default=None, metavar="FILE",
                       help="write the diff here instead of stdout")
    cmp_p.add_argument("--quiet", action="store_true",
                       help="suppress the summary line")

    sub.add_parser("schema", help="print the config schema")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        budget = reporting.Budget()
        if args.budget is not None:
            try:
                budget = _parse_budget(args.budget)
            except ValueError as e:
                print(f"--budget: {e}", file=sys.stderr)
                return 2
        return reporting.run(args.config, out_dir=args.out_dir,
                             budget=budget, quiet=args.quiet)
    if args.command == "compare":
        return reporting.compare(args.report_a, args.report_b,
                                 out_path=args.out, quiet=args.quiet)
    sys.stdout.write(reporting.dumps_canonical(reporting.config_schema()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
