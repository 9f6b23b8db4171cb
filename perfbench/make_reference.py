"""Rewrite the reference reports: ``python3 perfbench/make_reference.py``.

Runs one untraced process per workload at the default seed and keeps each
report's results (config and meta dropped), which ``run.py --trace 1``
compares fresh reports against to count ``reporting.report_drift``.
Refuses to write when any operation of that process failed.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    run.REFERENCE.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        work = run.OUT / f"reference-{workload}"
        path, inputs = run.prepare_inputs(workload, run.DEFAULT_SEED, work)
        sample = run.run_process(workload, path, work, False, inputs)
        failed = [op for op in sample["ops"] if not op["ok"]]
        if failed:
            print(f"{workload}: not written, failed operations: {failed}",
                  file=sys.stderr)
            return 1
        docs = run.comparable_reports(work / "out")
        path = run.REFERENCE / f"{workload}.json"
        path.write_text(json.dumps(docs, indent=1, sort_keys=True) + "\n")
        print(f"{workload}: {len(docs)} reports -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
