"""One workload process: ``python3 perfbench/child.py SPEC.json``.

The spec names the workload kind (``cli`` or ``library``), its input file,
the output directory, the result file and whether to trace.  A ``cli``
process runs ``fractrace run`` exactly as ``python -m fractrace.cli`` would;
a ``library`` process runs ``library.run``.  The result file receives the
moment the first experiment or call began (for ``setup_s``), the library
operations and their checks, and in a traced process every span's self time.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        tracer.hook_scipy_import()
    marks = {}

    def mark_setup_done():
        marks.setdefault("setup_done", time.perf_counter())

    record = {"rc": 1}
    try:
        if tracer is not None:
            with tracer.span("import.fractrace"):
                fr = _import(spec["kind"])
            tracer.instrument(fr)
        else:
            fr = _import(spec["kind"])
        if spec["kind"] == "cli":
            record["rc"] = _run_cli(fr, spec, mark_setup_done)
        else:
            record.update(_run_library(fr, spec, mark_setup_done))
    finally:
        record["setup_done"] = marks.get("setup_done")
        if tracer is not None:
            record["trace"] = tracer.snapshot()
        with open(spec["result"], "w") as fh:
            json.dump(record, fh)
    return record["rc"]


def _import(kind: str):
    import fractrace
    if kind == "cli":
        import fractrace.cli  # noqa: F401  (what `python -m fractrace.cli` loads)
    return fractrace


def _run_cli(fr, spec, mark_setup_done) -> int:
    reporting = fr.reporting
    run_experiment = reporting.run_experiment

    def first_marked(*args, **kwargs):
        mark_setup_done()
        return run_experiment(*args, **kwargs)

    reporting.run_experiment = first_marked
    return fr.cli.main(["run", "--config", spec["input"],
                        "--out-dir", spec["out_dir"]])


def _run_library(fr, spec, mark_setup_done) -> dict:
    import library
    with open(spec["input"]) as fh:
        inputs = json.load(fh)
    recorder = library.run(fr, inputs, mark_setup_done)
    with open(Path(spec["out_dir"]) / "results.json", "w") as fh:
        json.dump({"kind": "ENUMERATE", "name": "enumerate",
                   "results": recorder.results}, fh)
    return {"rc": 0, "ops": recorder.ops}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
