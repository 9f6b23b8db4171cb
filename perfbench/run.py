"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the root of a checkout.

Closed loop, one client: workload processes run one after another, each a
cold ``fractrace`` process on inputs generated from the seed, until the next
one would overrun ``--seconds``.  Every process's outputs are checked.
``--trace 0`` reports the end-to-end metrics over those processes;
``--trace 1`` alternates untraced and traced processes and reports the
per-layer metrics, plus a drift count from one process at the default seed
compared with the reference reports in ``perfbench/reference``.
``--workload all`` runs every workload both ways and prints every table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"
DEFAULT_SEED = 0
PROCESS_TIMEOUT_S = 150

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "ops_ok_frac": "fraction"}
LAYER_TIMES = (
    "reporting.config_load", "reporting.parse_config", "reporting.to_csv",
    "reporting.dumps_canonical",
    "sequences.prefix", "sequences.tail_sum",
    "asymptotics.order_of_infinitesimal", "asymptotics.c_bounds",
    "asymptotics.classify_ideal", "asymptotics.eccentricity_scan.analytic",
    "asymptotics.eccentricity_scan.discrete",
    "asymptotics.singular_trace_estimate",
    "asymptotics.dixmier_trace_estimate",
    "exemplars.two_slope_sequence", "exemplars.step_sequence",
    "fractal_geometry.gaps_exact", "fractal_geometry.gaps_float",
    "fractal_geometry.minkowski_content", "fractal_geometry.box_dimension",
    "fractal_geometry.cylinder_measure", "fractal_geometry.contraction_limit",
    "spectral_triples.pair_triple", "spectral_triples.gap_triple",
    "spectral_triples.spectral_dimension", "spectral_triples.zeta_partial",
    "spectral_triples.zeta_residue", "spectral_triples.hausdorff_functional",
    "spectral_triples.minkowski_link_check",
)
LAYER_COUNTS = (
    "reporting.series_rows", "reporting.series_bytes",
    "sequences.entries_materialized", "sequences.tail_sum.exhausted",
    "sequences.tail_sum.profile", "sequences.tail_sum.power_fit",
    "asymptotics.scan_points", "fractal_geometry.gaps_count",
    "spectral_triples.pair_words",
)
LAYERS = ("reporting", "sequences", "asymptotics", "exemplars",
          "fractal_geometry", "spectral_triples")
# reporting spans that run before the first experiment: config load and
# validation are set-up with metrics of their own, and argument parsing is
# left to the unclaimed rest, so reporting.self_s is experiment work alone
BEFORE_EXPERIMENTS = ("reporting.config_load", "reporting.parse_config",
                      "reporting.cli_main")
# what the traced run time is split into, besides the unclaimed rest
ACCOUNTED = (("import.fractrace_s", "import.scipy_s")
             + tuple(f"{layer}.self_s" for layer in LAYERS)
             + ("reporting.config_load_s", "reporting.parse_config_s"))


def per_layer_units() -> dict:
    """Every per-layer metric with its unit, in table order."""
    units = {"import.fractrace_s": "s", "import.scipy_s": "s"}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for name in LAYER_TIMES:
        units[f"{name}_s"] = "s"
    for name in LAYER_COUNTS:
        units[name] = "count"
    units["fractal_geometry.gaps_per_s"] = "1/s"
    units["spectral_triples.pair_words_per_s"] = "1/s"
    for layer in LAYERS:
        units[f"{layer}.errors"] = "count"
    units["reporting.report_drift"] = "count"
    units["trace.run_s"] = "s"
    units["trace.unclaimed_s"] = "s"
    units["trace.overhead_frac"] = "fraction"
    return units


# ---------------------------------------------------------------------------
# one workload process

def _workload_kind(workload: str) -> str:
    return "library" if workload == "enumerate" else "cli"


def run_process(workload: str, input_path: Path, work: Path,
                trace: bool, inputs: dict) -> dict:
    """Run one workload process to its exit and check its outputs against
    ``inputs``, the generated input it read."""
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    spec = {"kind": _workload_kind(workload), "input": str(input_path),
            "out_dir": str(out_dir), "result": str(work / "result.json"),
            "trace": trace}
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    Path(spec["result"]).unlink(missing_ok=True)
    with open(work / "stdout.txt", "w") as so, open(work / "stderr.txt", "w") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"),
                                 str(spec_path)], stdout=so, stderr=se,
                                cwd=ROOT)
        rc, rusage = _wait(proc)
        t1 = time.perf_counter()
    result = {}
    if Path(spec["result"]).exists():
        result = json.loads(Path(spec["result"]).read_text())
    # a process that never began an operation spent all its time setting up
    setup_done = result.get("setup_done") or t1
    sample = {"run_s": t1 - t0, "setup_s": setup_done - t0,
              "peak_rss_mb": rusage.ru_maxrss / 1024.0, "rc": rc,
              "trace": result.get("trace")}
    sample["ops"] = check_outputs(workload, inputs, out_dir, rc, result)
    if trace:
        sample["series"] = _series_size(out_dir)
    return sample


def _wait(proc: subprocess.Popen):
    """Wait for the child and return (exit code, its own rusage)."""
    def kill(signum, frame):
        proc.kill()

    previous = signal.signal(signal.SIGALRM, kill)
    signal.alarm(PROCESS_TIMEOUT_S)
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
    except BaseException:
        # interrupted: leave no workload process behind
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage


def check_outputs(workload: str, inputs: dict, out_dir: Path, rc: int,
                  result: dict) -> list:
    """[{"op", "ok", "problems"}] for every operation of the process."""
    if _workload_kind(workload) == "library":
        ops = result.get("ops")
        if not ops:
            return [{"op": "process", "ok": False,
                     "problems": [f"no operations recorded, exit code {rc}"]}]
        return ops
    ops = []
    for exp in inputs["experiments"]:
        path = out_dir / f"{exp['name']}.report.json"
        if not path.exists():
            problems = [f"no report written (exit code {rc})"]
        else:
            problems = checks.check_report(json.loads(path.read_text()), exp,
                                           str(out_dir))
        ops.append({"op": exp["name"], "ok": not problems,
                    "problems": problems})
    if rc != 0 and all(op["ok"] for op in ops):
        ops.append({"op": "process", "ok": False,
                    "problems": [f"exit code {rc}"]})
    return ops


def _series_size(out_dir: Path) -> dict:
    rows = size = 0
    for path in out_dir.glob("*.csv"):
        size += path.stat().st_size
        with open(path, "rb") as fh:
            rows += sum(1 for _ in fh) - 1
    return {"rows": rows, "bytes": size}


# ---------------------------------------------------------------------------
# drift against the reference reports

def comparable_reports(out_dir: Path) -> dict:
    """{report name: report without its config and meta}."""
    docs = {}
    for path in sorted(out_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        docs[path.name] = {"kind": doc["kind"], "name": doc["name"],
                           "results": doc["results"]}
    return docs


def report_drift(workload: str, out_dir: Path) -> int:
    """Significant rows of compare_reports against the reference reports;
    a report missing on either side counts as one row."""
    from fractrace.reporting import compare_reports
    reference = json.loads((REFERENCE / f"{workload}.json").read_text())
    fresh = comparable_reports(out_dir)
    drift = 0
    for name in sorted(set(reference) | set(fresh)):
        if name not in reference or name not in fresh:
            drift += 1
            continue
        drift += compare_reports(reference[name], fresh[name])["n_significant"]
    return drift


# ---------------------------------------------------------------------------
# one benchmark run

def prepare_inputs(workload: str, seed: int, work: Path):
    """(path, inputs): the seed's generated inputs, written for the process."""
    work.mkdir(parents=True, exist_ok=True)
    inputs = workloads.GENERATORS[workload](seed)
    path = work / "input.json"
    path.write_text(json.dumps(inputs))
    return path, inputs


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run workload processes for ``seconds``; return samples and drift."""
    base = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(base, ignore_errors=True)
    start = time.perf_counter()
    drift = None
    probe = None
    if trace:
        probe_work = base / "probe"
        path, inputs = prepare_inputs(workload, DEFAULT_SEED, probe_work)
        probe = run_process(workload, path, probe_work, False, inputs)
        drift = report_drift(workload, probe_work / "out")
    path, inputs = prepare_inputs(workload, seed, base)
    work = base / "process"
    samples = {False: [], True: []}
    cycle = {False: 0.0, True: 0.0}
    traced = False
    while True:
        t0 = time.perf_counter()
        samples[traced].append(run_process(workload, path, work, traced, inputs))
        cycle[traced] = max(cycle[traced], time.perf_counter() - t0)
        if trace:
            traced = not traced
        done = samples[False] and (samples[True] or not trace)
        if done and time.perf_counter() - start + cycle[traced] > seconds:
            break
    return {"untraced": samples[False], "traced": samples[True],
            "probe": probe, "drift": drift}


def _ops(run: dict) -> list:
    procs = run["untraced"] + run["traced"]
    if run["probe"] is not None:
        procs.append(run["probe"])
    return [op for p in procs for op in p["ops"]]


def end_to_end(run: dict) -> dict:
    """Medians over the untraced processes, and the share of operations
    that passed (the complement of ops_failed_frac, which is 0 when all is
    well, and a metric that can be 0 has no ratio to bound)."""
    samples = run["untraced"]
    ops = _ops(run)
    failed = sum(1 for op in ops if not op["ok"])
    values = {
        "run_s": statistics.median(s["run_s"] for s in samples),
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "ops_ok_frac": 1.0 - failed / len(ops),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(run: dict) -> dict:
    """Per-layer metrics, each the mean over the traced processes, so the
    module self times, import times and the unclaimed rest add up to the
    traced run time."""
    traced = run["traced"]
    rows = [_layer_values(s) for s in traced]
    units = per_layer_units()
    values = {k: statistics.fmean(r.get(k, 0.0) for r in rows) for k in units}
    exact = values["fractal_geometry.gaps_exact_s"]
    flt = values["fractal_geometry.gaps_float_s"]
    values["fractal_geometry.gaps_per_s"] = _rate(
        values["fractal_geometry.gaps_count"], exact + flt)
    values["spectral_triples.pair_words_per_s"] = _rate(
        values["spectral_triples.pair_words"],
        values["spectral_triples.pair_triple_s"])
    values["reporting.report_drift"] = float(run["drift"])
    untraced = statistics.fmean(s["run_s"] for s in run["untraced"])
    values["trace.overhead_frac"] = (values["trace.run_s"] - untraced) / untraced
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _layer_values(sample: dict) -> dict:
    snap = sample["trace"] or {"self_s": {}, "counts": {}, "errors": {}}
    self_s, counts = snap["self_s"], snap["counts"]
    row = {"import.fractrace_s": self_s.get("import.fractrace", 0.0),
           "import.scipy_s": self_s.get("import.scipy", 0.0)}
    for layer in LAYERS:
        row[f"{layer}.self_s"] = sum(
            v for k, v in self_s.items()
            if k.startswith(layer + ".") and k not in BEFORE_EXPERIMENTS)
        row[f"{layer}.errors"] = sum(v for k, v in snap["errors"].items()
                                     if k.startswith(layer + ":"))
    for name in LAYER_TIMES:
        row[f"{name}_s"] = self_s.get(name, 0.0)
    for name in LAYER_COUNTS:
        row[name] = counts.get(name, 0)
    row["reporting.series_rows"] = sample["series"]["rows"]
    row["reporting.series_bytes"] = sample["series"]["bytes"]
    row["trace.run_s"] = sample["run_s"]
    row["trace.unclaimed_s"] = sample["run_s"] - sum(row[k] for k in ACCOUNTED)
    return row


# ---------------------------------------------------------------------------
# run record and printing

def run_record(workload: str, seed: int, seconds: float, trace: bool,
               run: dict) -> dict:
    import numpy
    import scipy
    return {"workload": workload, "seed": seed, "trace": int(trace),
            "seconds": seconds,
            "processes_untraced": len(run["untraced"]),
            "processes_traced": len(run["traced"]),
            "run_s_untraced": [s["run_s"] for s in run["untraced"]],
            "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _git_commit(),
            "source_sha256": _source_digest()}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def _source_digest() -> str:
    """Digest of the package sources, which names the code measured even
    where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fractrace").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def tail_percentile(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None below eleven samples."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < 0:
        return None
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def print_table(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")


def print_details(workload: str, trace: bool, run: dict, metrics: dict,
                  ops: list) -> None:
    runs = [s["run_s"] for s in run["untraced"]]
    tail = tail_percentile(runs)
    print(f"== {workload}: run_s over {len(runs)} untraced processes: "
          f"median {statistics.median(runs):.4f} s, "
          + (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else
             "no percentile has ten samples beyond it"))
    failed = [op for op in ops if not op["ok"]]
    print(f"== {workload}: ops_failed_frac {len(failed) / len(ops):.6g} "
          f"({len(failed)} of {len(ops)} operations)")
    for op in failed[:20]:
        print(f"   FAILED {op['op']}: {'; '.join(op['problems'])}")
    if trace:
        codes = {}
        for s in run["traced"]:
            for key, n in (s["trace"] or {}).get("errors", {}).items():
                codes[key] = codes.get(key, 0) + n
        print(f"== {workload}: FractraceError by layer and code: {codes or 'none'}")
        claimed = sum(metrics[k]["value"] for k in ACCOUNTED)
        print(f"== {workload}: traced run_s {metrics['trace.run_s']['value']:.4f} s"
              f" = layers, imports, config load and validation {claimed:.4f} s"
              f" + unclaimed {metrics['trace.unclaimed_s']['value']:.4f} s")
    print_table(f"{workload} {'per-layer (traced)' if trace else 'end-to-end'}",
                metrics)


def benchmark(workload: str, seed: int, seconds: float, trace: bool):
    run = measure(workload, seed, seconds, trace)
    metrics = per_layer(run) if trace else end_to_end(run)
    print(json.dumps({"run_record": run_record(workload, seed, seconds,
                                               trace, run)}))
    ops = _ops(run)
    print_details(workload, trace, run, metrics, ops)
    failed = sum(1 for op in ops if not op["ok"])
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fractrace" / "__init__.py").exists():
        print(f"no fractrace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload != "all":
        result = benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    else:
        parts = {(w, t): benchmark(w, args.seed, args.seconds, t)
                 for w in workloads.WORKLOADS for t in (False, True)}
        result = {"correct": all(p["correct"] for p in parts.values()),
                  "attempted": sum(p["attempted"] for p in parts.values()),
                  "failed": sum(p["failed"] for p in parts.values()),
                  "metrics": {f"{w}/{k}": m for (w, _), p in parts.items()
                              for k, m in p["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
