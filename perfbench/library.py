"""The ``enumerate`` workload: top-level library calls in one process.

Each top-level call is one operation.  An operation fails when it raises or
when its output fails a check from ``checks``; either way the next one still
runs.  The outputs that later runs are compared against are kept as
report-shaped documents, so ``compare_reports`` can diff them.
"""

from __future__ import annotations

import checks


def _val(x) -> dict:
    return {"value": float(x), "interval": [float(x), float(x)]}


class Recorder:
    """Runs operations, records their outcome and the values to compare."""

    def __init__(self, error_type, mark_setup_done):
        self.error_type = error_type
        self.mark_setup_done = mark_setup_done
        self.ops = []        # {"op", "ok", "problems"}
        self.results = []    # report-shaped result entries

    def call(self, op, fn, check, summarize):
        """Run fn(); check(result) gives problems, summarize(result) the
        values kept for drift.  Returns the result, or None on failure."""
        self.mark_setup_done()
        try:
            result = fn()
        except self.error_type as e:
            self.ops.append({"op": op, "ok": False,
                             "problems": [f"{e.code}: {e}"]})
            return None
        except (ValueError, ArithmeticError) as e:
            self.ops.append({"op": op, "ok": False,
                             "problems": [f"PRECONDITION: {e}"]})
            return None
        problems = check(result)
        self.ops.append({"op": op, "ok": not problems, "problems": problems})
        self.results.append({"op": op, "values": summarize(result)})
        return result


def _no_problems(_):
    return []


def run(fr, inputs: dict, mark_setup_done) -> Recorder:
    """Every call of the workload on the generated inputs."""
    fg, st = fr.fractal_geometry, fr.spectral_triples
    s = Recorder(fr.errors.FractraceError, mark_setup_done)

    def line_ifs(pairs):
        return fg.LimitIfs.stationary([fg.interval_map(r, t) for r, t in pairs])

    exact = [(checks.exact_maps(e["ratios"]), e["depth"])
             for e in inputs["exact_gaps"]]
    float_maps = [(m["ratio"], m["translation"])
                  for m in inputs["float_gaps"]["maps"]]
    line_maps = [(m["ratio"], m["translation"])
                 for m in inputs["pair_line"]["maps"]]
    systems = [(f"exact-{i}", line_ifs(m), [r for r, _ in m])
               for i, (m, _) in enumerate(exact)]
    systems.append(("float", line_ifs(float_maps), [r for r, _ in float_maps]))
    systems.append(("line", line_ifs(line_maps), [r for r, _ in line_maps]))
    planar = inputs["pair_planar"]["maps"]
    systems.append(("planar", fg.LimitIfs.stationary(
        [fg.Similarity(m["ratio"], m["translation"]) for m in planar]),
        [m["ratio"] for m in planar]))
    ifs = {name: system for name, system, _ in systems}

    for name, system, ratios in systems:
        s.call(f"similarity_dimension:{name}",
               lambda: fg.similarity_dimension(system),
               lambda d: checks.check_similarity_dimension(ratios, d),
               lambda d: {"dimension": _val(d)})

    def gap_summary(g):
        return {"count": int(len(g.starts)), "exact": bool(g.exact),
                "gap_sum": _val(g.lengths.sum()),
                "min_gap": _val(g.lengths.min()),
                "conservation_defect": _val(g.conservation_defect)}

    for i, (maps, depth) in enumerate(exact):
        s.call(f"gaps_from_interval_ifs:exact-{i}",
               lambda: fg.gaps_from_interval_ifs(ifs[f"exact-{i}"], depth,
                                                 exact=True),
               lambda g: checks.check_gap_list(
                   g, checks.expected_gap_count(maps, depth)),
               gap_summary)
    depth = inputs["float_gaps"]["depth"]
    gaps = s.call("gaps_from_interval_ifs:float",
                  lambda: fg.gaps_from_interval_ifs(ifs["float"], depth),
                  lambda g: checks.check_gap_list(
                      g, checks.expected_gap_count(float_maps, depth)),
                  gap_summary)

    models = []
    if gaps is not None:
        model = s.call("gap_triple:float", lambda: st.gap_triple(gaps),
                       lambda m: checks.check_nonincreasing(m.values),
                       lambda m: {"entries": len(m),
                                  "max_value": _val(m.values[0]),
                                  "min_value": _val(m.values[-1])})
        models.append(("gap", model))
    for name in ("line", "planar"):
        key = f"pair_{name}"
        cap = inputs[key]["cap"]
        ratios = [m["ratio"] for m in inputs[key]["maps"]]
        model = s.call(f"pair_triple:{name}",
                       lambda: st.pair_triple(ifs[name], cap=cap),
                       lambda m: checks.check_pair_values(
                           m.values, ratios, m.seed_distance),
                       lambda m: {"entries": len(m),
                                  "seed_distance": _val(m.seed_distance),
                                  "min_value": _val(m.values[-1]),
                                  "max_depth": int(m.depths.max())})
        models.append((name, model))

    # every system here has dimension below 1.25, so zeta_s is above it
    zeta_s = 1.25 + inputs["zeta_offset"]
    for name, model in models:
        if model is None:
            continue
        s.call(f"spectral_dimension:{name}",
               lambda: st.spectral_dimension(model), _no_problems,
               lambda d: {"dimension": {"value": d.value,
                                        "interval": [d.lo, d.hi]}})
        s.call(f"zeta_partial:{name}",
               lambda: st.zeta_partial(model, zeta_s),
               lambda z: checks.check_zeta(z.value, z.closed_form,
                                           z.tail_error),
               lambda z: {"s": _val(z.s), "value": {
                   "value": z.value, "interval": [z.value - z.tail_error,
                                                  z.value + z.tail_error]},
                   "tail_route": z.tail_route})
    return s
