"""The settings and outputs of the public API, pinned.

Every optional parameter of each public function and method (with its
default), every public dataclass field and every public property of the
package is listed from ``inspect.signature``, ``dataclasses.fields`` and the
class namespace, and compared with the list below, so a change that adds a
setting or an output, or changes a default, shows it in its diff.  The
command-line module is left out: its surface is the argument parser.  The
package itself exports its submodules only, so each name has one import
path.
"""

import dataclasses
import functools
import importlib
import inspect
import types

import fractrace

MODULES = ("sequences", "asymptotics", "exemplars", "fractal_geometry",
           "spectral_triples", "reporting", "errors")

SURFACE = """
sequences.EigenvalueSequence.from_function(cap=1000000)
sequences.EigenvalueSequence.from_profile(cap=1000000)
sequences.EigenvalueSequence.from_values(complete=True)
sequences.EigenvalueSequence.tail_sum(gamma=1.0)
sequences.Estimate.value
sequences.Estimate.lo
sequences.Estimate.hi
sequences.LogLinearProfile.t_max
sequences.PartialSumSeries.kind
sequences.PartialSumSeries.indices
sequences.PartialSumSeries.values
sequences.PartialSumSeries.tail_error
sequences.PartialSumSeries.tail_route
asymptotics.CBounds.c_lower
asymptotics.CBounds.c_upper
asymptotics.CBounds.jump_regime
asymptotics.DixmierEstimate.value
asymptotics.DixmierEstimate.lo
asymptotics.DixmierEstimate.hi
asymptotics.DixmierEstimate.window_slopes
asymptotics.DixmierEstimate.measurable
asymptotics.EccentricityScan.kind
asymptotics.EccentricityScan.tolerance
asymptotics.EccentricityScan.route
asymptotics.EccentricityScan.t_points
asymptotics.EccentricityScan.gaps
asymptotics.EccentricityScan.accepted_t
asymptotics.EccentricityScan.accepted_n
asymptotics.EccentricityScan.inf_gap
asymptotics.EccentricityScan.nonempty
asymptotics.IdealClassification.label
asymptotics.IdealClassification.in_l1
asymptotics.IdealClassification.in_l1_weak
asymptotics.IdealClassification.in_l1_weak_0
asymptotics.IdealClassification.tail_exponent
asymptotics.IdealClassification.tail_exponent_se
asymptotics.OrdEstimate.value
asymptotics.OrdEstimate.lo
asymptotics.OrdEstimate.hi
asymptotics.OrdEstimate.method
asymptotics.TraceValue.value
asymptotics.TraceValue.lo
asymptotics.TraceValue.hi
asymptotics.TraceValue.ratios
asymptotics.TraceValue.measurable
asymptotics.TraceabilityReport.ord_estimate
asymptotics.TraceabilityReport.c_bounds
asymptotics.TraceabilityReport.dimension
asymptotics.TraceabilityReport.classification
asymptotics.TraceabilityReport.scan
asymptotics.TraceabilityReport.trace_value
asymptotics.TraceabilityReport.note
asymptotics.analyze_sequence(tolerance=0.02)
asymptotics.dixmier_trace_estimate(check=True)
asymptotics.eccentricity_scan(tolerance=0.02)
asymptotics.singular_trace_estimate(kind='NON_TRACE_CLASS')
exemplars.StepSpec.q
exemplars.TwoSlopeSpec.alpha
exemplars.TwoSlopeSpec.beta
exemplars.TwoSlopeSpec.gaps
exemplars.s_ratio(lam=2.0)
exemplars.sigma_ratio(lam=2.0)
exemplars.step_profile(t_horizon=2600.0)
exemplars.step_sequence(cap=1000000)
exemplars.two_slope_profile(t_horizon=2600.0)
exemplars.two_slope_sequence(cap=1000000)
fractal_geometry.AttractorCloud.points
fractal_geometry.AttractorCloud.word_ratios
fractal_geometry.AttractorCloud.depth
fractal_geometry.AttractorCloud.resolution
fractal_geometry.BoxDimensionEstimate.value
fractal_geometry.BoxDimensionEstimate.lo
fractal_geometry.BoxDimensionEstimate.hi
fractal_geometry.BoxDimensionEstimate.eps
fractal_geometry.BoxDimensionEstimate.counts
fractal_geometry.ContractionRun.cloud
fractal_geometry.ContractionRun.rho
fractal_geometry.ContractionRun.step_bounds
fractal_geometry.ContractionRun.level_displacements
fractal_geometry.CylinderMeasure.s
fractal_geometry.CylinderMeasure.depth
fractal_geometry.CylinderMeasure.weights
fractal_geometry.CylinderMeasure.level_weights
fractal_geometry.GapList.a
fractal_geometry.GapList.b
fractal_geometry.GapList.starts
fractal_geometry.GapList.ends
fractal_geometry.GapList.levels
fractal_geometry.GapList.residual_starts
fractal_geometry.GapList.residual_ends
fractal_geometry.GapList.exact
fractal_geometry.GapList.residual_solid
fractal_geometry.GapList.conservation_defect
fractal_geometry.GapList.ifs
fractal_geometry.GapList.completeness_cutoff
fractal_geometry.GapList.diameter
fractal_geometry.GapList.lengths
fractal_geometry.GapList.residual_lengths
fractal_geometry.LimitIfs.__init__(repeats=True, osc_box=None)
fractal_geometry.LimitIfs.dim
fractal_geometry.LimitIfs.explicit(osc_box=None)
fractal_geometry.LimitIfs.osc_overlap_evidence(depth=1)
fractal_geometry.LimitIfs.periodic(osc_box=None)
fractal_geometry.LimitIfs.stationary(osc_box=None)
fractal_geometry.LimitIfs.translation_flag
fractal_geometry.MinkowskiContent.value
fractal_geometry.MinkowskiContent.lo
fractal_geometry.MinkowskiContent.hi
fractal_geometry.MinkowskiContent.measurable
fractal_geometry.MinkowskiContent.oscillation
fractal_geometry.MinkowskiContent.oscillation_coarse
fractal_geometry.MinkowskiContent.eps
fractal_geometry.MinkowskiContent.ratio_lo
fractal_geometry.MinkowskiContent.ratio_hi
fractal_geometry.Similarity.__init__(orthogonal=None)
fractal_geometry.Similarity.dim
fractal_geometry.Similarity.linear
fractal_geometry.TranslationDimension.value
fractal_geometry.TranslationDimension.lo
fractal_geometry.TranslationDimension.hi
fractal_geometry.TranslationDimension.closed_form
fractal_geometry.attractor_cloud(seed=None, budget=10000000)
fractal_geometry.box_dimension_estimate(eps=None, resolution=None, window=16)
fractal_geometry.contraction_limit(budget=10000000)
fractal_geometry.cylinder_measure(budget=10000000)
fractal_geometry.gaps_from_interval_ifs(interval=None, exact='auto', budget=10000000)
fractal_geometry.interval_map(flip=False)
spectral_triples.FunctionalSample.values_x
spectral_triples.FunctionalSample.values_y
spectral_triples.FunctionalSample.lipschitz
spectral_triples.GapTripleModel.values
spectral_triples.GapTripleModel.tags_x
spectral_triples.GapTripleModel.tags_y
spectral_triples.GapTripleModel.truncated
spectral_triples.GapTripleModel.gaps
spectral_triples.HausdorffFunctional.value
spectral_triples.HausdorffFunctional.lo
spectral_triples.HausdorffFunctional.hi
spectral_triples.HausdorffFunctional.exponent
spectral_triples.HausdorffFunctional.measurable
spectral_triples.HausdorffFunctional.n_points
spectral_triples.MinkowskiLink.trace
spectral_triples.MinkowskiLink.content
spectral_triples.MinkowskiLink.scaled_content
spectral_triples.MinkowskiLink.d
spectral_triples.MinkowskiLink.lattice
spectral_triples.MinkowskiLink.asserted
spectral_triples.MinkowskiLink.overlap
spectral_triples.PairTripleModel.values
spectral_triples.PairTripleModel.tags_x
spectral_triples.PairTripleModel.tags_y
spectral_triples.PairTripleModel.truncated
spectral_triples.PairTripleModel.ifs
spectral_triples.PairTripleModel.seed_x
spectral_triples.PairTripleModel.seed_y
spectral_triples.PairTripleModel.seed_distance
spectral_triples.PairTripleModel.depths
spectral_triples.SpectralDimension.value
spectral_triples.SpectralDimension.lo
spectral_triples.SpectralDimension.hi
spectral_triples.SpectralDimension.ord_estimate
spectral_triples.SpectralDimension.length_scaling
spectral_triples.TripleModel.values
spectral_triples.TripleModel.tags_x
spectral_triples.TripleModel.tags_y
spectral_triples.TripleModel.truncated
spectral_triples.TripleModel.dim
spectral_triples.TripleModel.eigen
spectral_triples.TripleModel.period
spectral_triples.TripleModel.tag_matrix(n=None)
spectral_triples.ZetaPartial.s
spectral_triples.ZetaPartial.value
spectral_triples.ZetaPartial.truncated_sum
spectral_triples.ZetaPartial.tail
spectral_triples.ZetaPartial.tail_error
spectral_triples.ZetaPartial.tail_route
spectral_triples.ZetaPartial.n_terms
spectral_triples.ZetaPartial.closed_form
spectral_triples.ZetaResidue.d
spectral_triples.ZetaResidue.analytic
spectral_triples.ZetaResidue.numeric
spectral_triples.affine_functional(intercept=0.0)
spectral_triples.box_indicator(margin=0.0)
spectral_triples.functional_spectrum(tolerance=None)
spectral_triples.hausdorff_functional(d=None, tolerance=None)
spectral_triples.minkowski_link_check(d=None)
spectral_triples.pair_triple(seed=None, cap=2000000, max_depth=None)
reporting.Budget.entries
reporting.Budget.words
reporting.Experiment.kind
reporting.Experiment.name
reporting.Experiment.rng_seed
reporting.Experiment.series
reporting.Experiment.report_name
reporting.Experiment.params
reporting.Experiment.raw
reporting.compare(out_path=None, quiet=False, stdout=None, stderr=None)
reporting.parse_config(budget=Budget(entries=2000000, words=10000000))
reporting.run(out_dir='.', budget=Budget(entries=2000000, words=10000000), quiet=False, stdout=None, stderr=None)
errors.FractraceError.__init__(message='')
""".split("\n")[1:-1]


def _optional(prefix, fn) -> list:
    opts = [f"{p.name}={p.default!r}"
            for p in inspect.signature(fn).parameters.values()
            if p.default is not inspect.Parameter.empty]
    return [f"{prefix}({', '.join(opts)})"] if opts else []


def _class_surface(prefix, cls) -> list:
    out = []
    if dataclasses.is_dataclass(cls):
        out += [f"{prefix}.{f.name}" for f in dataclasses.fields(cls)
                if not f.name.startswith("_")]
    for name, raw in sorted(vars(cls).items()):
        if name.startswith("_") and name != "__init__":
            continue
        if name == "__init__" and dataclasses.is_dataclass(cls):
            continue  # generated from the fields listed above
        if isinstance(raw, (property, functools.cached_property)):
            out.append(f"{prefix}.{name}")
            continue
        fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) \
            else raw
        if inspect.isfunction(fn):
            out += _optional(f"{prefix}.{name}", fn)
    return out


def surface() -> list:
    out = []
    for short in MODULES:
        mod = importlib.import_module(f"fractrace.{short}")
        for name, obj in sorted(vars(mod).items()):
            if name.startswith("_") \
                    or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out += _optional(f"{short}.{name}", obj)
            elif inspect.isclass(obj):
                out += _class_surface(f"{short}.{name}", obj)
    return out


def test_the_api_surface_is_the_pinned_one():
    assert surface() == SURFACE


def test_the_package_exports_its_submodules_only():
    """Some submodules load only on first access, so each is read through
    the package's attributes; any public name besides a submodule, such as
    a helper the package imports, is refused."""
    for name in MODULES:
        assert getattr(fractrace, name) is \
            importlib.import_module(f"fractrace.{name}")
    public = {name: obj for name, obj in vars(fractrace).items()
              if not name.startswith("_")}
    assert all(isinstance(obj, types.ModuleType)
               and obj.__name__ == f"fractrace.{name}"
               for name, obj in public.items()), sorted(public)
