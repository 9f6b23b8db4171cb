"""Error types shared across the package.

Every failure mode that callers are expected to handle gets its own class with
a stable ``code`` attribute; the CLI maps these to exit status 3 (numeric
precondition failures) while config/schema problems map to exit status 2.
Each class here is raised somewhere in the package, so each code is one a
run can report.
"""

from __future__ import annotations


class FractraceError(Exception):
    """Base class; ``code`` is a stable machine-readable identifier."""

    code = "ERROR"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class CapExceeded(FractraceError):
    code = "CAP_EXCEEDED"


class NotVanishing(FractraceError):
    code = "NOT_VANISHING"


class TailUnfittable(FractraceError):
    code = "TAIL_UNFITTABLE"


class TailExhausted(FractraceError):
    """A tail sum total - S_n that rounding has brought to zero or below."""

    code = "TAIL_EXHAUSTED"


class EmptySubsequence(FractraceError):
    code = "EMPTY_SUBSEQUENCE"


class NotL1Weak(FractraceError):
    code = "NOT_L1_WEAK"


class SpecNotDiverging(FractraceError):
    code = "SPEC_NOT_DIVERGING"


class DivergentSpec(FractraceError):
    code = "DIVERGENT_SPEC"


class BudgetExceeded(FractraceError):
    code = "BUDGET_EXCEEDED"


class EpsilonBelowResolution(FractraceError):
    code = "EPSILON_BELOW_RESOLUTION"


class OverlappingImages(FractraceError):
    code = "OVERLAPPING_IMAGES"


class SBelowDimension(FractraceError):
    code = "S_BELOW_DIMENSION"


class SeedCoincident(FractraceError):
    code = "SEED_COINCIDENT"


class Underflow(FractraceError):
    """A computed eigenvalue that rounds to 0."""

    code = "UNDERFLOW"


class Overflow(FractraceError):
    code = "OVERFLOW"


class KindMismatch(FractraceError):
    code = "KIND_MISMATCH"


class ValidationError(FractraceError):
    """Config/schema violations; carries the offending JSON paths."""

    code = "VALIDATION_ERROR"

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
