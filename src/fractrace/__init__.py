"""Singular traceability diagnostics for eigenvalue sequences, exemplar
operator families, fractal constructions, and the spectral models that tie
them together."""

__version__ = "0.1.0"

from . import (  # noqa: F401
    asymptotics,
    errors,
    exemplars,
    fractal_geometry,
    reporting,
    sequences,
    spectral_triples,
)
