"""Singular traceability diagnostics for eigenvalue sequences, exemplar
operator families, fractal constructions, and the spectral models that tie
them together.

Importing the package loads the numeric core: ``errors``, ``sequences``,
``asymptotics``, ``fractal_geometry`` and ``spectral_triples``.
``exemplars`` and ``reporting``, which a library run of the core never
calls, load on first access as attributes; ``fractrace.cli`` imports
``reporting``, and with it ``exemplars``.
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
    asymptotics,
    errors,
    fractal_geometry,
    sequences,
    spectral_triples,
)


def __getattr__(name):
    if name in ("exemplars", "reporting"):
        from importlib import import_module
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
