"""Shared iterated-system builders used across the test modules, and a
wall-time bound for calls that once ran without end."""

import signal
from fractions import Fraction

import numpy as np

from fractrace.fractal_geometry import LimitIfs, Similarity, interval_map


def make_cantor(exact: bool = True) -> LimitIfs:
    """Middle-thirds set; rational maps keep the gap machinery exact."""
    third = Fraction(1, 3) if exact else 1 / 3
    left = 0 if exact else 0.0
    right = Fraction(2, 3) if exact else 2 / 3
    return LimitIfs.stationary([interval_map(third, left),
                                interval_map(third, right)])


def make_uneven() -> LimitIfs:
    """Ratios 1/2 and 1/3 with a gap; log(2)/log(3) irrational, non-lattice."""
    return LimitIfs.stationary([interval_map(Fraction(1, 2), 0),
                                interval_map(Fraction(1, 3), Fraction(2, 3))])


def make_segment() -> LimitIfs:
    """Two abutting halves; the limit set is the whole interval."""
    return LimitIfs.stationary([interval_map(0.5, 0.0), interval_map(0.5, 0.5)])


def make_planar() -> LimitIfs:
    """Three corner maps of the unit square, ratio 1/3, no rotations."""
    return LimitIfs.stationary([
        Similarity(1 / 3, [0.0, 0.0]),
        Similarity(1 / 3, [2 / 3, 0.0]),
        Similarity(1 / 3, [0.0, 2 / 3]),
    ])


def make_periodic() -> LimitIfs:
    """Alternating levels: 2 maps of ratio 1/4, then 3 maps of ratio 1/3."""
    return LimitIfs.periodic([
        [interval_map(0.25, 0.0), interval_map(0.25, 0.75)],
        [interval_map(1 / 3, 0.0), interval_map(1 / 3, 1 / 3),
         interval_map(1 / 3, 2 / 3)],
    ])


def make_periodic_gapped() -> LimitIfs:
    """Like make_periodic but every level leaves gaps between cylinders."""
    return LimitIfs.periodic([
        [interval_map(0.25, 0.0), interval_map(0.25, 0.75)],
        [interval_map(0.2, 0.0), interval_map(0.2, 0.4),
         interval_map(0.2, 0.8)],
    ])


def random_explicit(rng: np.random.Generator, n_levels: int = 8) -> LimitIfs:
    """Non-stationary one-dimensional spec with disjoint images per level."""
    levels = []
    for _ in range(n_levels):
        p = int(rng.integers(2, 4))
        lam = float(rng.uniform(0.15, 0.9 / p))
        # p images of width lam spread evenly inside [0, 1], gaps guaranteed
        slots = np.linspace(0.0, 1.0 - lam, p)
        levels.append([interval_map(lam, float(t)) for t in slots])
    return LimitIfs.explicit(levels)


def within(seconds, fn):
    """fn(), or TimeoutError once ``seconds`` of wall time have passed."""
    def too_slow(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
