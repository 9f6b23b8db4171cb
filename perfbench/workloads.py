"""Seeded input generators for the three benchmark workloads.

The seed picks the numbers (contraction ratios, translations, exponents,
``q``, ``alpha``/``beta``, ``gammas``); every size (caps, depths, list
lengths, experiment counts) is fixed, so the work a run does does not depend
on the seed.  Generators return plain JSON-ready data and import nothing from
the package: the program only ever sees the generated configs.
"""

from __future__ import annotations

import random

WORKLOADS = ("enumerate", "report", "sweep")

# enumerate: exact gap lists use fixed prime denominators, so the size of the
# rationals (and with it the cost of the exact path) does not move with the seed
EXACT_GAP_SYSTEMS = ((7, 11, 14), (5, 13, 13))   # (den1, den2, depth)
FLOAT_GAP_DEPTH = 18
PAIR_LINE_CAP = 10**5
PAIR_PLANAR_CAP = 5 * 10**4   # a planar word costs about twice a line word

# report: moderate sizes of every kind
REPORT_GAP_DEPTH = 15
REPORT_CLOUD_DEPTH = 12
REPORT_CYLINDER_DEPTH = 12
REPORT_CONTRACTION_DEPTH = 16
REPORT_PAIR_CAP = 10**5
REPORT_SEQUENCE_CAP = 10**5

# sweep: no enumeration, no series
SWEEP_POWER_COUNT = 24
SWEEP_POWER_CAP = 10**6
SWEEP_TWO_SLOPE_COUNT = 7
SWEEP_STEP_COUNT = 6
SWEEP_EXEMPLAR_CAP = 10**5
SWEEP_VALUE_LENGTHS = (250_000, 200_000, 150_000)
# a summable two-slope profile with beta < 1 < mean slope: the package's
# summability test (LogLinearProfile.converges) calls it non-summable, so
# resolve_kind takes the NON_TRACE_CLASS route.  Fixed, not seeded, so every
# run takes that route and a fix to it shows as reporting.report_drift
MIXED_TWO_SLOPE = {"family": "two_slope", "alpha": 1.6, "beta": 0.8,
                   "gammas": [1.0]}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _exact_pair(rng: random.Random, den1: int, den2: int):
    """Numerators k1/den1 + k2/den2 <= 0.9, so the two images leave a gap."""
    while True:
        k1 = rng.randint(1, den1 - 1)
        k2 = rng.randint(1, den2 - 1)
        if k1 / den1 + k2 / den2 <= 0.9:
            return [k1, den1], [k2, den2]


def _float_pair(rng: random.Random):
    while True:
        r1, r2 = rng.uniform(0.2, 0.45), rng.uniform(0.2, 0.45)
        if r1 + r2 <= 0.85:
            return r1, r2


def _line_maps(r1: float, r2: float):
    """Two interval maps at the ends of [0, 1]: the hull is [0, 1] and every
    level opens one gap inside each cylinder."""
    return [{"ratio": r1, "translation": 0.0},
            {"ratio": r2, "translation": 1.0 - r2}]


def _planar_maps(rng: random.Random):
    """Three corner maps of the unit square, gasket-like, no rotations."""
    r = [rng.uniform(0.25, 0.4) for _ in range(3)]
    return [{"ratio": r[0], "translation": [0.0, 0.0]},
            {"ratio": r[1], "translation": [1.0 - r[1], 0.0]},
            {"ratio": r[2], "translation": [0.0, 1.0 - r[2]]}]


def enumerate_inputs(seed: int) -> dict:
    # why: gap and pair enumeration do nearly all the work, on exact and planar paths the CLI cannot reach
    rng = _rng("enumerate", seed)
    exact = []
    for den1, den2, depth in EXACT_GAP_SYSTEMS:
        r1, r2 = _exact_pair(rng, den1, den2)
        exact.append({"ratios": [r1, r2], "depth": depth})
    return {
        "exact_gaps": exact,
        "float_gaps": {"maps": _line_maps(*_float_pair(rng)),
                       "depth": FLOAT_GAP_DEPTH},
        "pair_line": {"maps": _line_maps(*_float_pair(rng)),
                      "cap": PAIR_LINE_CAP},
        "pair_planar": {"maps": _planar_maps(rng), "cap": PAIR_PLANAR_CAP},
        "zeta_offset": rng.uniform(0.25, 0.45),
    }


def _stationary(maps) -> dict:
    return {"generation": "stationary", "maps": maps}


def _power_mu(rng: random.Random, summable: bool) -> dict:
    # exponents keep away from the summability threshold 1, so every sequence
    # classifies without a boundary case; callers fix which side
    expo = rng.uniform(1.2, 2.5) if summable else rng.uniform(0.55, 0.85)
    return {"form": "power", "coefficient": rng.uniform(0.5, 2.0),
            "exponent": expo}


def _gammas(rng: random.Random, count: int):
    return sorted(round(rng.uniform(0.5, 2.0), 6) for _ in range(count))


def _two_slope(rng: random.Random, cap: int, gammas: int,
               summable: bool) -> dict:
    # unit gaps (the default) keep the number of profile pieces, a size,
    # fixed.  Summable draws keep both slopes above 1, the others keep the
    # mean slope below 1, so every seed runs the same mix of scan routes;
    # the region between, beta < 1 < mean, is the fixed MIXED_TWO_SLOPE case
    if summable:
        mean = rng.uniform(1.3, 1.8)
        half = rng.uniform(0.05, 0.2) * mean
    else:
        mean = rng.uniform(0.6, 0.9)
        half = rng.uniform(0.2, 0.45) * mean
    return {"family": "two_slope", "alpha": mean + half, "beta": mean - half,
            "cap": cap, "gammas": _gammas(rng, gammas)}


def _step(rng: random.Random, cap: int, gammas: int) -> dict:
    # q sets the number of blocks (horizon^(1/q)); a narrow range keeps it
    return {"family": "step", "q": rng.uniform(1.8, 2.2), "cap": cap,
            "gammas": _gammas(rng, gammas)}


def report_inputs(seed: int) -> dict:
    # why: cold CLI batch of all six kinds with series on, where CSV and JSON reports weigh like the numerics
    rng = _rng("report", seed)
    classical = _line_maps(*_float_pair(rng))
    gap_maps = _line_maps(*_float_pair(rng))
    pair_maps = _line_maps(*_float_pair(rng))
    link_maps = _line_maps(*_float_pair(rng))
    exps = [
        {"kind": "SEQUENCE_ANALYSIS", "name": "sequence",
         "parameters": {"mu": _power_mu(rng, True),
                        "cap": REPORT_SEQUENCE_CAP}},
        {"kind": "EXEMPLAR", "name": "two-slope",
         "parameters": _two_slope(rng, REPORT_SEQUENCE_CAP, 3, True)},
        {"kind": "IFS_CLASSICAL", "name": "classical",
         "parameters": {"ifs": _stationary(classical),
                        "depth": REPORT_GAP_DEPTH,
                        "box_dimension": {"cloud_depth": REPORT_CLOUD_DEPTH},
                        "minkowski": True,
                        "cylinder": {"exponent": rng.uniform(0.3, 0.9),
                                     "depth": REPORT_CYLINDER_DEPTH},
                        "contraction": {"depth": REPORT_CONTRACTION_DEPTH}}},
        {"kind": "GAP_TRIPLE", "name": "gap-model",
         "parameters": {"ifs": _stationary(gap_maps),
                        "depth": REPORT_GAP_DEPTH,
                        "zeta": {"s": [1.0, 1.5]},
                        "functional": {"type": "affine",
                                       "slope": rng.uniform(-1.0, 1.0),
                                       "intercept": 2.0}}},
        {"kind": "PAIR_TRIPLE", "name": "pair-model",
         "parameters": {"ifs": _stationary(pair_maps),
                        "cap": REPORT_PAIR_CAP,
                        "zeta": {"s": [1.0, 1.5]},
                        "functional": {"type": "box_indicator",
                                       "lo": 0.0, "hi": rng.uniform(0.3, 0.7)}}},
        {"kind": "LINK_CHECK", "name": "link",
         "parameters": {"ifs": _stationary(link_maps),
                        "depth": REPORT_GAP_DEPTH}},
    ]
    return {"experiments": exps}


def _power_values(rng: random.Random, n: int):
    """Explicit nonincreasing list c n^-a, written with 17 digits in JSON."""
    c = rng.uniform(0.5, 2.0)
    a = rng.uniform(1.2, 2.5)
    return [c * k ** -a for k in range(1, n + 1)]


def sweep_inputs(seed: int) -> dict:
    # why: cold CLI batch of sequence and exemplar experiments, no enumeration: pair or gap changes leave it as is
    rng = _rng("sweep", seed)
    exps = []
    for i in range(SWEEP_POWER_COUNT):
        exps.append({"kind": "SEQUENCE_ANALYSIS", "name": f"power-{i}",
                     "series": False,
                     "parameters": {"mu": _power_mu(rng, i % 2 == 0),
                                    "cap": SWEEP_POWER_CAP}})
    for i in range(SWEEP_TWO_SLOPE_COUNT):
        exps.append({"kind": "EXEMPLAR", "name": f"two-slope-{i}",
                     "series": False,
                     "parameters": _two_slope(rng, SWEEP_EXEMPLAR_CAP,
                                              3 + i % 2, i % 2 == 0)})
    for i in range(SWEEP_STEP_COUNT):
        exps.append({"kind": "EXEMPLAR", "name": f"step-{i}",
                     "series": False,
                     "parameters": _step(rng, SWEEP_EXEMPLAR_CAP, 3 + i % 2)})
    exps.append({"kind": "EXEMPLAR", "name": "two-slope-mixed",
                 "series": False,
                 "parameters": {**MIXED_TWO_SLOPE, "cap": SWEEP_EXEMPLAR_CAP}})
    # the long lists run last, so the peak memory they set does not
    # depend on what earlier, seeded experiments left in the heap; the
    # longest first, so its report sets the peak and the shorter ones reuse
    # that memory (in rising order the peak moved 8% with the seed)
    for i, n in enumerate(SWEEP_VALUE_LENGTHS):
        exps.append({"kind": "SEQUENCE_ANALYSIS", "name": f"values-{i}",
                     "series": False,
                     "parameters": {"values": _power_values(rng, n)}})
    return {"experiments": exps}


GENERATORS = {"enumerate": enumerate_inputs, "report": report_inputs,
              "sweep": sweep_inputs}
