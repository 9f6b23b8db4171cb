"""The columnar CSV writer against the row loops it replaced.

Each reference below is the per-cell loop the package used before the
writer formatted columns: ``repr`` per float cell, ``str`` per integer cell.
A model lists each eigenvalue twice and stores its tags once per gap or
word, so the entries loop reads the tags of entry k from row k // 2.
The writer must give the same bytes through every entry point: the writer
itself, and the series of one experiment, whose entries table numbers its
rows and stops at ``series_max_rows``.
"""

import dataclasses
import math
import os
import tempfile
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fractrace import reporting
from fractrace.sequences import EigenvalueSequence
from fractrace.spectral_triples import gap_triple, pair_triple
from fractrace.fractal_geometry import (LimitIfs, Similarity,
                                        gaps_from_interval_ifs)
from systems import make_cantor, make_planar

BLOCK = reporting._CSV_BLOCK_ROWS

# signed zeros, infinities, NaNs with other payloads, the smallest
# subnormal, the normal/subnormal edge and the places where repr switches
# between positional and exponent notation (1e16 and 1e-4 / 1e-5)
_NAN_PAYLOADS = np.array([0x7FF0000000000001, -0x0008000000000000,
                          0x7FF8000000000123], dtype=np.int64).view(np.float64)
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, *_NAN_PAYLOADS.tolist(),
           5e-324, -5e-324, 1e-310, 2.225073858507201e-308,
           2.2250738585072014e-308, 1e16, -1e16, 9999999999999998.0,
           1.0000000000000002e16, 1e-4, 9.999999999999999e-05, 1e-5,
           1.0000000000000001e-05, 9.999999999999999e-06, 0.1, 1 / 3,
           1.7976931348623157e308]

floats64 = st.one_of(st.sampled_from(SPECIAL), st.floats())
# small enough that a sum of 24 of them stays finite
positive = st.one_of(
    st.sampled_from([x for x in SPECIAL if 0 < x < 1e300]),
    st.floats(min_value=5e-324, max_value=1e300))

# models whose arrays the oracle tests swap for drawn columns
GAP_MODEL = gap_triple(gaps_from_interval_ifs(make_cantor(), depth=2))
PAIR_MODELS = {
    1: pair_triple(LimitIfs.stationary([Similarity(1 / 3, [0.0]),
                                        Similarity(1 / 3, [2 / 3])]), cap=4),
    2: pair_triple(make_planar(), cap=4),
    3: pair_triple(LimitIfs.stationary([Similarity(1 / 2, [0.0, 0.0, 0.0]),
                                        Similarity(1 / 2, [0.5, 0.5, 0.5])]),
                   cap=4),
}


def column(dtype, n):
    elements = {"f8": floats64, "f4": st.floats(width=32),
                "i8": st.integers(-2**63, 2**63 - 1),
                "u8": st.integers(0, 2**64 - 1), "b": st.booleans()}[dtype]
    return hnp.arrays(np.dtype(dtype), n, elements=elements)


# ---------------------------------------------------------------------------
# the row loops the writer replaced

def reference_cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def reference_write_csv(path, header, columns):
    cols = [np.asarray(c) for c in columns]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*cols):
            fh.write(",".join(reference_cell(v) for v in row) + "\n")


def reference_entries_csv(path, values, tx, ty, max_rows=None):
    """Entries k = 1..n of ``values``, tagged by rows (k - 1) // 2 of the
    tag arrays, which hold one row per gap or word."""
    n_rows = len(values) if max_rows is None else min(len(values), int(max_rows))
    tx, ty = (t if t.ndim == 2 else t[:, None] for t in (tx, ty))
    dim = tx.shape[1]
    if dim == 1:
        head = "k,mu_k,tag_x,tag_y"
    else:
        head = ("k,mu_k,"
                + ",".join(f"tag_x_{i}" for i in range(1, dim + 1)) + ","
                + ",".join(f"tag_y_{i}" for i in range(1, dim + 1)))
    with open(path, "w") as fh:
        fh.write(head + "\n")
        for k in range(n_rows):
            cells = [str(k + 1), repr(float(values[k]))]
            cells += [repr(float(v)) for v in tx[k // 2]]
            cells += [repr(float(v)) for v in ty[k // 2]]
            fh.write(",".join(cells) + "\n")


def written(write, *args, **kwargs) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        write(path, *args, **kwargs)
        with open(path, "rb") as fh:
            return fh.read()


def series_files(write, *args) -> dict:
    """Run a series writer on an experiment with series on; the bytes of
    each file it recorded, by key."""
    with tempfile.TemporaryDirectory() as tmp:
        out = reporting._Series(SimpleNamespace(series=True, name="x"), tmp)
        write(out, *args)
        assert sorted(os.listdir(tmp)) == sorted(out.files.values())
        files = {}
        for key, fname in out.files.items():
            assert fname == f"x.{key}.csv"
            with open(os.path.join(tmp, fname), "rb") as fh:
                files[key] = fh.read()
        return files


def entries_csv(model, max_rows=None) -> bytes:
    """A model's entries CSV, written the way the model runners write it."""
    def write(out):
        out.write("entries", *reporting._entries_table(model, max_rows),
                  max_rows, numbered=True)
    return series_files(write)["entries"]


def block_rows(data):
    """A block size that splits small tables, or the real one."""
    return data.draw(st.sampled_from([1, 2, 3, 5, BLOCK]), label="block")


def max_rows_for(data, n):
    return data.draw(st.sampled_from([None, 0, 1, n, n + 3]), label="max_rows")


# ---------------------------------------------------------------------------
# oracle tests, one per entry point

@settings(max_examples=150, deadline=None)
@given(st.data())
def test_write_csv_matches_row_loop(data):
    n = data.draw(st.integers(0, 24), label="n")
    dtypes = data.draw(st.lists(st.sampled_from(["f8", "f4", "i8", "u8", "b"]),
                                min_size=1, max_size=5), label="dtypes")
    cols = [data.draw(column(dt, n), label=dt) for dt in dtypes]
    header = ",".join(f"c{i}" for i in range(len(cols)))
    with mock.patch.object(reporting, "_CSV_BLOCK_ROWS", block_rows(data)):
        got = written(reporting._write_csv, header, cols)
    assert got == written(reference_write_csv, header, cols)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_gap_model_csv_matches_row_loop(data):
    n = data.draw(st.integers(0, 12), label="n")
    # every model entry is listed twice, every gap's tags once
    values = np.repeat(data.draw(column("f8", n)), 2)
    starts, ends = (data.draw(column("f8", n)) for _ in range(2))
    model = dataclasses.replace(GAP_MODEL, values=values, tags_x=starts,
                                tags_y=ends)
    max_rows = max_rows_for(data, 2 * n)
    with mock.patch.object(reporting, "_CSV_BLOCK_ROWS", block_rows(data)):
        got = entries_csv(model, max_rows)
    assert got == written(reference_entries_csv, values, starts, ends,
                          max_rows=max_rows)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pair_model_csv_matches_row_loop(data):
    n = data.draw(st.integers(0, 12), label="n")
    dim = data.draw(st.sampled_from([1, 2, 3]), label="dim")
    values = np.repeat(data.draw(column("f8", n)), 2)
    tx, ty = (data.draw(column("f8", (n, dim))) for _ in range(2))
    model = dataclasses.replace(PAIR_MODELS[dim], values=values, tags_x=tx,
                                tags_y=ty)
    max_rows = max_rows_for(data, 2 * n)
    with mock.patch.object(reporting, "_CSV_BLOCK_ROWS", block_rows(data)):
        got = entries_csv(model, max_rows)
    assert got == written(reference_entries_csv, values, tx, ty,
                          max_rows=max_rows)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sequence_csv_matches_row_loop(data):
    """The partial-sums and eccentricity series, the CSVs written for a
    sequence."""
    vals = sorted(data.draw(st.lists(positive, min_size=2, max_size=24)),
                  reverse=True)
    assume(vals[0] != vals[-1])
    seq = EigenvalueSequence.from_values(vals)
    n_scan = data.draw(st.integers(0, 24), label="n_scan")
    scan = SimpleNamespace(t_points=data.draw(column("f8", n_scan)),
                           gaps=data.draw(column("f8", n_scan)))
    with mock.patch.object(reporting, "_CSV_BLOCK_ROWS", block_rows(data)):
        got = series_files(reporting._sequence_series, seq, scan)
    n = reporting._sample_indices(seq.cap)
    assert got == {
        "partial_sums": written(reference_write_csv, "n,S_n",
                                [n, np.cumsum(vals)[n - 1]]),
        "eccentricity": written(reference_write_csv, "log_n,ratio_gap",
                                [scan.t_points, scan.gaps])}


# ---------------------------------------------------------------------------
# tables longer than one block, at the real block size

def test_tables_past_one_block_match_row_loops():
    n = 2 * BLOCK + 7
    rng = np.random.default_rng(3)
    pool = np.array(SPECIAL + rng.normal(size=40).tolist())
    floats = pool[rng.integers(len(pool), size=n)]
    ints = rng.integers(-2**62, 2**62, size=n)
    with np.errstate(over="ignore", invalid="ignore"):
        singles = floats.astype(np.float32)
    cols = [np.arange(1, n + 1), floats, ints, singles, ints > 0, floats[::-1]]
    assert (written(reporting._write_csv, "a,b,c,d,e,f", cols)
            == written(reference_write_csv, "a,b,c,d,e,f", cols))

    model = pair_triple(make_planar(), cap=n)
    for max_rows in (None, BLOCK, BLOCK + 1):
        assert (entries_csv(model, max_rows)
                == written(reference_entries_csv, model.values, model.tags_x,
                           model.tags_y, max_rows=max_rows))
    gaps = gap_triple(gaps_from_interval_ifs(make_cantor(), depth=13))
    assert len(gaps) > BLOCK
    assert (entries_csv(gaps)
            == written(reference_entries_csv, gaps.values, gaps.tags_x,
                       gaps.tags_y))



def test_series_off_writes_and_records_nothing(tmp_path):
    out = reporting._Series(SimpleNamespace(series=False, name="x"), tmp_path)
    out.write("entries", *reporting._entries_table(GAP_MODEL, None),
              numbered=True)
    reporting._sequence_series(out, None, None)
    assert out.files == {} and list(tmp_path.iterdir()) == []
