"""Golden replay: small sweep-shaped batches must reproduce their checked-in
reports byte for byte, apart from the run-dependent meta fields.

``golden/config.json`` holds an explicit ``values`` list of 2,000 floats
(integral ones among them), a ``mu`` power sequence and a two-slope
exemplar.  ``golden/series/config.json`` runs with series on: a summable
and a slowly decaying ``mu`` power sequence (both discrete scan kinds), a
staircase ``values`` list (the jump route), and a two-slope and a step
exemplar (the analytic scans).  ``golden/models/config.json`` runs the
model kinds with series on: a stationary and a periodic IFS_CLASSICAL, a
planar one (box counting and the contraction iteration in two dimensions), a
line one iterated to depth 15 (32,768-point clouds), a GAP_TRIPLE, a
PAIR_TRIPLE on a line and on a planar system, and a LINK_CHECK.  The CSV series of both are pinned by their SHA-256 digests in
``csv.sha256``.  To regenerate after an intended change of output:

    PYTHONPATH=src python -m fractrace.cli run \\
        --config tests/golden/config.json --out-dir tests/golden/reports
    PYTHONPATH=src python -m fractrace.cli run \\
        --config tests/golden/series/config.json \\
        --out-dir tests/golden/series/reports
    cd tests/golden/series/reports && sha256sum *.csv > ../csv.sha256 \\
        && rm *.csv

and the same two steps for ``golden/models``.
"""

import hashlib
import re
from pathlib import Path

from fractrace import cli

GOLDEN = Path(__file__).parent / "golden"

# the wall time changes on every run, and the package line names whichever
# fractrace distribution is installed
RUN_DEPENDENT = re.compile(r'^    "(wall_time_s|package)": .*$', re.M)


def _masked(path: Path) -> str:
    return RUN_DEPENDENT.sub(r'    "\1": <masked>', path.read_text())


def test_golden_batch_replays_byte_for_byte(tmp_path):
    code = cli.main(["run", "--config", str(GOLDEN / "config.json"),
                     "--out-dir", str(tmp_path), "--quiet"])
    assert code == 0
    expected = sorted(p.name for p in (GOLDEN / "reports").iterdir())
    assert expected == ["power.report.json", "two-slope.report.json",
                        "values.report.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for name in expected:
        golden = _masked(GOLDEN / "reports" / name)
        assert golden.count("<masked>") == 2, name
        assert _masked(tmp_path / name) == golden, name


def _replay_with_series(tmp_path, batch: Path, n_reports, n_csv):
    code = cli.main(["run", "--config", str(batch / "config.json"),
                     "--out-dir", str(tmp_path), "--quiet"])
    assert code == 0
    reports = sorted(p.name for p in (batch / "reports").iterdir())
    digests = dict(reversed(line.split()) for line in
                   (batch / "csv.sha256").read_text().splitlines())
    assert len(reports) == n_reports and len(digests) == n_csv
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted(reports + list(digests))
    for name in reports:
        golden = _masked(batch / "reports" / name)
        assert golden.count("<masked>") == 2, name
        assert _masked(tmp_path / name) == golden, name
    for name, digest in digests.items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == digest, name


def test_series_golden_batch_replays_byte_for_byte(tmp_path):
    _replay_with_series(tmp_path, GOLDEN / "series", 5, 10)


def test_models_golden_batch_replays_byte_for_byte(tmp_path):
    _replay_with_series(tmp_path, GOLDEN / "models", 8, 17)
