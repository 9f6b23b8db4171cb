"""Golden replay: a small sweep-shaped batch must reproduce its checked-in
reports byte for byte, apart from the run-dependent meta fields.

``golden/config.json`` holds an explicit ``values`` list of 2,000 floats
(integral ones among them), a ``mu`` power sequence and a two-slope
exemplar.  To regenerate the reports after an intended change of output:

    PYTHONPATH=src python -m fractrace.cli run \\
        --config tests/golden/config.json --out-dir tests/golden/reports
"""

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
