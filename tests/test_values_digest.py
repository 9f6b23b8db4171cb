"""A report cites an explicit ``values`` list by digest, not by echo.

The oracle recomputes the digest from the config file alone, with
``json.load``, ``struct`` and ``hashlib`` and no numpy: the SHA-256 of the
list as little-endian float64 bytes, next to its length.
"""

import hashlib
import json
import math
import struct

from fractrace import cli
from fractrace.reporting import _OBJECTS, KINDS, SEQUENCE_ANALYSIS

DESCENDING = [64.0, 32.0, 16.0, 8.0, 4.0, 3.0, 2.0, 2.0, 1.0, 0.9,
              1 / 3, 0.125, 0.1, 1e-3, 1e-9, 5e-324]


def oracle(config_path) -> dict:
    """{n, sha256} of the config file's values list, from the file."""
    with open(config_path) as fh:
        xs = json.load(fh)["parameters"]["values"]
    data = struct.pack("<%dd" % len(xs), *xs)
    return {"n": len(xs), "sha256": hashlib.sha256(data).hexdigest()}


def run_values(tmp_path, values, name="values", out="out") -> tuple:
    """(config path, report, report text) of a SEQUENCE_ANALYSIS run on
    ``values``, written under ``tmp_path / out``."""
    out = tmp_path / out
    out.mkdir(exist_ok=True)
    config = out / f"{name}.config.json"
    config.write_text(json.dumps({
        "kind": SEQUENCE_ANALYSIS, "name": name, "series": False,
        "parameters": {"values": values, "tolerance": 0.05}}))
    assert cli.main(["run", "--config", str(config), "--out-dir", str(out),
                     "--quiet"]) == 0
    text = (out / f"{name}.report.json").read_text()
    return config, json.loads(text), text


def test_the_digest_is_the_one_recomputed_from_the_config_file(tmp_path):
    config, report, _ = run_values(tmp_path, DESCENDING)
    assert report["format"] == "fractrace-report/2"
    # the digest, and every other field as given
    assert report["config"] == {
        "kind": SEQUENCE_ANALYSIS, "name": "values", "series": False,
        "parameters": {"values": oracle(config), "tolerance": 0.05}}


def test_ints_and_floats_equal_in_value_give_one_digest(tmp_path):
    # 2**53 + 1 is not a float64: as an int it rounds to 2**53, as the
    # float64 bytes of both the array and the oracle do
    ints = [2**53 + 1, 2**40] + list(range(64, 0, -1))
    floats = [float(2**53), float(2**40)] + [float(k) for k in range(64, 0, -1)]
    config_i, report_i, _ = run_values(tmp_path, ints, "ints")
    config_f, report_f, _ = run_values(tmp_path, floats, "floats")
    assert oracle(config_i) == oracle(config_f)
    assert report_i["config"]["parameters"]["values"] == oracle(config_i)
    assert report_f["config"]["parameters"]["values"] == oracle(config_f)
    assert report_i["results"] == report_f["results"]


def test_one_bit_in_one_element_changes_the_digest(tmp_path):
    moved = list(DESCENDING)
    moved[9] = math.nextafter(moved[9], 0.0)
    bits = [int.from_bytes(struct.pack("<d", x), "little")
            for x in (moved[9], DESCENDING[9])]
    assert bits[0] ^ bits[1] == 1
    config_a, report_a, _ = run_values(tmp_path, DESCENDING, "a")
    config_b, report_b, _ = run_values(tmp_path, moved, "b")
    digest_a = report_a["config"]["parameters"]["values"]
    digest_b = report_b["config"]["parameters"]["values"]
    assert digest_a == oracle(config_a) and digest_b == oracle(config_b)
    assert digest_a["n"] == digest_b["n"]
    assert digest_a["sha256"] != digest_b["sha256"]


def _config_block(text) -> str:
    start = text.index('\n  "config": {')
    return text[start:text.index("\n  },\n", start)]


def test_the_config_block_does_not_grow_with_the_list(tmp_path):
    blocks = {}
    for n in (10**3, 10**5):
        values = [1.0 / k for k in range(1, n + 1)]
        _, _, text = run_values(tmp_path, values, out=f"n{n}")
        blocks[n] = _config_block(text)
    # one length but for the two more digits of n
    assert len(blocks[10**5]) == len(blocks[10**3]) + 2
    assert blocks[10**3].count("\n") == blocks[10**5].count("\n")


def test_every_values_field_is_a_parameter_of_a_kind():
    """The echo looks for values fields among the kind's parameters only."""
    where = [(name, f.type) for name, spec in _OBJECTS.items()
             for f in spec.fields.values() if f.type.startswith("values")]
    assert (SEQUENCE_ANALYSIS, "values") in where
    assert all(name in KINDS and t == "values" for name, t in where)
