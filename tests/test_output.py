"""Artifact writers: cell formatting, CSV round-trips, atomic replacement."""

import csv
import io
import json
import math

import pytest

from kernel_lab.output import format_cell, write_csv, write_json


def test_format_cell():
    assert format_cell(None) == ""
    assert format_cell(True) == "true"
    assert format_cell(False) == "false"
    assert format_cell(42) == "42"
    assert format_cell("gap") == "gap"
    assert format_cell(0.1) == "0.10000000000000001"
    assert format_cell(1.0) == "1"
    assert format_cell(math.pi) == "3.1415926535897931"


@pytest.mark.parametrize(
    "value", [0.1, 1e-300, 1e300, math.pi, -2.5e-17, 7.0, 1 / 3]
)
def test_float_cells_round_trip(value):
    assert float(format_cell(value)) == value


def test_write_csv_round_trip(tmp_path):
    path = tmp_path / "rows.csv"
    header = ["k", "label", "error", "ok", "note"]
    rows = [
        [1, 'quote "inner"', 0.1, True, None],
        [2, "comma, semi; newline\nhere", float("nan"), False, "plain"],
    ]
    write_csv(str(path), header, rows)
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == header
    assert got[1] == ["1", 'quote "inner"', "0.10000000000000001", "true", ""]
    assert got[2][1] == "comma, semi; newline\nhere"
    assert got[2][2] == "nan"


def test_write_csv_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    header = ["x", "y"]
    rows = [[0.1 + 0.2, -0.0], [1e-17, 12345678901234567.0]]
    write_csv(str(a), header, rows)
    write_csv(str(b), header, rows)
    assert a.read_bytes() == b.read_bytes()


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(str(path), ["a"], [[1]])
    write_csv(str(path), ["a"], [[2]])  # overwrite in place
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
    with open(path, newline="") as fh:
        assert list(csv.reader(fh)) == [["a"], ["2"]]


def test_failed_write_cleans_up(tmp_path):
    path = tmp_path / "out.csv"

    def explode():
        raise RuntimeError("mid-write failure")
        yield

    with pytest.raises(RuntimeError):
        write_csv(str(path), ["a"], explode())
    assert list(tmp_path.iterdir()) == []


def test_write_json(tmp_path):
    path = tmp_path / "summary.json"
    payload = {"b": [1, 2], "a": {"z": True, "m": None}, "x": 0.1}
    write_json(str(path), payload)
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == payload
    # keys are emitted sorted for reproducible bytes
    assert text.index('"a"') < text.index('"b"') < text.index('"x"')


def test_write_json_bytes_match_streamed_dump(tmp_path):
    # one write of the whole text, the same bytes json.dump streams in chunks
    payload = {"checks": [{"name": "gap", "value": 2.0000000000000004, "passed": True}],
               "rows": [[1, 1e-300, None, "x\ny"], [2, -0.0, False, "\u00e9"]], "seed": 0}
    path = tmp_path / "summary.json"
    write_json(str(path), payload)
    streamed = io.StringIO()
    json.dump(payload, streamed, indent=2, sort_keys=True, allow_nan=False)
    assert path.read_bytes() == (streamed.getvalue() + "\n").encode("utf-8")


def test_write_json_refuses_nan(tmp_path):
    # strict RFC 8259: an undecided value is written as null, never as NaN
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            write_json(str(tmp_path / "summary.json"), {"value": bad})
    assert list(tmp_path.iterdir()) == []
