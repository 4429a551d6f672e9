"""Every shipped config against its golden rows, checks and config echo.

Reruns are byte-identical (``test_cli``); this pins the numbers across
changes.  Floats agree to 1e-10 * max(1, |golden|), far above the spread
between BLAS thread counts; strings, integers, None, the pass flags and the
config echo must match exactly.  After a change that moves values on
purpose, regenerate the file and name each moved value in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
from pathlib import Path

import pytest

from kernel_lab.config import load_config
from kernel_lab.experiments import run_experiment

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
GOLDEN = Path(__file__).with_name("golden.json")
RELATIVE = 1e-10


def _record(path: Path) -> dict:
    cfg = load_config(str(path))
    result = run_experiment(cfg)
    record = {
        "config": cfg.echo(),
        "rows": [list(row) for row in result.rows],
        "checks": [c.as_dict() for c in result.checks],
        "passed": result.passed,
        "notes": list(result.notes),
    }
    # numpy scalars become Python ones, tuples lists: the golden file's types
    return json.loads(json.dumps(record, default=lambda v: v.item()))


def _mismatches(actual, golden, where: str = "") -> list[str]:
    if isinstance(golden, dict) and isinstance(actual, dict) and actual.keys() == golden.keys():
        return [m for key in golden for m in _mismatches(actual[key], golden[key], f"{where}.{key}")]
    if isinstance(golden, list) and isinstance(actual, list) and len(actual) == len(golden):
        return [m for i, (a, g) in enumerate(zip(actual, golden)) for m in _mismatches(a, g, f"{where}[{i}]")]
    if type(golden) is float and type(actual) is float:
        if actual == golden or abs(actual - golden) <= RELATIVE * max(1.0, abs(golden)):
            return []
    elif type(actual) is type(golden) and actual == golden:
        return []
    return [f"{where}: {actual!r} != golden {golden!r}"]


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.ini")))
def test_shipped_config_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())[name]
    record = _record(CONFIGS / f"{name}.ini")
    assert record["config"] == golden["config"]
    assert _mismatches(record, golden) == []


def test_golden_covers_every_shipped_config():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(p.stem for p in CONFIGS.glob("*.ini"))


def test_tolerance_is_relative_above_one():
    assert _mismatches(2e6 + 1e-5, 2e6) == []
    assert _mismatches(1.0 + 2e-10, 1.0) != []
    assert _mismatches(math.inf, math.inf) == []
    assert _mismatches(3, 3.0) != [] and _mismatches(None, 0.0) != []


if __name__ == "__main__":
    records = {p.stem: _record(p) for p in sorted(CONFIGS.glob("*.ini"))}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
