"""The benchmark's per-layer trace names package attributes; they must all exist.

``bench/tracing.py`` rebinds the functions, methods and LAPACK entry points
listed in its ``_FUNCTIONS``, ``_METHODS`` and ``_LAPACK`` tables by name.  A
refactor that renames or deletes one of them breaks ``bench/run.py --trace 1``
without failing anything else, so the tables are checked here.  The file is
read, never edited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _load_tracing()


@pytest.mark.parametrize(
    "module_name, attr", [(entry[0], entry[1]) for entry in _tracing._FUNCTIONS + _tracing._LAPACK]
)
def test_traced_function_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


@pytest.mark.parametrize(
    "module_name, cls_name, attr", [entry[:3] for entry in _tracing._METHODS]
)
def test_traced_method_exists(module_name, cls_name, attr):
    cls = getattr(importlib.import_module(module_name), cls_name)
    # install() rebinds vars(cls)[attr], so the method must be defined on the class itself
    assert callable(vars(cls).get(attr))
