"""The benchmark's per-layer trace names package attributes; they must all exist.

``bench/tracing.py`` rebinds the functions, methods and LAPACK entry points
listed in its ``_FUNCTIONS``, ``_METHODS`` and ``_LAPACK`` tables by name, and
its counters read arguments of those calls by name and fields of the systems
they return.  A refactor that renames or deletes one of them breaks
``bench/run.py --trace 1`` without failing anything else, so the tables and
the counters' reads are checked here.  Likewise the api-sweep items in
``bench/workloads.py`` call the public API, so they are made and one of them
is run.  The bench files are read, never edited.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from kernel_lab import WeightPolynomial, galerkin

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_tracing = _load("tracing")


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


def test_build_counter_reads_a_built_system():
    # count_build sizes basis and quad_order and hashes gram and laplacian
    system = galerkin.build_system(WeightPolynomial.quadratic([1.0]), q=0, degree=4)
    assert isinstance(system.gram, np.ndarray)
    assert isinstance(system.laplacian, np.ndarray)
    tracer = _tracing.Tracer()
    tracer.count_build(None, system)
    assert tracer.counts["galerkin.build_system.distinct"] == 1
    assert tracer.counts["galerkin.build_system.assembly_gflop"] == pytest.approx(
        16 * system.quad_order**2 * len(system.basis) ** 2 / 1e9
    )


def test_counters_read_call_arguments_by_name():
    # the wrappers bind call arguments and read build_system's degree,
    # eigh's first argument a, and the kernels' point sets z and w
    assert "degree" in inspect.signature(galerkin.build_system).parameters
    assert next(iter(inspect.signature(scipy.linalg.eigh).parameters)) == "a"
    for kernel in (
        galerkin.bergman_kernel_numeric,
        galerkin.spectral_projector_kernel,
        galerkin.heat_kernel_numeric,
    ):
        assert {"z", "w"} <= set(inspect.signature(kernel).parameters)


def test_tracer_counts_lazily_imported_eigensolves():
    # galerkin imports scipy.linalg inside its solves and calls eigh through
    # the module attribute, which install() rebinds
    weight = WeightPolynomial.quadratic([1.0])
    tracer = _tracing.Tracer()
    uninstall = _tracing.install(tracer)
    try:
        system = galerkin.build_system(weight, 0, 4)
    finally:
        uninstall()
    assert len(system._classes) > 1
    assert tracer.counts["galerkin.eigensolve.calls"] == len(system._classes)


def test_api_sweep_items_build_and_hodge_runs(tmp_path):
    # the api-sweep workload calls the public weight API (quadratic([1.0]),
    # real_term(1, (3,), (0,), 0.25)) when its items are made, and its hodge
    # item runs the exact builds and the Hodge residual end to end
    workloads = _load("workloads")
    items = workloads.WORKLOADS["api-sweep"].make_items(str(_BENCH.parent), 0, str(tmp_path))
    (hodge,) = [item for item in items if item.name == "hodge"]
    assert hodge.run()
