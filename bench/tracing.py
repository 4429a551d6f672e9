"""Per-layer trace of kernel_lab, installed from outside the package.

``install`` replaces the package's public functions and methods with timing
wrappers by rebinding module and class attributes at run time, so no file of
the package is edited.  Every binding of a wrapped function in every loaded
``kernel_lab`` module is replaced, because modules import each other's
functions by name.  The LAPACK entry points the Galerkin layer reaches
through ``scipy.linalg`` and ``numpy.linalg`` are wrapped on those modules
and record a span only when a Galerkin span encloses the call; elsewhere
(the torus layer) their time stays with the enclosing span.

Spans are kept in memory and written out once, by the caller, at the end of
the run.  A span's self time is its duration minus the time covered by its
child spans; self times are summed per layer into the per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time

import numpy as np

# Span name -> per-layer self-time metric.  The comment says which
# end-to-end metric a change in the layer should move, and on which workload.
SELF_TIME_METRICS = {
    "cli": "cli.self.s",  # wall_s on the CLI workloads (under 1%)
    "config.load": "config.load.s",  # wall_s on the CLI workloads (under 1%)
    "experiments": "experiments.self.s",  # wall_s on the CLI workloads (under 1%)
    "scaling": "scaling.self.s",  # wall_s on api-sweep
    "galerkin.build_system": "galerkin.build_system.s",  # wall_s on cli-solve, api-sweep
    "galerkin.eigensolve": "galerkin.eigensolve.s",  # wall_s on cli-solve
    "galerkin.factor": "galerkin.factor.s",  # wall_s on cli-solve
    "galerkin.holomorphic_subsystem": "galerkin.holomorphic_subsystem.s",  # wall_s on cli-solve
    "galerkin.kernel_eval": "galerkin.kernel_eval.s",  # wall_s on api-sweep only
    "galerkin.hodge": "galerkin.hodge.s",  # wall_s on api-sweep only
    "model.oracle": "model.oracle.s",  # wall_s on cli-oracle and api-sweep
    "weights.eval": "weights.eval.s",  # wall_s on cli-solve and api-sweep
    "torus.theta_trace": "torus.theta_trace.s",  # wall_s on cli-oracle (~4%)
    "torus.morse": "torus.morse.s",  # wall_s on cli-oracle
    "output.write": "output.write.s",  # wall_s on the CLI workloads (under 1%)
}

# Truncation degrees whose build time is reported on its own.
SPLIT_DEGREES = (24, 30, 32)

# Counts repeat exactly from run to run.  "distinct" counts builds whose
# Gram and Laplacian bytes are new in the pass: a cache of systems moves
# calls, wall_s and peak_rss_mb on cli-solve and api-sweep but not distinct.
# assembly_gflop (16 M N^2 / 1e9 for M nodes, N functions) and gn3 (N^3 / 1e9
# per eigensolve) are computed from array sizes, not measured.
COUNT_METRICS = (
    "galerkin.build_system.calls",
    "galerkin.build_system.distinct",
    "galerkin.build_system.assembly_gflop",
    "galerkin.eigensolve.calls",
    "galerkin.eigensolve.gn3",
    "galerkin.holomorphic_subsystem.calls",
    "galerkin.kernel_eval.calls",
    "galerkin.kernel_eval.pairs",
    "model.oracle.calls",
    "weights.eval.calls",
    "torus.theta_trace.calls",
)

# Instrumentation's own work (hashing assembled systems) is a span of its
# own, so that it is charged to no layer of the package.
HASH_SPAN = "trace.hash"

# (module, attribute, span name, call-count metric) for module-level functions.
_FUNCTIONS = (
    ("kernel_lab.cli", "main", "cli", None),
    ("kernel_lab.config", "load_config", "config.load", None),
    ("kernel_lab.experiments", "run_experiment", "experiments", None),
    ("kernel_lab.scaling", "scaled_bergman_convergence", "scaling", None),
    ("kernel_lab.scaling", "vanishing_convergence", "scaling", None),
    ("kernel_lab.scaling", "heat_route_comparison", "scaling", None),
    ("kernel_lab.scaling", "route_equivalence_gap", "scaling", None),
    ("kernel_lab.galerkin", "build_system", "galerkin.build_system", "galerkin.build_system.calls"),
    (
        "kernel_lab.galerkin",
        "holomorphic_subsystem",
        "galerkin.holomorphic_subsystem",
        "galerkin.holomorphic_subsystem.calls",
    ),
    ("kernel_lab.galerkin", "bergman_kernel_numeric", "galerkin.kernel_eval", "galerkin.kernel_eval.calls"),
    ("kernel_lab.galerkin", "spectral_projector_kernel", "galerkin.kernel_eval", "galerkin.kernel_eval.calls"),
    ("kernel_lab.galerkin", "heat_kernel_numeric", "galerkin.kernel_eval", "galerkin.kernel_eval.calls"),
    ("kernel_lab.galerkin", "hodge_residual", "galerkin.hodge", None),
    ("kernel_lab.galerkin", "dbar_pairings", "galerkin.hodge", None),
    ("kernel_lab.model", "eval_model_bergman", "model.oracle", "model.oracle.calls"),
    ("kernel_lab.model", "eval_model_basis", "model.oracle", "model.oracle.calls"),
    ("kernel_lab.model", "model_kernel_from_basis", "model.oracle", "model.oracle.calls"),
    ("kernel_lab.weights", "scale_weight", "weights.eval", "weights.eval.calls"),
    ("kernel_lab.weights", "extend_weight", "weights.eval", "weights.eval.calls"),
    ("kernel_lab.torus", "theta_trace_check", "torus.theta_trace", "torus.theta_trace.calls"),
    ("kernel_lab.torus", "audit_morse", "torus.morse", None),
    ("kernel_lab.torus", "morse_integrals", "torus.morse", None),
    ("kernel_lab.torus", "curvature_field", "torus.morse", None),
    ("kernel_lab.output", "write_csv", "output.write", None),
    ("kernel_lab.output", "write_json", "output.write", None),
)

# (module, class, method, span name, call-count metric) for methods.
_METHODS = (
    ("kernel_lab.galerkin", "GalerkinSystem", "eval_modes", "galerkin.kernel_eval", "galerkin.kernel_eval.calls"),
    ("kernel_lab.weights", "Polynomial", "value", "weights.eval", "weights.eval.calls"),
    ("kernel_lab.weights", "WeightPolynomial", "value", "weights.eval", "weights.eval.calls"),
    ("kernel_lab.weights", "ExtendedWeight", "value", "weights.eval", "weights.eval.calls"),
    ("kernel_lab.weights", "ExtendedWeight", "d_z", "weights.eval", "weights.eval.calls"),
    ("kernel_lab.weights", "ExtendedWeight", "d_zbar", "weights.eval", "weights.eval.calls"),
    ("kernel_lab.weights", "ExtendedWeight", "d2_zzbar", "weights.eval", "weights.eval.calls"),
    ("kernel_lab.weights", "ExtendedWeight", "d2_zz", "weights.eval", "weights.eval.calls"),
    ("kernel_lab.weights", "ExtendedWeight", "c2_sup_to_model", "weights.eval", "weights.eval.calls"),
)

# (module, attribute, span name, call-count metric) for the LAPACK entry
# points the Galerkin layer calls through module attributes.
_LAPACK = (
    ("scipy.linalg", "eigh", "galerkin.eigensolve", "galerkin.eigensolve.calls"),
    ("scipy.linalg", "cho_factor", "galerkin.factor", None),
    ("scipy.linalg", "cho_solve", "galerkin.factor", None),
    ("numpy.linalg", "cholesky", "galerkin.factor", None),
)


class Tracer:
    """Spans and counts of the current pass, plus the finished passes."""

    def __init__(self) -> None:
        self.passes: list[dict] = []
        self._begin_pass()

    def _begin_pass(self) -> None:
        # Each span is [name, start, end, parent index, truncation degree or None].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = dict.fromkeys(COUNT_METRICS, 0.0)
        self.seen_systems: set[bytes] = set()

    def open(self, name: str, degree=None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, degree])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def end_pass(self, wall: float) -> None:
        self.passes.append({"wall": wall, "spans": self.spans, "counts": self.counts})
        self._begin_pass()

    # -- counters run after the span closes, from the call's arguments and result

    def count_build(self, bound, system) -> None:
        n = len(system.basis)
        self.counts["galerkin.build_system.assembly_gflop"] += 16 * system.quad_order**2 * n**2 / 1e9
        idx = self.open(HASH_SPAN)
        digest = hashlib.blake2b(system.gram.tobytes())
        digest.update(system.laplacian.tobytes())
        key = digest.digest()
        self.close(idx)
        if key not in self.seen_systems:
            self.seen_systems.add(key)
            self.counts["galerkin.build_system.distinct"] += 1

    def count_kernel(self, bound, _) -> None:
        self.counts["galerkin.kernel_eval.pairs"] += np.size(bound["z"]) * np.size(bound["w"])

    def count_eigensolve(self, bound, _) -> None:
        self.counts["galerkin.eigensolve.gn3"] += len(bound["a"]) ** 3 / 1e9


def _wrap(tracer: Tracer, name: str, fn, calls_metric: str | None, galerkin_only=False):
    """``fn`` timed as a span named ``name``, with its counters.

    With ``galerkin_only`` the span is recorded only when the innermost open
    span belongs to the Galerkin layer; otherwise ``fn`` runs untimed.
    """
    counter = {
        "build_system": tracer.count_build,
        "bergman_kernel_numeric": tracer.count_kernel,
        "spectral_projector_kernel": tracer.count_kernel,
        "heat_kernel_numeric": tracer.count_kernel,
        "eigh": tracer.count_eigensolve,
    }.get(fn.__name__)
    sig = inspect.signature(fn) if counter is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if galerkin_only and not (
            tracer.stack and tracer.spans[tracer.stack[-1]][0].startswith("galerkin.")
        ):
            return fn(*args, **kwargs)
        bound = sig.bind(*args, **kwargs).arguments if sig is not None else None
        degree = bound["degree"] if fn.__name__ == "build_system" else None
        idx = tracer.open(name, degree)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if calls_metric is not None:
            tracer.counts[calls_metric] += 1
        if counter is not None:
            counter(bound, result)
        return result

    return wrapper


def install(tracer: Tracer):
    """Wrap the package's layer boundaries; returns a function that undoes it."""
    for module_name in sorted({entry[0] for entry in _FUNCTIONS + _METHODS + _LAPACK}):
        importlib.import_module(module_name)
    undo: list[tuple[object, str, object]] = []

    def rebind(owner, attr, new) -> None:
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    package_modules = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "kernel_lab" or name.startswith("kernel_lab."))
    ]
    for module_name, attr, name, calls in _FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        wrapped = _wrap(tracer, name, original, calls)
        for module in package_modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    rebind(module, key, wrapped)
    for module_name, cls_name, attr, name, calls in _METHODS:
        cls = getattr(sys.modules[module_name], cls_name)
        rebind(cls, attr, _wrap(tracer, name, vars(cls)[attr], calls))
    for module_name, attr, name, calls in _LAPACK:
        module = sys.modules[module_name]
        rebind(module, attr, _wrap(tracer, name, getattr(module, attr), calls, galerkin_only=True))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus its children's durations."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(record: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see SELF_TIME_METRICS, COUNT_METRICS)."""
    metrics = {m: 0.0 for m in SELF_TIME_METRICS.values()}
    metrics.update({f"galerkin.build_system.s.D{d}": 0.0 for d in SPLIT_DEGREES})
    spans = record["spans"]
    for (name, _, _, _, tag), own in zip(spans, self_times(spans)):
        if name in SELF_TIME_METRICS:
            metrics[SELF_TIME_METRICS[name]] += own
        if name == "galerkin.build_system" and tag in SPLIT_DEGREES:
            metrics[f"galerkin.build_system.s.D{tag}"] += own
    metrics.update(record["counts"])
    calls = metrics["galerkin.build_system.calls"]
    metrics["galerkin.build_system.distinct_share"] = (
        metrics["galerkin.build_system.distinct"] / calls if calls else 0.0
    )
    return metrics


def accounted_time(record: dict) -> float:
    """Sum of every span's self time in one traced pass."""
    return sum(self_times(record["spans"]))
