"""Named experiments: each runner turns a parsed config into rows and checks.

A runner returns an ExperimentResult whose rows become the CSV table and
whose checks (value, tolerance, comparator) drive the process exit code.
Tolerances come from the config with all defaults materialized, so the
emitted summary pins down every threshold a pass/fail decision used.  A
check whose data are missing or not finite has value None and fails (``_worst``).
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import ParsedConfig
from .galerkin import gauss_hermite_nodes, leading_block_spectra, spectral_gap
from .model import (
    ModelSpectrum,
    eval_model_basis,
    eval_model_bergman,
    model_kernel_from_basis,
    multi_indices,
)
from .scaling import (
    _sweep,
    fit_loglog,
    heat_route_comparison,
    kernel_grid,
    route_equivalence_gap,
    scaled_bergman_convergence,
    vanishing_convergence,
)
from .torus import BoundaryCrossingWarning, _theta_levels, audit_morse, theta_trace_check
from .weights import scale_weight


@dataclass(frozen=True)
class Check:
    """One pass/fail criterion: value compared against tolerance; a None value fails."""

    name: str
    value: float | None
    tolerance: float
    comparator: str  # one of "<=", ">=", "<"

    @property
    def passed(self) -> bool:
        if self.value is None:
            return False
        if self.comparator == "<=":
            return self.value <= self.tolerance
        if self.comparator == ">=":
            return self.value >= self.tolerance
        if self.comparator == "<":
            return self.value < self.tolerance
        raise ValueError(f"unknown comparator {self.comparator!r}")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "tolerance": self.tolerance,
            "comparator": self.comparator,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    checks: tuple[Check, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _worst(values, pick=max) -> float | None:
    """``pick`` of the values as a float; None when there are none or any is None or not finite."""
    values = list(values)
    if not values or any(v is None or not math.isfinite(v) for v in values):
        return None
    return float(pick(values))


def _slope_so_far(cs, errors, i) -> float | None:
    return fit_loglog(cs[: i + 1], errors[: i + 1])[0]


def _run_model(cfg: ParsedConfig) -> ExperimentResult:
    sec = cfg.values["model"]
    rng = random.Random(cfg.seed)
    rows: list[tuple] = []

    prefactor_devs = []
    for _ in range(sec["spectra"]):
        n = rng.randint(1, sec["max_n"])
        q0 = rng.randint(0, n)
        mags = [rng.uniform(0.3, 3.0) for _ in range(n)]
        lams = tuple(-m for m in mags[:q0]) + tuple(mags[q0:])
        spec = ModelSpectrum(lams)
        origin = np.zeros((1, n), dtype=complex)
        value = eval_model_bergman(spec, q0, origin, origin)[0, 0]
        expected = float(np.prod(np.abs(lams))) / math.pi**n
        prefactor_devs.append(abs(value - expected) / expected)
    prefactor_dev = _worst(prefactor_devs)
    rows.append(("prefactor", f"spectra={sec['spectra']}", prefactor_dev))

    ortho_devs = []
    alphas = tuple(multi_indices(1, sec["max_order"]))
    for lam in sec["lambdas"]:
        spec = ModelSpectrum((lam,))
        order = 2 * sec["max_order"] + 4
        z, wt = gauss_hermite_nodes(order, abs(lam))
        # the quadrature weights carry e^{-2|lam||z|^2} dV, so strip the
        # Gaussian from the basis values to avoid counting it twice
        undo = np.exp(abs(lam) * np.abs(z) ** 2)
        basis = eval_model_basis(spec, alphas, z) * undo[None, :]
        gram = (basis * wt[None, :]) @ basis.conj().T
        ortho_devs.append(float(np.abs(gram - np.eye(len(alphas))).max()))
        rows.append(("orthonormality", f"lambda={lam:g}", ortho_devs[-1]))

    spec1 = ModelSpectrum((1.0,))
    pts = kernel_grid(sec["grid_points"], sec["grid_radius"])
    closed = eval_model_bergman(spec1, 0, pts, pts)
    expansion_devs = []
    for degree in sec["degrees"]:
        approx = model_kernel_from_basis(spec1, 0, degree, pts, pts)
        expansion_devs.append(float(np.abs(approx - closed).max()))
        rows.append(("expansion", f"degree={degree}", expansion_devs[-1]))

    checks = (
        Check("prefactor", prefactor_dev, sec["prefactor_tolerance"], "<="),
        Check("orthonormality", _worst(ortho_devs), sec["orthonormality_tolerance"], "<="),
        # the expansion converges in the degree: the check reads the highest one
        Check("expansion", _worst(expansion_devs[-1:]), sec["expansion_tolerance"], "<="),
    )
    return ExperimentResult(
        name="model",
        columns=("quantity", "parameter", "value"),
        rows=tuple(rows),
        checks=checks,
    )


def _run_converge(cfg: ParsedConfig) -> ExperimentResult:
    family = cfg.family()
    sec = cfg.values["converge"]
    grid = kernel_grid(sec["grid_points"], sec["grid_radius"])
    rep = scaled_bergman_convergence(
        family,
        ks=sec["ks"],
        degree=sec["degree"],
        grid=grid,
        epsilon=sec["epsilon"],
        quad_order=sec["quad_order"],
    )
    rank = sec["degree"] + 1
    rows = tuple(
        (k, c, e, rank, _slope_so_far(rep.c_values, rep.errors, i))
        for i, (k, c, e) in enumerate(zip(rep.ks, rep.c_values, rep.errors))
    )

    checks: list[Check] = []
    if not family.is_model:
        rises = [b - a for a, b in zip(rep.errors, rep.errors[1:])]
        checks.append(Check("errors_strictly_decreasing", _worst(rises), 0.0, "<"))
    if sec["slope_target"] is not None:
        off = None if rep.slope is None else abs(rep.slope - sec["slope_target"])
        checks.append(Check("slope_within_band", _worst([off]), sec["slope_tolerance"], "<="))
    if sec["max_error"] is not None:
        checks.append(Check("max_error", _worst(rep.errors), sec["max_error"], "<="))
    # the routes are compared at the last k solved; with none solved the check is undecided
    route = None
    if rep.ks:
        route = route_equivalence_gap(
            family,
            rep.ks[-1],
            sec["degree"],
            grid,
            epsilon=sec["epsilon"],
            quad_order=sec["quad_order"],
        )
    checks.append(Check("route_equivalence", _worst([route]), sec["route_tolerance"], "<="))
    return ExperimentResult(
        name="converge",
        columns=("k", "C_k", "error", "rank", "slope_so_far"),
        rows=rows,
        checks=tuple(checks),
        notes=rep.failures,
    )


def _run_vanish(cfg: ParsedConfig) -> ExperimentResult:
    family = cfg.family()
    sec = cfg.values["vanish"]
    spec = family.model_spectrum()
    q = 1 - spec.q0 if sec["q"] is None else sec["q"]
    matched = q == spec.q0
    grid = kernel_grid(sec["grid_points"], sec["grid_radius"])
    rep = vanishing_convergence(
        family,
        ks=sec["ks"],
        degree=sec["degree"],
        d=sec["d"],
        grid=grid,
        q=q,
    )
    rows = tuple(
        (k, c, e, r, _slope_so_far(rep.c_values, rep.errors, i))
        for i, (k, c, e, r) in enumerate(
            zip(rep.ks, rep.c_values, rep.errors, rep.ranks)
        )
    )

    checks: list[Check] = []
    notes = list(rep.failures)
    if matched:
        notes.append(f"matched signature control: q = q0 = {q}")
        checks.append(Check("rank_persists", _worst(rep.ranks, min), 1.0, ">="))
    else:
        sel = [i for i, c in enumerate(rep.c_values) if c >= sec["min_ck"]]
        if not sel:
            notes.append(f"no k with C_k >= {sec['min_ck']:g} was run")
        checks.append(Check("rank_zero", _worst(rep.ranks[i] for i in sel), 0.0, "<="))
        worst_err = _worst(rep.errors[i] for i in sel)
        checks.append(Check("kernel_sup", worst_err, sec["kernel_tolerance"], "<="))
    return ExperimentResult(
        name="vanish",
        columns=("k", "C_k", "error", "rank", "slope_so_far"),
        rows=rows,
        checks=tuple(checks),
        notes=tuple(notes),
    )


def _run_gap(cfg: ParsedConfig) -> ExperimentResult:
    family = cfg.family()
    sec = cfg.values["gap"]
    spec = family.model_spectrum()
    q = 1 - spec.q0 if sec["q"] is None else sec["q"]
    degrees = (sec["degree_coarse"], sec["degree_fine"])

    def gaps(weight) -> tuple[float, ...]:
        spectra = leading_block_spectra(weight, q, degrees[1], degrees)
        return tuple(spectral_gap(mu) for mu in spectra)

    rows: list[tuple] = []
    rels: list[float] = []
    fine_gaps: list[float] = []
    for k, (coarse, fine) in _sweep(partial(scale_weight, family), sec["ks"], gaps):
        ck = family.c_value(k)
        rel = abs(coarse - fine) / fine
        rows.append((k, ck, coarse, fine, rel, ck * fine))
        rels.append(rel)
        fine_gaps.append(fine)
    # linearity in C_k is max/min - 1 of the scaled gaps, which one k cannot test
    spread = [g / min(fine_gaps) - 1.0 for g in fine_gaps] if len(fine_gaps) > 1 else []
    checks = (
        Check("gap_stability", _worst(rels), sec["stability_tolerance"], "<="),
        Check("gap_linearity", _worst(spread), sec["linearity_tolerance"], "<="),
    )
    return ExperimentResult(
        name="gap",
        columns=("k", "C_k", "gap_coarse", "gap_fine", "rel_change", "unscaled_gap"),
        rows=tuple(rows),
        checks=checks,
    )


def _run_heat(cfg: ParsedConfig) -> ExperimentResult:
    family = cfg.family()
    sec = cfg.values["heat"]
    grid = kernel_grid(sec["grid_points"], sec["grid_radius"])
    rep = heat_route_comparison(
        family,
        ks=sec["ks"],
        ts=sec["ts"],
        degree=sec["degree"],
        grid=grid,
    )
    rows = tuple(
        (k, c, t, float(rep.diffs[i, j]), rep.gaps[i], rep.slopes[i])
        for i, (k, c) in enumerate(zip(rep.ks, rep.c_values))
        for j, t in enumerate(rep.ts)
    )
    offs = [None if s is None else abs(s + g) / g for s, g in zip(rep.slopes, rep.gaps)]
    checks = [Check("slope_matches_gap", _worst(offs), sec["slope_tolerance"], "<=")]
    if family.is_model:
        # the spread over k of each |H(t) - P|, which one k cannot test
        spread = rep.spread_per_t if len(rep.ks) > 1 else ()
        checks.append(Check("k_stability", _worst(spread), sec["spread_tolerance"], "<="))
    return ExperimentResult(
        name="heat",
        columns=("k", "C_k", "t", "diff", "gap", "slope"),
        rows=rows,
        checks=tuple(checks),
    )


def _run_torus_audit(cfg: ParsedConfig) -> ExperimentResult:
    bundle = cfg.bundle()
    sec = cfg.values["torus"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", BoundaryCrossingWarning)
        rep = audit_morse(bundle, sec["ks"], sec["grid_n"])
    notes = sorted({str(w.message) for w in caught})

    trace_devs = {
        k: theta_trace_check(bundle, k, sec["gram_grid"], sec["trace_grid"]).deviation
        for k in _theta_levels(bundle, sec["ks"], sec["theta_max_k"])
    }
    rows = tuple(
        (
            k,
            rep.h0[i],
            rep.h1[i],
            rep.i0[i],
            rep.i1[i],
            rep.morse1[i],
            rep.morse2[i],
            rep.morse3[i],
            trace_devs.get(k),
        )
        for i, k in enumerate(rep.ks)
    )

    checks = [
        Check("morse3_zero", _worst(abs(v) for v in rep.morse3), sec["morse3_tolerance"], "<="),
        Check("morse1_nonnegative", _worst(rep.morse1, min), -sec["equality_tolerance"], ">="),
    ]
    if rep.sign_changing:
        margin = _worst((v / k for k, v in zip(rep.ks, rep.morse1)), min)
        checks.append(Check("morse1_margin_per_k", margin, sec["margin_floor"], ">="))
    else:
        equality = _worst(abs(v) for v in rep.morse1)
        checks.append(Check("morse1_equality", equality, sec["equality_tolerance"], "<="))
    if trace_devs:
        trace = _worst(trace_devs.values())
        checks.append(Check("theta_trace", trace, sec["trace_tolerance"], "<="))
    return ExperimentResult(
        name="torus-audit",
        columns=("k", "h0", "h1", "I0", "I1", "morse1", "morse2", "morse3", "trace_dev"),
        rows=rows,
        checks=tuple(checks),
        notes=tuple(notes),
    )


_RUNNERS = {
    "converge": _run_converge,
    "gap": _run_gap,
    "heat": _run_heat,
    "model": _run_model,
    "torus-audit": _run_torus_audit,
    "vanish": _run_vanish,
}

_DESCRIPTIONS = {
    "converge": "Scaled Bergman kernels of a weight family converging to the Gaussian model kernel",
    "gap": "Spectral gap of the scaled Laplacian: stability in truncation degree, linearity in C_k",
    "heat": "Heat kernels of the scaled Laplacian relaxing to the kernel projector",
    "model": "Closed-form model kernel identities: prefactor, basis orthonormality, expansion",
    "torus-audit": "Flat-torus Morse inequalities, Riemann-Roch margin and theta trace identity",
    "vanish": "Spectral projector rank collapse for mismatched curvature signatures",
}


def list_experiments() -> tuple[tuple[str, str], ...]:
    """Stable, name-sorted (name, description) pairs."""
    return tuple(sorted(_DESCRIPTIONS.items()))


def run_experiment(cfg: ParsedConfig) -> ExperimentResult:
    return _RUNNERS[cfg.experiment](cfg)
