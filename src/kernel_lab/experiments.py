"""Named experiments: each runner turns a parsed config into rows and checks.

A runner returns an ExperimentResult whose rows become the CSV table and
whose checks (value, tolerance, comparator) drive the process exit code.
Tolerances come from the config with all defaults materialized, so the
emitted summary pins down every threshold a pass/fail decision used.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

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
    fit_loglog,
    heat_route_comparison,
    kernel_grid,
    route_equivalence_gap,
    scaled_bergman_convergence,
    vanishing_convergence,
)
from .torus import BoundaryCrossingWarning, _theta_levels, audit_morse, theta_trace_check
from .weights import WeightFamily, scale_weight


@dataclass(frozen=True)
class Check:
    """One pass/fail criterion: value compared against tolerance."""

    name: str
    value: float
    tolerance: float
    comparator: str  # one of "<=", ">=", "<"

    @property
    def passed(self) -> bool:
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


def _is_pure_quadratic(family: WeightFamily) -> bool:
    return not family.perturbations and family.base == family.model_weight()


def _slope_so_far(cs, errors, i) -> float | None:
    return fit_loglog(cs[: i + 1], errors[: i + 1])[0]


def _run_model(cfg: ParsedConfig) -> ExperimentResult:
    sec = cfg.values["model"]
    rng = np.random.default_rng(cfg.seed)
    rows: list[tuple] = []

    prefactor_dev = 0.0
    for _ in range(sec["spectra"]):
        n = int(rng.integers(1, sec["max_n"] + 1))
        q0 = int(rng.integers(0, n + 1))
        mags = rng.uniform(0.3, 3.0, n)
        lams = tuple(-m for m in mags[:q0]) + tuple(mags[q0:])
        spec = ModelSpectrum(lams)
        origin = np.zeros((1, n), dtype=complex)
        value = eval_model_bergman(spec, q0, origin, origin)[0, 0]
        expected = float(np.prod(np.abs(lams))) / math.pi**n
        prefactor_dev = max(prefactor_dev, abs(value - expected) / expected)
    rows.append(("prefactor", f"spectra={sec['spectra']}", prefactor_dev))

    ortho_dev = 0.0
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
        dev = float(np.abs(gram - np.eye(len(alphas))).max())
        ortho_dev = max(ortho_dev, dev)
        rows.append(("orthonormality", f"lambda={lam:g}", dev))

    spec1 = ModelSpectrum((1.0,))
    pts = kernel_grid(sec["grid_points"], sec["grid_radius"])
    closed = eval_model_bergman(spec1, 0, pts, pts)
    expansion_dev = math.inf
    for degree in sec["degrees"]:
        approx = model_kernel_from_basis(spec1, 0, degree, pts, pts)
        expansion_dev = float(np.abs(approx - closed).max())
        rows.append(("expansion", f"degree={degree}", expansion_dev))

    checks = (
        Check("prefactor", prefactor_dev, sec["prefactor_tolerance"], "<="),
        Check("orthonormality", ortho_dev, sec["orthonormality_tolerance"], "<="),
        Check("expansion", expansion_dev, sec["expansion_tolerance"], "<="),
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
    if not _is_pure_quadratic(family):
        worst = max(
            (b - a for a, b in zip(rep.errors, rep.errors[1:])), default=-math.inf
        )
        checks.append(Check("errors_strictly_decreasing", worst, 0.0, "<"))
    if sec["slope_target"] is not None:
        off = (
            abs(rep.slope - sec["slope_target"]) if rep.slope is not None else math.inf
        )
        checks.append(Check("slope_within_band", off, sec["slope_tolerance"], "<="))
    if sec["max_error"] is not None:
        checks.append(
            Check("max_error", max(rep.errors, default=math.inf), sec["max_error"], "<=")
        )
    if rep.ks:
        route = route_equivalence_gap(
            family,
            rep.ks[-1],
            sec["degree"],
            grid,
            epsilon=sec["epsilon"],
            quad_order=sec["quad_order"],
        )
        checks.append(Check("route_equivalence", route, sec["route_tolerance"], "<="))
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
        epsilon=sec["epsilon"],
        quad_order=sec["quad_order"],
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
        least = min(rep.ranks, default=0)
        checks.append(Check("rank_persists", float(least), 1.0, ">="))
    else:
        sel = [i for i, c in enumerate(rep.c_values) if c >= sec["min_ck"]]
        if sel:
            worst_rank = max(rep.ranks[i] for i in sel)
            worst_err = max(rep.errors[i] for i in sel)
        else:
            worst_rank, worst_err = math.inf, math.inf
            notes.append(f"no k with C_k >= {sec['min_ck']:g} was run")
        checks.append(Check("rank_zero", float(worst_rank), 0.0, "<="))
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
    rows: list[tuple] = []
    rels: list[float] = []
    fine_gaps: list[float] = []
    degrees = (sec["degree_coarse"], sec["degree_fine"])
    for k in sec["ks"]:
        ck = family.c_value(k)
        spectra = leading_block_spectra(scale_weight(family, k), q, degrees[1], degrees)
        coarse, fine = (spectral_gap(mu) for mu in spectra)
        rel = abs(coarse - fine) / fine
        rows.append((k, ck, coarse, fine, rel, ck * fine))
        rels.append(rel)
        fine_gaps.append(fine)
    linearity = max(fine_gaps) / min(fine_gaps) - 1.0 if fine_gaps else math.inf
    checks = (
        Check("gap_stability", max(rels, default=math.inf), sec["stability_tolerance"], "<="),
        Check("gap_linearity", linearity, sec["linearity_tolerance"], "<="),
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
        epsilon=sec["epsilon"],
        quad_order=sec["quad_order"],
    )
    rows = tuple(
        (k, c, t, float(rep.diffs[i, j]), rep.gaps[i], rep.slopes[i])
        for i, (k, c) in enumerate(zip(rep.ks, rep.c_values))
        for j, t in enumerate(rep.ts)
    )
    slope_off = max(
        (
            abs(s + g) / g if s is not None else math.inf
            for s, g in zip(rep.slopes, rep.gaps)
        ),
        default=math.inf,
    )
    checks = [Check("slope_matches_gap", slope_off, sec["slope_tolerance"], "<=")]
    if _is_pure_quadratic(family):
        checks.append(
            Check(
                "k_stability",
                max(rep.spread_per_t, default=math.inf),
                sec["spread_tolerance"],
                "<=",
            )
        )
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
        Check("morse3_zero", max(abs(v) for v in rep.morse3), sec["morse3_tolerance"], "<="),
        Check("morse1_nonnegative", min(rep.morse1), -sec["equality_tolerance"], ">="),
    ]
    if rep.sign_changing:
        margin = min(v / k for k, v in zip(rep.ks, rep.morse1))
        checks.append(Check("morse1_margin_per_k", margin, sec["margin_floor"], ">="))
    else:
        checks.append(
            Check(
                "morse1_equality",
                max(abs(v) for v in rep.morse1),
                sec["equality_tolerance"],
                "<=",
            )
        )
    if trace_devs:
        checks.append(
            Check("theta_trace", max(trace_devs.values()), sec["trace_tolerance"], "<=")
        )
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
