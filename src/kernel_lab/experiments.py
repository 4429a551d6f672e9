"""Named experiments: each runner turns a parsed config into rows and checks.

A runner returns an ExperimentResult whose rows become the CSV table and
whose checks (value, tolerance, comparator) drive the process exit code.
Each bound is a constant of its check, not a config key, so no run can
loosen its own gate; ``summary.json`` reports it once, under ``checks``.
So are the grid a check reads and the levels it selects; its target comes from the run's inputs.
A check whose data are missing or not finite has value None and fails (``_worst``).
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import ParsedConfig
from .galerkin import _model_lambda, gauss_hermite_nodes, leading_block_gaps
from .model import (
    ModelSpectrum,
    eval_model_basis,
    eval_model_bergman,
    multi_indices,
)
from .scaling import (
    _gap_truncations,
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
        expected = math.prod(mags) / math.pi**n
        prefactor_devs.append(abs(value - expected) / expected)
    prefactor_dev = _worst(prefactor_devs)
    rows.append(("prefactor", f"spectra={sec['spectra']}", prefactor_dev))

    ortho_devs = []
    alphas = tuple(multi_indices(1, sec["max_order"]))
    # integrate in unit-curvature variables u = sqrt(|lam|) z, dV(z) = dV(u) / |lam|,
    # whose weights stay normal at any lam; they carry e^{-2|u|^2} dV, so strip
    # the Gaussian from the basis values to avoid counting it twice
    u, wt = gauss_hermite_nodes(2 * sec["max_order"] + 4, 1.0)
    undo = np.exp(np.abs(u) ** 2)
    for lam in sec["lambdas"]:
        spec = ModelSpectrum((lam,))
        basis = eval_model_basis(spec, alphas, u / math.sqrt(abs(lam))) * undo[None, :]
        gram = (basis * wt[None, :]) @ basis.conj().T / abs(lam)
        ortho_devs.append(float(np.abs(gram - np.eye(len(alphas))).max()))
        rows.append(("orthonormality", f"lambda={lam:g}", ortho_devs[-1]))

    spec1 = ModelSpectrum((1.0,))
    pts = kernel_grid(5, 1.0)
    closed = eval_model_bergman(spec1, 0, pts, pts)
    # multi_indices is graded, so the first D + 1 rows of the top degree's table are
    # the degree-D basis, bit for bit: one table serves every degree
    table = eval_model_basis(spec1, tuple(multi_indices(1, sec["degrees"][-1])), pts)
    expansion_devs = []
    for degree in sec["degrees"]:
        head = table[: degree + 1]
        expansion_devs.append(float(np.abs(head.T @ head.conj() - closed).max()))
        rows.append(("expansion", f"degree={degree}", expansion_devs[-1]))

    checks = (
        Check("prefactor", prefactor_dev, 1e-12, "<="),
        Check("orthonormality", _worst(ortho_devs), 1e-8, "<="),
        # the expansion converges in the degree: the check reads the highest one
        Check("expansion", _worst(expansion_devs[-1:]), 1e-6, "<="),
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
    rep = scaled_bergman_convergence(family, ks=sec["ks"], degree=sec["degree"])
    rank = sec["degree"] + 1
    rows = tuple(
        (k, c, e, rank, _slope_so_far(rep.c_values, rep.errors, i))
        for i, (k, c, e) in enumerate(zip(rep.ks, rep.c_values, rep.errors))
    )

    # the family sets the target: its rate, else the model kernel itself
    if family.rate is None:
        checks = [Check("max_error", _worst(rep.errors), 1e-6, "<=")]
    else:
        rises = [b - a for a, b in zip(rep.errors, rep.errors[1:])]
        off = None if rep.slope is None else abs(rep.slope - family.rate)
        checks = [Check("errors_strictly_decreasing", _worst(rises), 0.0, "<")]
        checks.append(Check("slope_within_band", _worst([off]), 0.2, "<="))
    # the routes are compared at the last k solved; with none solved the check is undecided
    route = None
    if rep.ks:
        route = route_equivalence_gap(family, rep.ks[-1], sec["degree"])
    checks.append(Check("route_equivalence", _worst([route]), 1e-8, "<="))
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
    rep = vanishing_convergence(family, ks=sec["ks"], degree=sec["degree"], d=sec["d"], q=q)
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
        sel = [i for i, c in enumerate(rep.c_values) if c >= 16.0]
        if not sel:
            notes.append("no k with C_k >= 16 was run")
        checks.append(Check("rank_zero", _worst(rep.ranks[i] for i in sel), 0.0, "<="))
        checks.append(Check("kernel_sup", _worst(rep.errors[i] for i in sel), 1e-8, "<="))
    return ExperimentResult(
        name="vanish",
        columns=("k", "C_k", "error", "rank", "slope_so_far"),
        rows=rows,
        checks=tuple(checks),
        notes=tuple(notes),
    )


def _run_gap(cfg: ParsedConfig) -> ExperimentResult:
    """The scaled Laplacian's gap in the mismatched degree q = 1 - q0, at D and 3D/4.

    In that degree the Laplacian has no kernel, so the gap is the bottom of
    the spectrum, read from each truncation by ``leading_block_gaps`` with
    no zero band to cut.  The fine gap is compared with its level's limit 2|lambda_k|.
    """
    family = cfg.family()
    sec = cfg.values["gap"]
    q = 1 - family.model_spectrum().q0
    degree = sec["degree"]
    blocks = _gap_truncations(family, degree)

    def gaps(weight) -> tuple[float, tuple[float, ...]]:
        return _model_lambda(weight), leading_block_gaps(weight, q, degree, blocks)

    rows: list[tuple] = []
    rels: list[float] = []
    offs: list[float] = []
    for k, (lam, (coarse, fine)) in _sweep(partial(scale_weight, family), sec["ks"], gaps):
        ck = family.c_value(k)
        rel = abs(coarse - fine) / fine
        rows.append((k, ck, coarse, fine, rel, ck * fine))
        rels.append(rel)
        offs.append(abs(fine / (2.0 * lam) - 1.0))
    checks = (
        Check("gap_stability", _worst(rels), 0.02, "<="),
        Check("gap_linearity", _worst(offs), 0.05, "<="),
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
    rep = heat_route_comparison(family, ks=sec["ks"], ts=sec["ts"], degree=sec["degree"])
    rows = tuple(
        (k, c, t, float(rep.diffs[i, j]), rep.gaps[i], rep.slopes[i])
        for i, (k, c) in enumerate(zip(rep.ks, rep.c_values))
        for j, t in enumerate(rep.ts)
    )
    offs = [None if s is None else abs(s + g) / g for s, g in zip(rep.slopes, rep.gaps)]
    checks = [Check("slope_matches_gap", _worst(offs), 0.1, "<=")]
    if family.is_model:
        # the spread over k of each |H(t) - P|, which one k cannot test
        spread = rep.spread_per_t if len(rep.ks) > 1 else ()
        checks.append(Check("k_stability", _worst(spread), 1e-8, "<="))
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
        rep = audit_morse(bundle, sec["ks"])
    notes = sorted({str(w.message) for w in caught})

    trace_devs = {
        k: theta_trace_check(bundle, k).deviation
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
        Check("morse3_zero", _worst(abs(v) for v in rep.morse3), 1e-9, "<="),
        Check("morse1_nonnegative", _worst(rep.morse1, min), -1e-9, ">="),
    ]
    if rep.sign_changing:
        margin = _worst((v / k for k, v in zip(rep.ks, rep.morse1)), min)
        checks.append(Check("morse1_margin_per_k", margin, 0.1, ">="))
    else:
        checks.append(Check("morse1_equality", _worst(abs(v) for v in rep.morse1), 1e-9, "<="))
    if trace_devs:
        checks.append(Check("theta_trace", _worst(trace_devs.values()), 1e-6, "<="))
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
