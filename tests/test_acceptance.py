"""Acceptance gate: one test per headline claim, each printing one verdict line.

Every test measures the quantity it certifies, asserts the contract tolerance
and its wall-clock budget, and prints a single PASS/FAIL summary line that
survives pytest's capture, so a full run reads as a checklist.
"""

import math
import time
import warnings

import numpy as np
import pytest

from kernel_lab import (
    BoundaryCrossingWarning,
    CkRule,
    ModelSpectrum,
    TorusBundle,
    WeightFamily,
    WeightPolynomial,
    audit_morse,
    bergman_kernel_numeric,
    build_system,
    curvature_field,
    eval_model_basis,
    eval_model_bergman,
    fit_loglog,
    heat_route_comparison,
    hodge_residual,
    holomorphic_subsystem,
    kernel_grid,
    model_kernel_from_basis,
    real_term,
    scale_weight,
    scaled_bergman_convergence,
    spectral_gap,
    theta_trace_check,
    vanishing_convergence,
)
from kernel_lab.galerkin import gauss_hermite_nodes, leading_block_spectra
from kernel_lab.model import multi_indices


def _verdict(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")


def _cubic_family() -> WeightFamily:
    base = WeightPolynomial.quadratic([1.0]) + real_term(1, (3,), (0,), 0.25)
    return WeightFamily(base=base, ck=CkRule(4.0))


def _quadratic_family() -> WeightFamily:
    return WeightFamily(base=WeightPolynomial.quadratic([1.0]), ck=CkRule(4.0))


def _curved_family() -> WeightFamily:
    # z^2 zbar + z zbar^2 is not pluriharmonic, so it moves the curvature
    base = WeightPolynomial.quadratic([1.0]) + real_term(1, (2,), (1,), 0.05)
    return WeightFamily(base=base, ck=CkRule(4.0))


def test_criterion_01_model_prefactor(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        q0 = int(rng.integers(0, n + 1))
        mags = rng.uniform(0.3, 3.0, n)
        lams = tuple(-m for m in mags[:q0]) + tuple(mags[q0:])
        spec = ModelSpectrum(lams)
        origin = np.zeros(n, dtype=complex)
        value = eval_model_bergman(spec, q0, origin, origin)[0, 0]
        expected = float(np.prod(np.abs(lams))) / math.pi**n
        worst = max(worst, abs(value - expected) / expected)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _verdict(
        capsys,
        "criterion 01 model prefactor",
        ok,
        f"max rel dev {worst:.3e} <= 1e-12, {elapsed:.2f}s < 1s",
    )
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_basis_orthonormality(capsys):
    t0 = time.monotonic()
    alphas = tuple(multi_indices(1, 6))
    worst = 0.0
    for lam in (0.5, 1.0, 3.0):
        spec = ModelSpectrum((lam,))
        z, wt = gauss_hermite_nodes(16, lam)
        # quadrature weights absorb e^{-2 lam |z|^2} dV; strip the basis Gaussian
        undo = np.exp(lam * np.abs(z) ** 2)
        basis = eval_model_basis(spec, alphas, z) * undo[None, :]
        gram = (basis * wt[None, :]) @ basis.conj().T
        worst = max(worst, float(np.abs(gram - np.eye(len(alphas))).max()))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    _verdict(
        capsys,
        "criterion 02 basis orthonormality",
        ok,
        f"max |<a,b> - delta| {worst:.3e} <= 1e-8, {elapsed:.2f}s < 5s",
    )
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_03_expansion_consistency(capsys):
    t0 = time.monotonic()
    spec = ModelSpectrum((1.0,))
    pts = kernel_grid(5, 1.0)
    closed = eval_model_bergman(spec, 0, pts, pts)
    partial = model_kernel_from_basis(spec, 0, 40, pts, pts)
    dev = float(np.abs(partial - closed).max())
    elapsed = time.monotonic() - t0
    ok = dev <= 1e-6 and elapsed < 5.0
    _verdict(
        capsys,
        "criterion 03 expansion consistency",
        ok,
        f"sup dev {dev:.3e} <= 1e-6 at order 40, {elapsed:.2f}s < 5s",
    )
    assert dev <= 1e-6
    assert elapsed < 5.0


def test_criterion_04_galerkin_vs_closed_form(capsys):
    t0 = time.monotonic()
    pts = kernel_grid(3, 1.5)
    worst = 0.0
    for lam in (1.0, 2.0):
        hol = holomorphic_subsystem(WeightPolynomial.quadratic([lam]), 30)
        numeric = bergman_kernel_numeric(hol, pts, pts)
        spec = ModelSpectrum((lam,))
        closed = eval_model_bergman(spec, 0, pts, pts)
        worst = max(worst, float(np.abs(numeric - closed).max()))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    _verdict(
        capsys,
        "criterion 04 galerkin vs closed form",
        ok,
        f"sup dev {worst:.3e} <= 1e-6 at degree 30, {elapsed:.2f}s < 10s",
    )
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_criterion_05_scaling_convergence(capsys):
    t0 = time.monotonic()
    ks = (1, 2, 3, 4, 5, 6, 7)
    rep = scaled_bergman_convergence(_cubic_family(), ks=ks, degree=30)
    control = scaled_bergman_convergence(_quadratic_family(), ks=ks, degree=30)
    elapsed = time.monotonic() - t0
    decreasing = rep.ks == ks and all(
        b < a for a, b in zip(rep.errors, rep.errors[1:])
    )
    slope_ok = rep.slope is not None and abs(rep.slope - (-0.5)) <= 0.2
    control_ok = control.ks == ks and max(control.errors) <= 1e-6
    ok = decreasing and slope_ok and control_ok and elapsed < 120.0
    _verdict(
        capsys,
        "criterion 05 scaling convergence",
        ok,
        f"slope {rep.slope:.4f} in -0.5 +/- 0.2, decreasing={decreasing}, "
        f"control max {max(control.errors):.3e} <= 1e-6, {elapsed:.1f}s < 120s",
    )
    assert decreasing, rep.errors
    assert slope_ok, rep.slope
    assert control_ok, control.errors
    assert elapsed < 120.0


def test_criterion_06_vanishing(capsys):
    t0 = time.monotonic()
    family = _cubic_family()
    ks = tuple(k for k in (1, 2, 3, 4, 5, 6, 7) if family.c_value(k) >= 16.0)
    reports = {
        d: vanishing_convergence(family, ks=ks, degree=30, d=float(d)) for d in (1, 2)
    }
    control = vanishing_convergence(family, ks=ks[:2], degree=30, d=1.0, q=0)
    elapsed = time.monotonic() - t0
    mismatched_ok = all(
        rep.ks == ks and rep.ranks == (0,) * len(ks) for rep in reports.values()
    )
    control_ok = all(r >= 1 for r in control.ranks)
    ok = mismatched_ok and control_ok and elapsed < 60.0
    _verdict(
        capsys,
        "criterion 06 vanishing",
        ok,
        f"mismatched ranks all 0 for d in {{1,2}}, k in {ks}; "
        f"matched control ranks {control.ranks} >= 1, {elapsed:.1f}s < 60s",
    )
    assert mismatched_ok, {d: rep.ranks for d, rep in reports.items()}
    assert control_ok, control.ranks
    assert elapsed < 60.0


def _gap_sweep(family: WeightFamily, ks) -> tuple[list[float], list[float]]:
    """rel_change |g(24) - g(32)| / g(32) and g(32) of the scaled q = 1 Laplacian, per k."""
    rels, fine_gaps = [], []
    for k in ks:
        scaled = scale_weight(family, k)
        coarse, fine = map(spectral_gap, leading_block_spectra(scaled, 1, 32, (24, 32)))
        rels.append(abs(coarse - fine) / fine)
        fine_gaps.append(fine)
    return rels, fine_gaps


def test_criterion_07_spectral_gap(capsys):
    t0 = time.monotonic()
    ks = (1, 2, 3, 4, 5, 6, 7)
    rels, _ = _gap_sweep(_quadratic_family(), ks)
    plateau = max(rels)
    # off the model the scaled gap approaches 2 as C_k^{-1/2}: the cubic
    # term scales as C_k^{-1/2}, and the truncation settles from k = 4 on
    curved = _curved_family()
    curved_rels, curved_gaps = _gap_sweep(curved, ks)
    offsets = [2.0 - g for g in curved_gaps]
    curved_slope, _ = fit_loglog([curved.c_value(k) for k in ks], offsets)
    curved_plateau = max(r for k, r in zip(ks, curved_rels) if k >= 4)
    curved_ok = (
        curved_slope is not None
        and abs(curved_slope + 0.5) <= 0.05
        and offsets[-1] <= 0.02
        and curved_plateau <= 0.02
    )
    # before rescaling the gap grows linearly: weight k|z|^2 has gap ~ 2k
    base = spectral_gap(build_system(WeightPolynomial.quadratic([1.0]), q=1, degree=24))
    ratios = [
        spectral_gap(build_system(WeightPolynomial.quadratic([float(k)]), q=1, degree=24))
        / (k * base)
        for k in (2, 3, 4, 5)
    ]
    linear_dev = max(abs(r - 1.0) for r in ratios)
    elapsed = time.monotonic() - t0
    ok = plateau <= 0.02 and curved_ok and linear_dev <= 0.05 and elapsed < 60.0
    _verdict(
        capsys,
        "criterion 07 spectral gap",
        ok,
        f"plateau |g(24)-g(32)|/g {plateau:.3e} <= 0.02, "
        f"curved 2-g slope {curved_slope or math.nan:.4f} in -0.5 +/- 0.05, "
        f"2-g(k=7) {offsets[-1]:.3e} <= 0.02, "
        f"k>=4 plateau {curved_plateau:.3e} <= 0.02, "
        f"linear ratio dev {linear_dev:.3e} <= 0.05, {elapsed:.1f}s < 60s",
    )
    assert plateau <= 0.02, rels
    assert curved_slope is not None and abs(curved_slope + 0.5) <= 0.05, (curved_slope, offsets)
    assert offsets[-1] <= 0.02, offsets
    assert curved_plateau <= 0.02, curved_rels
    assert linear_dev <= 0.05, ratios
    assert elapsed < 60.0


def test_criterion_08_hodge_identity(capsys):
    t0 = time.monotonic()
    weight = WeightPolynomial.quadratic([1.0])
    sys0 = build_system(weight, q=0, degree=16)
    sys1 = build_system(weight, q=1, degree=16)
    sys0_plus = build_system(weight, q=0, degree=17)
    r0 = hodge_residual(None, sys0, sys1, samples=20, seed=0)
    r1 = hodge_residual(sys0_plus, sys1, None, samples=20, seed=0)
    worst = max(r0, r1)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    _verdict(
        capsys,
        "criterion 08 hodge identity",
        ok,
        f"max residual {worst:.3e} <= 1e-6 over 20 vectors, {elapsed:.1f}s < 30s",
    )
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_09_heat_route(capsys):
    t0 = time.monotonic()
    ts = (1.0, 2.0, 4.0, 8.0)
    model = heat_route_comparison(ModelSpectrum((1.0,)), ts=ts, degree=24)
    diffs = model.diffs[0]
    decreasing = bool(np.all(np.diff(diffs) < 0))
    gap = model.gaps[0]
    slope = model.slopes[0]
    slope_ok = slope is not None and abs(slope - (-gap)) <= 0.1 * gap
    family = heat_route_comparison(
        _quadratic_family(), ks=(1, 2, 3, 4, 5), ts=ts, degree=24
    )
    spread = max(family.spread_per_t)
    elapsed = time.monotonic() - t0
    ok = decreasing and slope_ok and spread <= 1e-8 and elapsed < 60.0
    _verdict(
        capsys,
        "criterion 09 heat route",
        ok,
        f"log-slope {slope:.4f} within 10% of -gap {-gap:.4f}, decreasing={decreasing}, "
        f"k-spread {spread:.3e} <= 1e-8, {elapsed:.1f}s < 60s",
    )
    assert decreasing, diffs
    assert slope_ok, (slope, gap)
    assert spread <= 1e-8, family.spread_per_t
    assert elapsed < 60.0


def test_criterion_10_torus_trace(capsys):
    t0 = time.monotonic()
    bundles = (
        TorusBundle(tau=1j, degree=1),
        TorusBundle(tau=1j, degree=1, psi_modes=((1, 0, 0.3),)),
    )
    worst = 0.0
    for bundle in bundles:
        for k in range(1, 7):
            worst = max(worst, theta_trace_check(bundle, k).deviation)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    _verdict(
        capsys,
        "criterion 10 torus trace",
        ok,
        f"max trace deviation {worst:.3e} <= 1e-6 for k <= 6, {elapsed:.1f}s < 60s",
    )
    assert worst <= 1e-6
    assert elapsed < 60.0


def test_criterion_11_morse_audit(capsys):
    t0 = time.monotonic()
    ks = tuple(range(1, 11))
    flat = audit_morse(TorusBundle(tau=1j, degree=1), ks=ks)
    wavy_bundle = TorusBundle(tau=1j, degree=1, psi_modes=((1, 0, 0.3),))
    assert curvature_field(wavy_bundle).sign_changing
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryCrossingWarning)
        wavy = audit_morse(wavy_bundle, ks=ks)
    morse3 = max(max(abs(m) for m in flat.morse3), max(abs(m) for m in wavy.morse3))
    equality = max(abs(m) for m in flat.morse1)
    margin = min(m / k for k, m in zip(ks, wavy.morse1))
    elapsed = time.monotonic() - t0
    ok = morse3 <= 1e-9 and equality <= 1e-9 and margin >= 0.1 and elapsed < 60.0
    _verdict(
        capsys,
        "criterion 11 morse audit",
        ok,
        f"max |morse3| {morse3:.3e} <= 1e-9, flat equality {equality:.3e} <= 1e-9, "
        f"strict margin {margin:.4f}k >= 0.1k, {elapsed:.1f}s < 60s",
    )
    assert morse3 <= 1e-9
    assert equality <= 1e-9
    assert margin >= 0.1, wavy.morse1
    assert elapsed < 60.0
