"""Scaling runs: kernel convergence, vanishing, heat route."""

import math

import numpy as np
import pytest

from kernel_lab import scaling
from kernel_lab.config import load_config
from kernel_lab import (
    CkRule,
    ConvergenceReport,
    ModelSpectrum,
    WeightFamily,
    WeightPolynomial,
    bergman_kernel_numeric,
    eval_model_bergman,
    extend_weight,
    fit_loglog,
    heat_kernel_numeric,
    heat_route_comparison,
    kernel_grid,
    real_term,
    route_equivalence_gap,
    scale_weight,
    scaled_bergman_convergence,
    spectral_projector_kernel,
    vanishing_convergence,
)


def test_kernel_grid_geometry():
    grid = kernel_grid()
    assert grid.shape == (9,)
    assert np.abs(grid).max() == pytest.approx(1.5, rel=1e-12)
    assert 0.0 in grid
    narrow = kernel_grid(5, 1.0)
    assert narrow.shape == (25,)
    assert np.abs(narrow).max() == pytest.approx(1.0, rel=1e-12)


def test_fit_loglog_recovers_power_law():
    cs = [4.0**k for k in range(1, 6)]
    errors = [3.0 * c**-0.5 for c in cs]
    slope, residual = fit_loglog(cs, errors)
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert residual == pytest.approx(0.0, abs=1e-10)
    # only the largest four scales enter the fit
    corrupted = [1e6] + errors[1:]
    slope2, _ = fit_loglog(cs, corrupted)
    assert slope2 == pytest.approx(-0.5, abs=1e-12)
    assert fit_loglog(cs, [0.0] * 5) == (None, None)


def test_report_validation():
    with pytest.raises(ValueError):
        ConvergenceReport(
            ks=(2, 1),
            c_values=(16.0, 4.0),
            errors=(0.1, 0.2),
            ranks=(1, 1),
            slope=None,
            slope_residual=None,
            grid=kernel_grid(),
            threshold_exponent=None,
            failures=(),
        )
    with pytest.raises(ValueError):
        ConvergenceReport(
            ks=(1, 2),
            c_values=(4.0, 16.0),
            errors=(0.1, -0.2),
            ranks=(1, 1),
            slope=None,
            slope_residual=None,
            grid=kernel_grid(),
            threshold_exponent=None,
            failures=(),
        )


def test_pure_quadratic_family_is_exact(quadratic_family):
    report = scaled_bergman_convergence(quadratic_family, ks=(1, 2, 3), degree=30)
    assert max(report.errors) <= 1e-6
    assert report.failures == ()


def test_cubic_family_errors_decrease(cubic_family):
    report = scaled_bergman_convergence(cubic_family, ks=(1, 2, 3, 4), degree=20)
    assert all(b < a for a, b in zip(report.errors, report.errors[1:]))
    assert report.ranks is None  # rank tracking belongs to the projector runs


def test_quadratic_perturbation_slope(perturbed_family):
    report = scaled_bergman_convergence(perturbed_family, ks=(1, 2, 3, 4, 5), degree=20)
    assert report.slope == pytest.approx(-1.0 / 3.0, abs=0.2)


def test_gauge_normal_guard():
    # a family refuses a base that is not gauge-normal or has no |z|^2 term
    base = WeightPolynomial.quadratic([1.0]) + real_term(1, (1,), (0,), 0.5)
    with pytest.raises(ValueError, match="gauge terms 0;1, 1;0"):
        WeightFamily(base=base, ck=CkRule(4.0))
    with pytest.raises(ValueError, match=r"\|z\|\^2 term"):
        WeightFamily(base=real_term(1, (2,), (1,), 0.5), ck=CkRule(4.0))


def test_vanishing_mismatched_form_degree(quadratic_family):
    report = vanishing_convergence(quadratic_family, ks=(1, 2, 3), degree=16, d=1.0)
    assert report.ranks == (0, 0, 0)
    assert max(report.errors) == 0.0
    assert report.threshold_exponent == 1.0


def test_vanishing_mismatched_negative_curvature():
    family = WeightFamily(base=WeightPolynomial.quadratic([-1.0]), ck=CkRule(4.0))
    report = vanishing_convergence(family, ks=(1, 2, 3), degree=16, d=1.0, q=0)
    assert report.ranks == (0, 0, 0)
    assert max(report.errors) == 0.0


def test_vanishing_matched_control_keeps_kernel(quadratic_family):
    report = vanishing_convergence(quadratic_family, ks=(1, 2), degree=30, q=0)
    # the truncated kernel holds every holomorphic monomial
    assert report.ranks == (31, 31)
    assert max(report.errors) <= 1e-6


# sup over the 3x3 grid of |K_k - oracle| for the cubic control at D = 30 is
# 9.1e-9, 4.5e-10, 1.9e-11 and 1.5e-12 at k = 4..7 (and 2.0e-4 at k = 2)
GAUGE_ORACLE_TOLERANCE = 1e-7


def test_vanishing_control_matches_gauge_phase_oracle(cubic_family, monkeypatch):
    # |z|^2 + 0.25 (z^3 + zbar^3) scales to |z|^2 + Re h with h = z^3 / (2 sqrt(C_k)),
    # pluriharmonic: the q = 0 projector below C_k^-2 is the model kernel
    # times the gauge phase e^{i (Im h(z) - Im h(w))}, exactly in the limit D -> oo
    systems = _record_systems(monkeypatch)
    ks = (4, 5, 6, 7)
    report = vanishing_convergence(cubic_family, ks=ks, degree=30, d=1.0, q=0)
    assert report.ks == ks and report.failures == ()
    # the exact path: no quadrature, three charge classes mod 3
    assert len(systems) == len(ks)
    assert all(s.quad_order == 0 and len(s._classes) == 3 for s in systems)
    pts = report.grid
    model = eval_model_bergman(cubic_family.model_spectrum(), 0, pts, pts)
    for k, system, error in zip(ks, systems, report.errors):
        ck = cubic_family.c_value(k)
        h = 0.5 * ck**-0.5 * pts**3
        oracle = np.exp(1j * (h.imag[:, None] - h.imag[None, :])) * model
        kernel = spectral_projector_kernel(system, ck**-2.0, pts, pts)
        assert np.abs(kernel - oracle).max() <= GAUGE_ORACLE_TOLERANCE
        assert abs(error - np.abs(oracle - model).max()) <= GAUGE_ORACLE_TOLERANCE


def test_heat_route_model_spectrum():
    report = heat_route_comparison(ModelSpectrum((1.0,)), ts=(1.0, 2.0, 4.0, 8.0), degree=20)
    assert report.gaps[0] == pytest.approx(2.0, abs=1e-9)
    assert report.slopes[0] == pytest.approx(-2.0, rel=0.1)
    # late-time difference is controlled by the gap times the truncated trace
    assert report.diffs[0, -1] <= math.exp(-8.0 * report.gaps[0]) * report.trace_bounds[0]
    assert all(b < a for a, b in zip(report.diffs[0], report.diffs[0][1:]))


def test_heat_route_quadratic_family_is_k_stable(quadratic_family):
    report = heat_route_comparison(quadratic_family, ks=(1, 2, 3), degree=16)
    assert max(report.spread_per_t) == 0.0


def test_heat_route_requires_increasing_times():
    with pytest.raises(ValueError):
        heat_route_comparison(ModelSpectrum((1.0,)), ts=(2.0, 1.0), degree=8)


@pytest.mark.parametrize("kind", ["spectrum", "family"])
def test_heat_route_runs_in_the_matched_degree(kind, monkeypatch):
    # negative curvature has q0 = 1: the route builds q = 1 systems, whose
    # zero band is the projector's, and H(t) - P decays at the gap
    degrees = []
    build = scaling.build_system

    def counted(*args, **kwargs):
        degrees.append(kwargs["q"])
        return build(*args, **kwargs)

    monkeypatch.setattr(scaling, "build_system", counted)
    minus = WeightPolynomial.quadratic([-1.0])
    family = WeightFamily(base=minus, ck=CkRule(4.0))
    source = family if kind == "family" else ModelSpectrum((-1.0,))
    report = heat_route_comparison(source, ks=(1, 2, 3), ts=(1.0, 2.0, 4.0, 8.0), degree=20)
    assert degrees == [1]
    assert report.gaps == (pytest.approx(2.0, abs=1e-9),) * 3
    for gap, slope in zip(report.gaps, report.slopes):
        assert abs(slope + gap) <= 0.1 * gap


def test_route_equivalence(cubic_family):
    assert route_equivalence_gap(cubic_family, 2, degree=16) <= 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_route_equivalence_inexact_dilation(cubic_family, k):
    # under C_k = 4^k the dilation by sqrt(C_k) is a power of two and both
    # routes do the same arithmetic; sqrt(3^k) is inexact, so they differ
    family = WeightFamily(base=cubic_family.base, ck=CkRule(3.0))
    assert route_equivalence_gap(family, k, degree=16) <= 1e-10


def _record_systems(monkeypatch) -> list:
    """The systems the sweeps build from now on, in order."""
    systems = []
    build = scaling.build_system

    def recorded(*args, **kwargs):
        systems.append(build(*args, **kwargs))
        return systems[-1]

    monkeypatch.setattr(scaling, "build_system", recorded)
    return systems


def _count_builds(monkeypatch) -> list[int]:
    degrees: list[int] = []
    build = scaling.build_system

    def counted(*args, **kwargs):
        degrees.append(kwargs["degree"])
        return build(*args, **kwargs)

    monkeypatch.setattr(scaling, "build_system", counted)
    return degrees


def test_vanishing_builds_once_per_distinct_weight(quadratic_family, monkeypatch):
    ks = (1, 2, 3, 4, 5)
    builds = _count_builds(monkeypatch)
    report = vanishing_convergence(quadratic_family, ks=ks, degree=16)
    # every k of the pure quadratic family scales to the model weight itself
    assert builds == [16]
    # the same report as one system per k, bit for bit
    single = [vanishing_convergence(quadratic_family, ks=(k,), degree=16) for k in ks]
    assert len(builds) == 1 + len(ks)
    assert report.ks == ks
    assert report.c_values == tuple(r.c_values[0] for r in single)
    assert report.errors == tuple(r.errors[0] for r in single)
    assert report.ranks == tuple(r.ranks[0] for r in single)
    assert (report.slope, report.slope_residual) == fit_loglog(report.c_values, report.errors)
    assert report.failures == ()


def test_heat_route_builds_once_per_distinct_weight(quadratic_family, monkeypatch):
    ks = (1, 2, 3, 4, 5)
    ts = (1.0, 2.0, 4.0)
    builds = _count_builds(monkeypatch)
    report = heat_route_comparison(quadratic_family, ks=ks, ts=ts, degree=16)
    assert builds == [16]
    single = [heat_route_comparison(quadratic_family, ks=(k,), ts=ts, degree=16) for k in ks]
    assert len(builds) == 1 + len(ks)
    diffs = np.vstack([r.diffs for r in single])
    assert report.diffs.tobytes() == diffs.tobytes()
    assert report.gaps == tuple(r.gaps[0] for r in single)
    assert report.slopes == tuple(r.slopes[0] for r in single)
    assert report.trace_bounds == tuple(r.trace_bounds[0] for r in single)
    assert report.c_values == tuple(r.c_values[0] for r in single)
    assert report.spread_per_t == tuple(
        float(diffs[:, j].max() - diffs[:, j].min()) for j in range(len(ts))
    )


def test_heat_route_reuses_a_repeated_system(quadratic_family, monkeypatch):
    # all five k share the model system: one projector and four heat kernels in all
    calls = []
    kernel_sum = scaling._kernel_sum

    def counted(*args):
        calls.append(args)
        return kernel_sum(*args)

    monkeypatch.setattr(scaling, "_kernel_sum", counted)
    ts = (1.0, 2.0, 4.0, 8.0)
    report = heat_route_comparison(quadratic_family, ks=(1, 2, 3, 4, 5), ts=ts, degree=16)
    assert len(calls) == 1 + len(ts)
    assert all(row.tobytes() == report.diffs[0].tobytes() for row in report.diffs)
    for column in (report.gaps, report.slopes, report.trace_bounds):
        assert column == (column[0],) * 5


@pytest.mark.parametrize("family", [False, True])
def test_heat_route_matches_public_kernels(family, cubic_family, monkeypatch):
    # the route reads every kernel from one mode table per system; the public
    # per-t kernels evaluate the modes anew on each call
    systems = _record_systems(monkeypatch)
    source = cubic_family if family else ModelSpectrum((1.0,))
    ts = (1.0, 2.0, 4.0, 8.0)
    report = heat_route_comparison(source, ks=(1, 2), ts=ts, degree=16)
    pts = report.grid
    if family:
        # the exact path, one system per distinct level: the scaled weight itself
        assert [s.weight for s in systems] == [scale_weight(cubic_family, k) for k in (1, 2)]
        assert all(s.quad_order == 0 for s in systems)
    else:
        systems *= 2
    for i, system in enumerate(systems):
        proj = spectral_projector_kernel(system, 0.0, pts, pts)
        for j, t in enumerate(ts):
            diff = np.abs(heat_kernel_numeric(system, t, pts, pts) - proj).max()
            assert abs(report.diffs[i, j] - diff) <= 1e-14
        hot = np.nonzero(system.eigenvalues > system.zero_tolerance())[0]
        bound = float((np.abs(system.eval_modes(pts, hot)) ** 2).max(axis=0).sum())
        assert report.trace_bounds[i] == pytest.approx(bound, rel=1e-14, abs=0.0)


def test_cubic_family_builds_once_per_k(cubic_family, monkeypatch):
    builds = _count_builds(monkeypatch)
    vanishing_convergence(cubic_family, ks=(1, 2, 3), degree=12)
    assert builds == [12, 12, 12]
    heat_route_comparison(cubic_family, ks=(1, 2, 3), ts=(1.0, 2.0), degree=12)
    assert builds == [12] * 6


def test_bergman_sweep_builds_once_per_distinct_weight(
    quadratic_family, cubic_family, monkeypatch
):
    ks = (1, 2, 3, 4, 5)
    degrees: list[int] = []
    build = scaling.holomorphic_subsystem
    scaling._holomorphic.cache_clear()  # a Gram held from an earlier test

    def counted(weight, degree, **kwargs):
        degrees.append(degree)
        return build(weight, degree, **kwargs)

    monkeypatch.setattr(scaling, "holomorphic_subsystem", counted)
    report = scaled_bergman_convergence(quadratic_family, ks=ks, degree=16)
    # every k blends to the model weight: one Gram and one grid error serve all k
    assert degrees == [16]
    assert report.ks == ks
    pts = report.grid
    model = eval_model_bergman(quadratic_family.model_spectrum(), 0, pts, pts)
    for k, error in zip(ks, report.errors):
        # bit for bit the error of a fresh build of the blend itself
        blend = extend_weight(
            scale_weight(quadratic_family, k),
            quadratic_family.model_weight(),
            1.0 / 7.0,
            quadratic_family.c_value(k),
        )
        hol = build(blend, 16, quad_order=44)
        assert error == float(np.abs(bergman_kernel_numeric(hol, pts, pts) - model).max())
    scaled_bergman_convergence(cubic_family, ks=(1, 2, 3), degree=12)
    assert degrees == [16, 12, 12, 12]


def test_model_family_builds_once_at_any_ck_rule(monkeypatch):
    # 0.7 * 3^k / 3^k is not always 0.7 in floating point; the family, not
    # the scaled coefficients, says that every level is the model
    family = WeightFamily(base=WeightPolynomial.quadratic([0.7]), ck=CkRule(3.0))
    ks = tuple(range(1, 8))
    builds = _count_builds(monkeypatch)
    vanishing_convergence(family, ks=ks, degree=12)
    assert builds == [12]
    report = heat_route_comparison(family, ks=ks, ts=(1.0, 2.0), degree=12)
    assert builds == [12, 12]
    assert report.spread_per_t == (0.0, 0.0)
    assert len(set(report.gaps)) == 1 and len(set(report.slopes)) == 1

    grams: list[int] = []
    build = scaling.holomorphic_subsystem
    scaling._holomorphic.cache_clear()

    def counted(weight, degree, **kwargs):
        grams.append(degree)
        return build(weight, degree, **kwargs)

    monkeypatch.setattr(scaling, "holomorphic_subsystem", counted)
    scaled_bergman_convergence(family, ks=ks, degree=12)
    assert grams == [12]


def test_model_family_sweeps_still_check_epsilon(quadratic_family):
    # a model family's levels build no blend, but the Bergman sweep's blend
    # exponent is still an input (the other sweeps take none)
    with pytest.raises(ValueError, match=r"must lie in \(0, 1/6\)"):
        scaled_bergman_convergence(quadratic_family, ks=(1,), degree=4, epsilon=0.5)


def test_heat_family_defaults_are_the_heat_sections(quadratic_family, tmp_path, monkeypatch):
    path = tmp_path / "heat.ini"
    path.write_text("[run]\nexperiment = heat\n\n[family]\nbase = 1;1;1\n")
    sec = load_config(str(path)).values["heat"]
    builds = _count_builds(monkeypatch)
    report = heat_route_comparison(quadratic_family)
    assert report.ks == sec["ks"]
    assert report.ts == sec["ts"]
    assert builds == [sec["degree"]]


@pytest.mark.parametrize("name", ["quadratic_family", "cubic_family"])
def test_route_check_reuses_the_sweeps_last_gram(name, request, monkeypatch):
    # the direct route at the sweep's last k asks for the Gram the sweep has
    # just built (a quadratic family's model's), so only the route's unscaled
    # Gram is new, and the route reads as it does from fresh builds
    family = request.getfixturevalue(name)
    scaling._holomorphic.cache_clear()
    weights = []
    build = scaling.holomorphic_subsystem

    def counted(weight, degree, **kwargs):
        weights.append(weight)
        return build(weight, degree, **kwargs)

    monkeypatch.setattr(scaling, "holomorphic_subsystem", counted)
    scaled_bergman_convergence(family, ks=(1, 2), degree=12)
    swept = len(weights)
    gap = route_equivalence_gap(family, 2, degree=12)
    assert len(weights) == swept + 1 and isinstance(weights[-1], scaling._Dilated)
    scaling._holomorphic.cache_clear()
    assert route_equivalence_gap(family, 2, degree=12) == gap
    assert len(weights) == swept + 3
