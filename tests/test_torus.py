"""Flat-torus bundles: curvature classification, Morse data, theta traces."""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from kernel_lab import (
    BoundaryCrossingWarning,
    GramConditioningError,
    TorusBundle,
    audit_morse,
    curvature_field,
    dolbeault_dims,
    morse_integrals,
    theta_trace_check,
    torus,
)
from kernel_lab.torus import _lattice_grid, _psi_table, _theta_levels, _theta_matrix, _theta_radius

BUNDLES = [
    TorusBundle(tau=1j, degree=1),
    TorusBundle(tau=1j, degree=1, psi_modes=((1, 0, 0.3),)),
    TorusBundle(tau=0.3 + 1.1j, degree=2, psi_modes=((1, 1, 0.2), (-2, 1, 0.05))),
]
BUNDLE_IDS = ["flat", "wavy", "skew"]


def test_bundle_validation():
    with pytest.raises(ValueError):
        TorusBundle(tau=1.0 - 0.5j, degree=1)
    with pytest.raises(ValueError):
        TorusBundle(tau=1j, degree=0)
    with pytest.raises(ValueError):
        TorusBundle(tau=1j, degree=1, psi_modes=((0, 0, 0.2),))
    with pytest.raises(ValueError):
        TorusBundle(tau=1j, degree=1, psi_modes=((1, 0, 0.1), (1, 0, 0.2)))


def test_area_and_mean_zero_psi(wavy_torus):
    assert wavy_torus.area == pytest.approx(2.0)
    xs, ys = np.meshgrid(np.arange(64) / 64, np.arange(64) / 64, indexing="ij")
    psi = wavy_torus.psi_values(xs, ys)
    assert abs(psi.mean()) <= 1e-14
    assert psi.max() == pytest.approx(0.3, abs=1e-12)


def test_flat_curvature_classification(flat_torus):
    field = curvature_field(flat_torus)
    assert not field.sign_changing
    assert field.measure(0) == pytest.approx(flat_torus.area)
    assert field.measure(1) == 0.0
    # constant curvature pi*d / Im(tau)
    assert np.allclose(field.values, math.pi)


def test_negative_degree_classification():
    field = curvature_field(TorusBundle(tau=1j, degree=-1))
    assert field.measure(1) == pytest.approx(2.0)
    assert field.measure(0) == 0.0


def test_wavy_curvature_classification(wavy_torus):
    field = curvature_field(wavy_torus)
    assert field.sign_changing
    assert field.measure(0) > 0.0
    assert field.measure(1) > 0.0
    assert field.values.min() < 0.0 < field.values.max()


def test_curvature_integral_normalization(wavy_torus):
    # (1/2pi) * integral of R dV = d, independent of psi
    field = curvature_field(wavy_torus)
    cell = wavy_torus.area / field.values.size
    total = float(field.values.sum()) * cell
    assert total == pytest.approx(2.0 * math.pi * wavy_torus.degree, abs=1e-12)


def test_curvature_grid_must_resolve_psi():
    bundle = TorusBundle(tau=1j, degree=1, psi_modes=((3, 0, 0.05),))
    with pytest.raises(ValueError):
        curvature_field(bundle, grid_n=16)
    curvature_field(bundle, grid_n=24)


def test_morse_integrals_flat(flat_torus):
    assert morse_integrals(flat_torus, 5, 0) == pytest.approx(5.0, abs=1e-10)
    assert morse_integrals(flat_torus, 5, 1) == 0.0


def test_morse_integrals_sign_changing_exceeds_mean(wavy_torus):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryCrossingWarning)
        i0 = morse_integrals(wavy_torus, 5, 0)
    assert i0 > 5.0


def test_boundary_crossing_warns(wavy_torus):
    with pytest.warns(BoundaryCrossingWarning):
        morse_integrals(wavy_torus, 3, 0)


def test_morse_integrals_refinement_positive_curvature():
    # amplitude below 1/(2 pi^2) * pi keeps R > 0, so M(0) is the whole
    # torus and the periodic lattice sum is exact at every resolution
    bundle = TorusBundle(tau=1j, degree=1, psi_modes=((1, 0, 0.1),))
    assert not curvature_field(bundle).sign_changing
    values = [morse_integrals(bundle, 3, 0, grid_n=n) for n in (16, 32, 64)]
    for v in values:
        assert v == pytest.approx(3.0, abs=1e-12)


def _recount_morse(field, k, q):
    # every (k, q) from the samples: crossings, max |R| and the |R| sum afresh
    cell = field.bundle.area / field.grid_n**2
    message = None
    if (field.labels == 0).any() and (field.labels == 1).any():
        crossings = int(
            (field.labels != np.roll(field.labels, 1, axis=0)).sum()
            + (field.labels != np.roll(field.labels, 1, axis=1)).sum()
        )
        estimate = k / (2.0 * math.pi) * crossings * cell * float(np.abs(field.values).max())
        message = (
            "grid crosses the degenerate set; integration error is first order"
            f" (rough estimate {estimate:.3e})"
        )
    total = float(np.abs(field.values[field.labels == q]).sum()) * cell
    return k / (2.0 * math.pi) * total, message


@pytest.mark.parametrize("bundle", BUNDLES[:2], ids=BUNDLE_IDS[:2])
def test_morse_tally_matches_recount(bundle):
    ks = tuple(range(1, 11))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", BoundaryCrossingWarning)
        report = audit_morse(bundle, ks)
        single = [morse_integrals(bundle, k, q) for k in ks for q in (0, 1)]
    field = curvature_field(bundle)
    expected = [_recount_morse(field, k, q) for k in ks for q in (0, 1)]
    values = [v for pair in zip(report.i0, report.i1) for v in pair]
    assert values == single == [v for v, _ in expected]
    messages = [m for _, m in expected if m is not None]
    assert [str(w.message) for w in caught] == messages * 2
    assert all(w.category is BoundaryCrossingWarning for w in caught)
    assert bool(messages) == report.sign_changing == (bundle.psi_modes != ())


def test_psi_table_is_read_only(wavy_torus):
    table = _psi_table(wavy_torus, 48)
    assert table.shape == (48 * 48, 1) and not table.flags.writeable
    x, y = _lattice_grid(48)
    assert np.array_equal(table[:, 0], wavy_torus.psi_values(x, y).ravel())
    assert _psi_table(wavy_torus, 48) is table
    with pytest.raises(ValueError):
        table[0, 0] = 1.0


def test_dolbeault_dims():
    assert dolbeault_dims(TorusBundle(tau=1j, degree=1), 5) == (5, 0)
    assert dolbeault_dims(TorusBundle(tau=1j, degree=-2), 3) == (0, 6)
    assert dolbeault_dims(TorusBundle(tau=1j, degree=1), 1) == (1, 0)
    with pytest.raises(ValueError):
        dolbeault_dims(TorusBundle(tau=1j, degree=1), 0)


def _direct_theta_matrix(bundle, k, n, radius):
    # the lattice sum term by term: one exponential per (point, l, j)
    x, y = _lattice_grid(n)
    tau, m = bundle.tau, k * bundle.degree
    z = (x + tau * y).ravel()
    phi = math.pi * m * tau.imag * y.ravel() ** 2 + k * bundle.psi_values(x, y).ravel()
    shift = np.arange(-radius, radius + 1)[:, None] + np.arange(m)[None, :] / m
    expo = (
        1j * math.pi * tau * m * shift[None] ** 2
        + 2j * math.pi * m * shift[None] * z[:, None, None]
    )
    return np.exp(expo - phi[:, None, None]).sum(axis=1)


@pytest.mark.parametrize("n", [48, 64])
@pytest.mark.parametrize("k", [1, 3, 6])
@pytest.mark.parametrize("bundle", BUNDLES, ids=BUNDLE_IDS)
def test_theta_matrix_matches_direct_sum(bundle, k, n):
    radius = _theta_radius(bundle.tau.imag, k * bundle.degree)
    values = _theta_matrix(bundle, k, n, radius)
    reference = _direct_theta_matrix(bundle, k, n, radius)
    assert values.shape == (n * n, k * bundle.degree)
    assert np.abs(values - reference).max() <= 1e-13 * np.abs(reference).max()


def test_theta_trace_flat_small(flat_torus):
    result = theta_trace_check(flat_torus, 1)
    assert result.dimension == 1
    assert result.deviation <= 1e-8
    assert result.truncation_estimate <= 1e-10


def test_theta_trace_flat_k6(flat_torus):
    result = theta_trace_check(flat_torus, 6)
    assert result.dimension == 6
    assert result.deviation <= 1e-6


def test_theta_trace_wavy(wavy_torus):
    result = theta_trace_check(wavy_torus, 4)
    assert result.dimension == 4
    assert result.deviation <= 1e-6


def test_theta_trace_skew_lattice():
    bundle = TorusBundle(tau=0.3 + 0.8j, degree=2)
    result = theta_trace_check(bundle, 3)
    assert result.dimension == 6
    assert result.deviation <= 1e-6


def test_theta_trace_guards(flat_torus):
    with pytest.raises(ValueError):
        theta_trace_check(TorusBundle(tau=1j, degree=-1), 2)
    with pytest.raises(ValueError):
        theta_trace_check(flat_torus, 2, gram_grid=64, trace_grid=64)


def test_theta_levels(flat_torus):
    ks = (-2, -1, 1, 2, 3, 7)
    assert _theta_levels(flat_torus, ks, 3) == (1, 2, 3)
    assert _theta_levels(TorusBundle(tau=1j, degree=-1), ks, 3) == ()
    assert _theta_levels(flat_torus, ks, 0) == ()


@pytest.mark.parametrize("k", [1, 3, 6])
@pytest.mark.parametrize("bundle", BUNDLES, ids=BUNDLE_IDS)
def test_theta_trace_matches_pointwise_sum(bundle, k):
    # the Bergman density v_p G^-1 v_p^H at every trace-grid point, summed
    result = theta_trace_check(bundle, k)
    vg = _theta_matrix(bundle, k, result.gram_grid, result.lattice_radius)
    gram = vg.conj().T @ vg * (bundle.area / result.gram_grid**2)
    factor = cho_factor(0.5 * (gram + gram.conj().T), lower=True)
    vt = _theta_matrix(bundle, k, result.trace_grid, result.lattice_radius)
    density = np.einsum("pi,pi->p", cho_solve(factor, vt.conj().T).T, vt).real
    reference = float(density.sum()) * bundle.area / result.trace_grid**2
    assert abs(result.trace - reference) <= 1e-12 * reference


def test_theta_trace_rank_deficient_gram(flat_torus, monkeypatch):
    tabulate = torus._theta_matrix

    def deficient(bundle, k, n, radius):
        # one section vanishing on the Gram grid makes the Gram matrix singular
        values = tabulate(bundle, k, n, radius)
        if n == torus.DEFAULT_GRAM_GRID:
            values[:, -1] = 0.0
        return values

    monkeypatch.setattr(torus, "_theta_matrix", deficient)
    with pytest.raises(GramConditioningError):
        theta_trace_check(flat_torus, 3)


def test_audit_morse_flat(flat_torus):
    report = audit_morse(flat_torus, ks=tuple(range(1, 8)))
    assert report.h0 == tuple(range(1, 8))
    assert report.h1 == (0,) * 7
    assert max(abs(m) for m in report.morse3) <= 1e-9
    assert max(abs(m) for m in report.morse1) <= 1e-9  # equality case
    assert min(report.morse2) >= -1e-9


def test_audit_morse_wavy(wavy_torus):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryCrossingWarning)
        report = audit_morse(wavy_torus, ks=tuple(range(1, 8)))
    assert max(abs(m) for m in report.morse3) <= 1e-9
    margins = [m / k for k, m in zip(report.ks, report.morse1)]
    assert min(margins) >= 0.1  # strict weak inequality per unit k
    assert report.h0 == tuple(range(1, 8))
