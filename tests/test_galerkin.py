"""Galerkin systems: Gram exactness, spectra, kernels, Hodge identity, refusals."""

import math

import numpy as np
import pytest

from kernel_lab import (
    GramConditioningError,
    ModelSpectrum,
    WeightPolynomial,
    bergman_kernel_numeric,
    build_system,
    eval_model_bergman,
    heat_kernel_numeric,
    hodge_residual,
    holomorphic_subsystem,
    kernel_grid,
    real_term,
    spectral_gap,
    spectral_projector_kernel,
)
from kernel_lab.galerkin import gauss_hermite_nodes, leading_block
from kernel_lab.weights import scale_weight

UNIT = WeightPolynomial.quadratic([1.0])


def test_gram_constant_section_norm():
    # both bases are orthonormal for the model weight; the dV = 2 dm
    # convention itself is pinned by test_quadrature_moment_exactness
    hol = holomorphic_subsystem(UNIT, 12)
    assert np.abs(hol.gram - np.eye(13)).max() <= 1e-12
    system = build_system(UNIT, q=0, degree=12)
    assert np.abs(system.gram - np.eye(len(system.basis))).max() <= 1e-12
    assert system.gram_defect <= 1e-12


def test_quadrature_moment_exactness():
    for lam in (0.5, 2.0):
        z, wt = gauss_hermite_nodes(30, lam)
        for m in range(11):
            moment = float(np.sum(wt * np.abs(z) ** (2 * m)).real)
            exact = math.pi * math.factorial(m) / (2**m * lam ** (m + 1))
            assert moment == pytest.approx(exact, rel=1e-10)


def test_basis_count():
    system = build_system(UNIT, q=0, degree=8)
    assert len(system.basis.pairs) == 9 * 10 // 2
    assert system.gram.shape == (45, 45)


def test_model_weight_spectrum_structure():
    system = build_system(UNIT, q=0, degree=12)
    # zero modes are exactly the holomorphic monomials
    assert system.kernel_dimension() == 13
    assert spectral_gap(system) == pytest.approx(2.0, abs=1e-9)
    assert system.eigenvalues.min() >= -1e-9 * system.eigenvalues.max()


def test_kernel_dimension_monotone_in_degree():
    dims = [build_system(UNIT, q=0, degree=d).kernel_dimension() for d in (4, 8, 12)]
    assert dims == [5, 9, 13]


def test_mismatched_degree_has_no_kernel():
    system = build_system(UNIT, q=1, degree=12)
    assert system.kernel_dimension() == 0
    assert spectral_gap(system) == pytest.approx(2.0, abs=1e-9)
    assert system.eigenvalues.min() == pytest.approx(2.0, abs=1e-9)


def test_negative_weight_has_no_holomorphic_kernel():
    system = build_system(WeightPolynomial.quadratic([-1.0]), q=0, degree=12)
    assert system.kernel_dimension() == 0
    assert spectral_gap(system) == pytest.approx(2.0, abs=1e-9)


def test_gap_scales_linearly():
    gaps = [
        spectral_gap(build_system(WeightPolynomial.quadratic([float(k)]), q=1, degree=12))
        for k in (1, 2, 4)
    ]
    assert gaps[0] == pytest.approx(2.0, rel=1e-9)
    assert gaps[1] == pytest.approx(2 * gaps[0], rel=1e-9)
    assert gaps[2] == pytest.approx(4 * gaps[0], rel=1e-9)


def test_eigenvectors_gram_orthonormal():
    system = build_system(UNIT, q=0, degree=10)
    v = system.eigenvectors
    overlap = v.conj().T @ system.gram @ v
    assert np.abs(overlap - np.eye(v.shape[1])).max() <= 1e-8


def test_bergman_kernel_matches_closed_form():
    grid = kernel_grid()
    for lam in (1.0, 2.0):
        weight = WeightPolynomial.quadratic([lam])
        spec = ModelSpectrum((lam,))
        hol = holomorphic_subsystem(weight, 30)
        numeric = bergman_kernel_numeric(hol, grid, grid)
        closed = eval_model_bergman(spec, 0, grid, grid)
        assert np.abs(numeric - closed).max() <= 1e-6
    assert bergman_kernel_numeric(hol, 0.0, 0.0)[0, 0] == pytest.approx(2.0 / math.pi, abs=1e-6)


def test_projector_at_zero_equals_bergman():
    system = build_system(UNIT, q=0, degree=16)
    hol = holomorphic_subsystem(UNIT, 16)
    for z, w in ((0.0, 0.0), (0.5, -0.5), (0.3 + 0.4j, -0.2j)):
        proj = spectral_projector_kernel(system, 0.0, z, w)[0, 0]
        assert abs(proj - bergman_kernel_numeric(hol, z, w)[0, 0]) <= 1e-8


def test_projector_rank_counts_crossed_multiplicity():
    system = build_system(UNIT, q=0, degree=16)
    mu = system.eigenvalues
    tol = system.zero_tolerance()
    first_band = mu[mu > tol][0]
    multiplicity = int(np.count_nonzero(np.abs(mu - first_band) < 1e-6))
    rank_below = int(np.count_nonzero(mu <= tol))
    rank_above = int(np.count_nonzero(mu <= first_band + 1e-6))
    assert rank_below == 17
    assert rank_above == rank_below + multiplicity


def test_projector_idempotent_in_gram_inner_product():
    system = build_system(UNIT, q=0, degree=12)
    mu = system.eigenvalues
    sel = mu <= system.zero_tolerance()
    v = system.eigenvectors[:, sel]
    p = v @ v.conj().T @ system.gram
    assert np.abs(p @ p - p).max() <= 1e-8


def test_heat_kernel_long_time_matches_projector():
    system = build_system(UNIT, q=0, degree=16)
    gap = spectral_gap(system)
    trace = float(np.sum(np.abs(system.eval_modes(0.0)) ** 2))
    for t in (4.0, 8.0):
        h = heat_kernel_numeric(system, t, 0.0, 0.0)[0, 0]
        p = spectral_projector_kernel(system, 0.0, 0.0, 0.0)[0, 0]
        assert abs(h - p) <= math.exp(-t * gap) * trace


def test_heat_kernel_decay_ratio():
    system = build_system(UNIT, q=0, degree=20)
    pts = kernel_grid(3, 1.0)
    diffs = []
    for t in (2.0, 3.0):
        sup = max(
            abs(
                heat_kernel_numeric(system, t, z, w)[0, 0]
                - spectral_projector_kernel(system, 0.0, z, w)[0, 0]
            )
            for z in pts
            for w in pts
        )
        diffs.append(sup)
    ratio = diffs[1] / diffs[0]
    assert ratio == pytest.approx(math.exp(-2.0), rel=0.05)


def test_hodge_identity_model_weight():
    s0 = build_system(UNIT, q=0, degree=16)
    s1 = build_system(UNIT, q=1, degree=16)
    assert hodge_residual(None, s0, s1, samples=20, seed=0) <= 1e-6
    s0_next = build_system(UNIT, q=0, degree=17)
    assert hodge_residual(s0_next, s1, None, samples=20, seed=0) <= 1e-6


def test_hodge_rejects_degree_mismatch():
    s0 = build_system(UNIT, q=0, degree=8)
    s1 = build_system(UNIT, q=1, degree=8)
    with pytest.raises(ValueError):
        hodge_residual(s0, s1, None)  # needs the q=0 side one degree higher
    with pytest.raises(ValueError):
        hodge_residual(None, s0, build_system(UNIT, q=1, degree=9))


def test_high_degree_builds_and_low_order_refused():
    system = build_system(UNIT, q=0, degree=40)
    assert system.kernel_dimension() == 41
    assert system.gram_defect <= 1e-12
    with pytest.raises(GramConditioningError):
        build_system(UNIT, q=0, degree=12, quad_order=12)
    # one node more than D already integrates the Gram matrix exactly
    assert build_system(UNIT, q=0, degree=12, quad_order=13).gram_defect <= 1e-12


@pytest.mark.parametrize("q, degree", [(0, 16), (1, 16), (0, 32), (1, 32), (0, 48), (1, 48), (0, 64)])
def test_model_spectrum_exact_at_every_mode(q, degree):
    # the model Laplacian on |z|^2 has eigenvalue 2(b + q) with multiplicity
    # D + 1 - b in the truncated space, b = 0..D; every mode is checked
    system = build_system(UNIT, q=q, degree=degree)
    exact = np.repeat(2.0 * (np.arange(degree + 1) + q), np.arange(degree + 1, 0, -1))
    assert np.abs(system.eigenvalues - exact).max() <= 1e-10


def test_assembled_matrices_hermitian():
    weight = UNIT + real_term(1, (2,), (1,), 0.3)
    system = build_system(weight, q=1, degree=10)
    assert np.abs(system.gram - system.gram.conj().T).max() == 0.0
    assert np.abs(system.laplacian - system.laplacian.conj().T).max() == 0.0


@pytest.mark.parametrize("q", [0, 1])
def test_leading_block_matches_independent_build(cubic_family, q):
    # the degree-24 basis is the leading block of the degree-32 one and both
    # use the same rule, so only the eigensolve differs from a fresh build
    weight = scale_weight(cubic_family, 2)
    block = leading_block(build_system(weight, q=q, degree=32, quad_order=44), 24)
    fresh = build_system(weight, q=q, degree=24, quad_order=44)
    assert block.basis == fresh.basis
    assert block.quad_order == fresh.quad_order == 44
    assert np.abs(block.gram - fresh.gram).max() <= 1e-13
    if q == 1:
        # no zero band: every eigenvalue agrees to 1e-12 relative
        np.testing.assert_allclose(block.eigenvalues, fresh.eigenvalues, rtol=1e-12, atol=0.0)
    else:
        top = np.abs(fresh.eigenvalues).max()
        assert np.abs(block.eigenvalues - fresh.eigenvalues).max() <= 1e-12 * top
    assert spectral_gap(block) == pytest.approx(spectral_gap(fresh), rel=1e-12)


@pytest.mark.parametrize("q", [0, 1])
def test_leading_block_model_spectrum_exact(q):
    block = leading_block(build_system(UNIT, q=q, degree=32), 20)
    assert block.degree == 20 and len(block.basis) == 231
    exact = np.repeat(2.0 * (np.arange(21) + q), np.arange(21, 0, -1))
    assert np.abs(block.eigenvalues - exact).max() <= 1e-10


def test_leading_block_rejects_degree_outside_system():
    system = build_system(UNIT, q=0, degree=8)
    with pytest.raises(ValueError):
        leading_block(system, 9)
    with pytest.raises(ValueError):
        leading_block(system, -1)
    whole = leading_block(system, 8)
    assert np.array_equal(whole.laplacian, system.laplacian)
