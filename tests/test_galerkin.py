"""Galerkin systems: Gram exactness, spectra, kernels, Hodge identity, refusals."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from kernel_lab import (
    CkRule,
    GramConditioningError,
    ModelSpectrum,
    WeightFamily,
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
from kernel_lab import galerkin
from kernel_lab.galerkin import dbar_pairings, gauss_hermite_nodes, leading_block_spectra
from kernel_lab.weights import extend_weight, scale_weight

UNIT = WeightPolynomial.quadratic([1.0])
# a blended weight takes the quadrature path even though it equals UNIT
BLENDED_UNIT = extend_weight(UNIT, UNIT, 1.0 / 7.0, 4.0)


def kernel_dimension(system) -> int:
    """Number of eigenvalues in the system's numerical zero band."""
    return int(np.count_nonzero(system.eigenvalues <= system.zero_tolerance()))


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


def test_high_degree_tabulation_orthonormal():
    # the Laguerre recurrence keeps the charge states orthonormal at D = 64 on
    # the order-66 rule; the plain (z, zbar) ladder recursion does not
    basis = galerkin._basis(UNIT, 0, 64)
    z, wt = gauss_hermite_nodes(66, basis.lam_ref)
    gram = galerkin._node_product(basis.tabulate(z) * np.sqrt(wt)[:, None], True)
    assert np.abs(gram - np.eye(len(basis))).max() <= 1e-12


def test_basis_count():
    system = build_system(UNIT, q=0, degree=8)
    assert len(system.basis) == 9 * 10 // 2
    assert system.gram.shape == (45, 45)


def test_model_weight_spectrum_structure():
    system = build_system(UNIT, q=0, degree=12)
    # zero modes are exactly the holomorphic monomials
    assert kernel_dimension(system) == 13
    assert spectral_gap(system) == pytest.approx(2.0, abs=1e-9)
    assert system.eigenvalues.min() >= -1e-9 * system.eigenvalues.max()


def test_kernel_dimension_monotone_in_degree():
    dims = [kernel_dimension(build_system(UNIT, q=0, degree=d)) for d in (4, 8, 12)]
    assert dims == [5, 9, 13]


def test_mismatched_degree_has_no_kernel():
    system = build_system(UNIT, q=1, degree=12)
    assert kernel_dimension(system) == 0
    assert spectral_gap(system) == pytest.approx(2.0, abs=1e-9)
    assert system.eigenvalues.min() == pytest.approx(2.0, abs=1e-9)


def test_negative_weight_has_no_holomorphic_kernel():
    system = build_system(WeightPolynomial.quadratic([-1.0]), q=0, degree=12)
    assert kernel_dimension(system) == 0
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
    assert kernel_dimension(system) == 41
    assert system.gram_defect <= 1e-12
    # polynomial weights are assembled exactly; only blended ones read quad_order
    assert build_system(UNIT, q=0, degree=12, quad_order=12).quad_order == 0
    with pytest.raises(GramConditioningError):
        build_system(BLENDED_UNIT, q=0, degree=12, quad_order=12)
    # one node more than D already integrates the Gram matrix exactly
    assert build_system(BLENDED_UNIT, q=0, degree=12, quad_order=13).gram_defect <= 1e-12


@pytest.mark.parametrize(
    "q, degree", [(0, 16), (1, 16), (0, 32), (1, 32), (0, 48), (1, 48), (0, 64), (1, 64)]
)
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


# |z|^2 and the gap-cubic weight |z|^2 + 0.25 (z^3 + zbar^3) scaled at k = 1, 4, 7,
# and a complex-coefficient weight with g = 1 (one charge class) at D = 40
_GAP_CUBIC = WeightFamily(base=UNIT + real_term(1, (3,), (0,), 0.25), ck=CkRule(4.0))
CROSS_CHECK_WEIGHTS = {
    "unit": UNIT,
    **{f"cubic-k{k}": scale_weight(_GAP_CUBIC, k) for k in (1, 4, 7)},
    "g1-complex": UNIT + real_term(1, (2,), (1,), 0.3 + 0.1j),
}
CROSS_CHECKS = [
    (q, degree, name)
    for name in list(CROSS_CHECK_WEIGHTS)[:-1]
    for q, degree in [(0, 24), (1, 24), (0, 32), (1, 32)]
] + [(0, 40, "g1-complex"), (1, 40, "g1-complex")]


@pytest.mark.parametrize("q, degree, name", CROSS_CHECKS)
def test_exact_laplacian_matches_quadrature(name, q, degree):
    # the order-(D + p + 2) rule integrates the polynomial Laplacian exactly,
    # so both paths must agree to roundoff
    weight = CROSS_CHECK_WEIGHTS[name]
    basis = galerkin._basis(weight, q, degree)
    exact = build_system(weight, q=q, degree=degree).laplacian
    _, quad = galerkin._assemble(basis, weight, degree + weight.degree + 2)
    assert np.abs(exact - quad).max() <= 1e-12 * np.abs(quad).max()


@pytest.mark.parametrize("name", ["unit", "cubic-k1"])
@pytest.mark.parametrize("degree0", [16, 17])
def test_exact_pairings_match_quadrature(name, degree0):
    # the two neighbor layouts hodge_residual uses: same degree, and the
    # degree-0 side one degree higher
    weight = CROSS_CHECK_WEIGHTS[name]
    s0 = build_system(weight, q=0, degree=degree0)
    s1 = build_system(weight, q=1, degree=16)
    e01, e10 = dbar_pairings(s0, s1)
    z, wt = gauss_hermite_nodes(degree0 + weight.degree + 2, s0.basis.lam_ref)
    b0, b1 = s0.basis.tabulate(z), s1.basis.tabulate(z)
    a_of_b0 = galerkin._dbar_image(s0.basis, s0.weight, z, b0.copy())
    astar_of_b1 = galerkin._dbar_image(s1.basis, s1.weight, z, b1.copy())
    # the L^2 inner product of the complex charge states
    quads = ((b1.conj().T * wt) @ a_of_b0, (b0.conj().T * wt) @ astar_of_b1)
    for exact, quad in zip((e01, e10), quads):
        assert exact.shape == quad.shape
        assert np.abs(exact - quad).max() <= 1e-12 * np.abs(quad).max()


def test_pairings_need_exact_operator():
    s0 = build_system(BLENDED_UNIT, q=0, degree=8)
    s1 = build_system(BLENDED_UNIT, q=1, degree=8)
    with pytest.raises(ValueError, match="polynomial"):
        dbar_pairings(s0, s1)


@pytest.mark.parametrize("amplitude", [0.25, 0.25 + 0.1j])
def test_real_and_complex_solves_agree(amplitude):
    # real coefficients let the solve run in real arithmetic (the charge
    # states' ladder coefficients are real); a complex one keeps the complex solve
    weight = UNIT + real_term(1, (3,), (0,), amplitude)
    system = build_system(weight, q=1, degree=16)
    lap, mu, v = system.laplacian, system.eigenvalues, system.eigenvectors
    top = np.abs(mu).max()
    assert np.abs(mu - scipy.linalg.eigh(lap, eigvals_only=True)).max() <= 1e-12 * top
    assert np.abs(lap @ v - v * mu).max() <= 1e-12 * top
    assert np.abs(v.conj().T @ v - np.eye(len(mu))).max() <= 1e-12
    (block,) = leading_block_spectra(weight, 1, 16, (16,))
    assert np.abs(block - mu).max() <= 1e-12 * top


def _full_rule_gram(weight, degree, order):
    # the sum over every node of the tensor rule, as one complex product
    z, wt = gauss_hermite_nodes(order, 1.0)
    v = galerkin._holomorphic_powers(degree, 1.0, z)
    gram = (v.conj() * (wt * np.exp(-2.0 * (weight.value(z) - np.abs(z) ** 2)))) @ v.T
    return 0.5 * (gram + gram.conj().T)


@pytest.mark.parametrize("order", [44, 45])
def test_half_rule_gram_matches_full_rule(cubic_family, order):
    # a real-coefficient blend is symmetric under y -> -y: the Gram is the real
    # product over y < 0 with doubled weights, plus the y = 0 row at odd orders
    weight = extend_weight(scale_weight(cubic_family, 2), UNIT, 1.0 / 7.0, 16.0)
    hol = holomorphic_subsystem(weight, 30, quad_order=order)
    assert hol.gram.dtype == float
    assert np.abs(hol.gram - _full_rule_gram(weight, 30, order)).max() <= 1e-14


def test_complex_coefficient_keeps_complex_gram():
    family = WeightFamily(base=UNIT + real_term(1, (3,), (0,), 0.25j), ck=CkRule(4.0))
    weight = extend_weight(scale_weight(family, 2), UNIT, 1.0 / 7.0, 16.0)
    hol = holomorphic_subsystem(weight, 30, quad_order=44)
    gram = _full_rule_gram(weight, 30, 44)
    assert np.iscomplexobj(hol.gram) and np.abs(gram.imag).max() > 0.1
    assert np.abs(hol.gram - gram).max() <= 1e-14
    grid = kernel_grid(5, 1.5)
    factor = scipy.linalg.cho_factor(gram, lower=True)
    full = galerkin.HolomorphicBasis(weight, 30, 1.0, gram, factor, hol.cond, 44)
    kernel = bergman_kernel_numeric(hol, grid, grid)
    assert np.abs(kernel - bergman_kernel_numeric(full, grid, grid)).max() <= 1e-12
    # equal point sets share one table; distinct ones give the same entries
    wider = bergman_kernel_numeric(hol, grid, np.append(grid, 0.3 + 0.2j))
    assert np.abs(kernel - wider[:, :-1]).max() <= 1e-14


def _assert_same_spectrum(mu, system):
    if system.q == 1:
        # no zero band: every eigenvalue agrees to 1e-12 relative
        np.testing.assert_allclose(mu, system.eigenvalues, rtol=1e-12, atol=0.0)
    else:
        top = np.abs(system.eigenvalues).max()
        assert np.abs(mu - system.eigenvalues).max() <= 1e-12 * top
    assert spectral_gap(mu) == pytest.approx(spectral_gap(system), rel=1e-12)


@pytest.mark.parametrize("q", [0, 1])
def test_leading_block_matches_independent_build(cubic_family, q):
    # the degree-24 basis is the leading block of the degree-32 one, so its
    # eigenvalues must match a fresh exact build at degree 24
    weight = scale_weight(cubic_family, 2)
    coarse, fine = leading_block_spectra(weight, q, 32, (24, 32))
    assert coarse.shape == (325,) and fine.shape == (561,)
    _assert_same_spectrum(coarse, build_system(weight, q=q, degree=24))
    _assert_same_spectrum(fine, build_system(weight, q=q, degree=32))


@pytest.mark.parametrize("q", [0, 1])
def test_leading_block_model_spectrum_exact(q):
    # every mode of every block, up to D = 64
    for degree, blocks in [(32, (20,)), (64, (48, 64))]:
        spectra = leading_block_spectra(UNIT, q, degree, blocks)
        for b, block in zip(blocks, spectra, strict=True):
            assert len(block) == (b + 1) * (b + 2) // 2
            exact = np.repeat(2.0 * (np.arange(b + 1) + q), np.arange(b + 1, 0, -1))
            assert np.abs(block - exact).max() <= 1e-10


def test_leading_block_rejects_degree_outside_system():
    with pytest.raises(ValueError):
        leading_block_spectra(UNIT, 0, 8, (9,))
    with pytest.raises(ValueError):
        leading_block_spectra(UNIT, 0, 8, (-1,))
    with pytest.raises(ValueError, match="polynomial"):
        leading_block_spectra(BLENDED_UNIT, 0, 8, (8,))
    (whole,) = leading_block_spectra(UNIT, 0, 8, (8,))
    _assert_same_spectrum(whole, build_system(UNIT, q=0, degree=8))


# g = gcd |a - b| over the monomials z^a zbar^b: the number of charge classes
# is 2D + 1 for g = 0 and g otherwise
CHARGE_WEIGHTS = {
    "unit": (UNIT, 0),
    "g0": (UNIT + real_term(1, (2,), (2,), 0.05), 0),
    "g1": (UNIT + real_term(1, (2,), (1,), 0.3), 1),
    "g2": (UNIT + real_term(1, (3,), (1,), 0.1), 2),
    "g3": (UNIT + real_term(1, (3,), (0,), 0.25), 3),
    "g3-complex": (UNIT + real_term(1, (3,), (0,), 0.25 + 0.1j), 3),
}


def _charge_classes(basis, weight):
    # the positions of each class of charge mod g = gcd |a - b| over the
    # weight's monomials z^a zbar^b, in level order, with no plan (g = 0
    # makes each charge its own class)
    step = math.gcd(*(abs(a - b) for a, b in weight.coeffs))
    charge = basis.n_a - basis.n_b
    key = charge if step == 0 else charge % step
    return [np.flatnonzero(key == c) for c in np.unique(key)]


def _charge_basis(weight, q, degree):
    basis = galerkin._basis(weight, q, degree)
    return basis, _charge_classes(basis, weight)


@pytest.mark.parametrize("name", list(CHARGE_WEIGHTS))
@pytest.mark.parametrize("q", [0, 1])
def test_charge_blocks_match_dense_solve(name, q):
    weight, step = CHARGE_WEIGHTS[name]
    degree = 16
    _, classes = _charge_basis(weight, q, degree)
    assert len(classes) == (2 * degree + 1 if step == 0 else step)
    system = build_system(weight, q=q, degree=degree)
    lap, mu, v = system.laplacian, system.eigenvalues, system.eigenvectors
    dense = scipy.linalg.eigh(lap, eigvals_only=True)
    top = np.abs(dense).max()
    assert np.abs(mu - dense).max() <= 1e-12 * top
    assert np.abs(lap @ v - v * mu).max() <= 1e-12 * top
    assert np.abs(v.conj().T @ v - np.eye(len(mu))).max() <= 1e-12
    (block,) = leading_block_spectra(weight, q, degree, (degree,))
    assert np.abs(block - dense).max() <= 1e-12 * top


@pytest.mark.parametrize("name", ["g0", "g3", "g3-complex"])
def test_charge_states_split_the_laplacian(name):
    # assembled by quadrature, independently of the ladder operators, the
    # charge states are orthonormal, leave nothing between classes and give
    # the exact Laplacian
    weight, _ = CHARGE_WEIGHTS[name]
    degree = 12
    basis, classes = _charge_basis(weight, 1, degree)
    gram, quad = galerkin._assemble(basis, weight, degree + weight.degree + 2)
    assert np.abs(gram - np.eye(len(basis))).max() <= 1e-13
    scale = np.abs(quad).max()
    key = np.empty(len(basis), dtype=int)
    for c, idx in enumerate(classes):
        key[idx] = c
    assert np.abs(quad[key[:, None] != key[None, :]]).max() <= 1e-13 * scale
    exact = build_system(weight, q=1, degree=degree).laplacian
    assert np.abs(quad - exact).max() <= 1e-12 * scale


@pytest.mark.parametrize("q", [0, 1])
def test_charge_leading_block_is_lower_degree_build(q):
    # each class is ordered by level, so the degree-24 classes and Laplacian
    # are leading slices of the degree-32 ones
    weight = scale_weight(_GAP_CUBIC, 3)
    _, fine_classes = _charge_basis(weight, q, 32)
    coarse_basis, coarse_classes = _charge_basis(weight, q, 24)
    n = len(coarse_basis)
    for fine, coarse in zip(fine_classes, coarse_classes, strict=True):
        np.testing.assert_array_equal(fine[: np.searchsorted(fine, n)], coarse)
    fine_lap = build_system(weight, q=q, degree=32).laplacian
    coarse_lap = build_system(weight, q=q, degree=24).laplacian
    assert np.abs(fine_lap[:n, :n] - coarse_lap).max() <= 1e-12 * np.abs(coarse_lap).max()


def _plan_free_blocks(basis, weight):
    # the class blocks scattered pair by pair through basis positions, with
    # no shared plan, in the plan's order of pairs (so bit for bit comparable)
    classes = _charge_classes(basis, weight)
    sizes = np.array([idx.size for idx in classes])
    starts = np.concatenate(([0], np.cumsum(sizes**2)))
    base, width, local = np.empty((3, len(basis)), dtype=int)
    for idx, start, size in zip(classes, starts, sizes):
        base[idx], width[idx], local[idx] = start, size, np.arange(size)
    i, j = basis.n_a, basis.n_b
    terms = galerkin._shift_terms(basis, weight).items()
    flat, vals = [], []
    for ((da, db), f), ((ea, eb), g) in itertools.product(terms, terms):
        row = galerkin._positions(i + da - ea, j + db - eb, basis.degree)
        col = np.flatnonzero(row >= 0)
        flat.append(base[col] + local[row[col]] * width[col] + local[col])
        vals.append(g[row[col]].conj() * f[col])
    flat, vals = np.concatenate(flat), np.concatenate(vals)
    lap = np.bincount(flat, vals.real, starts[-1])
    if np.iscomplexobj(vals):
        lap = lap + 1j * np.bincount(flat, vals.imag, starts[-1])
    blocks = [lap[a:b].reshape(n, n) for a, b, n in zip(starts, starts[1:], sizes)]
    return classes, [0.5 * (block + block.conj().T) for block in blocks]


PLAN_WEIGHTS = {
    "g0": CHARGE_WEIGHTS["g0"][0],
    "g1": CHARGE_WEIGHTS["g1"][0],
    "g3": CHARGE_WEIGHTS["g3"][0],
    "g3-imaginary": UNIT + real_term(1, (3,), (0,), 0.25j),
}


@pytest.mark.parametrize("name", list(PLAN_WEIGHTS))
@pytest.mark.parametrize("q", [0, 1])
def test_planned_blocks_match_plan_free_assembly(name, q):
    weight = PLAN_WEIGHTS[name]
    for degree in (15, 16):
        basis = galerkin._basis(weight, q, degree)
        classes, blocks = galerkin._class_laplacians(basis, weight)
        ref_classes, ref_blocks = _plan_free_blocks(basis, weight)
        for idx, ref in zip(classes, ref_classes, strict=True):
            np.testing.assert_array_equal(idx, ref)
        for block, ref in zip(blocks, ref_blocks, strict=True):
            assert block.dtype == ref.dtype and block.tobytes() == ref.tobytes()


def test_gap_sweep_builds_one_class_plan():
    # the seven scaled weights of the gap-cubic sweep differ only in their
    # coefficients, so they share one class-assembly plan
    galerkin._class_plan.cache_clear()
    for k in range(1, 8):
        leading_block_spectra(scale_weight(_GAP_CUBIC, k), 1, 32, (24, 32))
    info = galerkin._class_plan.cache_info()
    assert (info.misses, info.hits) == (1, 6)
    weight = scale_weight(_GAP_CUBIC, 7)
    terms = galerkin._shift_terms(galerkin._basis(weight, 1, 32), weight)
    plan = galerkin._class_plan(32, 3, tuple(terms))
    assert galerkin._class_plan.cache_info().misses == 1
    assert not any(a.flags.writeable for a in (*plan[0], *plan[1:]))


@pytest.mark.parametrize("name", ["g3", "g3-imaginary"])
def test_exact_dense_fields_built_on_first_read(name):
    system = build_system(PLAN_WEIGHTS[name], q=1, degree=12)
    assert "laplacian" not in vars(system) and "gram" not in vars(system)
    lap = system.laplacian
    assert (lap == lap.conj().T).all()
    np.testing.assert_array_equal(system.gram, np.eye(len(system.basis)))
    assert {"laplacian", "gram"} <= set(vars(system))
    assert system.laplacian is lap


def _q1_minus_q0_blocks(weight, degree):
    # the q = 1 class blocks minus the q = 0 ones, and the q = 0 blocks' scale
    _, b0 = galerkin._class_laplacians(galerkin._basis(weight, 0, degree), weight)
    _, b1 = galerkin._class_laplacians(galerkin._basis(weight, 1, degree), weight)
    scale = max(np.abs(x).max() for x in b0)
    return [x1 - x0 for x0, x1 in zip(b0, b1, strict=True)], scale


@pytest.mark.parametrize("amplitude", [0.25, 0.25j, 0.25 + 0.1j])
@pytest.mark.parametrize("degree", [32, 48])
def test_pluriharmonic_term_shifts_every_mode_by_twice_the_curvature(amplitude, degree):
    # dbar dbar^* = dbar^* dbar + 2 phi_zzbar, and z^3 + zbar^3 is
    # pluriharmonic, so phi_zzbar = lam everywhere: the q = 1 blocks are the
    # q = 0 blocks plus 2 lam I, over the whole truncated spectrum
    lam = 0.5
    weight = WeightPolynomial.quadratic([lam]) + real_term(1, (3,), (0,), amplitude)
    diffs, scale = _q1_minus_q0_blocks(weight, degree)
    assert len(diffs) == 3
    for diff in diffs:
        assert np.abs(diff - 2.0 * lam * np.eye(len(diff))).max() <= 1e-13 * scale


def test_curved_term_breaks_the_curvature_shift():
    # z^2 zbar + z zbar^2 has phi_zzbar = lam + 0.6 (z + zbar): not a shift
    lam = 0.5
    weight = WeightPolynomial.quadratic([lam]) + real_term(1, (2,), (1,), 0.3)
    (diff,), scale = _q1_minus_q0_blocks(weight, 32)
    assert np.abs(diff - 2.0 * lam * np.eye(len(diff))).max() > 1e-3 * scale


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    monomial=st.sampled_from([(3, 0), (2, 1), (4, 0), (3, 1), (2, 2)]),
    re=st.floats(-0.3, 0.3),
    im=st.floats(-0.3, 0.3),
    real=st.booleans(),
    q=st.sampled_from([0, 1]),
    degree=st.integers(4, 16),
)
def test_exact_path_properties(monomial, re, im, real, q, degree):
    # cubic and quartic perturbations of |z|^2 with real or complex amplitude
    # (a diagonal term |z|^4 takes only a real one)
    a, b = monomial
    weight = UNIT + real_term(1, (a,), (b,), re if real or a == b else complex(re, im))
    basis = galerkin._basis(weight, q, degree)
    system = build_system(weight, q=q, degree=degree)
    exact, mu = system.laplacian, system.eigenvalues
    _, quad = galerkin._assemble(basis, weight, degree + weight.degree + 2)
    scale = np.abs(quad).max()
    assert np.abs(exact - quad).max() <= 1e-12 * scale
    assert np.abs(mu - scipy.linalg.eigh(exact, eigvals_only=True)).max() <= 1e-12 * scale
    assert mu[0] >= -1e-12 * scale
