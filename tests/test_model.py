"""Closed-form model kernel: frozen values, symmetry, expansion and heat limits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernel_lab import (
    ModelSpectrum,
    bergman_kernel_numeric,
    eval_model_basis,
    eval_model_bergman,
    heat_kernel_numeric,
    holomorphic_subsystem,
    model_kernel_from_basis,
    spectral_projector_kernel,
)
from kernel_lab.galerkin import build_system, gauss_hermite_nodes
from kernel_lab.model import multi_indices
from kernel_lab.weights import WeightPolynomial


def test_prefactor_single_variable():
    value = eval_model_bergman(ModelSpectrum((1.0,)), 0, 0.0, 0.0)[0, 0]
    assert value == pytest.approx(1.0 / math.pi, abs=1e-15)


def test_prefactor_two_variables():
    spec = ModelSpectrum((1.0, 2.0))
    origin = (0.0, 0.0)
    value = eval_model_bergman(spec, 0, origin, origin)[0, 0]
    assert value == pytest.approx(2.0 / math.pi**2, abs=1e-15)


def test_prefactor_random_spectra():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        q0 = int(rng.integers(0, n + 1))
        mags = rng.uniform(0.3, 3.0, n)
        lams = tuple(-m for m in mags[:q0]) + tuple(mags[q0:])
        spec = ModelSpectrum(lams)
        origin = np.zeros(n, dtype=complex)
        value = eval_model_bergman(spec, q0, origin, origin)[0, 0]
        expected = float(np.prod(np.abs(lams))) / math.pi**n
        assert value == pytest.approx(expected, rel=1e-13)


def test_mismatched_degree_is_exactly_zero():
    spec = ModelSpectrum((1.0,))
    kernel = eval_model_bergman(spec, 1, 0.3 + 0.1j, -0.2j)
    assert kernel.shape == (1, 1) and not kernel.any()
    assert not model_kernel_from_basis(spec, 1, 12, 0.5, 0.5).any()


def test_off_diagonal_frozen_value():
    value = eval_model_bergman(ModelSpectrum((1.0,)), 0, 1.0, 0.0)[0, 0]
    assert value == pytest.approx(math.exp(-1.0) / math.pi, abs=1e-15)
    # independent route: truncated basis expansion
    truncated = model_kernel_from_basis(ModelSpectrum((1.0,)), 0, 40, 1.0, 0.0)[0, 0]
    assert abs(truncated - value) <= 1e-8


def test_spectrum_rejects_misordered_signs():
    with pytest.raises(ValueError):
        ModelSpectrum((1.0, -1.0))
    spec = ModelSpectrum((-1.0, 1.0))
    assert spec.q0 == 1
    with pytest.raises(ValueError):
        ModelSpectrum((0.0,))


def test_basis_frozen_values():
    spec = ModelSpectrum((1.0,))
    assert eval_model_basis(spec, [(0,)], 0.0)[0, 0] == pytest.approx(math.sqrt(1.0 / math.pi))
    assert eval_model_basis(spec, [(1,)], 0.0)[0, 0] == 0.0
    # negative eigenvalue conjugates the monomial; at z = 1 the value is real
    value = eval_model_basis(ModelSpectrum((-1.0,)), [(2,)], 1.0)[0, 0]
    assert value == pytest.approx(math.sqrt(2.0 / math.pi) * math.exp(-1.0), abs=1e-15)
    assert value == pytest.approx(0.29352532634747985, abs=1e-15)


def test_basis_conjugation_direction():
    # q0 = 1: the basis monomial is zbar^a, holomorphic in the conjugate variable
    spec = ModelSpectrum((-1.0,))
    z = 0.4 + 0.3j
    ratio = eval_model_basis(spec, [(1,)], z)[0, 0] / eval_model_basis(spec, [(0,)], z)[0, 0]
    assert complex(ratio) == pytest.approx(math.sqrt(2.0) * z.conjugate())


def test_multi_index_enumeration():
    assert len(list(multi_indices(1, 5))) == 6
    assert len(list(multi_indices(2, 3))) == 10
    orders = [sum(a) for a in multi_indices(2, 3)]
    assert orders == sorted(orders)


def test_basis_orthonormality_by_quadrature():
    spec = ModelSpectrum((1.0,))
    alphas = [(a,) for a in range(7)]
    z, wt = gauss_hermite_nodes(16, 1.0)
    undo = np.exp(np.abs(z) ** 2)
    basis = eval_model_basis(spec, alphas, z) * undo[None, :]
    gram = (basis * wt[None, :]) @ basis.conj().T
    assert np.abs(gram - np.eye(7)).max() <= 1e-8


def test_expansion_matches_closed_form():
    spec = ModelSpectrum((1.0,))
    exact = model_kernel_from_basis(spec, 0, 0, 0.0, 0.0)[0, 0]
    assert exact == pytest.approx(1.0 / math.pi, abs=1e-16)
    closed = eval_model_bergman(spec, 0, 0.5, 0.5)[0, 0]
    partial = model_kernel_from_basis(spec, 0, 40, 0.5, 0.5)[0, 0]
    assert abs(partial - closed) <= 1e-8


@pytest.mark.parametrize("a", [13, 16])
def test_two_variable_basis_is_separable_past_int64_factorials(a):
    # 13!^2 and 16!^2 overflow int64; the two-variable element must still be
    # the product of the one-variable ones
    p = np.array([[0.3 + 0.2j, -0.1 + 0.4j], [2.5, 2.0j], [-1.7j, 2.6 - 0.1j]])
    one = ModelSpectrum((1.0,))
    product = eval_model_basis(one, [(a,)], p[:, 0]) * eval_model_basis(one, [(a,)], p[:, 1])
    two = eval_model_basis(ModelSpectrum((1.0, 1.0)), [(a, a)], p)
    assert np.abs(two - product).max() <= 1e-12 * np.abs(product).max()


@pytest.mark.parametrize("lam", [1.0, 100.0])
def test_basis_ladder_past_float_factorials(lam):
    # Psi_{a+1} / Psi_a = sqrt(2 lam / (a + 1)) z across 170! (the last finite
    # float factorial) and past 2^a lam^(a + 1) overflowing at lam = 100
    spec = ModelSpectrum((lam,))
    orders = (168, 169, 170, 171, 172, 200, 201)
    z = np.array([math.sqrt(170 / (2.0 * lam)) * (0.8 + 0.6j)])
    basis = eval_model_basis(spec, [(a,) for a in orders], z)[:, 0]
    assert np.isfinite(basis).all() and (basis != 0).all()
    for i in (0, 1, 2, 3, 5):
        a = orders[i]
        ratio = math.sqrt(2.0 * lam / (a + 1)) * z[0]
        assert abs(basis[i + 1] / basis[i] - ratio) <= 1e-10 * abs(ratio)


@pytest.mark.parametrize("lambdas", [(1.0, 1.0), (-1.0, 2.0)])
def test_two_variable_expansion_at_degree_30(lambdas):
    spec = ModelSpectrum(lambdas)
    rng = np.random.default_rng(3)
    pts = 0.3 * (rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))
    closed = eval_model_bergman(spec, spec.q0, pts, pts)
    expansion = model_kernel_from_basis(spec, spec.q0, 30, pts, pts)
    assert np.abs(expansion - closed).max() <= 1e-12 * np.abs(closed).max()
    # equal point sets share one tabulation; a distinct w gives the same columns
    part = model_kernel_from_basis(spec, spec.q0, 30, pts, pts[:3])
    assert np.abs(part - expansion[:, :3]).max() <= 1e-15 * np.abs(closed).max()


def test_reproducing_property():
    # u in the span of the first five basis elements is reproduced by the kernel
    spec = ModelSpectrum((1.0,))
    rng = np.random.default_rng(3)
    coeff = rng.standard_normal(5) + 1j * rng.standard_normal(5)

    def u(z: complex) -> complex:
        return sum(c * eval_model_basis(spec, [(a,)], z)[0, 0] for a, c in enumerate(coeff))

    nodes, wt = gauss_hermite_nodes(24, 1.0)
    undo = np.exp(np.abs(nodes) ** 2)
    targets = [0.0, 0.5, -0.7j, 0.6 + 0.8j]
    for z in targets:
        integrand = np.array(
            [eval_model_bergman(spec, 0, z, w)[0, 0] * u(w) for w in nodes]
        )
        reproduced = np.sum(wt * integrand * undo**2)
        assert abs(reproduced - u(z)) <= 1e-6


def _model_system(q: int, degree: int = 24):
    """Galerkin system of the unit model weight |z|^2, the heat kernel's source."""
    return build_system(WeightPolynomial.quadratic((1.0,)), q, degree)


def test_heat_long_time_limit():
    value = heat_kernel_numeric(_model_system(0), 40.0, 0.0, 0.0)[0, 0]
    assert value == pytest.approx(1.0 / math.pi, abs=1e-12)


def test_heat_monotone_window():
    system = _model_system(0)
    t0 = heat_kernel_numeric(system, 1e-6, 0.0, 0.0)[0, 0].real
    t1 = heat_kernel_numeric(system, 1.0, 0.0, 0.0)[0, 0].real
    assert 1.0 / math.pi < t1 < t0


def test_heat_mismatched_degree_decays():
    value = heat_kernel_numeric(_model_system(1, degree=16), 5.0, 0.0, 0.0)[0, 0]
    system = build_system(WeightPolynomial.quadratic([1.0]), q=1, degree=16)
    trace = float(np.sum(np.abs(system.eval_modes(0.0)) ** 2))
    assert abs(value) <= math.exp(-10.0) * trace


def test_heat_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        heat_kernel_numeric(_model_system(0), 0.0, 0.0, 0.0)


def _mixed_spectrum(n: int, q0: int, rng) -> ModelSpectrum:
    mags = rng.uniform(0.3, 3.0, n)
    return ModelSpectrum(tuple(-m for m in mags[:q0]) + tuple(mags[q0:]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_array_calls_match_single_points(n):
    rng = np.random.default_rng(11 + n)
    alphas = tuple(multi_indices(n, 4))
    for q0 in range(n + 1):
        spec = _mixed_spectrum(n, q0, rng)
        z = 0.6 * (rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n)))
        w = 0.6 * (rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n)))
        # a single point is a row for n > 1 and a 0-d scalar for n = 1
        zs, ws = (z[:, 0], w[:, 0]) if n == 1 else (z, w)
        assert eval_model_bergman(spec, q0, zs[0], ws[0]).shape == (1, 1)
        assert eval_model_basis(spec, alphas, zs[0]).shape == (len(alphas), 1)
        kern = eval_model_bergman(spec, q0, z, w)
        single = [[eval_model_bergman(spec, q0, a, b)[0, 0] for b in ws] for a in zs]
        assert kern.shape == (6, 4)
        assert np.array_equal(kern, np.array(single))
        basis = eval_model_basis(spec, alphas, z)
        single = [[eval_model_basis(spec, [a], p)[0, 0] for p in zs] for a in alphas]
        assert basis.shape == (len(alphas), 6)
        assert np.array_equal(basis, np.array(single))
        expansion = model_kernel_from_basis(spec, q0, 4, z, w)
        single = [[model_kernel_from_basis(spec, q0, 4, a, b)[0, 0] for b in ws] for a in zs]
        assert np.abs(expansion - np.array(single)).max() <= 1e-15
        for q in set(range(n + 1)) - {q0}:
            for oracle in (
                eval_model_bergman(spec, q, z, w),
                model_kernel_from_basis(spec, q, 4, z, w),
            ):
                assert oracle.shape == (6, 4) and not oracle.any()
            for oracle in (
                eval_model_bergman(spec, q, zs[0], ws[0]),
                model_kernel_from_basis(spec, q, 4, zs[0], ws[0]),
            ):
                assert oracle.shape == (1, 1) and not oracle.any()
        for bad in (np.zeros((3, n + 1)), np.zeros((3, n - 1))):
            with pytest.raises(ValueError):
                eval_model_bergman(spec, q0, bad, w)
            with pytest.raises(ValueError):
                eval_model_basis(spec, alphas, bad)
            with pytest.raises(ValueError):
                model_kernel_from_basis(spec, q0, 4, z, bad)
        for bad_alpha in ((1,) * (n + 1), (1,) * (n - 1) + (-1,)):
            with pytest.raises(ValueError):
                eval_model_basis(spec, [bad_alpha], z)


def test_empty_basis_has_its_own_error():
    with pytest.raises(ValueError, match="at least one multi-index"):
        eval_model_basis(ModelSpectrum((1.0,)), [], 0.0)


def test_negative_truncation_degree_has_its_own_error():
    spec = ModelSpectrum((1.0,))
    with pytest.raises(ValueError, match="degree must be nonnegative, got -1"):
        model_kernel_from_basis(spec, 0, -1, 0.0, 0.0)
    # degree 0 keeps the single constant basis element
    assert model_kernel_from_basis(spec, 0, 0, 0.0, 0.0)[0, 0] == pytest.approx(1.0 / math.pi)


def test_one_dimensional_point_arrays():
    spec = ModelSpectrum((1.0,))
    pts = np.array([0.0, 0.5 - 0.2j, -0.3j])
    flat = eval_model_bergman(spec, 0, pts, pts)
    column = eval_model_bergman(spec, 0, pts[:, None], pts[:, None])
    assert flat.shape == (3, 3)
    assert np.array_equal(flat, column)
    assert np.array_equal(flat, flat.conj().T)
    one = eval_model_bergman(spec, 0, pts[:1], pts[:1])
    assert one.shape == (1, 1) and one[0, 0] == flat[0, 0]
    assert np.array_equal(eval_model_bergman(spec, 0, pts[1], pts), flat[1:2])
    assert eval_model_basis(spec, [(0,), (1,)], pts[1]).shape == (2, 1)
    # the Galerkin kernels take the same point sets
    system = _model_system(0, degree=12)
    hol = holomorphic_subsystem(WeightPolynomial.quadratic([1.0]), 12)
    for kernel in (
        lambda z, w: bergman_kernel_numeric(hol, z, w),
        lambda z, w: spectral_projector_kernel(system, 0.0, z, w),
        lambda z, w: heat_kernel_numeric(system, 1.0, z, w),
    ):
        matrix = kernel(pts, pts)
        assert isinstance(matrix, np.ndarray) and matrix.shape == (3, 3)
        assert np.array_equal(kernel(pts[:, None], pts[:, None]), matrix)
        assert np.abs(kernel(pts[1], pts) - matrix[1:2]).max() <= 1e-15
        assert kernel(pts[1], pts[2]).shape == (1, 1)
        with pytest.raises(ValueError):
            kernel(np.zeros((3, 2)), pts)
    # for n = 2 an (n,) array is one point and any other 1-D array is refused
    spec2 = ModelSpectrum((-1.0, 2.0))
    rows = np.array([[0.1, 0.2j], [0.3, -0.4], [0.0, 0.5 + 0.5j]])
    matrix = eval_model_bergman(spec2, 1, rows, rows)
    assert matrix.shape == (3, 3)
    assert np.array_equal(eval_model_bergman(spec2, 1, rows[2], rows), matrix[2:3])
    basis = eval_model_basis(spec2, [(1, 0), (0, 2)], rows)
    assert np.array_equal(eval_model_basis(spec2, [(1, 0), (0, 2)], rows[2]), basis[:, 2:3])
    assert not eval_model_bergman(spec2, 0, rows[0], rows[1]).any()
    for bad in (np.zeros(4), 0.0):
        with pytest.raises(ValueError):
            eval_model_bergman(spec2, 1, bad, rows)
        with pytest.raises(ValueError):
            eval_model_basis(spec2, [(0, 0)], bad)


_POINTS = st.complex_numbers(
    max_magnitude=2.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(z=_POINTS, w=_POINTS, lam=st.floats(0.2, 3.0), negate=st.booleans())
def test_hermitian_symmetry(z, w, lam, negate):
    spec = ModelSpectrum((-lam if negate else lam,))
    forward = eval_model_bergman(spec, spec.q0, z, w)
    backward = eval_model_bergman(spec, spec.q0, w, z)
    assert forward == pytest.approx(backward.conj().T, rel=1e-12, abs=1e-300)
