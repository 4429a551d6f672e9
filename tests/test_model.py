"""Closed-form model kernel: frozen values, symmetry, expansion and heat limits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernel_lab import (
    FormKernelValue,
    ModelSpectrum,
    MultiIndex,
    eval_model_basis,
    eval_model_bergman,
    heat_kernel_numeric,
    model_kernel_from_basis,
)
from kernel_lab.galerkin import build_system, gauss_hermite_nodes
from kernel_lab.model import multi_indices
from kernel_lab.weights import WeightPolynomial


def test_prefactor_single_variable():
    value = eval_model_bergman(ModelSpectrum((1.0,)), 0, 0.0, 0.0).value
    assert value == pytest.approx(1.0 / math.pi, abs=1e-15)


def test_prefactor_two_variables():
    spec = ModelSpectrum((1.0, 2.0))
    origin = (0.0, 0.0)
    value = eval_model_bergman(spec, 0, origin, origin).value
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
        value = eval_model_bergman(spec, q0, origin, origin).value
        expected = float(np.prod(np.abs(lams))) / math.pi**n
        assert value == pytest.approx(expected, rel=1e-13)


def test_mismatched_degree_is_exactly_zero():
    spec = ModelSpectrum((1.0,))
    kernel = eval_model_bergman(spec, 1, 0.3 + 0.1j, -0.2j)
    assert kernel.is_zero
    assert kernel.entries == {}
    assert model_kernel_from_basis(spec, 1, 12, 0.5, 0.5).is_zero


def test_off_diagonal_frozen_value():
    value = eval_model_bergman(ModelSpectrum((1.0,)), 0, 1.0, 0.0).value
    assert value == pytest.approx(math.exp(-1.0) / math.pi, abs=1e-15)
    # independent route: truncated basis expansion
    truncated = model_kernel_from_basis(ModelSpectrum((1.0,)), 0, 40, 1.0, 0.0).value
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
    assert eval_model_basis(spec, (0,), 0.0) == pytest.approx(math.sqrt(1.0 / math.pi))
    assert eval_model_basis(spec, (1,), 0.0) == 0.0
    # negative eigenvalue conjugates the monomial; at z = 1 the value is real
    value = eval_model_basis(ModelSpectrum((-1.0,)), (2,), 1.0)
    assert value == pytest.approx(math.sqrt(2.0 / math.pi) * math.exp(-1.0), abs=1e-15)
    assert value == pytest.approx(0.29352532634747985, abs=1e-15)


def test_basis_conjugation_direction():
    # q0 = 1: the basis monomial is zbar^a, holomorphic in the conjugate variable
    spec = ModelSpectrum((-1.0,))
    z = 0.4 + 0.3j
    ratio = eval_model_basis(spec, (1,), z) / eval_model_basis(spec, (0,), z)
    assert complex(ratio) == pytest.approx(math.sqrt(2.0) * z.conjugate())


def test_multi_index_enumeration():
    assert len(list(multi_indices(1, 5))) == 6
    assert len(list(multi_indices(2, 3))) == 10
    orders = [sum(a) for a in multi_indices(2, 3)]
    assert orders == sorted(orders)
    with pytest.raises(ValueError):
        MultiIndex((1, -1))


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
    exact = model_kernel_from_basis(spec, 0, 0, 0.0, 0.0).value
    assert exact == pytest.approx(1.0 / math.pi, abs=1e-16)
    closed = eval_model_bergman(spec, 0, 0.5, 0.5).value
    partial = model_kernel_from_basis(spec, 0, 40, 0.5, 0.5).value
    assert abs(partial - closed) <= 1e-8


def test_reproducing_property():
    # u in the span of the first five basis elements is reproduced by the kernel
    spec = ModelSpectrum((1.0,))
    rng = np.random.default_rng(3)
    coeff = rng.standard_normal(5) + 1j * rng.standard_normal(5)

    def u(z: complex) -> complex:
        return sum(c * eval_model_basis(spec, (a,), z) for a, c in enumerate(coeff))

    nodes, wt = gauss_hermite_nodes(24, 1.0)
    undo = np.exp(np.abs(nodes) ** 2)
    targets = [0.0, 0.5, -0.7j, 0.6 + 0.8j]
    for z in targets:
        integrand = np.array(
            [eval_model_bergman(spec, 0, z, w).value * u(w) for w in nodes]
        )
        reproduced = np.sum(wt * integrand * undo**2)
        assert abs(reproduced - u(z)) <= 1e-6


def _model_system(q: int, degree: int = 24):
    """Galerkin system of the unit model weight |z|^2, the heat kernel's source."""
    spec = ModelSpectrum((1.0,))
    return build_system(WeightPolynomial.quadratic((1.0,)), q, degree, reference=spec)


def test_heat_long_time_limit():
    value = heat_kernel_numeric(_model_system(0), 40.0, 0.0, 0.0).value
    assert value == pytest.approx(1.0 / math.pi, abs=1e-12)


def test_heat_monotone_window():
    system = _model_system(0)
    t0 = heat_kernel_numeric(system, 1e-6, 0.0, 0.0).value.real
    t1 = heat_kernel_numeric(system, 1.0, 0.0, 0.0).value.real
    assert 1.0 / math.pi < t1 < t0


def test_heat_mismatched_degree_decays():
    value = heat_kernel_numeric(_model_system(1, degree=16), 5.0, 0.0, 0.0).value
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
        kern = eval_model_bergman(spec, q0, z, w).value
        single = [[eval_model_bergman(spec, q0, a, b).value for b in ws] for a in zs]
        assert kern.shape == (6, 4)
        assert np.array_equal(kern, np.array(single))
        basis = eval_model_basis(spec, alphas, z)
        single = [[eval_model_basis(spec, a, p) for p in zs] for a in alphas]
        assert basis.shape == (len(alphas), 6)
        assert np.array_equal(basis, np.array(single))
        expansion = model_kernel_from_basis(spec, q0, 4, z, w).value
        single = [[model_kernel_from_basis(spec, q0, 4, a, b).value for b in ws] for a in zs]
        assert np.abs(expansion - np.array(single)).max() <= 1e-15
        for q in set(range(n + 1)) - {q0}:
            for oracle in (
                eval_model_bergman(spec, q, z, w),
                model_kernel_from_basis(spec, q, 4, z, w),
            ):
                assert oracle.is_zero
                assert oracle.value.shape == (6, 4)
        for bad in (np.zeros((3, n + 1)), np.zeros((3, n - 1))):
            with pytest.raises(ValueError):
                eval_model_bergman(spec, q0, bad, w)
            with pytest.raises(ValueError):
                eval_model_basis(spec, alphas, bad)
            with pytest.raises(ValueError):
                model_kernel_from_basis(spec, q0, 4, z, bad)


def test_one_dimensional_point_arrays():
    spec = ModelSpectrum((1.0,))
    pts = np.array([0.0, 0.5 - 0.2j, -0.3j])
    flat = eval_model_bergman(spec, 0, pts, pts).value
    column = eval_model_bergman(spec, 0, pts[:, None], pts[:, None]).value
    assert flat.shape == (3, 3)
    assert np.array_equal(flat, column)
    assert np.array_equal(flat, flat.conj().T)
    one = eval_model_bergman(spec, 0, pts[:1], pts[:1]).value
    assert one.shape == (1, 1) and one[0, 0] == flat[0, 0]


_POINTS = st.complex_numbers(
    max_magnitude=2.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(z=_POINTS, w=_POINTS, lam=st.floats(0.2, 3.0), negate=st.booleans())
def test_hermitian_symmetry(z, w, lam, negate):
    spec = ModelSpectrum((-lam if negate else lam,))
    forward = eval_model_bergman(spec, spec.q0, z, w)
    backward = eval_model_bergman(spec, spec.q0, w, z)
    assert forward.value == pytest.approx(
        backward.conjugate_transpose().value, rel=1e-12, abs=1e-300
    )


def test_form_kernel_value_container():
    zero = FormKernelValue.zero(1)
    assert zero.is_zero and zero.q == 1
    kernel = eval_model_bergman(ModelSpectrum((-2.0,)), 1, 0.1, 0.2)
    ((index_pair, _),) = kernel.entries.items()
    assert index_pair == ((0,), (0,))
