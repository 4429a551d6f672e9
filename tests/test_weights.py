"""Weight polynomials: gauge normalization, curvature, scaling and extension."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernel_lab import (
    CkRule,
    Perturbation,
    WeightFamily,
    WeightPolynomial,
    extend_weight,
    fit_loglog,
    normalize_gauge,
    real_term,
    scale_weight,
)


def curvature_matrix(phi: WeightPolynomial, at) -> np.ndarray:
    """Raw complex Hessian d^2 phi / dz dzbar at the point ``at`` of C, as a 1 x 1 matrix."""
    return np.array([[complex(phi.d_z().d_zbar().value(complex(at)))]])


def _coeffs_close(poly: WeightPolynomial, expected: dict, tol: float = 1e-14) -> bool:
    keys = set(poly.coeffs) | set(expected)
    return all(abs(poly.coeffs.get(k, 0.0) - expected.get(k, 0.0)) <= tol for k in keys)


def test_gauge_fixes_quadratic():
    phi = WeightPolynomial.quadratic([1.0])
    normalized, removed = normalize_gauge(phi)
    assert normalized == phi
    assert removed.coeffs == {}


def test_gauge_removes_linear_part():
    phi = WeightPolynomial.quadratic([1.0]) + real_term(1, (1,), (0,), 0.5)
    normalized, removed = normalize_gauge(phi)
    assert normalized == WeightPolynomial.quadratic([1.0])
    assert _coeffs_close(removed, {(1, 0): 0.5, (0, 1): 0.5})


def test_gauge_removes_holomorphic_quadratic():
    phi = (
        WeightPolynomial.quadratic([1.0])
        + real_term(1, (2,), (0,), 0.5)
        + real_term(1, (2,), (1,), 0.5)
    )
    normalized, removed = normalize_gauge(phi)
    expected = WeightPolynomial.quadratic([1.0]) + real_term(1, (2,), (1,), 0.5)
    assert normalized == expected
    assert _coeffs_close(removed, {(2, 0): 0.5, (0, 2): 0.5})
    # the split is exact: normalized + removed re-assembles phi
    assert normalized + removed == phi


def test_reality_rejected_when_broken():
    with pytest.raises(ValueError):
        WeightPolynomial(coeffs={(1, 0): 1.0 + 0j})


@pytest.mark.parametrize(
    "build",
    [
        lambda: WeightPolynomial.quadratic([math.nan]),
        lambda: real_term(1, (1,), (1,), math.inf),
        lambda: real_term(1, (3,), (0,), complex(0.25, math.nan)),
        lambda: WeightPolynomial({(1, 1): -math.inf}),
    ],
    ids=["nan-quadratic", "inf-diagonal", "nan-phase", "inf-coefficient"],
)
def test_non_finite_coefficients_rejected(build):
    with pytest.raises(ValueError, match="must be a finite number"):
        build()


def test_curvature_matrix_quadratic():
    assert curvature_matrix(WeightPolynomial.quadratic([3.0]), 0.0) == pytest.approx(
        np.array([[3.0]])
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: real_term(2, (1,), (1,), 1.0),
        lambda: real_term(1, (1, 0), (0, 1), 1.0),
        lambda: WeightPolynomial.quadratic([1.0, -2.0]),
    ],
    ids=["n2", "two-entry-exponents", "two-lambdas"],
)
def test_weights_live_on_c(build):
    with pytest.raises(ValueError):
        build()


def test_curvature_matrix_cubic_frozen():
    phi = WeightPolynomial.quadratic([1.0]) + real_term(1, (2,), (1,), 0.5)
    assert curvature_matrix(phi, 1.0)[0, 0] == pytest.approx(3.0, abs=1e-14)


def test_curvature_matrix_finite_difference_oracle():
    phi = WeightPolynomial.quadratic([1.0]) + real_term(1, (2,), (1,), 0.5)
    at = 0.4 - 0.7j
    h = 1e-4

    def val(z: complex) -> float:
        return phi.value(z)

    # d^2/dz dzbar = (1/4)(d^2/dx^2 + d^2/dy^2) for real-valued phi
    lap = (
        val(at + h) + val(at - h) + val(at + 1j * h) + val(at - 1j * h) - 4 * val(at)
    ) / h**2
    assert curvature_matrix(phi, at)[0, 0] == pytest.approx(lap / 4.0, abs=1e-6)


def test_scale_weight_quadratic_invariant():
    family = WeightFamily(base=WeightPolynomial.quadratic([1.0]), ck=CkRule(4.0))
    assert scale_weight(family, 3) == WeightPolynomial.quadratic([1.0])


def test_scale_weight_cubic_coefficient():
    base = WeightPolynomial.quadratic([1.0]) + real_term(1, (2,), (1,), 0.5)
    family = WeightFamily(base=base, ck=CkRule(100.0))
    scaled = scale_weight(family, 1)
    expected = WeightPolynomial.quadratic([1.0]) + real_term(1, (2,), (1,), 0.05)
    assert _coeffs_close(scaled, dict(expected.coeffs))


def test_scale_weight_perturbation_rate():
    pert = Perturbation(shape=WeightPolynomial.quadratic([1.0]), gamma=2.0 / 3.0)
    family = WeightFamily(
        base=WeightPolynomial.quadratic([1.0]), ck=CkRule(1e4), perturbations=(pert,)
    )
    scaled = scale_weight(family, 1)
    extra = scaled.coeffs[(1, 1)] - 1.0
    assert extra.real == pytest.approx(1e4 ** (-1.0 / 3.0), rel=1e-12)
    assert extra.real == pytest.approx(0.0464, abs=5e-5)


def test_scale_weight_keeps_lambda_exactly():
    # the |z|^2 term is scaled by C_k^(1 - 1) = 1 alone, not by C_k and back,
    # so (lambda C_k) / C_k rounding off lambda cannot happen at any C_k rule
    for lam in (0.7, 1.0, 2.5):
        for rule in (3.0, 1.1, 5.0, 4.0):
            family = WeightFamily(base=WeightPolynomial.quadratic([lam]), ck=CkRule(rule))
            for k in range(1, 11):
                assert scale_weight(family, k).coeffs[(1, 1)] == lam, (lam, rule, k)


def test_is_model(quadratic_family, cubic_family, perturbed_family):
    assert quadratic_family.is_model
    assert WeightFamily(base=WeightPolynomial.quadratic([-0.7]), ck=CkRule(3.0)).is_model
    assert not cubic_family.is_model
    assert not perturbed_family.is_model


def _pert(alpha, beta, amplitude, gamma):
    return Perturbation(shape=real_term(1, (alpha,), (beta,), amplitude), gamma=gamma)


@pytest.mark.parametrize(
    "base, perturbations, rate",
    [
        # the shipped cubic configs: 0.25 z^3 decays as C_k^(1 - 3/2)
        (((3, 0, 0.25),), (), -0.5),
        # the quartic 0.1 |z|^4 as C_k^(1 - 2)
        (((2, 2, 0.1),), (), -1.0),
        # the README family: the cubic's -1/2 and a |z|^2 term with gamma = 0.667, the larger
        (((3, 0, 0.25),), ((1, 1, 1.0, 0.667),), 0.667 - 1.0),
        # the sequence L_k: each level a model, lambda_k = 1 + C_k^(-1/2)
        ((), ((1, 1, 1.0, 0.5),), -0.5),
        # a constant cancels from the localized kernel: no term is left
        ((), ((0, 0, 2.0, 0.5),), None),
        ((), (), None),
    ],
    ids=["cubic", "quartic", "readme", "sequence", "constant", "model"],
)
def test_rate_comes_from_the_family(base, perturbations, rate):
    poly = WeightPolynomial.quadratic([1.0])
    for alpha, beta, amplitude in base:
        poly = poly + real_term(1, (alpha,), (beta,), amplitude)
    perts = tuple(_pert(*p) for p in perturbations)
    family = WeightFamily(base=poly, ck=CkRule(4.0), perturbations=perts)
    assert family.rate == rate


def test_scale_weight_identity_at_unit_scale():
    base = WeightPolynomial.quadratic([2.0]) + real_term(1, (3,), (0,), 0.1)
    family = WeightFamily(base=base, ck=CkRule(4.0))
    # C_0 = 4^0 = 1: scaling is the identity on the base
    assert family.c_value(0) == 1.0
    assert scale_weight(family, 0) == family.base


def c2_distance_to_model(
    scaled: WeightPolynomial, model: WeightPolynomial, radius: float
) -> float:
    """Max over a 13 x 13 grid on the disc |z| <= radius of |scaled - model| in C^2 norm.

    The maximum runs over the value, the first Wirtinger derivative d/dz and
    the second derivatives d^2/dz^2 and d^2/dz dzbar (conjugates add
    nothing), each evaluated exactly from the polynomial coefficients.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    axis = np.linspace(-radius, radius, 13)
    pts = (axis[:, None] + 1j * axis[None, :]).ravel()
    pts = pts[np.abs(pts) ** 2 <= radius**2 + 1e-12]
    diff = scaled - model
    dz = diff.d_z()
    return max(float(np.abs(p.value(pts)).max()) for p in (diff, dz, dz.d_z(), dz.d_zbar()))


def test_c2_distance_basics():
    model = WeightPolynomial.quadratic([1.0])
    assert c2_distance_to_model(model, model, 1.0) == 0.0
    cubic = real_term(1, (2,), (1,), 0.1)
    one = c2_distance_to_model(model + cubic, model, 1.0)
    tenth = c2_distance_to_model(model + real_term(1, (2,), (1,), 0.01), model, 1.0)
    assert one > 0.0
    assert tenth == pytest.approx(one / 10.0, rel=1e-12)


def test_c2_distance_scaling_slope():
    base = WeightPolynomial.quadratic([1.0]) + real_term(1, (2,), (1,), 0.5)
    cs, dists = [], []
    for c in (1e2, 1e3, 1e4):
        family = WeightFamily(base=base, ck=CkRule(c))
        scaled = scale_weight(family, 1)
        cs.append(c)
        dists.append(c2_distance_to_model(scaled, family.model_weight(), 1.0))
    slope, _ = fit_loglog(cs, dists, points=3)
    assert slope == pytest.approx(-0.5, abs=0.05)


def test_extend_weight_regions():
    base = WeightPolynomial.quadratic([1.0]) + real_term(1, (3,), (0,), 0.25)
    family = WeightFamily(base=base, ck=CkRule(4.0))
    ck = family.c_value(2)
    scaled = scale_weight(family, 2)
    model = family.model_weight()
    ext = extend_weight(scaled, model, 1.0 / 7.0, ck)
    radius = ck ** (1.0 / 7.0)
    inside = 0.5 * radius * (1.0 + 0.3j) / abs(1.0 + 0.3j)
    outside = 2.5 * radius * (0.2 - 1.0j) / abs(0.2 - 1.0j)
    assert ext.value(inside) == pytest.approx(scaled.value(inside), abs=1e-15)
    assert ext.d_z(inside) == pytest.approx(scaled.d_z().value(inside), abs=1e-15)
    assert ext.value(outside) == pytest.approx(model.value(outside), abs=1e-15)
    assert ext.d_z(outside) == pytest.approx(model.d_z().value(outside), abs=1e-15)
    # inner - model is built once per instance and left out of equality
    assert ext.delta is ext.delta
    assert ext.delta == scaled - model
    assert ext == extend_weight(scaled, model, 1.0 / 7.0, ck)


def test_extend_weight_epsilon_range():
    model = WeightPolynomial.quadratic([1.0])
    with pytest.raises(ValueError):
        extend_weight(model, model, 0.2, 4.0)  # above 1/6
    with pytest.raises(ValueError):
        extend_weight(model, model, 0.0, 4.0)
    extend_weight(model, model, 0.15, 4.0)


def test_extend_weight_derivative_consistency():
    # finite differences of the blended value match the analytic derivatives
    base = WeightPolynomial.quadratic([1.0]) + real_term(1, (3,), (0,), 0.25)
    family = WeightFamily(base=base, ck=CkRule(4.0))
    ext = extend_weight(scale_weight(family, 1), family.model_weight(), 1.0 / 7.0, 4.0)
    z = 1.5 + 0.4j  # inside the blend annulus for C_k = 4
    h = 1e-6
    dx = (ext.value(z + h) - ext.value(z - h)) / (2 * h)
    dy = (ext.value(z + 1j * h) - ext.value(z - 1j * h)) / (2 * h)
    dz = 0.5 * (dx - 1j * dy)
    assert ext.d_z(z) == pytest.approx(dz, abs=1e-7)
    lap = (
        ext.value(z + h)
        + ext.value(z - h)
        + ext.value(z + 1j * h)
        + ext.value(z - 1j * h)
        - 4 * ext.value(z)
    ) / h**2
    assert ext.d2_zzbar(z).real == pytest.approx(lap / 4.0, abs=1e-3)


def test_extended_distance_to_model_decreases():
    base = WeightPolynomial.quadratic([1.0]) + real_term(1, (3,), (0,), 0.25)
    sups = []
    for c in (1e2, 1e3, 1e4, 1e5, 1e6):
        family = WeightFamily(base=base, ck=CkRule(c))
        ck = family.c_value(1)
        ext = extend_weight(scale_weight(family, 1), family.model_weight(), 1.0 / 7.0, ck)
        # the extension agrees with the model beyond 2 C_k^eps, so the sup over
        # C^n is attained on the blend ball
        radius = 2.0 * ck ** (1.0 / 7.0)
        axis = np.linspace(-radius, radius, 41)
        pts = (axis[:, None] + 1j * axis[None, :]).ravel()
        model = family.model_weight()
        sup = float(
            np.max(
                np.abs(ext.value(pts) - model.value(pts))
                + np.abs(ext.d_z(pts) - model.d_z().value(pts))
                + np.abs(ext.d2_zzbar(pts) - 1.0)
            )
        )
        sups.append(sup)
    assert all(b < a for a, b in zip(sups, sups[1:]))


def test_extended_curvature_keeps_sign_for_large_ck():
    # the blend annulus distorts curvature at small C_k; the sign margin is an
    # asymptotic property, comfortably positive from C_k = 4^9 on and improving
    base = WeightPolynomial.quadratic([1.0]) + real_term(1, (3,), (0,), 0.25)
    family = WeightFamily(base=base, ck=CkRule(4.0))
    margins = []
    for k in (9, 10, 12):
        ck = family.c_value(k)
        ext = extend_weight(scale_weight(family, k), family.model_weight(), 1.0 / 7.0, ck)
        radius = 2.5 * ck ** (1.0 / 7.0)
        axis = np.linspace(-radius, radius, 61)
        pts = (axis[:, None] + 1j * axis[None, :]).ravel()
        margins.append(float(np.real(ext.d2_zzbar(pts)).min()))
    assert margins[0] > 0.5
    assert margins == sorted(margins)


def test_family_validation():
    with pytest.raises(ValueError):
        CkRule(1.0)  # must diverge
    with pytest.raises(ValueError):
        Perturbation(shape=WeightPolynomial.quadratic([1.0]), gamma=1.0)


_SMALL = st.floats(-2.0, 2.0).filter(lambda x: abs(x) > 1e-3)


@st.composite
def _weights(draw):
    phi = WeightPolynomial.quadratic([draw(_SMALL)])
    for alpha, beta in (((1,), (0,)), ((2,), (0,)), ((2,), (1,)), ((0,), (0,))):
        if draw(st.booleans()):
            amp = complex(draw(_SMALL), 0 if alpha == beta else draw(_SMALL))
            phi = phi + real_term(1, alpha, beta, amp)
    return phi


@settings(max_examples=25, derandomize=True, deadline=None)
@given(phi=_weights())
def test_gauge_idempotent(phi):
    normalized, _ = normalize_gauge(phi)
    again, removed = normalize_gauge(normalized)
    assert removed.coeffs == {}
    assert again == normalized


@settings(max_examples=25, derandomize=True, deadline=None)
@given(phi=_weights(), z=st.complex_numbers(max_magnitude=2.0, allow_nan=False))
def test_gauge_keeps_reality(phi, z):
    normalized, removed = normalize_gauge(phi)
    for poly in (normalized, removed):
        for (alpha, beta), coeff in poly.coeffs.items():
            assert coeff == pytest.approx(np.conj(poly.coeffs[(beta, alpha)]))
        assert abs(complex(poly.value(z)).imag) <= 1e-12
