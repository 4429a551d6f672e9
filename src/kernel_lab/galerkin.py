"""Galerkin discretization of the localized Kodaira Laplacian on C (n = 1).

The truncated space in degree q is spanned by the real tensor Hermite functions

  b_ij(z) = sqrt(lam) h_i(sqrt(2 lam) x) h_j(sqrt(2 lam) y),   i + j <= D,

(times dzbar when q = 1), where z = x + iy, h_i is the i-th normalized Hermite
function and lam = lambda_ref fixes the reference Gaussian phi_ref = lam |z|^2.
They span the same space as z^a zbar^b e^{-phi_ref}, a + b <= D, and are
orthonormal in L^2(dV) with dV = 2 dm, so the Gram matrix is the identity and
the Galerkin problem is a standard Hermitian eigenproblem.  The operator for a
weight phi acts through

  dbar_s u = (d/dzbar + phi_zbar) u  (on functions),
  dbar_s^* f = (-d/dz + phi_z) f     (on dzbar-coefficients),

both in L^2(dV).  Quadratic forms are assembled by tensor Gauss-Hermite
quadrature against e^{-2 phi_ref}.  An order-m rule integrates the Gram matrix
exactly once m > D, and the Laplacian of a polynomial weight of degree p once
m >= D + p; blended weights get a dense rule.  Orders m <= D are refused with
GramConditioningError; above that the Gram defect max|G - I| is reported, not
guarded.  On the model weight |z|^2 every eigenvalue is then exact to roundoff
(2(b + q) with multiplicity D + 1 - b) up to at least D = 64.  The basis is
graded by i + j, so with the same rule the degree-D' matrices are the leading
(D'+1)(D'+2)/2 blocks of the degree-D ones for any D' <= D: ``leading_block``
solves a lower truncation from them without assembling again.  Because the basis
carries the reference Gaussian rather than e^{-phi}, negative-curvature
weights pose no integrability problem: the true weight enters only through its
derivatives.

The Bergman kernel uses the holomorphic sub-basis z^a e^{-phi}, normalized
against the model weight, whose Gram matrix differs from the identity only
through phi - phi_ref.  Its Cholesky factor is the one guarded step: a Gram
that is not positive definite, or whose pivot ratio falls below GRAM_GUARD,
raises GramConditioningError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.linalg

from .model import ModelSpectrum, _points
from .weights import ExtendedWeight, WeightPolynomial, curvature_matrix

__all__ = [
    "GramConditioningError",
    "GalerkinBasis",
    "GalerkinSystem",
    "HolomorphicBasis",
    "build_system",
    "leading_block",
    "holomorphic_subsystem",
    "bergman_kernel_numeric",
    "spectral_projector_kernel",
    "heat_kernel_numeric",
    "spectral_gap",
    "hodge_residual",
    "KERNEL_TOLERANCE",
    "GRAM_GUARD",
]

KERNEL_TOLERANCE = 1e-7
GRAM_GUARD = 1e-12


class GramConditioningError(np.linalg.LinAlgError):
    """Gram matrix too ill-conditioned for the requested truncation."""


@dataclass(frozen=True)
class _Weight1D:
    """Uniform evaluation interface for n = 1 weights: value and Wirtinger derivatives."""

    value: Callable[[np.ndarray], np.ndarray]
    d_z: Callable[[np.ndarray], np.ndarray]
    d_zbar: Callable[[np.ndarray], np.ndarray]
    degree: int | None
    ref_lambda: float | None
    source: object


def _as_weight(weight) -> _Weight1D:
    if isinstance(weight, _Weight1D):
        return weight
    if isinstance(weight, ExtendedWeight):
        if weight.n != 1:
            raise ValueError("Galerkin systems are restricted to n = 1")
        h = weight.model.d_z(0).d_zbar(0).value(0j)
        return _Weight1D(
            value=lambda z: np.asarray(weight.value(z), dtype=float),
            d_z=lambda z: np.asarray(weight.d_z(z), dtype=complex),
            d_zbar=lambda z: np.asarray(weight.d_zbar(z), dtype=complex),
            degree=None,
            ref_lambda=abs(complex(h).real) or None,
            source=weight,
        )
    if isinstance(weight, WeightPolynomial):
        if weight.n != 1:
            raise ValueError("Galerkin systems are restricted to n = 1")
        dz = weight.d_z(0)
        dzbar = weight.d_zbar(0)
        h = curvature_matrix(weight, 0j)[0, 0]
        return _Weight1D(
            value=lambda z: np.asarray(weight.value(z), dtype=float),
            d_z=lambda z: np.asarray(dz.value(z), dtype=complex),
            d_zbar=lambda z: np.asarray(dzbar.value(z), dtype=complex),
            degree=weight.degree,
            ref_lambda=abs(complex(h).real) or None,
            source=weight,
        )
    raise TypeError(f"unsupported weight type {type(weight).__name__}")


def _reference_lambda(w: _Weight1D, reference: ModelSpectrum | None) -> float:
    if reference is not None:
        if reference.n != 1:
            raise ValueError("reference spectrum must have n = 1")
        return abs(reference.lambdas[0])
    if w.ref_lambda is None:
        raise ValueError("weight has no quadratic part at 0; pass an explicit reference")
    return w.ref_lambda


def basis_pairs(degree: int) -> tuple[tuple[int, int], ...]:
    """Exponent pairs (a, b) with a + b <= degree, graded, antiholomorphic first."""
    return tuple((a, t - a) for t in range(degree + 1) for a in range(t + 1))


def gauss_hermite_nodes(order: int, lam_ref: float) -> tuple[np.ndarray, np.ndarray]:
    """Tensor nodes z and weights for integrals of f(z) e^{-2 lam_ref |z|^2} dV.

    One-dimensional Gauss-Hermite nodes are rescaled so the Gaussian matches
    e^{-2 lam_ref x^2} per real axis; the weight includes the dV = 2 dm factor.
    """
    t, w = np.polynomial.hermite.hermgauss(order)
    x = t / math.sqrt(2.0 * lam_ref)
    w1 = w / math.sqrt(2.0 * lam_ref)
    z = (x[:, None] + 1j * x[None, :]).ravel()
    wt = 2.0 * (w1[:, None] * w1[None, :]).ravel()
    return z, wt


@dataclass(frozen=True)
class GalerkinBasis:
    """Truncated orthonormal tensor Hermite basis in degree q.

    ``pairs`` lists the Hermite indices (i, j) of b_ij, i + j <= D, graded by
    i + j so that a lower truncation is a leading block of a higher one.
    """

    q: int
    degree: int
    reference: ModelSpectrum
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.q not in (0, 1):
            raise ValueError("q must be 0 or 1")
        if self.reference.n != 1:
            raise ValueError("basis reference must be a one-dimensional spectrum")

    @property
    def lam_ref(self) -> float:
        return abs(self.reference.lambdas[0])

    def __len__(self) -> int:
        return len(self.pairs)

    def tabulate(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Polynomial factors P of b = P e^{-lam_ref |z|^2} and the derivative dbar_s or dbar_s^* needs.

        Returns (P, dP/dzbar) for q = 0 and (P, dP/dz) for q = 1, each of shape
        (len(z), len(self)).  The normalized Hermite polynomials p_i
        (orthonormal against e^{-t^2} dt) come from the three-term recurrence at
        t = sqrt(2 lam_ref) (x, y), with p_i' = sqrt(2i) p_{i-1}.  P is real, so
        dP/dz = conj(dP/dzbar).
        """
        z = np.asarray(z, dtype=complex).ravel()
        scale = math.sqrt(2.0 * self.lam_ref)
        t = scale * np.stack([z.real, z.imag])
        p = np.empty((self.degree + 1,) + t.shape)
        p[0] = math.pi**-0.25
        if self.degree:
            p[1] = math.sqrt(2.0) * t * p[0]
        for i in range(1, self.degree):
            p[i + 1] = math.sqrt(2.0 / (i + 1)) * t * p[i] - math.sqrt(i / (i + 1)) * p[i - 1]
        dp = np.zeros_like(p)
        dp[1:] = np.sqrt(2.0 * np.arange(1, self.degree + 1))[:, None, None] * p[:-1]
        i, j = np.array(self.pairs).T
        norm = math.sqrt(self.lam_ref)
        values = norm * (p[i, 0] * p[j, 1]).T
        deriv = 0.5 * scale * norm * (dp[i, 0] * p[j, 1] + 1j * p[i, 0] * dp[j, 1]).T
        if self.q == 1:
            np.conjugate(deriv, out=deriv)
        return values, deriv

    def functions(self, z: np.ndarray) -> np.ndarray:
        """Basis values b_ij(z) including the reference Gaussian factor."""
        z = np.asarray(z, dtype=complex).ravel()
        return self.tabulate(z)[0] * np.exp(-self.lam_ref * np.abs(z) ** 2)[:, None]


def _dbar_image(basis: GalerkinBasis, w: _Weight1D, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Basis values and the image under dbar_s (q = 0) or dbar_s^* (q = 1) at z.

    Both come without the reference Gaussian, which the quadrature carries.
    """
    values, deriv = basis.tabulate(z)
    if basis.q == 0:
        return values, deriv + (w.d_zbar(z) - basis.lam_ref * z)[:, None] * values
    return values, (w.d_z(z) + basis.lam_ref * np.conj(z))[:, None] * values - deriv


@dataclass(frozen=True)
class GalerkinSystem:
    """Assembled Gram and Laplacian matrices with their eigenpairs.

    ``eigenvectors`` holds orthonormal coefficient columns in the Hermite
    basis, V^H V = I.  Eigenvalues are sorted ascending.  ``gram`` is the
    quadrature Gram matrix (real, the identity up to ``gram_defect`` =
    max|G - I|); the eigensolve takes it to be the identity.
    """

    basis: GalerkinBasis
    weight: _Weight1D
    gram: np.ndarray
    laplacian: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    gram_defect: float
    quad_order: int

    @property
    def q(self) -> int:
        return self.basis.q

    @property
    def degree(self) -> int:
        return self.basis.degree

    def zero_tolerance(self) -> float:
        top = float(self.eigenvalues.max(initial=0.0))
        return KERNEL_TOLERANCE * max(top, 1.0)

    def kernel_dimension(self) -> int:
        return int(np.count_nonzero(self.eigenvalues <= self.zero_tolerance()))

    def eval_modes(self, z, columns=None) -> np.ndarray:
        """Eigenfunction values psi_j(z), shape (len(z), #columns)."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        vec = self.eigenvectors if columns is None else self.eigenvectors[:, columns]
        return self.basis.functions(z) @ vec


def _default_order(degree: int, weight: _Weight1D) -> int:
    if weight.degree is not None:
        return degree + weight.degree + 2
    return max(2 * degree, degree + 12)


def build_system(
    weight,
    q: int,
    degree: int,
    quad_order: int | None = None,
    reference: ModelSpectrum | None = None,
) -> GalerkinSystem:
    """Assemble Gram G and Laplacian form Q for the weight in degree q, and solve Qv = mu v.

    Parameters
    ----------
    weight : WeightPolynomial, ExtendedWeight, or prepared adapter, n = 1.
    q : form degree, 0 or 1.
    degree : truncation degree D; the basis has (D+1)(D+2)/2 elements.
    quad_order : Gauss-Hermite points per axis.  The default covers polynomial
        integrands exactly (D + weight degree + 2) and falls back to a dense
        rule for blended weights; orders <= D raise GramConditioningError.
    reference : spectrum fixing the reference Gaussian; defaults to the
        weight's own quadratic part at 0.
    """
    w = _as_weight(weight)
    if degree < 0:
        raise ValueError("truncation degree must be nonnegative")
    lam_ref = _reference_lambda(w, reference)
    ref = reference if reference is not None else ModelSpectrum((lam_ref,))
    order = quad_order if quad_order is not None else _default_order(degree, w)
    basis = GalerkinBasis(q=q, degree=degree, reference=ref, pairs=basis_pairs(degree))
    if order <= degree:
        raise GramConditioningError(
            f"build_system(q={q}, D={degree}): quadrature order {order} cannot"
            f" integrate the Gram matrix (needs more than D = {degree})"
        )

    gram, lap = _assemble(basis, w, order)
    return _solve(basis, w, gram, lap, order)


def _assemble(basis: GalerkinBasis, w: _Weight1D, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gram and Laplacian matrices by the order-``order`` tensor rule.

    The node tables are released on return, before any eigensolve.
    """
    z, wt = gauss_hermite_nodes(order, basis.lam_ref)
    values, op = _dbar_image(basis, w, z)
    gram = (values.T * wt) @ values
    del values
    weighted = op.conj()
    weighted *= wt[:, None]
    lap = weighted.T @ op
    del op, weighted
    return 0.5 * (gram + gram.T), 0.5 * (lap + lap.conj().T)


def _solve(
    basis: GalerkinBasis, w: _Weight1D, gram: np.ndarray, lap: np.ndarray, order: int
) -> GalerkinSystem:
    """Eigenpairs of the Laplacian, which must be positive semidefinite."""
    mu, vecs = scipy.linalg.eigh(lap)
    top = max(abs(mu[-1]), 1.0)
    if mu[0] < -1e-9 * top:
        raise GramConditioningError(
            f"Galerkin system (q={basis.q}, D={basis.degree}): spectrum not PSD,"
            f" min eigenvalue {mu[0]:.3e}"
        )
    return GalerkinSystem(
        basis=basis,
        weight=w,
        gram=gram,
        laplacian=lap,
        eigenvalues=mu,
        eigenvectors=vecs,
        gram_defect=float(np.abs(gram - np.eye(len(basis))).max()),
        quad_order=order,
    )


def leading_block(system: GalerkinSystem, degree: int) -> GalerkinSystem:
    """The system truncated at a lower degree, solved from its leading blocks.

    The basis is graded by i + j, so the degree-``degree`` basis spans the
    first (degree + 1)(degree + 2)/2 functions of the system's; with the same
    weight and quadrature rule, its Gram and Laplacian are the leading blocks
    of the system's, and only the eigensolve is repeated.
    """
    if not 0 <= degree <= system.degree:
        raise ValueError(
            f"leading block degree must lie in [0, {system.degree}], got {degree}"
        )
    basis = replace(system.basis, degree=degree, pairs=basis_pairs(degree))
    n = len(basis)
    return _solve(
        basis,
        system.weight,
        system.gram[:n, :n].copy(),
        system.laplacian[:n, :n].copy(),
        system.quad_order,
    )


@dataclass(frozen=True)
class HolomorphicBasis:
    """Holomorphic sub-basis {v_a e^{-phi}}, a <= D, with its Gram matrix.

    v_a = z^a sqrt(lam_ref (2 lam_ref)^a / (pi a!)) is orthonormal for the
    model weight lam_ref |z|^2, so the Gram matrix departs from the identity
    only through the weight's perturbation.  ``factor`` is its Cholesky
    factor in ``scipy.linalg.cho_factor`` form and ``cond`` the squared
    ratio of its smallest to largest pivot.  Spans the kernel candidates of
    the degree-0 Laplacian directly, so the Bergman kernel is a plain Gram
    inversion, no eigensolve.
    """

    weight: _Weight1D
    degree: int
    lam_ref: float
    gram: np.ndarray
    factor: tuple[np.ndarray, bool]
    cond: float
    quad_order: int


def _holomorphic_powers(degree: int, lam_ref: float, z: np.ndarray) -> np.ndarray:
    """Model-normalized powers v_a(z), a <= degree, shape (len(z), degree + 1)."""
    v = np.empty((z.size, degree + 1), dtype=complex)
    v[:, 0] = math.sqrt(lam_ref / math.pi)
    for a in range(1, degree + 1):
        v[:, a] = v[:, a - 1] * z * math.sqrt(2.0 * lam_ref / a)
    return v


def holomorphic_subsystem(
    weight,
    degree: int,
    quad_order: int | None = None,
    reference: ModelSpectrum | None = None,
) -> HolomorphicBasis:
    """Gram matrix of the holomorphic sub-basis under the weight's L^2(dV) inner product."""
    w = _as_weight(weight)
    lam_ref = _reference_lambda(w, reference)
    order = quad_order if quad_order is not None else _default_order(degree, w)
    z, wt = gauss_hermite_nodes(order, lam_ref)
    corr = np.exp(-2.0 * (w.value(z) - lam_ref * np.abs(z) ** 2))
    v = _holomorphic_powers(degree, lam_ref, z)
    gram = (v.conj().T * (wt * corr)) @ v
    gram = 0.5 * (gram + gram.conj().T)
    context = f"holomorphic_subsystem(D={degree})"
    try:
        factor = scipy.linalg.cho_factor(gram, lower=True)
    except np.linalg.LinAlgError as exc:
        raise GramConditioningError(f"{context}: Gram not positive definite") from exc
    piv = np.diag(factor[0]).real
    cond = float((piv.min() / piv.max()) ** 2)
    if cond < GRAM_GUARD:
        raise GramConditioningError(
            f"{context}: Gram pivot ratio {cond:.3e} below guard {GRAM_GUARD:.0e}"
        )
    return HolomorphicBasis(
        weight=w,
        degree=degree,
        lam_ref=lam_ref,
        gram=gram,
        factor=factor,
        cond=cond,
        quad_order=order,
    )


def bergman_kernel_numeric(hol: HolomorphicBasis, z, w) -> np.ndarray:
    """Localized Bergman kernel K(z, w) = sum_ab v_a(z) (G^-1)_ab conj(v_b(w)) e^{-phi(z)-phi(w)}.

    Returns the (m_z, m_w) matrix K[i, j] = K(z_i, w_j) on the point sets z
    and w (see :mod:`kernel_lab.model` for point shapes).
    """
    zs, ws = _points(z, 1)[:, 0], _points(w, 1)[:, 0]
    vz = _holomorphic_powers(hol.degree, hol.lam_ref, zs) * np.exp(-hol.weight.value(zs))[:, None]
    vw = _holomorphic_powers(hol.degree, hol.lam_ref, ws) * np.exp(-hol.weight.value(ws))[:, None]
    return vz @ scipy.linalg.cho_solve(hol.factor, vw.conj().T)


def _mode_kernel(system: GalerkinSystem, coeffs: np.ndarray, z, w) -> np.ndarray:
    """Kernel sum_j c_j psi_j(z) psi_j(w)* as the (m_z, m_w) matrix on the point sets z and w."""
    zs, ws = _points(z, 1)[:, 0], _points(w, 1)[:, 0]
    cols = np.nonzero(coeffs)[0]
    if not cols.size:
        return np.zeros((zs.size, ws.size), dtype=complex)
    fz = system.eval_modes(zs, cols) * coeffs[cols][None, :]
    return fz @ system.eval_modes(ws, cols).conj().T


def spectral_projector_kernel(system: GalerkinSystem, c: float, z, w) -> np.ndarray:
    """Kernel of the spectral projector onto eigenvalues mu <= c (plus the zero band)."""
    if c < 0:
        raise ValueError("spectral threshold must be nonnegative")
    sel = system.eigenvalues <= max(c, system.zero_tolerance())
    return _mode_kernel(system, sel.astype(float), z, w)


def heat_kernel_numeric(system: GalerkinSystem, t: float, z, w) -> np.ndarray:
    """Heat kernel sum_j e^{-t mu_j} psi_j(z) psi_j(w)* of the truncated operator."""
    if not t > 0:
        raise ValueError("heat time must be positive")
    mu = np.maximum(system.eigenvalues, 0.0)
    return _mode_kernel(system, np.exp(-t * mu), z, w)


def spectral_gap(system: GalerkinSystem) -> float:
    """Smallest eigenvalue above the zero band: inf of the nonzero spectrum."""
    above = system.eigenvalues[system.eigenvalues > system.zero_tolerance()]
    if above.size == 0:
        raise ValueError("no nonzero spectrum at this truncation")
    return float(above[0])


def dbar_pairings(sys0: GalerkinSystem, sys1: GalerkinSystem) -> tuple[np.ndarray, np.ndarray]:
    """Rectangular pairing matrices between degree-0 and degree-1 systems.

    Returns (E01, E10) with E01[j, i] = (b1_j | dbar_s b0_i) and
    E10[j, i] = (b0_j | dbar_s^* b1_i), both in L^2(dV).  Both systems must
    share the weight and the reference Gaussian.
    """
    if sys0.q != 0 or sys1.q != 1:
        raise ValueError("pairings need a degree-0 and a degree-1 system, in that order")
    if sys0.basis.lam_ref != sys1.basis.lam_ref:
        raise ValueError("systems use different reference Gaussians")
    if sys0.weight.source != sys1.weight.source:
        raise ValueError("systems use different weights")
    order = max(sys0.quad_order, sys1.quad_order)
    z, wt = gauss_hermite_nodes(order, sys0.basis.lam_ref)
    b0, a_of_b0 = _dbar_image(sys0.basis, sys0.weight, z)
    b1, astar_of_b1 = _dbar_image(sys1.basis, sys0.weight, z)
    e01 = (b1.T * wt) @ a_of_b0
    e10 = (b0.T * wt) @ astar_of_b1
    return e01, e10


def _pseudo_inverse_apply(system: GalerkinSystem, rhs_coords: np.ndarray) -> np.ndarray:
    """Apply N = box^+ (zero modes annihilated) to a coefficient vector."""
    mu = system.eigenvalues
    tol = system.zero_tolerance()
    inv = np.where(mu > tol, 1.0 / np.where(mu > tol, mu, 1.0), 0.0)
    proj = system.eigenvectors.conj().T @ rhs_coords
    return system.eigenvectors @ (inv * proj)


def _kernel_projector_apply(system: GalerkinSystem, coords: np.ndarray) -> np.ndarray:
    mu = system.eigenvalues
    cols = mu <= system.zero_tolerance()
    vk = system.eigenvectors[:, cols]
    return vk @ (vk.conj().T @ coords)


def hodge_residual(
    sys_prev: GalerkinSystem | None,
    system: GalerkinSystem,
    sys_next: GalerkinSystem | None,
    samples: int = 20,
    seed: int = 0,
) -> float:
    """Residual of B = Id - dbar N dbar* - dbar* N dbar against the kernel projector.

    For q = 0 only the dbar* N^1 dbar term exists and the degree-1 system must
    share the truncation degree; for q = 1 only dbar N^0 dbar* exists and the
    degree-0 system must carry one extra degree (dbar* raises the polynomial
    degree by one).  The identity closes exactly in the truncated spaces for
    the model weight; the returned value is the max over random sample vectors
    of ||B u - (projector) u|| / ||u|| in coefficient space.
    """
    q = system.q
    if q == 0:
        if sys_next is None:
            raise ValueError("q = 0 needs the degree-1 neighbor system")
        if sys_next.degree != system.degree:
            raise ValueError("degree-1 neighbor must share the truncation degree")
        e01, e10 = dbar_pairings(system, sys_next)
        partner = sys_next
    elif q == 1:
        if sys_prev is None:
            raise ValueError("q = 1 needs the degree-0 neighbor system")
        if sys_prev.degree != system.degree + 1:
            raise ValueError("degree-0 neighbor must carry one extra truncation degree")
        e01, e10 = dbar_pairings(sys_prev, system)
        partner = sys_prev
    else:
        raise ValueError("q must be 0 or 1")

    rng = np.random.default_rng(seed)
    dim = len(system.basis)
    worst = 0.0
    for _ in range(samples):
        u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        if q == 0:
            nv = _pseudo_inverse_apply(partner, e01 @ u)
            bu = u - e10 @ nv
        else:
            nv = _pseudo_inverse_apply(partner, e10 @ u)
            bu = u - e01 @ nv
        pu = _kernel_projector_apply(system, u)
        diff = bu - pu
        worst = max(worst, float(np.linalg.norm(diff) / np.linalg.norm(u)))
    return worst
