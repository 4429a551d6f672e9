"""Galerkin discretization of the localized Kodaira Laplacian on C (n = 1).

The truncated space in degree q is spanned by b_{ab}(z) = z^a zbar^b e^{-phi_ref}
(times dzbar when q = 1) with a + b <= D, phi_ref = lambda_ref |z|^2 a fixed
reference Gaussian.  The operator for a weight phi acts through

  dbar_s u = (d/dzbar + phi_zbar) u  (on functions),
  dbar_s^* f = (-d/dz + phi_z) f     (on dzbar-coefficients),

both in L^2(dV) with dV = 2 dm.  Quadratic forms are assembled by tensor
Gauss-Hermite quadrature against e^{-2 phi_ref}, which is exact for polynomial
weights once the order covers the integrand degree.  Because the basis carries
the reference Gaussian rather than e^{-phi}, negative-curvature weights pose no
integrability problem: the true weight enters only through its derivatives.

Monomial Gram matrices degenerate quickly in D.  The conditioning guard is a
relative threshold on the Cholesky pivots of the unit-diagonal-scaled Gram;
an outright Cholesky failure raises as well.  This keeps D = 32 runs (pivot
ratio ~ 4e-5) while refusing the genuinely broken regime D >= 36 where the
scaled Gram goes numerically indefinite.  Passing the guard does not make the
whole spectrum accurate: on the model weight |z|^2 the low modes match the
exact even integers to ~1e-13, but the upper modes miss them by up to 1e-4 at
D = 24, 0.1 at D = 30 (beyond 1e-10 from mode ~90 of 496) and 0.95 at D = 32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .model import FormKernelValue, ModelSpectrum
from .weights import ExtendedWeight, WeightPolynomial, curvature_matrix

__all__ = [
    "GramConditioningError",
    "GalerkinBasis",
    "GalerkinSystem",
    "HolomorphicBasis",
    "build_system",
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
    """Truncated monomial-times-reference-Gaussian basis in degree q."""

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

    def monomials(self, z: np.ndarray) -> np.ndarray:
        """Matrix of z^a zbar^b over points, shape (len(z), len(self))."""
        z = np.asarray(z, dtype=complex).ravel()
        a = np.array([p[0] for p in self.pairs])
        b = np.array([p[1] for p in self.pairs])
        return z[:, None] ** a[None, :] * np.conj(z)[:, None] ** b[None, :]

    def functions(self, z: np.ndarray) -> np.ndarray:
        """Basis values b_{ab}(z) including the reference Gaussian factor."""
        z = np.asarray(z, dtype=complex).ravel()
        return self.monomials(z) * np.exp(-self.lam_ref * np.abs(z) ** 2)[:, None]


def _solve_gram(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve G x = rhs through the unit-diagonal scaling G = D Gn D.

    The raw monomial Gram spans many orders of magnitude on its diagonal, so a
    direct solve reports spurious ill-conditioning; the scaled system is the
    one the guard certified.
    """
    dd = np.sqrt(np.diag(gram).real)
    gn = gram / np.outer(dd, dd)
    axes = (slice(None),) + (None,) * (rhs.ndim - 1)
    y = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gn, lower=True), rhs / dd[axes])
    return y / dd[axes]


def _guarded_normalization(gram: np.ndarray, context: str) -> tuple[np.ndarray, float]:
    """Unit-diagonal scaling of a Gram matrix with the Cholesky pivot guard."""
    dd = np.sqrt(np.diag(gram).real)
    if not np.all(dd > 0):
        raise GramConditioningError(f"{context}: nonpositive Gram diagonal")
    gn = gram / np.outer(dd, dd)
    try:
        chol = np.linalg.cholesky(gn)
    except np.linalg.LinAlgError as exc:
        raise GramConditioningError(f"{context}: Gram not positive definite") from exc
    piv = np.diag(chol).real
    cond = (piv.min() / piv.max()) ** 2
    if cond < GRAM_GUARD:
        raise GramConditioningError(
            f"{context}: Gram pivot ratio {cond:.3e} below guard {GRAM_GUARD:.0e}"
        )
    return dd, float(cond)


@dataclass(frozen=True)
class GalerkinSystem:
    """Assembled Gram and Laplacian matrices with their generalized eigenpairs.

    ``eigenvectors`` holds coefficient columns in the raw (unnormalized) basis,
    G-orthonormal: V^H G V = I.  Eigenvalues are sorted ascending.
    """

    basis: GalerkinBasis
    weight: _Weight1D
    gram: np.ndarray
    laplacian: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    cond: float
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
    """Assemble Gram G and Laplacian form Q for the weight in degree q, and solve Qv = mu Gv.

    Parameters
    ----------
    weight : WeightPolynomial, ExtendedWeight, or prepared adapter, n = 1.
    q : form degree, 0 or 1.
    degree : truncation degree D; the basis has (D+1)(D+2)/2 elements.
    quad_order : Gauss-Hermite points per axis.  The default covers polynomial
        integrands exactly (D + weight degree + 2) and falls back to a dense
        rule for blended weights.
    reference : spectrum fixing the reference Gaussian; defaults to the
        weight's own quadratic part at 0.

    The generalized problem is solved after unit-diagonal scaling of both
    matrices (Cholesky-based whitening inside LAPACK); see the module notes
    for the conditioning guard.
    """
    w = _as_weight(weight)
    if degree < 0:
        raise ValueError("truncation degree must be nonnegative")
    lam_ref = _reference_lambda(w, reference)
    ref = reference if reference is not None else ModelSpectrum((lam_ref,))
    order = quad_order if quad_order is not None else _default_order(degree, w)
    basis = GalerkinBasis(q=q, degree=degree, reference=ref, pairs=basis_pairs(degree))

    z, wt = gauss_hermite_nodes(order, lam_ref)
    a = np.array([p[0] for p in basis.pairs])
    b = np.array([p[1] for p in basis.pairs])
    zc = np.conj(z)
    mono = z[:, None] ** a[None, :] * zc[:, None] ** b[None, :]
    mono_dz = a[None, :] * z[:, None] ** np.maximum(a - 1, 0)[None, :] * zc[:, None] ** b[None, :]
    mono_dzbar = b[None, :] * z[:, None] ** a[None, :] * zc[:, None] ** np.maximum(b - 1, 0)[None, :]

    gram = (mono.conj().T * wt) @ mono
    if q == 0:
        op = mono_dzbar + (w.d_zbar(z) - lam_ref * z)[:, None] * mono
    else:
        op = -mono_dz + (w.d_z(z) + lam_ref * zc)[:, None] * mono
    lap = (op.conj().T * wt) @ op

    gram = 0.5 * (gram + gram.conj().T)
    lap = 0.5 * (lap + lap.conj().T)

    dd, cond = _guarded_normalization(gram, f"build_system(q={q}, D={degree})")
    gn = gram / np.outer(dd, dd)
    qn = lap / np.outer(dd, dd)
    mu, vecs = scipy.linalg.eigh(qn, gn)
    top = max(abs(mu[-1]), 1.0)
    if mu[0] < -1e-9 * top:
        raise GramConditioningError(
            f"build_system(q={q}, D={degree}): spectrum not PSD, min eigenvalue {mu[0]:.3e}"
        )
    vecs = vecs / dd[:, None]
    return GalerkinSystem(
        basis=basis,
        weight=w,
        gram=gram,
        laplacian=lap,
        eigenvalues=mu,
        eigenvectors=vecs,
        cond=cond,
        quad_order=order,
    )


@dataclass(frozen=True)
class HolomorphicBasis:
    """Holomorphic sub-basis {z^a e^{-phi}}, a <= D, with its Gram matrix.

    Spans the kernel candidates of the degree-0 Laplacian directly, so the
    Bergman kernel is a plain Gram inversion, no eigensolve.
    """

    weight: _Weight1D
    degree: int
    lam_ref: float
    gram: np.ndarray
    cond: float
    quad_order: int


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
    v = z[:, None] ** np.arange(degree + 1)[None, :]
    gram = (v.conj().T * (wt * corr)) @ v
    gram = 0.5 * (gram + gram.conj().T)
    _, cond = _guarded_normalization(gram, f"holomorphic_subsystem(D={degree})")
    return HolomorphicBasis(
        weight=w, degree=degree, lam_ref=lam_ref, gram=gram, cond=cond, quad_order=order
    )


def bergman_kernel_numeric(hol: HolomorphicBasis, z, w):
    """Localized Bergman kernel K(z, w) = sum_ab z^a (G^-1)_ab wbar^b e^{-phi(z)-phi(w)}.

    Scalars in, scalar out; arrays in, the full kernel matrix K[i, j] out.
    """
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    ws = np.atleast_1d(np.asarray(w, dtype=complex))
    powers = np.arange(hol.degree + 1)
    vz = zs[:, None] ** powers[None, :] * np.exp(-hol.weight.value(zs))[:, None]
    vw = ws[:, None] ** powers[None, :] * np.exp(-hol.weight.value(ws))[:, None]
    kern = vz @ _solve_gram(hol.gram, vw.conj().T)
    if np.isscalar(z) or np.asarray(z).shape == ():
        if np.isscalar(w) or np.asarray(w).shape == ():
            return complex(kern[0, 0])
    return kern


def _mode_kernel(system: GalerkinSystem, coeffs: np.ndarray, z, w) -> FormKernelValue:
    """Kernel sum_j c_j psi_j(z) psi_j(w)* as a FormKernelValue.

    The principal entry is a complex number for scalar (z, w) and the full
    kernel matrix K[i, j] when arrays are passed.
    """
    scalar = (np.asarray(z).shape == ()) and (np.asarray(w).shape == ())
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    ws = np.atleast_1d(np.asarray(w, dtype=complex))
    cols = np.nonzero(coeffs)[0]
    if cols.size:
        fz = system.eval_modes(zs, cols) * coeffs[cols][None, :]
        kern = fz @ system.eval_modes(ws, cols).conj().T
    else:
        kern = np.zeros((zs.size, ws.size), dtype=complex)
    return FormKernelValue.principal(system.q, kern[0, 0] if scalar else kern)


def spectral_projector_kernel(system: GalerkinSystem, c: float, z, w) -> FormKernelValue:
    """Kernel of the spectral projector onto eigenvalues mu <= c (plus the zero band)."""
    if c < 0:
        raise ValueError("spectral threshold must be nonnegative")
    sel = system.eigenvalues <= max(c, system.zero_tolerance())
    return _mode_kernel(system, sel.astype(float), z, w)


def heat_kernel_numeric(system: GalerkinSystem, t: float, z, w) -> FormKernelValue:
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
    w = sys0.weight
    lam_ref = sys0.basis.lam_ref
    order = max(sys0.quad_order, sys1.quad_order)
    z, wt = gauss_hermite_nodes(order, lam_ref)
    zc = np.conj(z)

    def monomials(pairs, dz=False, dzbar=False):
        a = np.array([p[0] for p in pairs])
        b = np.array([p[1] for p in pairs])
        if dz:
            return a[None, :] * z[:, None] ** np.maximum(a - 1, 0)[None, :] * zc[:, None] ** b[None, :]
        if dzbar:
            return b[None, :] * z[:, None] ** a[None, :] * zc[:, None] ** np.maximum(b - 1, 0)[None, :]
        return z[:, None] ** a[None, :] * zc[:, None] ** b[None, :]

    m0 = monomials(sys0.basis.pairs)
    m1 = monomials(sys1.basis.pairs)
    a_of_b0 = monomials(sys0.basis.pairs, dzbar=True) + (w.d_zbar(z) - lam_ref * z)[:, None] * m0
    astar_of_b1 = -monomials(sys1.basis.pairs, dz=True) + (w.d_z(z) + lam_ref * zc)[:, None] * m1
    e01 = (m1.conj().T * wt) @ a_of_b0
    e10 = (m0.conj().T * wt) @ astar_of_b1
    return e01, e10


def _pseudo_inverse_apply(system: GalerkinSystem, rhs_coords: np.ndarray) -> np.ndarray:
    """Apply N = box^+ (zero modes annihilated) to a coefficient vector."""
    mu = system.eigenvalues
    tol = system.zero_tolerance()
    inv = np.where(mu > tol, 1.0 / np.where(mu > tol, mu, 1.0), 0.0)
    proj = system.eigenvectors.conj().T @ (system.gram @ rhs_coords)
    return system.eigenvectors @ (inv * proj)


def _kernel_projector_apply(system: GalerkinSystem, coords: np.ndarray) -> np.ndarray:
    mu = system.eigenvalues
    cols = mu <= system.zero_tolerance()
    vk = system.eigenvectors[:, cols]
    return vk @ (vk.conj().T @ (system.gram @ coords))


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
    of ||B u - (projector) u||_G / ||u||_G.
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
            v = _solve_gram(partner.gram, e01 @ u)
            nv = _pseudo_inverse_apply(partner, v)
            bu = u - _solve_gram(system.gram, e10 @ nv)
        else:
            v = _solve_gram(partner.gram, e10 @ u)
            nv = _pseudo_inverse_apply(partner, v)
            bu = u - _solve_gram(system.gram, e01 @ nv)
        pu = _kernel_projector_apply(system, u)
        diff = bu - pu
        num = math.sqrt(abs(np.vdot(diff, system.gram @ diff).real))
        den = math.sqrt(abs(np.vdot(u, system.gram @ u).real))
        worst = max(worst, num / den)
    return worst
