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

both in L^2(dV), and the Laplacian is the form |A u|^2 of A = dbar_s (q = 0)
or A = dbar_s^* (q = 1).  It is assembled on one of two paths:

* Polynomial weights (``WeightPolynomial``) take the exact path.  Per axis,
  t h_n = sqrt((n+1)/2) h_{n+1} + sqrt(n/2) h_{n-1} and
  h_n' = sqrt(n/2) h_{n-1} - sqrt((n+1)/2) h_{n+1}, so for phi of degree p,
  A is a sparse matrix from the degree-D basis into the full tensor grid
  i, j <= D + p, which is orthonormal too.  The Laplacian is A^H A, with no
  quadrature: the system's ``gram`` is the identity, ``gram_defect`` 0 and
  ``quad_order`` 0.
* Blended weights (``ExtendedWeight``) take the quadrature path: tensor
  Gauss-Hermite quadrature against e^{-2 phi_ref}, by default a dense rule.
  An order-m rule integrates the Gram matrix exactly once m > D; orders
  m <= D are refused with GramConditioningError, and above that the Gram
  defect max|G - I| is reported, not guarded.

On the model weight |z|^2 every eigenvalue is exact to roundoff (2(b + q) with
multiplicity D + 1 - b) up to at least D = 64.  The basis is graded by i + j,
so the degree-D' matrices are the leading (D'+1)(D'+2)/2 blocks of the
degree-D ones for any D' <= D: ``leading_block_spectra`` takes the
eigenvalues of several truncations from one exact assembly.  Because the
basis carries the reference Gaussian rather than e^{-phi}, negative-curvature
weights pose no integrability problem: the true weight enters only through
its derivatives.

Exact Laplacians are solved in charge classes.  Each level i + j = n is
rotation invariant and is also spanned by the charge states |n_a, n_b>,
n_a + n_b = n, of the ladders a = (a_x - i a_y)/sqrt(2) and
b = (a_x + i a_y)/sqrt(2); in them z = (a^+ + b)/s and d/dzbar =
(s/2)(b - a^+) with s = sqrt(2 lam), so the operator A has the same sparse
ladder form and z^a zbar^b shifts the charge n_a - n_b by a - b.  The
Laplacian thus couples charges only modulo g = gcd |a - b| over the weight's
monomials: g = 0 (|z|^2) makes every charge its own block, 2D + 1 of them,
the gap-cubic weight (g = 3) splits into three, and g = 1 is one block.
Each class is ordered by level, so a leading block of the truncation is a
leading block of every class.  The charge states have real ladder
coefficients, so for a weight with real coefficients the blocks are real and
solved in real arithmetic; eigenvectors are taken back to the b_ij level by
level.  Blended weights are solved as one block (the tensor Gauss-Hermite
rule is not rotation exact); b_ij is even or odd under y -> -y as j is, so
for real coefficients their Laplacian is real in the basis i^(j mod 2) b_ij
up to quadrature roundoff, which is dropped, and solved in real arithmetic.

The Bergman kernel uses the holomorphic sub-basis z^a e^{-phi}, normalized
against the model weight, whose Gram matrix differs from the identity only
through phi - phi_ref.  It is integrated by quadrature for every weight, and
its Cholesky factor is the one guarded step: a Gram that is not positive
definite, or whose pivot ratio falls below GRAM_GUARD, raises
GramConditioningError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    "leading_block_spectra",
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
    identity on the exact path (``quad_order`` 0) and the quadrature Gram
    matrix otherwise (real, the identity up to ``gram_defect`` = max|G - I|);
    the eigensolve takes it to be the identity.
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
        return _zero_tolerance(self.eigenvalues)

    def kernel_dimension(self) -> int:
        return int(np.count_nonzero(self.eigenvalues <= self.zero_tolerance()))

    def eval_modes(self, z, columns=None) -> np.ndarray:
        """Eigenfunction values psi_j(z), shape (len(z), #columns)."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        vec = self.eigenvectors if columns is None else self.eigenvectors[:, columns]
        return self.basis.functions(z) @ vec


def _zero_tolerance(eigenvalues: np.ndarray) -> float:
    """Upper edge of the numerical zero band of a spectrum."""
    top = float(eigenvalues.max(initial=0.0))
    return KERNEL_TOLERANCE * max(top, 1.0)


def _default_order(degree: int, weight: _Weight1D) -> int:
    if weight.degree is not None:
        return degree + weight.degree + 2
    return max(2 * degree, degree + 12)


def _basis(w: _Weight1D, q: int, degree: int, reference: ModelSpectrum | None) -> GalerkinBasis:
    if degree < 0:
        raise ValueError("truncation degree must be nonnegative")
    lam_ref = _reference_lambda(w, reference)
    ref = reference if reference is not None else ModelSpectrum((lam_ref,))
    return GalerkinBasis(q=q, degree=degree, reference=ref, pairs=basis_pairs(degree))


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
        A ``WeightPolynomial`` takes the exact path (Q = A^H A, G = I,
        ``quad_order`` 0); anything else is assembled by quadrature.
    q : form degree, 0 or 1.
    degree : truncation degree D; the basis has (D+1)(D+2)/2 elements.
    quad_order : Gauss-Hermite points per axis, read only on the quadrature
        path.  The default is a dense rule; orders <= D raise
        GramConditioningError.
    reference : spectrum fixing the reference Gaussian; defaults to the
        weight's own quadratic part at 0.
    """
    w = _as_weight(weight)
    basis = _basis(w, q, degree, reference)
    if isinstance(w.source, WeightPolynomial):
        return _solve(basis, w, np.eye(len(basis)), _exact_laplacian(basis, w.source), 0)
    order = quad_order if quad_order is not None else _default_order(degree, w)
    if order <= degree:
        raise GramConditioningError(
            f"build_system(q={q}, D={degree}): quadrature order {order} cannot"
            f" integrate the Gram matrix (needs more than D = {degree})"
        )
    gram, lap = _assemble(basis, w, order)
    return _solve(basis, w, gram, lap, order)


def _exact_operator(
    basis: GalerkinBasis, weight: WeightPolynomial, top: int = 0, charge: bool = False
):
    """Sparse matrix of dbar_s (q = 0) or dbar_s^* (q = 1) on the basis, and its grid size.

    Rows index the tensor Hermite functions b_ij, i, j < size, in the order
    i * size + j; columns follow ``basis.pairs``.  The image of the degree-D
    basis under a weight of degree p lies in i, j <= D + p; the grid reaches
    index ``top`` too when that is larger.  With ``charge`` both sides are
    the charge states |n_a, n_b> instead (see ``_charge_states``), indexed by
    the same pairs (n_a, n_b).
    """
    import scipy.sparse as sp

    size = max(basis.degree + max(weight.degree, 1), top) + 1
    s = math.sqrt(2.0 * basis.lam_ref)
    lower = sp.diags(np.sqrt(np.arange(1.0, size)), 1, format="csr")
    eye = sp.identity(size, format="csr")
    a_dn, b_dn = sp.kron(lower, eye, format="csr"), sp.kron(eye, lower, format="csr")
    if not charge:  # a = (a_x - i a_y) / sqrt(2), b = (a_x + i a_y) / sqrt(2) on the b_ij
        a_dn, b_dn = (a_dn - 1j * b_dn) / math.sqrt(2.0), (a_dn + 1j * b_dn) / math.sqrt(2.0)
    # z = (a^+ + b) / s, d/dzbar = (s / 2)(b - a^+) and d/dz = (s / 2)(a - b^+)
    a_up, b_up = a_dn.conj().T, b_dn.conj().T
    z, zbar = (a_up + b_dn) / s, (a_dn + b_up) / s
    dzbar, dz = 0.5 * s * (b_dn - a_up), 0.5 * s * (a_dn - b_up)
    if basis.q == 0:
        op, coeff = dzbar, weight.d_zbar(0)
    else:
        op, coeff = -dz, weight.d_z(0)
    for ((a,), (b,)), c in coeff.coeffs.items():
        term = c * sp.identity(size * size, format="csr")
        for _ in range(a):
            term = z @ term
        for _ in range(b):
            term = zbar @ term
        op = op + term
    i, j = np.array(basis.pairs).T
    return op.tocsc()[:, i * size + j], size


def _exact_laplacian(
    basis: GalerkinBasis, weight: WeightPolynomial, charge: bool = False
) -> np.ndarray:
    """The Laplacian A^H A of a polynomial weight, Hermitian to the last bit.

    With ``charge`` it is taken in the charge states, where it is a real
    matrix for a weight with real coefficients.
    """
    op, _ = _exact_operator(basis, weight, charge=charge)
    if charge and _real_coefficients(weight):
        op = op.real
    lap = (op.conj().T @ op).toarray()
    lap += lap.conj().T
    lap *= 0.5
    return lap


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


def _check_psd(mu: np.ndarray, q: int, degree: int) -> None:
    top = max(abs(mu[-1]), 1.0)
    if mu[0] < -1e-9 * top:
        raise GramConditioningError(
            f"Galerkin system (q={q}, D={degree}): spectrum not PSD,"
            f" min eigenvalue {mu[0]:.3e}"
        )


def _real_coefficients(source) -> bool:
    """Whether every polynomial coefficient of the weight is real (phi symmetric under y -> -y)."""
    parts = (source.inner, source.model) if isinstance(source, ExtendedWeight) else (source,)
    return all(c.imag == 0 for p in parts for c in p.coeffs.values())


def _charge_states(degree: int):
    """Tensor coefficients of the charge states, one unitary matrix per level n = 0..degree.

    With the per-axis ladders a_x, a_y of the b_ij, a = (a_x - i a_y)/sqrt(2)
    and b = (a_x + i a_y)/sqrt(2) commute, and |n_a, n_b> =
    (a^+)^n_a (b^+)^n_b b_00 / sqrt(n_a! n_b!) spans level n_a + n_b with
    angular-momentum charge n_a - n_b.  On level n, column n_a holds
    |n_a, n - n_a> in the coordinates b_{i, n-i}, i = 0..n.
    """
    states = np.ones((1, 1), dtype=complex)
    yield states
    for n in range(1, degree + 1):
        i = np.arange(n)[:, None]
        up_x, up_y = np.zeros((n + 1, n), dtype=complex), np.zeros((n + 1, n), dtype=complex)
        up_x[1:] = np.sqrt(i + 1.0) * states  # a_x^+ b_ij = sqrt(i+1) b_(i+1)j
        up_y[:-1] = np.sqrt(n - i) * states  # a_y^+ b_ij = sqrt(j+1) b_i(j+1)
        states = np.empty((n + 1, n + 1), dtype=complex)
        states[:, 1:] = (up_x + 1j * up_y) / np.sqrt(2.0 * np.arange(1, n + 1))
        states[:, 0] = (up_x[:, 0] - 1j * up_y[:, 0]) / math.sqrt(2.0 * n)
        yield states


def _charge_classes(basis: GalerkinBasis, weight: WeightPolynomial) -> list[np.ndarray]:
    """Positions of the charge states, one array per class of charge mod g, in level order.

    g = gcd |a - b| over the monomials z^a zbar^b of the weight: the
    Laplacian couples charges only within a class, and g = 0 (every
    monomial rotation invariant) makes each charge its own class.
    """
    step = math.gcd(*(abs(a - b) for (a,), (b,) in weight.coeffs))
    n_a, n_b = np.array(basis.pairs).T
    key = n_a - n_b if step == 0 else (n_a - n_b) % step
    return [np.flatnonzero(key == c) for c in np.unique(key)]


def _leading_spectrum(lap: np.ndarray, classes: list[np.ndarray], size: int) -> np.ndarray:
    """Eigenvalues of the leading ``size`` basis functions, one class at a time, merged."""
    parts = []
    for idx in classes:
        sub = idx[: np.searchsorted(idx, size)]
        if sub.size:
            parts.append(scipy.linalg.eigh(lap[np.ix_(sub, sub)], eigvals_only=True))
    return np.sort(np.concatenate(parts), kind="stable")


def _eigh(lap: np.ndarray, classes: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs from ``scipy.linalg.eigh`` on each class of ``lap``, merged in ascending order."""
    mu = np.empty(len(lap))
    vecs = np.zeros_like(lap)
    for idx in classes:
        mu[idx], vecs[idx[:, None], idx] = scipy.linalg.eigh(lap[np.ix_(idx, idx)])
    order = np.argsort(mu, kind="stable")
    return mu[order], vecs[:, order]


def _solve(
    basis: GalerkinBasis, w: _Weight1D, gram: np.ndarray, lap: np.ndarray, order: int
) -> GalerkinSystem:
    """Eigenpairs of the Laplacian, which must be positive semidefinite.

    A polynomial weight is solved in its charge classes and the eigenvectors
    are taken back to the b_ij level by level.  A blended one is solved as
    one block in the basis i^(j mod 2) b_ij, in real arithmetic when its
    coefficients are real (the imaginary part is then quadrature roundoff).
    """
    if isinstance(w.source, WeightPolynomial):
        lap_charged = _exact_laplacian(basis, w.source, charge=True)
        mu, charged = _eigh(lap_charged, _charge_classes(basis, w.source))
        vecs = np.empty(charged.shape, dtype=complex)
        start = 0
        for states in _charge_states(basis.degree):
            stop = start + len(states)
            vecs[start:stop] = states @ charged[start:stop]
            start = stop
    else:
        phase = np.where(np.array(basis.pairs)[:, 1] % 2, 1j, 1.0)
        turned = lap * phase
        turned *= phase.conj()[:, None]
        # evd beats the default evr on these real matrices, not on complex ones
        real = _real_coefficients(w.source)
        if real:
            turned = np.ascontiguousarray(turned.real)
        mu, vecs = scipy.linalg.eigh(turned, driver="evd" if real else None)
        vecs = phase[:, None] * vecs
    _check_psd(mu, basis.q, basis.degree)
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


def leading_block_spectra(
    weight, q: int, degree: int, blocks: tuple[int, ...]
) -> tuple[np.ndarray, ...]:
    """Eigenvalues of the exact Laplacian truncated at each degree in ``blocks``.

    The Laplacian of the polynomial weight is assembled once at ``degree``,
    in the charge states.  Each charge class is ordered by level, so the
    degree-D' truncation, the leading (D'+1)(D'+2)/2 basis functions, is a
    leading block of every class; each is solved for eigenvalues only (no
    eigenvectors) and must be positive semidefinite like a full build.
    """
    w = _as_weight(weight)
    if not isinstance(w.source, WeightPolynomial):
        raise ValueError("leading-block spectra need a polynomial weight (the exact path)")
    if not all(0 <= b <= degree for b in blocks):
        raise ValueError(f"leading block degrees must lie in [0, {degree}], got {blocks}")
    basis = _basis(w, q, degree, None)
    lap = _exact_laplacian(basis, w.source, charge=True)
    classes = _charge_classes(basis, w.source)
    spectra = []
    for b in blocks:
        mu = _leading_spectrum(lap, classes, (b + 1) * (b + 2) // 2)
        _check_psd(mu, q, b)
        spectra.append(mu)
    return tuple(spectra)


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


def spectral_gap(system) -> float:
    """Smallest eigenvalue above the zero band: inf of the nonzero spectrum.

    ``system`` is a GalerkinSystem or an ascending array of eigenvalues.
    """
    mu = system.eigenvalues if isinstance(system, GalerkinSystem) else np.asarray(system)
    above = mu[mu > _zero_tolerance(mu)]
    if above.size == 0:
        raise ValueError("no nonzero spectrum at this truncation")
    return float(above[0])


def dbar_pairings(sys0: GalerkinSystem, sys1: GalerkinSystem) -> tuple[np.ndarray, np.ndarray]:
    """Rectangular pairing matrices between degree-0 and degree-1 systems.

    Returns (E01, E10) with E01[j, i] = (b1_j | dbar_s b0_i) and
    E10[j, i] = (b0_j | dbar_s^* b1_i), both in L^2(dV): the rows of the
    exact operators that fall on the partner basis.  Both systems must share
    the polynomial weight and the reference Gaussian.
    """
    if sys0.q != 0 or sys1.q != 1:
        raise ValueError("pairings need a degree-0 and a degree-1 system, in that order")
    if sys0.basis.lam_ref != sys1.basis.lam_ref:
        raise ValueError("systems use different reference Gaussians")
    if sys0.weight.source != sys1.weight.source:
        raise ValueError("systems use different weights")
    weight = sys0.weight.source
    if not isinstance(weight, WeightPolynomial):
        raise ValueError("pairings need a polynomial weight (the exact path)")

    def rows(system: GalerkinSystem, partner: GalerkinSystem) -> np.ndarray:
        op, size = _exact_operator(system.basis, weight, partner.degree)
        i, j = np.array(partner.basis.pairs).T
        return op.tocsr()[i * size + j].toarray()

    return rows(sys0, sys1), rows(sys1, sys0)


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
