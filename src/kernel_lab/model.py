"""Closed-form model kernel and orthonormal basis on C^n with a quadratic weight.

The model data is a nondegenerate curvature spectrum lambda = (lambda_1..lambda_n)
with q0 negative entries listed first.  The weight is phi_0 = sum_i lambda_i |z^i|^2
and the metric on sections is |s|^2 e^{-2 phi_0}.  Conventions used everywhere in
this package:

* volume form dV = 2^n dm, with dm the Lebesgue measure of C^n = R^{2n}
  (so ||e^{-|z|^2}||^2 = pi in one variable);
* kernels are the self-adjoint localized kernels acting on L^2(dV),
  K(z, w) = e^{-phi(z)} (sesquiholomorphic part) e^{-phi(w)};
* (0,1)-forms carry the flat metric <dzbar^i, dzbar^j> = delta_ij.

With these conventions the projector onto the kernel of the model Laplacian in
degree q = q0 has the explicit value

  P(z, w) = (|lambda_1 .. lambda_n| / pi^n)
            * exp(2 (sum_{i<=q0} |lambda_i| zbar^i w^i + sum_{i>q0} |lambda_i| z^i wbar^i)
                  - sum_i |lambda_i| (|z^i|^2 + |w^i|^2)),

and is identically zero in every other degree.

Point arguments are point sets, and every kernel returns the complex
``(m_z, m_w)`` matrix K[i, j] = K(z_i, w_j) of its principal (and, for these
diagonal models, only) coefficient.  A point set is an ``(m, n)`` array; an
``(n,)`` array, or for n = 1 a 0-d scalar, is a set of one point, and for
n = 1 a 1-D array of m complex numbers is a set of m points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "ModelSpectrum",
    "eval_model_bergman",
    "eval_model_basis",
    "model_kernel_from_basis",
    "multi_indices",
]


@dataclass(frozen=True)
class ModelSpectrum:
    """Curvature eigenvalues at the expansion point, negative entries first.

    The ordering is part of the data: the first ``q0`` coordinates are the ones
    whose basis monomials get conjugated, so a silent permutation would change
    every kernel value.  Constructors must list negatives first.
    """

    lambdas: tuple[float, ...]

    def __post_init__(self) -> None:
        lams = tuple(float(l) for l in self.lambdas)
        if len(lams) == 0:
            raise ValueError("spectrum needs at least one eigenvalue")
        if not all(math.isfinite(l) for l in lams):
            raise ValueError(f"each eigenvalue must be a finite number, got {lams}")
        if any(l == 0.0 for l in lams):
            raise ValueError("degenerate spectrum: zero eigenvalue not allowed")
        neg = [l < 0 for l in lams]
        if neg != sorted(neg, reverse=True):
            raise ValueError("eigenvalues must be ordered negatives first")
        object.__setattr__(self, "lambdas", lams)

    @property
    def n(self) -> int:
        return len(self.lambdas)

    @property
    def q0(self) -> int:
        """Number of negative eigenvalues; the only degree with nonzero kernel."""
        return sum(1 for l in self.lambdas if l < 0)


def _points(z, n: int) -> np.ndarray:
    """Points as an (m, n) array; a 0-d scalar (n = 1) or an (n,) row is one point."""
    pts = np.asarray(z, dtype=complex)
    if pts.ndim <= 1 and (n == 1 or pts.shape == (n,)):
        pts = pts.reshape(-1, n)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValueError(f"expected points in C^{n}, got shape {pts.shape}")
    return pts


def _kernel_points(spec: ModelSpectrum, q: int, z, w) -> tuple[np.ndarray, np.ndarray]:
    """Validated degree and point arrays of a kernel call."""
    if not 0 <= q <= spec.n:
        raise ValueError(f"form degree q={q} outside [0, {spec.n}]")
    return _points(z, spec.n), _points(w, spec.n)


def multi_indices(n: int, max_order: int) -> Iterator[tuple[int, ...]]:
    """All alpha in N^n with |alpha| <= max_order, in graded lexicographic order."""
    for total in range(max_order + 1):
        for head in itertools.combinations_with_replacement(range(n), total):
            alpha = [0] * n
            for i in head:
                alpha[i] += 1
            yield tuple(alpha)


def eval_model_bergman(spec: ModelSpectrum, q: int, z, w) -> np.ndarray:
    """Exact model projector kernel in degree q on the point sets z and w.

    Returns the (m_z, m_w) matrix K[i, j] = P(z_i, w_j).  Every q != q0 gives
    a zero matrix (the model Laplacian has trivial kernel there).
    """
    zp, wp = _kernel_points(spec, q, z, w)
    if q != spec.q0:
        return np.zeros((len(zp), len(wp)), dtype=complex)
    lam = [abs(l) for l in spec.lambdas]
    # 2i s per coordinate, s = -1 on the first q0; -2j is complex(-0.0, -2.0), as 2j * -1.0 rounds
    rot = [-2j if l < 0 else 2j for l in spec.lambdas]
    zb, wb = zp[:, None, :], wp[None, :, :]
    # 2i s Im(z w*) - |z - w|^2 cancels no O(|lam| |z|^2) terms; its phase is 0 at z = w
    phase = zb.imag * wb.real - zb.real * wb.imag
    with np.errstate(over="ignore"):
        exponent = (lam * (rot * phase - np.abs(zb - wb) ** 2)).sum(axis=-1)
    # where the Gaussian factor underflows the kernel is 0, even if the phase overflowed
    exponent[np.exp(exponent.real) == 0.0] = -np.inf
    return math.prod(lam) / math.pi ** spec.n * np.exp(exponent)


def _holomorphic_powers(degree: int, lam: float, z: np.ndarray) -> np.ndarray:
    """Model-normalized powers v_a(z) = z^a sqrt(lam (2 lam)^a / (pi a!)), a <= degree.

    Shape (degree + 1, len(z)), by the ladder v_a = v_(a-1) z sqrt(2 lam / a).
    """
    v = np.empty((degree + 1, z.size), dtype=complex)
    v[0] = math.sqrt(lam / math.pi)
    for a in range(1, degree + 1):
        v[a] = v[a - 1] * z * math.sqrt(2.0 * lam / a)
    return v


def _basis_matrix(spec: ModelSpectrum, alphas, zp: np.ndarray) -> np.ndarray:
    """B[alpha, p] = Psi_alpha(z_p) for an (m, n) point array."""
    if len(alphas) == 0:
        raise ValueError("needs at least one multi-index")
    exps = np.asarray(alphas, dtype=int)
    if exps.ndim != 2 or exps.shape[1] != spec.n:
        raise ValueError(f"multi-index length does not match n={spec.n}")
    if (exps < 0).any():
        raise ValueError("multi-index entries must be nonnegative")
    lam = np.abs(np.asarray(spec.lambdas))
    coords = np.where(np.arange(spec.n) < spec.q0, np.conj(zp), zp)
    basis = np.exp(-(lam * np.abs(zp) ** 2).sum(axis=-1))
    for i, top in enumerate(exps.max(axis=0)):
        basis = basis * _holomorphic_powers(int(top), lam[i], coords[:, i])[exps[:, i]]
    return basis


def eval_model_basis(spec: ModelSpectrum, alphas, z) -> np.ndarray:
    """Orthonormal kernel basis elements Psi_alpha, coefficients on dzbar^1..dzbar^q0.

    Psi_alpha = sqrt(2^|alpha| prod_i |lambda_i|^(alpha_i + 1) / (pi^n alpha!))
                * z_q^alpha * e^{-sum_i |lambda_i| |z^i|^2},

    where the mixed monomial z_q^alpha conjugates the first q0 coordinates.
    ``alphas`` is a sequence of multi-indices and ``z`` a point set.  Returns
    the (len(alphas), m) matrix B[a, p] = Psi_alphas[a](z_p): the Gaussian times
    one-variable powers from the recurrence v_a = v_(a-1) z sqrt(2 |lambda_i| / a).
    """
    return _basis_matrix(spec, alphas, _points(z, spec.n))


def model_kernel_from_basis(spec: ModelSpectrum, q: int, degree: int, z, w) -> np.ndarray:
    """Truncated basis expansion sum_{|alpha| <= degree} Psi_alpha(z) Psi_alpha(w)*.

    Independent oracle for :func:`eval_model_bergman`, with the same point
    shapes and return values; converges to it as degree grows, uniformly on
    compact sets.  A zero matrix when q != q0.  The model experiment reads
    every degree from one basis table; this stays the reference that table
    is tested against.
    """
    if degree < 0:
        raise ValueError(f"truncation degree must be nonnegative, got {degree}")
    zp, wp = _kernel_points(spec, q, z, w)
    if q != spec.q0:
        return np.zeros((len(zp), len(wp)), dtype=complex)
    alphas = tuple(multi_indices(spec.n, degree))
    bz = _basis_matrix(spec, alphas, zp)
    bw = bz if np.array_equal(zp, wp) else _basis_matrix(spec, alphas, wp)
    return bz.T @ bw.conj()
