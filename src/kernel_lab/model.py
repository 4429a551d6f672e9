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
    lam = np.abs(np.asarray(spec.lambdas))
    zb, wb = zp[:, None, :], wp[None, :, :]
    cross = np.where(
        np.arange(spec.n) < spec.q0, lam * np.conj(zb) * wb, lam * zb * np.conj(wb)
    ).sum(axis=-1)
    quad = (lam * (np.abs(zb) ** 2 + np.abs(wb) ** 2)).sum(axis=-1)
    prefactor = float(np.prod(lam)) / math.pi ** spec.n
    return prefactor * np.exp(2.0 * cross - quad)


def _one_variable_norms(lam: np.ndarray, top: int) -> np.ndarray:
    """N[i, a] = sqrt(2^a |lambda_i|^(a + 1) / (pi a!)) for a <= top.

    Factorials are floats, so no product wraps; where the squared norm leaves
    the normal float range the norm is taken in log space instead.
    """
    a = np.arange(top + 1)
    # 171! is the first factorial past the float range
    fact = np.array([float(math.factorial(j)) if j <= 170 else math.inf for j in a])
    lam = lam[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        norm2 = 2.0**a * lam ** (a + 1) / (math.pi * fact)
    logs = a * np.log(2.0 * lam) + np.log(lam / math.pi) - np.cumsum(np.log(np.maximum(a, 1)))
    normal = np.isfinite(norm2) & (norm2 >= np.finfo(float).tiny)
    return np.where(normal, np.sqrt(norm2), np.exp(0.5 * logs))


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
    table = _one_variable_norms(lam, int(exps.max()))
    norms = np.prod(table[np.arange(spec.n), exps], axis=1)
    coords = np.where(np.arange(spec.n) < spec.q0, np.conj(zp), zp)
    mono = np.prod(coords[None, :, :] ** exps[:, None, :], axis=-1)
    gauss = np.exp(-(lam * np.abs(zp) ** 2).sum(axis=-1))
    return norms[:, None] * mono * gauss[None, :]


def eval_model_basis(spec: ModelSpectrum, alphas, z) -> np.ndarray:
    """Orthonormal kernel basis elements Psi_alpha, coefficients on dzbar^1..dzbar^q0.

    Psi_alpha = sqrt(2^|alpha| prod_i |lambda_i|^(alpha_i + 1) / (pi^n alpha!))
                * z_q^alpha * e^{-sum_i |lambda_i| |z^i|^2},

    where the mixed monomial z_q^alpha conjugates the first q0 coordinates.
    ``alphas`` is a sequence of multi-indices and ``z`` a point set.  Returns
    the (len(alphas), m) matrix B[a, p] = Psi_alphas[a](z_p).  Each norm is a
    product of one-variable norms in floats, valid for any n and order.
    """
    return _basis_matrix(spec, alphas, _points(z, spec.n))


def model_kernel_from_basis(spec: ModelSpectrum, q: int, degree: int, z, w) -> np.ndarray:
    """Truncated basis expansion sum_{|alpha| <= degree} Psi_alpha(z) Psi_alpha(w)*.

    Independent oracle for :func:`eval_model_bergman`, with the same point
    shapes and return values; converges to it as degree grows, uniformly on
    compact sets.  A zero matrix when q != q0.
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
