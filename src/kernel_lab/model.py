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

Point arguments are point sets: an ``(m, n)`` array of m points in C^n, or for
n = 1 any 1-D array of m complex points, including m = 1.  A single point is
shape ``(n,)`` for n > 1 and a 0-d scalar for n = 1.  The kernels return the
``(m_z, m_w)`` matrix K[i, j] = K(z_i, w_j) as their principal entry, and a
complex number when both arguments are single points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = [
    "ModelSpectrum",
    "MultiIndex",
    "FormKernelValue",
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


@dataclass(frozen=True)
class MultiIndex:
    """Multi-index alpha in N^n with |alpha| = sum alpha_i."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        ent = tuple(int(a) for a in self.entries)
        if any(a < 0 for a in ent):
            raise ValueError("multi-index entries must be nonnegative")
        object.__setattr__(self, "entries", ent)

    @property
    def order(self) -> int:
        return sum(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)


@dataclass(frozen=True)
class FormKernelValue:
    """Kernel coefficients of a (0,q)-form kernel on dzbar^I (x) (d/dwbar)^J.

    ``entries`` maps strictly increasing index pairs (I, J) to values; absent
    entries are zero.  A value is a complex number at a single point pair and
    the ``(m_z, m_w)`` matrix on point sets.  For the diagonal model kernels
    only the principal entry I = J = (0..q-1) occurs.
    """

    q: int
    entries: dict[tuple[tuple[int, ...], tuple[int, ...]], complex | np.ndarray] = field(
        default_factory=dict
    )

    @classmethod
    def zero(cls, q: int) -> "FormKernelValue":
        return cls(q=q, entries={})

    @classmethod
    def principal(cls, q: int, value: complex | np.ndarray) -> "FormKernelValue":
        idx = tuple(range(q))
        value = complex(value) if np.ndim(value) == 0 else np.asarray(value, dtype=complex)
        return cls(q=q, entries={(idx, idx): value})

    @property
    def value(self) -> complex | np.ndarray:
        """The principal (I, J) = ((0..q-1), (0..q-1)) coefficient."""
        idx = tuple(range(self.q))
        return self.entries.get((idx, idx), 0j)

    @property
    def is_zero(self) -> bool:
        return not any(np.any(v) for v in self.entries.values())

    def conjugate_transpose(self) -> "FormKernelValue":
        """Swap the (I, J) roles and conjugate, i.e. the kernel of the adjoint."""
        swapped = {
            (j, i): np.conj(v).T if np.ndim(v) else complex(np.conj(v))
            for (i, j), v in self.entries.items()
        }
        return FormKernelValue(q=self.q, entries=swapped)


def _points(z, n: int) -> tuple[np.ndarray, bool]:
    """Points as an (m, n) array, and whether ``z`` was a single point."""
    pts = np.asarray(z, dtype=complex)
    single = pts.ndim == 0 if n == 1 else pts.shape == (n,)
    if single or (n == 1 and pts.ndim == 1):
        pts = pts.reshape(-1, n)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValueError(f"expected points in C^{n}, got shape {pts.shape}")
    return pts, single


def _kernel_points(spec: ModelSpectrum, q: int, z, w) -> tuple[np.ndarray, np.ndarray, bool]:
    """Validated degree and point arrays of a kernel call; True for one point pair."""
    if not 0 <= q <= spec.n:
        raise ValueError(f"form degree q={q} outside [0, {spec.n}]")
    zp, z_single = _points(z, spec.n)
    wp, w_single = _points(w, spec.n)
    return zp, wp, z_single and w_single


def _zero_kernel(q: int, zp: np.ndarray, wp: np.ndarray, single: bool) -> FormKernelValue:
    if single:
        return FormKernelValue.zero(q)
    return FormKernelValue.principal(q, np.zeros((len(zp), len(wp)), dtype=complex))


def multi_indices(n: int, max_order: int) -> Iterator[tuple[int, ...]]:
    """All alpha in N^n with |alpha| <= max_order, in graded lexicographic order."""
    for total in range(max_order + 1):
        for head in itertools.combinations_with_replacement(range(n), total):
            alpha = [0] * n
            for i in head:
                alpha[i] += 1
            yield tuple(alpha)


def eval_model_bergman(spec: ModelSpectrum, q: int, z, w) -> FormKernelValue:
    """Exact model projector kernel in degree q on the point sets z and w.

    The principal entry is the (m_z, m_w) matrix K[i, j] = P(z_i, w_j), or a
    complex number when z and w are single points.  Every q != q0 gives the
    zero kernel (the model Laplacian has trivial kernel there): a zero matrix
    of shape (m_z, m_w) on point sets, no entries at a single point pair.
    """
    zp, wp, single = _kernel_points(spec, q, z, w)
    if q != spec.q0:
        return _zero_kernel(q, zp, wp, single)
    lam = np.abs(np.asarray(spec.lambdas))
    zb, wb = zp[:, None, :], wp[None, :, :]
    cross = np.where(
        np.arange(spec.n) < spec.q0, lam * np.conj(zb) * wb, lam * zb * np.conj(wb)
    ).sum(axis=-1)
    quad = (lam * (np.abs(zb) ** 2 + np.abs(wb) ** 2)).sum(axis=-1)
    prefactor = float(np.prod(lam)) / math.pi ** spec.n
    kern = prefactor * np.exp(2.0 * cross - quad)
    return FormKernelValue.principal(q, kern[0, 0] if single else kern)


def _basis_matrix(spec: ModelSpectrum, alphas, zp: np.ndarray) -> np.ndarray:
    """B[alpha, p] = Psi_alpha(z_p) for an (m, n) point array."""
    table = [MultiIndex(tuple(a)).entries for a in alphas]
    if any(len(a) != spec.n for a in table):
        raise ValueError(f"multi-index length does not match n={spec.n}")
    lam = np.abs(np.asarray(spec.lambdas))
    norms = np.empty(len(table))
    for k, a in enumerate(table):
        norm2 = 2.0 ** sum(a) * float(np.prod(lam ** (np.asarray(a) + 1)))
        norm2 /= math.pi ** spec.n * float(np.prod([math.factorial(ai) for ai in a]))
        norms[k] = math.sqrt(norm2)
    coords = np.where(np.arange(spec.n) < spec.q0, np.conj(zp), zp)
    exps = np.asarray(table, dtype=int).reshape(len(table), spec.n)
    mono = np.prod(coords[None, :, :] ** exps[:, None, :], axis=-1)
    gauss = np.exp(-(lam * np.abs(zp) ** 2).sum(axis=-1))
    return norms[:, None] * mono * gauss[None, :]


def eval_model_basis(spec: ModelSpectrum, alpha, z) -> complex | np.ndarray:
    """Orthonormal kernel basis elements Psi_alpha, coefficients on dzbar^1..dzbar^q0.

    Psi_alpha = sqrt(2^|alpha| prod_i |lambda_i|^(alpha_i + 1) / (pi^n alpha!))
                * z_q^alpha * e^{-sum_i |lambda_i| |z^i|^2},

    where the mixed monomial z_q^alpha conjugates the first q0 coordinates.
    ``alpha`` is one multi-index or a sequence of them, and ``z`` a point set.
    Returns the (len(alphas), m) matrix B[alpha, p] = Psi_alpha(z_p), or a
    complex number for a single multi-index at a single point.
    """
    single_alpha = isinstance(alpha, MultiIndex) or all(np.isscalar(a) for a in alpha)
    zp, z_single = _points(z, spec.n)
    basis = _basis_matrix(spec, [alpha] if single_alpha else alpha, zp)
    return complex(basis[0, 0]) if single_alpha and z_single else basis


def model_kernel_from_basis(spec: ModelSpectrum, q: int, degree: int, z, w) -> FormKernelValue:
    """Truncated basis expansion sum_{|alpha| <= degree} Psi_alpha(z) Psi_alpha(w)*.

    Independent oracle for :func:`eval_model_bergman`, with the same point
    shapes and return values; converges to it as degree grows, uniformly on
    compact sets.  Zero kernel when q != q0.
    """
    zp, wp, single = _kernel_points(spec, q, z, w)
    if q != spec.q0:
        return _zero_kernel(q, zp, wp, single)
    alphas = tuple(multi_indices(spec.n, degree))
    kern = _basis_matrix(spec, alphas, zp).T @ _basis_matrix(spec, alphas, wp).conj()
    return FormKernelValue.principal(q, kern[0, 0] if single else kern)
