"""Weight polynomials, gauge normalization, scaling, and extended weights.

A local weight is a real-valued polynomial phi(z) = sum c_ab z^a zbar^b on C
(a, b >= 0, c_ab = conj(c_ba)).  Weight families phi_k = C_k * base + sum
eps_k * perturbation model sequences of Hermitian metrics whose curvature
grows like C_k; scaling by 1/sqrt(C_k) drives them to their quadratic model.
Extended weights blend a scaled weight into its quadratic model outside a ball
of radius C_k^epsilon, which keeps e^{-2 phi} integrable for the holomorphic
Gram of the Bergman sweep.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Polynomial",
    "WeightPolynomial",
    "CkRule",
    "Perturbation",
    "WeightFamily",
    "ExtendedWeight",
    "real_term",
    "normalize_gauge",
    "scale_weight",
    "extend_weight",
]

Key = tuple[int, int]


def _clean(coeffs: dict) -> dict[Key, complex]:
    out: dict[Key, complex] = {}
    for (a, b), c in coeffs.items():
        a, b = int(a), int(b)
        if a < 0 or b < 0:
            raise ValueError(f"negative exponent in {(a, b)}")
        c = complex(c)
        if not cmath.isfinite(c):
            raise ValueError(f"coefficient of {(a, b)} must be a finite number, got {c}")
        if c != 0:
            out[(a, b)] = out.get((a, b), 0j) + c
    return {k: v for k, v in out.items() if v != 0}


@dataclass(frozen=True)
class Polynomial:
    """Polynomial sum c_ab z^a zbar^b on C, keyed by (a, b), with no reality constraint."""

    coeffs: dict[Key, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _clean(self.coeffs))

    @property
    def degree(self) -> int:
        return max((a + b for a, b in self.coeffs), default=0)

    def value(self, pts) -> np.ndarray:
        """Evaluate at complex points of any shape."""
        z = np.asarray(pts, dtype=complex)
        zc = np.conj(z)
        out = np.zeros(z.shape, dtype=complex)
        for (a, b), c in self.coeffs.items():
            term = np.full(z.shape, c, dtype=complex)
            if a:
                term = term * z**a
            if b:
                term = term * zc**b
            out += term
        return out

    def d_z(self) -> "Polynomial":
        """Wirtinger derivative d/dz as a new polynomial."""
        return Polynomial({(a - 1, b): a * c for (a, b), c in self.coeffs.items() if a})

    def d_zbar(self) -> "Polynomial":
        """Wirtinger derivative d/dzbar as a new polynomial."""
        return Polynomial({(a, b - 1): b * c for (a, b), c in self.coeffs.items() if b})

    def _combine(self, other: "Polynomial", sign: float) -> dict[Key, complex]:
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0j) + sign * c
        return out

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return type(self)(self._combine(other, 1.0))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return type(self)(self._combine(other, -1.0))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))


@dataclass(frozen=True, eq=False)
class WeightPolynomial(Polynomial):
    """Real-valued weight polynomial: coefficients satisfy c_ab = conj(c_ba)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        for (a, b), c in self.coeffs.items():
            mirror = self.coeffs.get((b, a), 0j)
            if abs(c - np.conj(mirror)) > 1e-12 * (1.0 + abs(c)):
                raise ValueError(f"weight not real: c{(a, b)}={c} vs conj(c{(b, a)})={mirror}")

    @classmethod
    def quadratic(cls, lambdas: Sequence[float]) -> "WeightPolynomial":
        """The model weight lambda |z|^2, from the one-element sequence (lambda,)."""
        if len(lambdas) != 1:
            raise ValueError(f"weights live on C: expected one lambda, got {len(lambdas)}")
        return cls({(1, 1): complex(lambdas[0])})

    def value(self, pts) -> np.ndarray:
        return super().value(pts).real

    @property
    def charge_step(self) -> int:
        """g = gcd |a - b| over the monomials z^a zbar^b: the Laplacian couples charges mod g."""
        return math.gcd(*(abs(a - b) for a, b in self.coeffs))


def real_term(n: int, alpha: Sequence[int], beta: Sequence[int], amplitude: complex) -> WeightPolynomial:
    """Real weight term c z^alpha zbar^beta + conj(c) z^beta zbar^alpha on C.

    ``n`` must be 1 and ``alpha``, ``beta`` one-entry exponents such as (3,).
    For alpha == beta the mirror coincides with the term itself, so the
    amplitude must be real and the result is amplitude * |z|^(2 alpha).
    """
    if n != 1 or len(alpha) != 1 or len(beta) != 1:
        raise ValueError(f"weights live on C (dimension 1): got n={n}, exponents {alpha}, {beta}")
    (a,), (b,) = alpha, beta
    c = complex(amplitude)
    if a == b:
        if c.imag != 0:
            raise ValueError("diagonal term needs a real amplitude")
        return WeightPolynomial({(a, b): c})
    return WeightPolynomial({(a, b): c, (b, a): np.conj(c)})


def normalize_gauge(phi: WeightPolynomial) -> tuple[WeightPolynomial, WeightPolynomial]:
    """Split phi into (normalized, removed) with removed = 2 Re F.

    F collects the constant, holomorphic-linear, and holomorphic-quadratic
    coefficients of phi; subtracting 2 Re F leaves a weight with no constant
    term and no pure z^a / zbar^b terms of order <= 2.  The split is exact:
    normalized + removed = phi coefficient by coefficient.
    """
    kept: dict[Key, complex] = {}
    removed: dict[Key, complex] = {}
    for (a, b), c in phi.coeffs.items():
        if (b == 0 and a <= 2) or (a == 0 and b <= 2):
            removed[(a, b)] = c
        else:
            kept[(a, b)] = c
    return WeightPolynomial(kept), WeightPolynomial(removed)


@dataclass(frozen=True)
class CkRule:
    """Geometric curvature schedule C_k = base^k."""

    base: float

    def __post_init__(self) -> None:
        if not self.base > 1:
            raise ValueError("C_k rule must have base > 1 so C_k -> infinity")

    def __call__(self, k: int) -> float:
        return float(self.base) ** k


@dataclass(frozen=True)
class Perturbation:
    """A perturbation shape with power-law amplitude eps_k = C_k^gamma, gamma < 1."""

    shape: WeightPolynomial
    gamma: float

    def __post_init__(self) -> None:
        if not self.gamma < 1:
            raise ValueError("perturbation amplitude must be o(C_k): gamma < 1 required")


@dataclass(frozen=True)
class WeightFamily:
    """Weight sequence phi_k = C_k * base + sum_i C_k^gamma_i * perturbation_i.

    The base must be gauge-normal and carry a nonzero |z|^2 term.  Gauge
    terms (constant, linear or pure second order) change no curvature but do
    not decay under the scaling, so the scaled weights would never reach
    their quadratic model; without a |z|^2 term there is no model.
    """

    base: WeightPolynomial
    ck: CkRule
    perturbations: tuple[Perturbation, ...] = ()

    def __post_init__(self) -> None:
        gauge = ", ".join(f"{a};{b}" for a, b in sorted(normalize_gauge(self.base)[1].coeffs))
        if gauge:
            raise ValueError(
                f"base has gauge terms {gauge} (constant, linear or pure second order)"
            )
        if (1, 1) not in self.base.coeffs:
            raise ValueError("base needs a nonzero |z|^2 term (1;1;lambda, the quadratic model)")

    def c_value(self, k: int) -> float:
        return self.ck(k)

    @property
    def is_model(self) -> bool:
        """No perturbation, and the base is its |z|^2 term: every level scales to the model."""
        return not self.perturbations and self.base == self.model_weight()

    @property
    def rate(self) -> float | None:
        """Exponent r with |phi_(k) - model| ~ C_k^r: the top gamma - (a+b)/2 of ``scale_weight``.

        Every term but the base's |z|^2 one counts; constants cancel from the
        localized kernel and do not.  None when no term is left (the model).
        """
        shapes = [(self.base - self.model_weight(), 1.0)]
        shapes += [(p.shape, p.gamma) for p in self.perturbations]
        exponents = [g - (a + b) / 2.0 for s, g in shapes for a, b in s.coeffs if a + b]
        return max(exponents, default=None)

    @property
    def charge_step(self) -> int:
        """The charge step of every level: g over the base and perturbation monomials."""
        return math.gcd(self.base.charge_step, *(p.shape.charge_step for p in self.perturbations))

    def model_weight(self) -> WeightPolynomial:
        """The |z|^2 term of the base, i.e. the quadratic model."""
        return WeightPolynomial({(1, 1): self.base.coeffs[(1, 1)]})

    def model_spectrum(self):
        """Curvature eigenvalue of the model: the |z|^2 coefficient of the base."""
        from .model import ModelSpectrum

        return ModelSpectrum((self.base.coeffs[(1, 1)].real,))


def scale_weight(family: WeightFamily, k: int) -> WeightPolynomial:
    """Scaled weight phi_(k)(z) = phi_k(z / sqrt(C_k)) by exact coefficient transform.

    Each term c z^a zbar^b of C_k^gamma * shape (gamma = 1 for the base) is rounded
    once, to c * C_k^(gamma - (a+b)/2): the base's |z|^2 term stays exactly lambda.
    """
    ck = family.c_value(k)
    out = WeightPolynomial()
    for shape, gamma in [(family.base, 1.0)] + [(p.shape, p.gamma) for p in family.perturbations]:
        scaled = {(a, b): c * ck ** (gamma - (a + b) / 2.0) for (a, b), c in shape.coeffs.items()}
        out = out + WeightPolynomial(scaled)
    return out


def _soft(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """e^{-1/t} extended by zero to t <= 0, with first and second derivatives."""
    t = np.asarray(t, dtype=float)
    pos = t > 0
    safe = np.where(pos, t, 1.0)
    with np.errstate(over="ignore", under="ignore"):
        f = np.where(pos, np.exp(-1.0 / safe), 0.0)
    f1 = np.where(pos, f / safe**2, 0.0)
    f2 = np.where(pos, f * (1.0 - 2.0 * safe) / safe**4, 0.0)
    return f, f1, f2


def _cutoff_profile(u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smooth transition P(u) with P = 1 for u <= 1 and P = 0 for u >= 4.

    Built from the standard e^{-1/t} splines; returns (P, P', P'') so callers
    get analytic derivatives of the blend.  In the radial variable u = |z|^2/R^2
    the inner plateau is the ball B(R) and the support ends at B(2R).
    """
    u = np.asarray(u, dtype=float)
    a, a1n, a2 = _soft(4.0 - u)
    b, b1, b2 = _soft(u - 1.0)
    a1 = -a1n
    s = a + b
    s1 = a1 + b1
    g = a1 * b - a * b1
    g1 = a2 * b - a * b2
    p = a / s
    p1 = g / s**2
    p2 = g1 / s**2 - 2.0 * g * s1 / s**3
    return p, p1, p2


@dataclass(frozen=True)
class ExtendedWeight:
    """Blend of a scaled weight into its quadratic model outside a growing ball.

    Evaluates to ``inner`` on |z| <= R and to ``model`` on |z| >= 2R with
    R = C_k^epsilon, smoothly in between:

      phi_tilde(z) = model(z) + P(|z|^2 / R^2) * (inner(z) - model(z)).

    All derivatives are analytic (polynomial calculus plus the profile chain
    rule).
    """

    inner: WeightPolynomial
    model: WeightPolynomial
    epsilon: float
    ck: float

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0 / 6.0:
            raise ValueError("epsilon must lie in (0, 1/6)")
        if not self.ck > 0:
            raise ValueError("C_k must be positive")

    @property
    def radius(self) -> float:
        return self.ck**self.epsilon

    @functools.cached_property
    def delta(self) -> Polynomial:
        """inner - model, built once per instance."""
        return Polynomial((self.inner - self.model).coeffs)

    def _u(self, z: np.ndarray) -> np.ndarray:
        return np.abs(z) ** 2 / self.radius**2

    def value(self, pts) -> np.ndarray:
        z = np.asarray(pts, dtype=complex)
        p, _, _ = _cutoff_profile(self._u(z))
        return self.model.value(z) + p * self.delta.value(z).real

    def d_z(self, pts) -> np.ndarray:
        z = np.asarray(pts, dtype=complex)
        p, p1, _ = _cutoff_profile(self._u(z))
        d = self.delta
        out = self.model.d_z().value(z)
        out = out + p1 * (np.conj(z) / self.radius**2) * d.value(z)
        return out + p * d.d_z().value(z)

    def d_zbar(self, pts) -> np.ndarray:
        return np.conj(self.d_z(pts))

    def d2_zzbar(self, pts) -> np.ndarray:
        """Mixed second derivative d^2 phi_tilde / dz dzbar."""
        z = np.asarray(pts, dtype=complex)
        r2 = self.radius**2
        p, p1, p2 = _cutoff_profile(self._u(z))
        d = self.delta
        dv = d.value(z)
        ui = np.conj(z) / r2
        ujb = z / r2
        out = self.model.d_z().d_zbar().value(z)
        out = out + p2 * ujb * ui * dv
        out = out + p1 * dv / r2
        out = out + p1 * ui * d.d_zbar().value(z)
        out = out + p1 * ujb * d.d_z().value(z)
        return out + p * d.d_z().d_zbar().value(z)

    def d2_zz(self, pts) -> np.ndarray:
        z = np.asarray(pts, dtype=complex)
        p, p1, p2 = _cutoff_profile(self._u(z))
        d = self.delta
        u = np.conj(z) / self.radius**2
        out = self.model.d_z().d_z().value(z)
        out = out + p2 * u * u * d.value(z)
        out = out + 2.0 * p1 * u * d.d_z().value(z)
        return out + p * d.d_z().d_z().value(z)

    def c2_sup_to_model(self, n_radial: int = 64, n_angle: int = 16) -> float:
        """Measured sup over C of the C^2 distance to the model.

        The difference vanishes identically outside B(2R), so a polar grid up
        to 2R plus a margin covers the whole plane.
        """
        radii = np.linspace(0.0, 2.2 * self.radius, n_radial + 1)[1:]
        angles = np.linspace(0.0, 2.0 * math.pi, n_angle, endpoint=False)
        zs = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
        pairs = [
            (self.value(zs), self.model.value(zs)),
            (self.d_z(zs), self.model.d_z().value(zs)),
            (self.d2_zz(zs), self.model.d_z().d_z().value(zs)),
            (self.d2_zzbar(zs), self.model.d_z().d_zbar().value(zs)),
        ]
        return max(float(np.abs(a - b).max()) for a, b in pairs)


def extend_weight(
    scaled: WeightPolynomial, model: WeightPolynomial, epsilon: float, ck: float
) -> ExtendedWeight:
    """Extended weight equal to ``scaled`` on B(C_k^eps) and ``model`` outside B(2 C_k^eps)."""
    return ExtendedWeight(inner=scaled, model=model, epsilon=float(epsilon), ck=float(ck))
