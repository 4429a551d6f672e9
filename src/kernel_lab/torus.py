"""Flat-torus holomorphic Morse inequalities and the theta trace identity.

The torus is C / (Z + tau Z) with Im tau > 0, described in lattice
coordinates (x, y) in [0, 1)^2 via z = x + tau y.  The volume convention
dV = 2 * Lebesgue gives area 2 Im tau.  A bundle of degree m carries the
flat weight phi = pi m (Im z)^2 / Im tau, and the level-k weight is
k * (d * flat part + psi) with psi a mean-zero trigonometric polynomial
psi(x, y) = sum_j a_j cos(2 pi (m1_j x + m2_j y)).

The curvature field per unit k is R = 2 * d^2 phi / dz dzbar evaluated on the
unit-degree weight, so that integral of R dV = 2 pi d and the alternating sum
of Morse integrals reproduces k * d exactly.  Holomorphic sections at level k
are the k*d classical theta functions; their Gram matrix under the weighted
volume gives the Bergman projector whose integrated trace must equal the
Dolbeault dimension h^0 = k*d.

On the periodic lattice grid the weighted theta series (Mumford, Tata
Lectures on Theta I, I.3) separates into Gaussian y-factors and exact
x-phases, so each section is tabulated as one matrix product over the
lattice index, with exponentials taken per grid axis, not per grid point.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .galerkin import GramConditioningError

DEAD_BAND = 1e-12
DEFAULT_GRID = 64
DEFAULT_GRAM_GRID = 48
DEFAULT_TRACE_GRID = 64


class BoundaryCrossingWarning(UserWarning):
    """The integration grid crosses the degenerate set {R = 0}."""


@dataclass(frozen=True)
class TorusBundle:
    """Degree-d line bundle data on C / (Z + tau Z) with weight perturbation psi."""

    tau: complex
    degree: int
    psi_modes: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self) -> None:
        tau = complex(self.tau)
        object.__setattr__(self, "tau", tau)
        if not tau.imag > 0:
            raise ValueError("lattice parameter needs Im tau > 0")
        if self.degree == 0:
            raise ValueError("flat (degree 0) bundles are excluded")
        seen: set[tuple[int, int]] = set()
        modes = []
        for m1, m2, amp in self.psi_modes:
            m1, m2, amp = int(m1), int(m2), float(amp)
            if (m1, m2) == (0, 0):
                raise ValueError("psi must have zero mean: (0, 0) mode not allowed")
            if (m1, m2) in seen:
                raise ValueError(f"duplicate psi mode {(m1, m2)}")
            seen.add((m1, m2))
            if amp != 0.0:
                modes.append((m1, m2, amp))
        object.__setattr__(self, "psi_modes", tuple(modes))

    @property
    def area(self) -> float:
        return 2.0 * self.tau.imag

    @property
    def top_frequency(self) -> int:
        freqs = [max(abs(m1), abs(m2)) for m1, m2, _ in self.psi_modes]
        return max(freqs, default=1)

    def psi_values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.zeros(np.broadcast(x, y).shape)
        for m1, m2, amp in self.psi_modes:
            out += amp * np.cos(2.0 * math.pi * (m1 * x + m2 * y))
        return out

    def curvature_values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Limit curvature R(x, y): flat part pi d / Im tau plus the psi Hessian."""
        tau2 = self.tau.imag
        out = np.full(np.broadcast(x, y).shape, math.pi * self.degree / tau2)
        for m1, m2, amp in self.psi_modes:
            freq2 = abs(m1 * self.tau - m2) ** 2
            out -= (
                2.0
                * math.pi**2
                * amp
                * freq2
                / tau2**2
                * np.cos(2.0 * math.pi * (m1 * x + m2 * y))
            )
        return out


@dataclass(frozen=True, eq=False)
class CurvatureField:
    """Grid samples of the limit curvature with a sign classification.

    ``labels`` holds 0 on M(0) (R > dead band), 1 on M(1) (R < -dead band)
    and -1 on the degenerate band |R| <= dead band.
    """

    bundle: TorusBundle
    grid_n: int
    values: np.ndarray
    labels: np.ndarray

    @functools.cached_property
    def sign_changing(self) -> bool:
        return bool((self.labels == 0).any() and (self.labels == 1).any())

    @functools.cached_property
    def _tally(self) -> tuple[tuple[float, float], int, float]:
        """Sums of |R| over M(0) and M(1), sign-crossing grid edges, and max |R|."""
        absr = np.abs(self.values)
        sums = (float(absr[self.labels == 0].sum()), float(absr[self.labels == 1].sum()))
        crossings = sum(
            int((self.labels != np.roll(self.labels, 1, axis=axis)).sum()) for axis in (0, 1)
        )
        return sums, crossings, float(absr.max())

    def measure(self, label: int) -> float:
        cell = self.bundle.area / self.grid_n**2
        return float((self.labels == label).sum()) * cell


def _lattice_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    t = np.arange(n) / n
    return np.meshgrid(t, t, indexing="ij")


def _check_resolution(bundle: TorusBundle, grid_n: int) -> None:
    need = 8 * bundle.top_frequency
    if grid_n < need:
        raise ValueError(
            f"grid with {grid_n} points per axis cannot resolve psi; need >= {need}"
        )


def curvature_field(bundle: TorusBundle, grid_n: int = DEFAULT_GRID) -> CurvatureField:
    """Sample the limit curvature on an n x n lattice grid and classify signs."""
    _check_resolution(bundle, grid_n)
    x, y = _lattice_grid(grid_n)
    values = bundle.curvature_values(x, y)
    labels = np.where(values > DEAD_BAND, 0, np.where(values < -DEAD_BAND, 1, -1))
    return CurvatureField(
        bundle=bundle, grid_n=grid_n, values=values, labels=labels.astype(np.int8)
    )


def morse_integrals(
    bundle: TorusBundle,
    k: int,
    q: int,
    grid_n: int = DEFAULT_GRID,
) -> float:
    """Morse integral (k / 2 pi) * integral over M(q) of |R| dV at level k.

    Riemann sums on the periodic lattice grid are spectrally accurate while
    M(q) is the whole torus; once {R = 0} cuts through the grid the error
    drops to first order and a BoundaryCrossingWarning carries a rough
    estimate (sign-boundary cell count * cell volume * max |R|).
    """
    if q not in (0, 1):
        raise ValueError("torus Morse integrals take q in {0, 1}")
    if k == 0:
        raise ValueError("level k must be nonzero")
    return _morse_integral(curvature_field(bundle, grid_n), k, q)


def _morse_integral(field: CurvatureField, k: int, q: int) -> float:
    """Morse integral of ``morse_integrals`` from an already sampled field's tally."""
    cell = field.bundle.area / field.grid_n**2
    sums, crossings, max_abs = field._tally
    if field.sign_changing:
        estimate = k / (2.0 * math.pi) * crossings * cell * max_abs
        warnings.warn(
            f"grid crosses the degenerate set; integration error is first order"
            f" (rough estimate {estimate:.3e})",
            BoundaryCrossingWarning,
            stacklevel=3,
        )
    return k / (2.0 * math.pi) * (sums[q] * cell)


def dolbeault_dims(bundle: TorusBundle, k: int) -> tuple[int, int]:
    """Dimensions (h^0, h^1) of the degree k*d bundle on the elliptic curve.

    Degree kd > 0 gives (kd, 0) and kd < 0 gives (0, -kd); the flat kd = 0
    case is excluded.  These are classical facts used as the independent
    reference for the Morse audit, not derived from the kernels here.
    """
    kd = k * bundle.degree
    if kd == 0:
        raise ValueError("k * degree must be nonzero")
    return (kd, 0) if kd > 0 else (0, -kd)


def _theta_levels(bundle: TorusBundle, ks, max_k: int) -> tuple[int, ...]:
    """The levels among ``ks`` whose theta trace is checked: 0 < k <= max_k and k * degree > 0."""
    return tuple(k for k in ks if 0 < k <= max_k and k * bundle.degree > 0)


def _theta_radius(tau2: float, m: int) -> int:
    spread = math.sqrt(1.0 + 18.0 * math.log(10.0) / (math.pi * tau2 * m))
    return max(6, math.ceil(1.0 + spread) + 2)


@functools.lru_cache(maxsize=2)
def _psi_table(bundle: TorusBundle, n: int) -> np.ndarray:
    """psi on the n x n lattice grid as one column in ``_lattice_grid`` order; read-only."""
    table = bundle.psi_values(*_lattice_grid(n)).reshape(-1, 1)
    table.flags.writeable = False
    return table


def _theta_matrix(bundle: TorusBundle, k: int, n: int, radius: int) -> np.ndarray:
    """Values theta_j(z) e^{-phi_k(z)} on the n x n lattice grid, one column per j.

    Rows follow ``_lattice_grid``'s x-major order.  With z = x + tau y and
    s = l + j/m, each lattice term times the flat weight is the product of
    g(y, s) = exp(-pi m tau2 (s + y)^2 + i pi tau1 m (s^2 + 2 s y)), of
    modulus at most 1, and the phase exp(2 pi i (m s) x) with m s an integer,
    taken exactly from the n-th roots of unity.  The table is one batched
    (n x L) @ (L x n) product per section j, times e^{-k psi} when psi != 0.
    """
    tau = bundle.tau
    m = k * bundle.degree
    freq = m * np.arange(-radius, radius + 1)[None, :] + np.arange(m)[:, None]
    s = (freq / m)[:, :, None]
    t = np.arange(n)
    y = t / n
    phase = np.exp(2j * math.pi * y)[freq[:, None, :] * t[:, None] % n]
    decay = np.exp(
        -math.pi * m * tau.imag * (s + y) ** 2
        + 1j * math.pi * tau.real * m * (s**2 + 2.0 * s * y)
    )
    values = np.matmul(phase, decay).transpose(1, 2, 0).reshape(n * n, m)
    if bundle.psi_modes:
        values *= np.exp(-k * _psi_table(bundle, n))
    return values


@dataclass(frozen=True, eq=False)
class TraceCheckResult:
    """Outcome of integrating the theta Bergman projector trace."""

    dimension: int
    trace: float
    deviation: float
    lattice_radius: int
    truncation_estimate: float
    gram_grid: int
    trace_grid: int


def theta_trace_check(
    bundle: TorusBundle,
    k: int,
    gram_grid: int = DEFAULT_GRAM_GRID,
    trace_grid: int = DEFAULT_TRACE_GRID,
) -> TraceCheckResult:
    """Check that the integrated Bergman trace equals the dimension k*d.

    The Gram matrix of the k*d theta functions is assembled on one periodic
    lattice grid and the projector trace is integrated on a different one, so
    the identity trace = rank is a genuine quadrature statement rather than a
    restatement of the matrix algebra.  Raises GramConditioningError when the
    Gram matrix is not positive definite.

    The trace is the sum over the P trace-grid points of v_p G^-1 v_p^H, with
    v_p the row of section values at point p.  It is contracted over the grid
    first: with G = L L^H and H = V^H V the m x m inner products of the trace
    table V, the sum is tr(L^-1 H L^-H), taken from two solves with L on
    m x m matrices rather than one solve with P right-hand sides.
    """
    m = k * bundle.degree
    if m <= 0:
        raise ValueError("theta sections need k * degree > 0")
    if gram_grid == trace_grid:
        raise ValueError("trace grid must differ from the Gram grid")
    _check_resolution(bundle, min(gram_grid, trace_grid))
    tau2 = bundle.tau.imag
    radius = _theta_radius(tau2, m)
    truncation = 2.0 * math.exp(-math.pi * m * tau2 * (radius - 1) ** 2)

    vg = _theta_matrix(bundle, k, gram_grid, radius)
    gram = vg.conj().T @ vg * (bundle.area / gram_grid**2)
    gram = 0.5 * (gram + gram.conj().T)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as err:
        raise GramConditioningError(f"theta Gram matrix is not positive definite: {err}")

    vt = _theta_matrix(bundle, k, trace_grid, radius)
    half = np.linalg.solve(chol, vt.conj().T @ vt)
    total = np.trace(np.linalg.solve(chol, half.conj().T)).real
    trace = float(total) * bundle.area / trace_grid**2
    return TraceCheckResult(
        dimension=m,
        trace=trace,
        deviation=abs(trace - m),
        lattice_radius=radius,
        truncation_estimate=truncation,
        gram_grid=gram_grid,
        trace_grid=trace_grid,
    )


@dataclass(frozen=True, eq=False)
class MorseReport:
    """Per-k Morse integrals, Dolbeault dimensions and inequality margins.

    morse1 = I0 - h0 (weak inequality, >= 0, zero iff the gap condition bites),
    morse2 = (h0 - h1) - (I0 - I1) (strong inequality at q = 1; identically
    ~0 on the torus), morse3 = (h0 - h1) - (k / 2 pi) * integral of R dV
    (asymptotic Riemann-Roch; exactly zero here).  ``sign_changing`` is the
    sampled curvature field's: whether R takes both signs on the grid.
    """

    ks: tuple[int, ...]
    h0: tuple[int, ...]
    h1: tuple[int, ...]
    i0: tuple[float, ...]
    i1: tuple[float, ...]
    morse1: tuple[float, ...]
    morse2: tuple[float, ...]
    morse3: tuple[float, ...]
    grid_n: int
    sign_changing: bool


def audit_morse(
    bundle: TorusBundle, ks: tuple[int, ...], grid_n: int = DEFAULT_GRID
) -> MorseReport:
    """Audit the three Morse inequalities against the dimension oracle."""
    if not ks:
        raise ValueError("need at least one level k")
    h0s, h1s, i0s, i1s = [], [], [], []
    m1s, m2s, m3s = [], [], []
    field = curvature_field(bundle, grid_n)
    cell = bundle.area / grid_n**2
    total_r = float(field.values.sum()) * cell
    for k in ks:
        h0, h1 = dolbeault_dims(bundle, k)
        i0 = _morse_integral(field, k, 0)
        i1 = _morse_integral(field, k, 1)
        h0s.append(h0)
        h1s.append(h1)
        i0s.append(i0)
        i1s.append(i1)
        m1s.append(i0 - h0)
        m2s.append((h0 - h1) - (i0 - i1))
        m3s.append((h0 - h1) - k / (2.0 * math.pi) * total_r)
    return MorseReport(
        ks=tuple(ks),
        h0=tuple(h0s),
        h1=tuple(h1s),
        i0=tuple(i0s),
        i1=tuple(i1s),
        morse1=tuple(m1s),
        morse2=tuple(m2s),
        morse3=tuple(m3s),
        grid_n=grid_n,
        sign_changing=field.sign_changing,
    )
