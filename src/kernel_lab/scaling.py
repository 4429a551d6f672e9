"""Convergence experiments for scaled Bergman, spectral and heat kernels.

Each experiment walks a weight family phi_k = C_k * base + sum_j C_k^{gamma_j}
* pert_j through increasing k, rescales to unit curvature (z -> z / sqrt(C_k)),
and compares Galerkin kernels of the scaled weight against the closed-form
model kernel on a fixed grid.  Everything here is n = 1.  The spectral and
heat kernels belong to the exact Laplacian of the scaled polynomial itself,
which needs no cut-off.  Only the Bergman run blends the scaled weight into
its quadratic model outside |z| = C_k^{1/7}: its holomorphic Gram
integrates e^{-2 phi}, which the blend keeps finite.  The exponent 1/7 is a
constant (``EPSILON``), and the Gram's quadrature order follows the degree.

Reported errors are sup-norms over the same grid for every k; rates are least
squares slopes of log(error) against log(C_k) over the largest k values.  A
term of total order m in the weight scales as C_k^{gamma - m/2}, so any
perturbation with gamma < 1 and order >= 2 decays and the errors should
shrink; the fitted slope measures how fast.

Sweeps build once per distinct level weight.  A model family (no
perturbation, base equal to its |z|^2 term) scales to its model at every k,
whatever its C_k rule, so one Galerkin system, or one holomorphic Gram and
its grid error, serves the whole run of k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .galerkin import (
    GramConditioningError,
    _charge_classes,
    _heat_weights,
    _kernel_sum,
    _projector_selection,
    bergman_kernel_numeric,
    build_system,
    holomorphic_subsystem,
    spectral_gap,
    spectral_projector_kernel,
)
from .model import ModelSpectrum, eval_model_bergman
from .weights import (
    ExtendedWeight,
    WeightFamily,
    WeightPolynomial,
    extend_weight,
    scale_weight,
)

DEFAULT_DEGREE = 30
# the Bergman blend's radius is C_k^EPSILON, inside (0, 1/6): a scaled cubic term,
# C_k^(-1/2) |z|^3, still vanishes on the ball as C_k^(-1/14)
EPSILON = 1.0 / 7.0
DEFAULT_KS = tuple(range(1, 8))


def kernel_grid(points_per_axis: int = 3, radius: float = 1.5) -> np.ndarray:
    """Flat array of complex tensor-grid points with |z| <= radius."""
    if points_per_axis < 1:
        raise ValueError("need at least one point per axis")
    axis = np.linspace(-radius, radius, points_per_axis) / math.sqrt(2.0)
    if points_per_axis == 1:
        axis = np.zeros(1)
    return (axis[:, None] + 1j * axis[None, :]).ravel()


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Per-k sup-grid deviations of a scaled kernel from its model limit."""

    ks: tuple[int, ...]
    c_values: tuple[float, ...]
    errors: tuple[float, ...]
    ranks: tuple[int, ...] | None
    slope: float | None
    slope_residual: float | None
    grid: np.ndarray
    threshold_exponent: float | None = None
    failures: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.ks, self.ks[1:])):
            raise ValueError("k values must be strictly increasing")
        if any(e < 0 for e in self.errors):
            raise ValueError("errors must be nonnegative")
        if len(self.c_values) != len(self.ks) or len(self.errors) != len(self.ks):
            raise ValueError("per-k fields must align with ks")


def fit_loglog(
    c_values, errors, points: int = 4
) -> tuple[float, float] | tuple[None, None]:
    """Slope and rms residual of log(error) vs log(C_k) over the largest C_k.

    Zero errors carry no rate information and are skipped; with fewer than two
    usable points the fit is undefined and (None, None) is returned.
    """
    pairs = [(c, e) for c, e in zip(c_values, errors) if e > 0.0]
    pairs = pairs[-points:]
    if len(pairs) < 2:
        return None, None
    x = np.log([c for c, _ in pairs])
    y = np.log([e for _, e in pairs])
    (slope, _), res, *_ = np.polyfit(x, y, 1, full=True)
    rms = math.sqrt(float(res[0]) / len(pairs)) if res.size else 0.0
    return float(slope), rms


def fit_exp_decay(ts, values) -> float | None:
    """Least-squares slope of log(value) against t; None with < 2 usable points."""
    pairs = [(t, v) for t, v in zip(ts, values) if v > 0.0]
    if len(pairs) < 2:
        return None
    x = np.asarray([t for t, _ in pairs], dtype=float)
    y = np.log([v for _, v in pairs])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def _level(family: WeightFamily, k: int) -> ExtendedWeight | WeightPolynomial:
    """What the Bergman sweep builds at level k: a model family's model, else the scaled blend.

    A model family scales to its model at every k: one exact build serves all k.
    """
    if family.is_model:
        return family.model_weight()
    return extend_weight(
        scale_weight(family, k), family.model_weight(), EPSILON, family.c_value(k)
    )


@dataclass(frozen=True)
class _Dilated:
    """The weight y -> weight(root * y), read only through its values."""

    weight: ExtendedWeight | WeightPolynomial
    root: float

    def value(self, y: np.ndarray) -> np.ndarray:
        return self.weight.value(self.root * y)


def _sweep(level: Callable, ks, build: Callable, failures: list | None = None):
    """Yield (k, build(level(k))) over the ks, building once per run of equal level weights.

    Only the last result is held.  A GramConditioningError is recorded in
    ``failures`` as ``k=<k>: <message>`` and its k skipped, or re-raised
    when no list is given.  Callers make ``build`` when the sweep starts,
    so the Galerkin functions it calls are looked up then, not when this
    module loads.
    """
    weight = None
    for k in ks:
        current = level(k)
        if current != weight:
            weight = result = None
            try:
                result = build(current)
            except GramConditioningError as err:
                if failures is None:
                    raise
                failures.append(f"k={k}: {err}")
                continue
            weight = current
        yield k, result


def _grid(grid) -> np.ndarray:
    return kernel_grid() if grid is None else np.asarray(grid, dtype=complex).ravel()


def _report(family: WeightFamily, rows: list, pts, failures: list, d=None) -> ConvergenceReport:
    """A sweep's report from its (k, error) rows, or (k, error, rank) rows for a threshold d."""
    ks = tuple(row[0] for row in rows)
    errors = tuple(row[1] for row in rows)
    cs = tuple(family.c_value(k) for k in ks)
    slope, resid = fit_loglog(cs, errors)
    return ConvergenceReport(
        ks=ks,
        c_values=cs,
        errors=errors,
        ranks=None if d is None else tuple(row[2] for row in rows),
        slope=slope,
        slope_residual=resid,
        grid=pts,
        threshold_exponent=None if d is None else float(d),
        failures=tuple(failures),
    )


@lru_cache(maxsize=1)
def _holomorphic(weight, degree: int):
    """``holomorphic_subsystem``, reused by the next equal call (a route check at a sweep's last k)."""
    return holomorphic_subsystem(weight, degree)


def _check_bergman(family: WeightFamily) -> ModelSpectrum:
    """The family's model spectrum, whose Bergman (q = 0) limit needs lambda > 0."""
    spec = family.model_spectrum()
    if spec.q0 != 0:
        raise ValueError(f"the Bergman (q = 0) kernel needs lambda > 0, got {spec.lambdas[0]:g}")
    return spec


def _gap_truncations(family: WeightFamily, degree: int) -> tuple[int, int]:
    """The coarse and fine truncation degrees of a gap run, 3D/4 and D.

    ValueError when a charge class of the family gains no state between the
    two: its block is the same in both, so ``gap_stability`` would read 0 unmeasured.
    """
    coarse, step = 3 * degree // 4, family.charge_step
    if any(idx[-1] < (coarse + 1) * (coarse + 2) // 2 for idx in _charge_classes(degree, step)):
        raise ValueError(
            f"a charge class (step {step}) gains no state from the coarse truncation"
            f" {coarse} to {degree}, so stability would go unmeasured"
        )
    return coarse, degree


def scaled_bergman_convergence(
    family: WeightFamily,
    ks: tuple[int, ...] = DEFAULT_KS,
    degree: int = DEFAULT_DEGREE,
    grid: np.ndarray | None = None,
) -> ConvergenceReport:
    """Sup-grid error of the scaled Bergman kernel against the model kernel.

    Matched signature only (n = 1, lambda > 0, q = 0): the model limit is the
    rank-one Gaussian kernel with value |lambda| / pi on the diagonal.  Ranks
    are not part of this report (the Bergman projector is used whole).  Each
    level's Gram integrates the blend at radius C_k^{1/7} by the Gauss-Hermite
    rule of order degree + 14, so no quadrature setting enters.
    """
    spec = _check_bergman(family)
    pts = _grid(grid)
    model = eval_model_bergman(spec, 0, pts, pts)

    def grid_error(weight) -> float:
        hol = _holomorphic(weight, degree)
        return float(np.abs(bergman_kernel_numeric(hol, pts, pts) - model).max())

    failures: list[str] = []
    rows = _sweep(partial(_level, family), ks, grid_error, failures)
    return _report(family, list(rows), pts, failures)


def vanishing_convergence(
    family: WeightFamily,
    ks: tuple[int, ...] = DEFAULT_KS,
    degree: int = DEFAULT_DEGREE,
    d: float = 1.0,
    grid: np.ndarray | None = None,
    *,
    q: int | None = None,
) -> ConvergenceReport:
    """Rank and sup-grid size of the scaled spectral projector at c = C_k^{-d}.

    Each level is the exact Laplacian of the scaled weight, built once per
    distinct scaled weight.  The threshold applies to the unscaled Laplacian;
    its eigenvalues are C_k times the scaled ones, so the scaled system is cut
    at C_k^{-d} / C_k.  The numerical zero band always belongs to the
    projector.  With a mismatched signature (q != q0) the gap of the scaled
    operator stays ~2|lambda|, the rank drops to 0 once C_k^{-d-1} falls below
    it, and the kernel vanishes identically; the matched q = q0 run keeps the
    full holomorphic zero band and serves as the control.
    """
    spec = family.model_spectrum()
    if d <= 0:
        raise ValueError("threshold exponent d must be positive")
    if q is None:
        q = 1 - spec.q0
    pts = _grid(grid)
    model = eval_model_bergman(spec, q, pts, pts)

    rows: list[tuple] = []
    failures: list[str] = []
    build = partial(build_system, q=q, degree=degree)
    for k, system in _sweep(partial(scale_weight, family), ks, build, failures):
        ck = family.c_value(k)
        c_scaled = ck ** (-d) / ck
        kern = spectral_projector_kernel(system, c_scaled, pts, pts)
        rank = int(_projector_selection(system, c_scaled).sum())
        rows.append((k, float(np.abs(kern - model).max()), rank))
    return _report(family, rows, pts, failures, d)


@dataclass(frozen=True, eq=False)
class HeatRouteReport:
    """Sup-grid gaps between heat kernels and the kernel projector.

    ``diffs[i, j]`` is the sup over the grid of |H(t_j) - P| for the i-th k;
    ``slopes`` are per-k decay rates of log(diff) in t (close to -gap);
    ``trace_bounds`` are sum_j max_p |psi_j(p)|^2 over nonzero modes, giving
    the a-priori bound diff <= e^{-t gap} * trace_bound; ``spread_per_t`` is
    the max-min variation across k for each t (zero for exactly scale
    invariant quadratic families).
    """

    ks: tuple[int, ...]
    c_values: tuple[float, ...]
    ts: tuple[float, ...]
    diffs: np.ndarray
    gaps: tuple[float, ...]
    slopes: tuple[float | None, ...]
    trace_bounds: tuple[float, ...]
    spread_per_t: tuple[float, ...]
    grid: np.ndarray


def heat_route_comparison(
    source: WeightFamily | ModelSpectrum,
    ks: tuple[int, ...] | None = None,
    ts: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0),
    degree: int = 24,
    grid: np.ndarray | None = None,
) -> HeatRouteReport:
    """Compare heat kernels H(t) of the scaled operator with the projector P.

    Runs in the matched degree q = q0 of the source's model spectrum, so that
    P is a genuine limit; the decay of |H(t) - P| in t then measures the
    spectral gap.  ``source`` may be a weight family (one exact system per
    distinct scaled weight, built as the sweep reaches it) or a bare n = 1 model
    spectrum (a level constant in k, with C_k = 1, reported as k = 1 by
    default).  Each system's row (heat kernel diffs, gap, slope, trace bound)
    is read from its modes on the grid once, and a k whose level repeats the
    previous one reuses it.  A family runs k = 1..5 at degree 24 by default,
    as the ``[heat]`` config section does.
    """
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t schedule must be strictly increasing")
    if isinstance(source, ModelSpectrum):
        spec, kss = source, (1,) if ks is None else tuple(ks)
        quadratic = WeightPolynomial.quadratic(source.lambdas)
        level, cs = (lambda k: quadratic), (1.0,) * len(kss)
    else:
        spec, kss = source.model_spectrum(), tuple(range(1, 6)) if ks is None else tuple(ks)
        level, cs = partial(scale_weight, source), tuple(source.c_value(k) for k in kss)
    build = partial(build_system, q=spec.q0, degree=degree)
    pts = _grid(grid)

    def row(weight) -> tuple[np.ndarray, float, float | None, float]:
        system = build(weight)
        modes = system.eval_modes(pts)
        proj = _kernel_sum(modes, modes, _projector_selection(system, 0.0).astype(float))
        diffs = np.array(
            [np.abs(_kernel_sum(modes, modes, _heat_weights(system, t)) - proj).max() for t in ts]
        )
        hot = system.eigenvalues > system.zero_tolerance()
        bound = float((np.abs(modes[:, hot]) ** 2).max(axis=0).sum())
        return diffs, spectral_gap(system), fit_exp_decay(ts, diffs), bound

    rows = [r for _, r in _sweep(level, kss, row)]
    diffs = np.array([r[0] for r in rows])
    gaps, slopes, bounds = (tuple(r[i] for r in rows) for i in (1, 2, 3))
    spread = tuple(float(diffs[:, j].max() - diffs[:, j].min()) for j in range(len(ts)))
    return HeatRouteReport(
        ks=kss,
        c_values=cs,
        ts=tuple(float(t) for t in ts),
        diffs=diffs,
        gaps=gaps,
        slopes=slopes,
        trace_bounds=bounds,
        spread_per_t=spread,
        grid=pts,
    )


def route_equivalence_gap(
    family: WeightFamily,
    k: int,
    degree: int = DEFAULT_DEGREE,
    grid: np.ndarray | None = None,
) -> float:
    """Sup-grid gap between the two routes to the scaled Bergman kernel.

    Route one rescales the weight first and runs a unit-scale Galerkin solve;
    route two runs the solve on the unscaled weight (reference lambda * C_k)
    and changes variables afterwards, K(z, w) = C_k^{-1} K_u(z / sqrt(C_k),
    w / sqrt(C_k)).  The two agree up to roundoff because the substitution
    maps basis, nodes and integrand onto each other exactly.
    """
    spec = _check_bergman(family)
    ck = family.c_value(k)
    root = math.sqrt(ck)
    lam = abs(spec.lambdas[0])
    level = _level(family, k)
    pts = _grid(grid)
    hol_scaled = _holomorphic(level, degree)
    hol_unscaled = holomorphic_subsystem(_Dilated(level, root), degree, lam_ref=lam * ck)
    direct = bergman_kernel_numeric(hol_scaled, pts, pts)
    routed = bergman_kernel_numeric(hol_unscaled, pts / root, pts / root) / ck
    return float(np.abs(routed - direct).max())
