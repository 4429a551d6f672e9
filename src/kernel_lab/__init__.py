"""Numerical laboratory for semiclassical asymptotics of weighted Bergman kernels.

The package verifies, at desk scale, the limiting behavior of Bergman,
spectral-projector, and heat kernels attached to sequences of increasingly
curved Hermitian weights: the explicit Gaussian model kernel on C^n, gauge
normalization and 1/sqrt(C_k) scaling of weight families, spectral gaps of
Galerkin-discretized Kodaira Laplacians, vanishing of mismatched-signature
projectors, the heat-operator route to the Bergman projector, and holomorphic
Morse inequalities for line bundles on flat tori.

Conventions (fixed once, used everywhere):

* section norms |s|^2 e^{-2 phi}; volume form dV = 2^n dm (Lebesgue);
* kernels are self-adjoint localized kernels on L^2(dV):
  K(z, w) = e^{-phi(z)} (sesquiholomorphic part) e^{-phi(w)};
* curvature matrices are raw Wirtinger Hessians d^2 phi / dz dzbar.
"""

import os as _os

# BLAS pools read their env caps at import; honor ours before numpy loads.
_threads = _os.environ.get("KERNEL_LAB_THREADS", "")
if _threads.isdigit() and int(_threads) > 0:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)

from .model import (
    ModelSpectrum,
    eval_model_basis,
    eval_model_bergman,
    model_kernel_from_basis,
)
from .weights import (
    CkRule,
    ExtendedWeight,
    Perturbation,
    WeightFamily,
    WeightPolynomial,
    assemble_weight,
    extend_weight,
    normalize_gauge,
    real_term,
    scale_weight,
)
from .galerkin import (
    GalerkinBasis,
    GalerkinSystem,
    GramConditioningError,
    HolomorphicBasis,
    bergman_kernel_numeric,
    build_system,
    heat_kernel_numeric,
    hodge_residual,
    holomorphic_subsystem,
    spectral_gap,
    spectral_projector_kernel,
)
from .scaling import (
    ConvergenceReport,
    HeatRouteReport,
    fit_loglog,
    heat_route_comparison,
    kernel_grid,
    route_equivalence_gap,
    scaled_bergman_convergence,
    vanishing_convergence,
)
from .torus import (
    BoundaryCrossingWarning,
    CurvatureField,
    MorseReport,
    TorusBundle,
    TraceCheckResult,
    audit_morse,
    curvature_field,
    dolbeault_dims,
    morse_integrals,
    theta_trace_check,
)

__version__ = "0.1.0"
