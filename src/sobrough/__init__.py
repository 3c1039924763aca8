"""Rough paths with fractional Sobolev regularity: group-valued signatures,
Sobolev/variation norms and distances, controlled paths, rough integration,
RDE solvers, and a verification harness."""

from ._kernels import BACKEND as kernel_backend
from .algebra import (GroupElement, LieElement, TensorAlgebra, TruncatedTensor,
                      check_geometric, exp, group_inverse, homogeneous_norm,
                      increment, log, rho_metric, signature_path, signature_segment,
                      tensor_mul)
from .controlled import (ControlledPath, SmoothMap, compose_smooth, controlled_norm,
                         remainder, remainder_norm_hatW, remainder_norm_tildeV,
                         rough_integral)
from .fields import PolyMap, PolyVectorField
from .paths import (IntervalFunction, SampledRoughPath, VectorPath, control_check,
                    holder_norm, inhom_qvar_dist, inhom_sobolev_dist, mixed_dist,
                    pair_norms, qvar_norm, sobolev_norm_dyadic, sobolev_norm_integral)
from .rde import (BlowUpError, NonConvergenceError, RdeSolution, euler_step,
                  solve_euler, solve_picard_level2, windowed_solve)

__version__ = "0.1.0"

__all__ = [
    "__version__", "kernel_backend",
    "TensorAlgebra", "TruncatedTensor", "GroupElement", "LieElement",
    "tensor_mul", "group_inverse", "exp", "log", "signature_segment",
    "signature_path", "increment", "homogeneous_norm", "rho_metric",
    "check_geometric",
    "SampledRoughPath", "VectorPath", "IntervalFunction",
    "pair_norms", "qvar_norm", "holder_norm", "sobolev_norm_integral", "sobolev_norm_dyadic",
    "inhom_sobolev_dist", "inhom_qvar_dist", "mixed_dist", "control_check",
    "ControlledPath", "SmoothMap", "remainder", "remainder_norm_tildeV",
    "remainder_norm_hatW", "controlled_norm", "compose_smooth", "rough_integral",
    "PolyMap", "PolyVectorField",
    "RdeSolution", "euler_step", "solve_euler", "solve_picard_level2",
    "windowed_solve", "BlowUpError", "NonConvergenceError",
]
