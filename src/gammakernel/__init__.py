"""gammakernel: determinantal measures on the half-integer lattice.

A numerical library for the two-parameter family of z-measures on partitions
and the associated determinantal point processes on Z' = Z + 1/2: exact
weights, correlation kernels computed by four independent routes (integrable
closed form, contour integrals before and after the xi -> 1 limit, and
spectral projection of a tridiagonal difference operator), Fredholm
determinants of multiplicative functionals, exact Radon-Nikodym derivatives
under finitary permutations of the lattice, and exact sampling.
"""

from types import ModuleType as _ModuleType

from .lattice import (
    FiniteConfig,
    FinitaryPermutation,
    HalfInt,
    Partition,
    apply_sigma_modified,
    dim_ratio,
    to_balanced_config,
)
from .zmeasure import (
    OracleValue,
    Params,
    XiParams,
    correlation_oracle,
    enumerate_weights,
    log_weight_config,
    log_weight_partition,
)
from .kernels import (
    NonConvergenceError,
    WeightedBlocks,
    WindowKernel,
    density_constant,
    j_transform,
    underline_limit_contour,
    underline_limit_integrable,
    underline_limit_window,
    underline_prelimit_contour,
    underline_prelimit_window,
    weighted_blocks,
    window_points,
)
from .fredholm import (
    InverseDecay,
    SparseConfig,
    TestFunction,
    ZeroTail,
    expectation_det,
    expectation_sum,
    phi_eval,
    sparseness_certificate,
)
from .rn import (
    CylinderFunction,
    RnExpression,
    rn_compose,
    rn_exact,
    rn_limit,
    verify_limit_transport,
    verify_transport,
    word_window,
)
from .sampler import (
    Estimate,
    SampleBatch,
    sample_underline_then_involute,
    sample_window,
)

__version__ = "0.1.0"

# The public names are the imports above, with the version string.
__all__ = [
    name for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, _ModuleType)
] + ["__version__"]
