"""Exponential sampling operators on the positive half-line.

Reconstruction of functions from samples at the exponentially spaced nodes
e^{k/w}: the classical damped-sinc series, the generalized kernel series, its
Kantorovich (cell-mean) modification and the nonlinear max-product operator,
together with the kernel moment conditions, weighted-space machinery and
verification harnesses that the convergence theory rests on.
"""

from .errors import (
    ConfigurationError,
    DegenerateDenominatorError,
    DivergentMomentError,
    EvaluationError,
    ExpSamplingError,
    HypothesisNotMetError,
    InsufficientDataError,
    UnsupportedOrderError,
)
from .kernels import (
    KERNELS,
    Kernel,
    MomentEstimate,
    MomentReport,
    algebraic_moment,
    algebraic_moment_profile,
    algebraic_moment_variation,
    check_kernel_conditions,
    discrete_absolute_moment,
    discrete_absolute_moment_estimate,
    eta_lower_bound,
    get_kernel,
    lin_kernel,
    mellin_bspline,
    mellin_gaussian,
    register_kernel,
)
from .spaces import (
    FUNCTIONS,
    LogGrid,
    WeightedFunction,
    get_function,
    mellin_derivative,
    mellin_derivative_fd,
    mellin_derivative_function,
    mellin_taylor_remainder,
    psi,
    register_function,
    weight,
    weighted_log_modulus,
    weighted_log_modulus_estimate,
    weighted_norm,
)
from .operators import (
    ExpSamples,
    GridPoint,
    GridResult,
    SamplingConfig,
    classical_exponential_formula,
    default_half_width,
    evaluate_on_grid,
    generalized_series,
    index_set,
    kantorovich_series,
    max_product_series,
    max_product_series_on_grid,
    take_samples,
)
from .analysis import (
    BoundCheck,
    ErrorRow,
    ErrorTable,
    SuiteResult,
    convergence_experiment,
    denominator_bound_check,
    lemma_suite,
    max_product_lattice_checks,
    moment_dominance_check,
    rate_fit,
    run_suite,
    tail_decay_check,
    verify_operator_norm,
    verify_quantitative_rate,
    verify_weighted_image_bound,
    voronovskaja_check,
)

__version__ = "0.1.0"
