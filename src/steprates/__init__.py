"""Step-size schedules, recursion bounds, and rate experiments for gradient
methods under gradient domination.

The package splits into schedule definitions (schedules), affine recursion
machinery with numeric hypothesis checks (recursions), closed-form method
bounds for every schedule family (plbounds), reference optimizers on
synthetic problems with verifiable assumptions (optimizers), empirical
plus theoretical rate maps (rates), and the randomized verification suites
behind the paper's claims (verify), each returning a SuiteReport. A thin
command-line driver over them lives in steprates.cli and runs as
`python -m steprates`.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .optimizers import (
    NoiseModel,
    Problem,
    Trajectory,
    gd_run,
    keyed_generators,
    make_power_family,
    make_quadratic,
    noise_free_bound,
    rr_run,
    sgd_run,
    verify_pl,
    verify_variance,
)
from .plbounds import (
    BoundResult,
    DerivedConstants,
    MethodConstants,
    NumericFailure,
    PLParams,
    bound_const,
    bound_cos,
    bound_exp,
    bound_poly,
    derive_constants,
    descent_coefficients,
    offset_admissible,
    relaxed_recursion_transform,
    rr_constants,
    sgd_constants,
    simulate_pl_grid,
    simulate_pl_recursion,
    smallest_offset,
)
from .rates import (
    RateFit,
    fit_loglog,
    heatmap_grid,
    optimal_p,
    rate_exponent_rr,
    rate_exponent_sgd,
)
from .recursions import (
    CertifiedLambda,
    CheckResult,
    ClassicalParams,
    FunctionDescriptor,
    PreconditionError,
    RecursionSpec,
    SuiteReport,
    classical_bound,
    classical_lambda,
    classical_spec,
    expansion_bound,
    extend_bound,
    find_lambda_constant,
    forgetting_bound,
    forgetting_factor,
    general_bound,
    iterate_recursion_exact,
    recursion_convexity,
    tech_inequality_suite,
)
from .schedules import (
    Constant,
    Cosine,
    Exponential,
    Polynomial,
    StepSchedule,
    step_sum,
    step_value,
    step_values,
    validate_cap,
)
from .verify import assumptions_suite, bounds_suite, chung_suite, draw_classical_params
