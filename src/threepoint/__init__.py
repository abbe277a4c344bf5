"""Momentum three-point direct search: optimizers, stepsize theory, harness.

The library is organized as plain functions over small dataclasses:

- directions: sampling distributions and their norm constants
- objectives: benchmark problems with smoothness metadata
- schedules: stepsize rules and iteration-count formulas
- optimizers: the three-point steps and run loops
- diagnostics: rate envelopes, rate fits, per-step inequality checks
- harness: key=value configs, CSV traces, method comparison
- render: trace CSV rows in numpy, imported by the trace writer alone
"""

import types

from .diagnostics import (
    BoundEnvelope,
    InequalityReport,
    RateFit,
    bound_envelope,
    fit_linear_rate,
    verify_trace_inequalities,
)
from .directions import (
    DirectionDistribution,
    DistributionConstants,
    MCValidation,
    constants,
    d_norm,
    mc_validate,
    sample,
)
from .harness import (
    ExperimentConfig,
    RunSummary,
    SeedResult,
    compare_methods,
    load_config,
    parse_config,
    run_experiment,
    run_once,
)
from .objectives import (
    NoiseSpec,
    Objective,
    SmoothnessInfo,
    make_lqr,
    make_quadratic,
    make_rosenbrock,
    wrap_noise,
)
from .optimizers import (
    IterationRecord,
    NonFiniteObjectiveError,
    OptimizerState,
    RunTrace,
    candidate_points,
    init_state,
    run_block,
    smtp_is_run,
    smtp_run,
    smtp_step,
    stp_run,
)
from .schedules import (
    Constant,
    Decreasing,
    FixedHorizon,
    ISSolutionDependent,
    ISSolutionFree,
    PerCoordinate,
    SolutionDependent,
    SolutionFree,
    StepContext,
    optimal_gamma0,
    quadratic_level_radius,
    required_iterations,
    solution_free_t_max,
    solution_free_t_max_is,
    stepsize,
)

__version__ = "0.1.0"

# every public name is declared once, in the imports above: __all__ is each
# bound name without a leading underscore that is not a submodule
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
