"""Solvers and desk-scale benchmarks for non-smooth coupled compositional
optimization: outer smoothing through proximal envelopes, a single-loop
momentum solver with variance-reduced inner-value tracking, a double-loop
primal-dual solver for weakly convex inner maps, and a smoothed hinge penalty
front-end for inequality-constrained problems."""

from .core import (
    AdditiveTerm,
    ConfigError,
    FccoProblem,
    NonFiniteError,
    SeededRng,
    SolverAbort,
    SolverResult,
    SolverTrace,
    TraceRow,
    parse_fields,
    sample_components,
    sample_data_batch,
)
from .smoothing import (
    GapHinge,
    Identity,
    ScaledHinge,
    dual_tracker_update,
    hinge_moreau_grad_closed_form,
    make_outer,
    moreau_grad,
    moreau_value,
)
from .metrics import (
    StationarityReport,
    brute_force_prox,
    eval_exact,
    finite_difference_gradient,
    stationarity_report,
)
from .sonex import (
    SonexConfig,
    adam_step,
    gradient_estimate,
    init_trackers,
    momentum_step,
    msvr_correction_default,
    msvr_update,
    run_sonex,
    theory_hyperparams,
)
from .alexr2 import (
    Alexr2Config,
    extrapolated_inner_value,
    inner_primal_step,
    outer_momentum_step,
    rho_outer_smoothed,
    run_alexr2,
    run_inner_alexr,
    stable_extrapolation,
    theory_inner_params,
    theory_outer_stepsize,
)
from .penalty import (
    ConstrainedProblem,
    KktReport,
    RegularityReport,
    build_penalty_problem,
    kkt_report,
    regularity_check,
    suggest_penalty_slope,
)
from .problems import (
    GdroCvarSpec,
    RocFairnessSpec,
    SyntheticFccoSpec,
    cvar_from_losses,
    make_gdro_cvar,
    make_roc_fairness_fcco,
    make_roc_fairness_toy,
    make_synthetic_fcco,
    make_toy_constrained,
)

__version__ = "0.1.0"
