"""Smoothed-hinge penalty front-end for inequality-constrained problems.

A constrained problem min g0(w) s.t. g_i(w) <= 0 becomes the compositional
instance g0(w) + (1/m) sum_i envelope(slope * [.]_+)(g_i(w)); the envelope
gradient of each hinge yields a Lagrange-multiplier estimate, so the KKT
residuals at any candidate point are read off the exact metric pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import AdditiveTerm, ConfigError, FccoProblem
from .metrics import StationarityReport, stationarity_report
from .smoothing import ScaledHinge

__all__ = [
    "ConstrainedProblem",
    "KktReport",
    "RegularityReport",
    "build_penalty_problem",
    "kkt_from_stationarity",
    "kkt_report",
    "regularity_check",
    "suggest_penalty_slope",
]


@dataclass
class ConstrainedProblem:
    """Objective + m scalar inequality constraints over finite populations,
    with declared constraint constants.

    The constraint oracles are batched like ``FccoProblem``'s:
    ``constraint_value(idx, w, batches)`` returns the (k,) batch-average
    values of constraints ``idx`` and ``constraint_grad(idx, w, batches)``
    their (k, d) batch-average gradients, ``batches`` being a (k, b) int
    array.  The exact value and gradient of one constraint are a one-row call
    over its whole population.  ``known_solution`` / ``known_multipliers``
    are optional hand-computed KKT data on toy instances, used by tests
    only."""

    d: int
    m: int
    objective: AdditiveTerm
    constraint_value: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    constraint_grad: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    populations: Sequence[int]
    lipschitz_constraints: float | None = None
    smoothness_constraints: float | None = None
    weak_convexity_constraints: float | None = None
    known_solution: np.ndarray | None = None
    known_multipliers: np.ndarray | None = None

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError("need at least one constraint")
        if len(self.populations) != self.m:
            raise ConfigError("one population per constraint required")

    def constraint_value_exact(self, i: int, w: np.ndarray) -> float:
        return float(self.constraint_value(np.array([i]), w, np.arange(self.populations[i])[None])[0])

    def constraint_grad_exact(self, i: int, w: np.ndarray) -> np.ndarray:
        return self.constraint_grad(np.array([i]), w, np.arange(self.populations[i])[None])[0]


@dataclass
class KktReport:
    """KKT residuals read off the smoothed-penalty metric pass."""

    stationarity: float  # ||grad g0 + sum nu_i grad g_i||
    max_violation: float  # max_i g_i(w)
    complementarity: float  # sum_i |g_i(w) nu_i|
    multipliers: np.ndarray  # envelope gradients / m, in [0, slope/m] up to rounding


@dataclass
class RegularityReport:
    sigma_min: float
    rank_deficient: bool = False


def build_penalty_problem(cp: ConstrainedProblem, slope: float) -> FccoProblem:
    """FCCO instance of the smoothed hinge penalty.

    ``slope`` is the penalty strength; the recommended regime is
    slope > m (C_g + 1) / delta with delta the constraint-Jacobian singular
    value bound (see suggest_penalty_slope), paired with solver lam = eps/slope.
    That hypothesis involves the usually-unknown delta, so it is not checked
    here.  The result is solvable by the single-loop solver when constraints
    are smooth and by the double-loop solver when merely weakly convex.
    """
    if not 0 < slope < math.inf:
        raise ConfigError("penalty slope must be positive and finite")

    # the constraints are the d1 = 1 inner maps; cp's oracles are looked up
    # per call, so rebinding them after the problem is built takes effect
    def inner_value(idx, w, batches):
        return cp.constraint_value(idx, w, batches)[:, None]

    def inner_vjp(idx, w, batches, Y):
        return Y[:, 0] @ cp.constraint_grad(idx, w, batches) / len(idx)

    return FccoProblem(
        n=cp.m,
        d=cp.d,
        d1=1,
        outer=ScaledHinge(slope),
        inner_value=inner_value,
        inner_vjp=inner_vjp,
        populations=tuple(cp.populations),
        additive=cp.objective,
        lipschitz_inner=cp.lipschitz_constraints,
        smoothness_inner=cp.smoothness_constraints,
        weak_convexity_inner=cp.weak_convexity_constraints,
        is_penalty=True,
    )


def kkt_report(cp: ConstrainedProblem, w: np.ndarray, slope: float, lam: float) -> KktReport:
    """KKT residuals from one exact pass of the penalty problem at w.
    Feasibility is evaluated deterministically over the full populations (no
    probabilistic certificate).  ``build_penalty_problem`` rejects a
    nonpositive slope and the metric pass a nonpositive lam."""
    return kkt_from_stationarity(stationarity_report(build_penalty_problem(cp, slope), w, lam))


def kkt_from_stationarity(rep: StationarityReport) -> KktReport:
    """KKT residuals of a penalty problem, read off its stationarity report."""
    g = rep.inner_values[:, 0]
    nu = rep.envelope_grads[:, 0] / g.size
    return KktReport(
        stationarity=rep.grad_F_lambda_norm,
        max_violation=rep.max_inner_value,
        complementarity=float(np.sum(np.abs(g * nu))),
        multipliers=nu,
    )


def regularity_check(cp: ConstrainedProblem, w: np.ndarray) -> RegularityReport:
    """Smallest singular value of the d x m stacked constraint-gradient
    matrix; a diagnostic run at candidate solutions, never a precondition
    gate.  m > d is rank-deficient by shape and reports 0."""
    w = np.asarray(w, dtype=float)
    jac = np.column_stack([cp.constraint_grad_exact(i, w) for i in range(cp.m)])
    if cp.m > cp.d:
        return RegularityReport(sigma_min=0.0, rank_deficient=True)
    sigma = np.linalg.svd(jac, compute_uv=False)
    return RegularityReport(sigma_min=float(sigma[-1]), rank_deficient=False)


def suggest_penalty_slope(m: int, lipschitz_constraints: float, delta: float) -> float:
    """1.5x the strict-inequality threshold m (C_g + 1)/delta, given a user
    estimate of the regularity constant delta."""
    if delta <= 0:
        raise ConfigError("delta must be positive")
    return 1.5 * m * (lipschitz_constraints + 1.0) / delta
