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

from .core import AdditiveTerm, ConfigError, FccoProblem, _finite_number
from .metrics import StationarityReport, _gram_min_eig, stationarity_report
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

    Each constraint is a d1 = 1 inner map with ``FccoProblem``'s oracle
    signatures: ``constraint_value(idx, w, batches)`` is ``inner_value``, the
    (k, 1) batch-average values of constraints ``idx``, and
    ``constraint_grad(idx, w, batches, Y)`` is ``inner_vjp``, the (d,) mean of
    ``Y[j, 0]`` times constraint ``idx[j]``'s batch-average gradient.  The
    exact value and gradient of a constraint are one-row calls over its whole
    population.  The constraint count ``m`` is ``len(populations)``, not a
    field.  ``known_solution`` / ``known_multipliers`` are optional
    hand-computed KKT data on toy instances, used by tests only."""

    d: int
    objective: AdditiveTerm
    constraint_value: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    constraint_grad: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    populations: Sequence[int]
    lipschitz_constraints: float | None = None
    smoothness_constraints: float | None = None
    weak_convexity_constraints: float | None = None
    known_solution: np.ndarray | None = None
    known_multipliers: np.ndarray | None = None

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError("need at least one constraint")

    @property
    def m(self) -> int:
        return len(self.populations)

    def constraint_value_exact(self, i: int, w: np.ndarray) -> float:
        return float(self.constraint_value(np.array([i]), w, np.arange(self.populations[i])[None])[0, 0])

    def constraint_grad_exact(self, i: int, w: np.ndarray) -> np.ndarray:
        return self.constraint_grad(np.array([i]), w, np.arange(self.populations[i])[None], np.ones((1, 1)))


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
    if not (_finite_number(slope) and slope > 0):
        raise ConfigError(f"penalty slope must be a positive finite number, got {slope!r}")

    # forwarders, not cp's oracles: perfbench/tracer.py rebinds those by name
    def inner_value(idx, w, batches):
        return cp.constraint_value(idx, w, batches)

    def inner_vjp(idx, w, batches, Y):
        return cp.constraint_grad(idx, w, batches, Y)

    return FccoProblem(
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
    matrix: the square root of the smallest eigenvalue from the Gram pass
    ``metrics._gram_min_eig``, clamped at 0 because on a singular Gram matrix
    rounding can leave that eigenvalue slightly negative.  A diagnostic run at
    candidate solutions, never a precondition gate.
    m > d is rank-deficient by shape and reports 0."""
    min_eig, deficient = _gram_min_eig(build_penalty_problem(cp, 1.0), np.asarray(w, dtype=float))
    return RegularityReport(math.sqrt(max(min_eig, 0.0)), deficient)


def suggest_penalty_slope(m: int, lipschitz_constraints: float, delta: float) -> float:
    """1.5x the strict-inequality threshold m (C_g + 1)/delta, given a user
    estimate of the regularity constant delta."""
    if delta <= 0:
        raise ConfigError("delta must be positive")
    return 1.5 * m * (lipschitz_constraints + 1.0) / delta
