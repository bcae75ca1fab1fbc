"""Double-loop solver: an extrapolated primal-dual inner loop approximates the
proximal point of the outer-smoothed objective, and an outer momentum update
descends the resulting doubly-smoothed objective.

The inner loop is a stochastic primal-dual method for the strongly-convex /
strongly-concave proximal saddle problem.  Dual variables are never stored
explicitly: each component keeps an inner-value tracker u_i and reads its dual
off the envelope gradient (see smoothing.dual_tracker_update), which is
equivalent to the Bregman-prox dual step for convex outer functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    ConfigError,
    FccoProblem,
    SeededRng,
    SolverResult,
    bounded,
    ensure_finite,
)
from .sonex import OuterLoopConfig, _Draws, _run_outer_loop, gradient_estimate, init_trackers, momentum_step
from .smoothing import _check_smoothing, dual_tracker_update

__all__ = [
    "Alexr2Config",
    "rho_outer_smoothed",
    "theory_inner_params",
    "theory_outer_stepsize",
    "stable_extrapolation",
    "extrapolated_inner_value",
    "inner_primal_step",
    "run_inner_alexr",
    "outer_momentum_step",
    "run_alexr2",
]

_INIT, _COMPONENTS, _BATCH_VAL, _BATCH_JAC, _ADDITIVE, _TAU = 10, 11, 12, 13, 14, 15


def rho_outer_smoothed(problem: FccoProblem) -> float:
    """Weak-convexity bound of the outer-smoothed objective, from declared
    problem constants: sqrt(d1) * C_f * L_g for smooth inner maps, and
    sqrt(d1) * C_f * rho_g for merely weakly convex ones."""
    c_f = float(problem.outer.lipschitz)
    if problem.smoothness_inner is not None:
        curv = problem.smoothness_inner
    elif problem.weak_convexity_inner is not None:
        curv = problem.weak_convexity_inner
    else:
        raise ConfigError(
            "problem must declare smoothness_inner or weak_convexity_inner"
        )
    return float(np.sqrt(problem.d1) * c_f * curv)


def smoothed_objective_smoothness(nu: float, rho: float) -> float:
    """Gradient Lipschitz constant (2 - nu rho)/(nu - nu^2 rho) of the
    nested-smoothed objective."""
    if not (0 < nu and (rho == 0 or nu < 1.0 / rho)):
        raise ConfigError("need 0 < nu < 1/rho")
    return (2.0 - nu * rho) / (nu - nu * nu * rho)


def theory_inner_params(
    theta: float, nu: float, rho: float, n: int, b1: int
) -> tuple[float, float]:
    """Analysis coupling of the inner step sizes to the extrapolation theta:
    eta = (1-theta)/(theta/nu - rho) and gamma = (1-theta) n / b1."""
    if not 0 < theta < 1:
        raise ConfigError("theta must lie in (0, 1)")
    denom = theta / nu - rho
    if denom <= 0:
        raise ConfigError("need theta/nu > weak-convexity bound; decrease nu")
    return (1.0 - theta) / denom, (1.0 - theta) * n / b1


def stable_extrapolation(problem: FccoProblem, lam: float, nu: float, b1: int) -> float:
    """Extrapolation theta keeping the primal-dual coupling stable.

    The contraction argument needs roughly eta * gamma <= lam / (8 C_g^2);
    with the theta-couplings of theory_inner_params this pins
    (1-theta)^2 <= lam (1/nu - rho) b1 / (8 C_g^2 n).  The analysis only
    asserts such a theta exists (1-theta shrinking with the target accuracy);
    this helper returns the least aggressive one."""
    if problem.lipschitz_inner is None:
        raise ConfigError("problem must declare lipschitz_inner")
    rho = rho_outer_smoothed(problem)
    mu = 1.0 / nu - rho
    if mu <= 0:
        raise ConfigError("nu too large for this problem's curvature bound")
    bound = lam * mu * b1 / (8.0 * problem.lipschitz_inner**2 * problem.n)
    one_minus = min(0.3, float(np.sqrt(bound)))
    return 1.0 - one_minus


def theory_outer_stepsize(beta: float, nu: float, rho: float) -> float:
    return beta / (2.0 * smoothed_objective_smoothness(nu, rho))


@dataclass(kw_only=True)
class Alexr2Config(OuterLoopConfig):
    """Double-loop solver parameters.

    ``warm_start_dual`` carries the dual trackers across outer iterations;
    the inner-loop guarantee is stated for fresh starts, so this is an
    empirical default (cold restarts cost n extra oracle calls per outer
    iteration).
    """

    nu: float = bounded("(0, inf)")
    eta: float = bounded("(0, inf)")  # inner primal step
    theta: float = bounded("[0, 1)")  # inner extrapolation
    gamma: float = bounded("(0, inf)")  # dual step; applied as gamma/(1+gamma) in the trackers
    beta: float = bounded("(0, 0.5]")  # outer momentum mixing
    alpha: float = bounded("(0, inf)")  # outer step size
    k_inner: int = bounded("[0, inf)", default=100)
    k_growth: bool = False  # K_t = k_inner * (1 + t) when set
    iters: int = bounded("[0, inf)", default=50)  # outer iterations; fewer than sonex's default
    warm_start_dual: bool = True

    @property
    def gamma_hat(self) -> float:
        return self.gamma / (1.0 + self.gamma)

    def schedule(self, t: int) -> int:
        return self.k_inner * (1 + t) if self.k_growth else self.k_inner

    def validate(self, problem: FccoProblem) -> None:
        super().validate(problem)
        check_assumptions(problem)
        rho = rho_outer_smoothed(problem)
        if rho > 0 and self.nu >= 1.0 / rho:
            raise ConfigError(
                f"nu={self.nu} must be < 1/weak-convexity-bound = {1.0 / rho:.6g}"
            )


def check_assumptions(problem: FccoProblem) -> None:
    """Reject problems outside the double-loop method's assumptions: the
    outer function must be convex, and when the inner maps are only weakly
    convex (no declared smoothness) it must be monotone nondecreasing."""
    if problem.outer.weak_convexity > 0:
        raise ConfigError("double-loop solver requires convex outer functions")
    if problem.smoothness_inner is None:
        if problem.weak_convexity_inner is None:
            raise ConfigError(
                "declare smoothness_inner or weak_convexity_inner on the problem"
            )
        if not problem.outer.monotone_nondecreasing:
            raise ConfigError(
                "weakly convex inner maps require monotone nondecreasing outer functions"
            )


def extrapolated_inner_value(
    g_now: np.ndarray, g_prev: np.ndarray, theta: float
) -> np.ndarray:
    """g_now + theta (g_now - g_prev); both values from the same batch."""
    return g_now + theta * (g_now - g_prev)


def inner_primal_step(
    z_k: np.ndarray, pull: np.ndarray, grad: np.ndarray, eta: float, denom: float
) -> np.ndarray:
    """Closed-form minimizer of <grad, z> + ||z - w||^2/(2 nu) + ||z - z_k||^2/(2 eta),
    from an inner run's fixed pull = w/nu and denom = 1/eta + 1/nu."""
    return (z_k / eta + pull - grad) / denom


# every inner iterate reaches ensure_finite, so numpy's overflow warnings would
# only repeat its NonFiniteError, also on a direct call outside the outer loop
@np.errstate(all="ignore")
def run_inner_alexr(
    problem: FccoProblem,
    w_t: np.ndarray,
    config: Alexr2Config,
    rng: SeededRng,
    u_init: np.ndarray | None = None,
    k: int | None = None,
    on_step: Callable[[int, np.ndarray], None] | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Approximate the proximal point of the outer-smoothed objective at w_t.

    Runs ``k`` primal-dual steps from z = w_t.  Each step draws two
    independent data batches per selected component: one for the extrapolated
    inner values feeding the dual trackers, one for the vector-Jacobian
    product.  The extrapolation's value at the previous inner iterate comes
    from ``_Draws.values``.  Returns (z_hat, final trackers, oracle calls
    made) so the outer loop can warm-start the duals and keep its accounting.
    """
    # a direct call runs no validate, and dual_tracker_update takes lam as given
    check_assumptions(problem)
    _check_smoothing(problem.outer, config.lam)
    k = config.k_inner if k is None else k
    if u_init is None:
        u, calls = init_trackers(problem, w_t, config.b2, rng, (_INIT, 0))
    else:
        u, calls = np.array(u_init, dtype=float), 0
    z = np.array(w_t, dtype=float)
    gamma_hat = config.gamma_hat
    # fixed over the run, as float64 0-d arrays, which numpy applies faster than
    # floats; gamma_hat stays a float, as dual_tracker_update subtracts it from 1.0
    theta, eta = np.array(config.theta, dtype=float), np.array(config.eta, dtype=float)
    pull, denom = z / config.nu, np.array(1.0 / config.eta + 1.0 / config.nu)
    draws = _Draws(problem, rng, config.b1, config.b2)

    for step in range(k):
        idx = draws.components(_COMPONENTS, step)
        batch_val = draws.batches(_BATCH_VAL, step, idx)
        batch_jac = draws.batches(_BATCH_JAC, step, idx)
        g_now, g_prev, value_calls = draws.values(problem, idx, batch_val, z, theta)
        g_tilde = extrapolated_inner_value(g_now, g_prev, theta)
        if draws.every:
            u, y = dual_tracker_update(problem.outer, config.lam, u, g_tilde, gamma_hat)
        else:
            u[idx], y = dual_tracker_update(problem.outer, config.lam, u[idx], g_tilde, gamma_hat)
        grad, grad_calls = gradient_estimate(
            problem, z, idx, batch_jac, y, draws.additive_batch(_ADDITIVE, step)
        )
        calls += value_calls + grad_calls
        z = inner_primal_step(z, pull, grad, eta, denom)
        ensure_finite(z, "inner iterate")
        if on_step is not None:
            on_step(step, z)
    return z, u, calls


def outer_momentum_step(
    w_t: np.ndarray,
    z_hat: np.ndarray,
    v_t: np.ndarray,
    beta: float,
    alpha: float,
    nu: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Momentum step on the nested-smoothed objective using the proximal-point
    residual (w - z_hat)/nu as the gradient surrogate, following the analysis
    recursion v <- (1-beta) v + beta (w-z)/nu.  run_alexr2 takes this step
    as momentum_step on that surrogate."""
    v_new, w_new = momentum_step(v_t, w_t, (w_t - z_hat) / nu, beta, alpha)
    return w_new, v_new


def run_alexr2(problem: FccoProblem, config: Alexr2Config, rng: SeededRng) -> SolverResult:
    """Outer momentum loop over inner proximal-point solves; state.u carries
    the dual trackers between them."""
    config.validate(problem)

    def step(state, t: int):
        calls = 0
        if state.u is None or not config.warm_start_dual:
            state.u, calls = init_trackers(problem, state.w, config.b2, rng, (_INIT, t))
        k_t = config.schedule(t)
        z_hat, state.u, inner_calls = run_inner_alexr(
            problem, state.w, config, rng.spawn(_COMPONENTS, t), u_init=state.u, k=k_t
        )
        return (state.w - z_hat) / config.nu, calls + inner_calls, k_t * config.b1

    return _run_outer_loop(problem, config, rng, _TAU, config.beta, config.alpha, step)
