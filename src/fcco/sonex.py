"""Single-loop stochastic momentum solver on the outer-smoothed objective.

Per iteration: sample a component subset and one data batch per selected
component, refresh the per-component inner-value trackers with a
variance-reduced correction (its value at the previous iterate on the same
batch comes from ``_Draws.values``), aggregate vector-Jacobian products
through the envelope gradients of the trackers, then take a momentum or
rate-bounded Adam-type parameter step.  All metric evaluation happens on a
configurable cadence through the exact (full-population) oracles.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    ConfigError,
    FccoProblem,
    NonFiniteError,
    SeededRng,
    SolverAbort,
    SolverResult,
    SolverTrace,
    TraceRow,
    _check_field_types,
    bounded,
    ensure_finite,
    sample_components,
    sample_data_batch,
)
from .metrics import StationarityReport, stationarity_report
from .smoothing import _check_smoothing, moreau_grad

__all__ = [
    "OuterLoopConfig",
    "SonexConfig",
    "SonexState",
    "msvr_correction_default",
    "msvr_update",
    "init_trackers",
    "gradient_estimate",
    "momentum_step",
    "adam_step",
    "run_sonex",
    "theory_hyperparams",
]

# stream purposes for child rngs
_INIT, _COMPONENTS, _BATCH, _ADDITIVE, _TAU = 0, 1, 2, 3, 4

_ADAM_EPS = 1e-8  # keeps the Adam-type rate eta/(sqrt(s)+eps) finite at s = 0


@dataclass
class SonexState:
    """Outer-loop state of both solvers.  ``u`` holds the inner-value
    trackers here and the dual trackers in alexr2 (None before its first
    cold start)."""

    w: np.ndarray
    u: np.ndarray | None  # (n, d1) trackers
    v: np.ndarray  # momentum buffer
    s: np.ndarray | None = None  # Adam second-moment buffer


def msvr_correction_default(n: int, b1: int, gamma: float) -> float:
    """Variance-reduction coefficient 1 - gamma + (n - b1)/(b1 (1 - gamma))."""
    if gamma >= 1:
        raise ConfigError("gamma must be < 1 for the correction default")
    if not 1 <= b1 <= n:
        raise ConfigError("need 1 <= b1 <= n")
    return 1.0 - gamma + (n - b1) / (b1 * (1.0 - gamma))


def msvr_update(
    u: np.ndarray,
    g_new: np.ndarray,
    g_prev: np.ndarray,
    gamma: float,
    gamma_prime: float,
) -> np.ndarray:
    """(1-gamma) u + gamma g_new + gamma_prime (g_new - g_prev), row by row
    over a (k, d1) tracker stack; both inner values must come from the same
    data batches at the current and previous iterate."""
    return (1.0 - gamma) * u + gamma * g_new + gamma_prime * (g_new - g_prev)


class _Draws:
    """A solver loop's random draws, made at step t from ``rng.philox(purpose,
    t)``: the component set, one (k, b2) batch array per oracle use and the
    additive term's batch.  Component i's batch row depends on (seed,
    purpose, t, i) only, never on which other components were drawn.

    Forced draws are built once here and touch no generator: every
    component when b1 == n, and the whole population when b2 equals every
    component's (or the additive term's) population size.  Otherwise each
    batch draw makes a row for all n components and keeps the ``idx`` rows,
    so its cost grows with n, not b1.

    ``values`` holds the point and inner value of its last call.  When both
    draws are forced, ``fixed`` is set: every step hands out the same ``idx``
    and batch arrays, so the held value is the one this step would compute
    at the held point, and ``values`` reuses it instead of calling the oracle
    again.
    """

    def __init__(self, problem: FccoProblem, rng: SeededRng, b1: int, b2: int):
        self.rng = rng
        self.n, self.b1, self.b2 = problem.n, b1, b2
        self.pops = np.asarray(problem.populations, dtype=np.int64)
        self.every = b1 == problem.n
        self.all = np.arange(problem.n)
        self.full = np.tile(np.arange(b2), (problem.n, 1)) if (self.pops == b2).all() else None
        self.fixed = self.every and self.full is not None
        self.held = None  # (point, inner value) of the last ``values`` call
        self.additive = problem.additive is not None
        if self.additive:
            pop0 = problem.additive.population
            self.pops0 = np.array([pop0], dtype=np.int64)
            self.b0 = min(b2, pop0)
            self.full0 = np.arange(pop0) if self.b0 == pop0 else None

    def components(self, purpose: int, t: int) -> np.ndarray:
        if self.every:
            return self.all
        return sample_components(self.rng.philox(purpose, t), self.n, self.b1)

    def batches(self, purpose: int, t: int, idx: np.ndarray) -> np.ndarray:
        rows = self.full
        if rows is None:
            rows = sample_data_batch(self.rng.philox(purpose, t), self.pops, self.b2)
        return rows if self.every else rows[idx]

    def additive_batch(self, purpose: int, t: int) -> np.ndarray | None:
        if not self.additive:
            return None
        if self.full0 is not None:
            return self.full0
        return sample_data_batch(self.rng.philox(purpose, t), self.pops0, self.b0)[0]

    def values(self, problem: FccoProblem, idx, batches, w, weight: float):
        """(g, g_prev, value calls) on this step's draws: g is the inner
        value at ``w``, g_prev the value at the point of the last call, which
        the caller weighs by ``weight``.  At weight 0, and on the first call
        (where the two points coincide), g_prev is g.  Holds (w, g) for the
        next call."""
        g = problem.inner_value(idx, w, batches)
        calls = len(idx)
        if weight == 0.0 or self.held is None:
            g_prev = g
        elif self.fixed:
            g_prev = self.held[1]
        else:
            g_prev = problem.inner_value(idx, self.held[0], batches)
            calls += len(idx)
        self.held = (w, g)
        return g, g_prev, calls


def init_trackers(
    problem: FccoProblem, w0: np.ndarray, b2: int, rng: SeededRng, key: tuple = (_INIT, 0)
) -> tuple[np.ndarray, int]:
    """(trackers, inner-oracle calls): one batch estimate of every inner value
    at w0, from one value call over all n components, so n calls; the batches
    are drawn at ``key`` = (purpose, counter)."""
    draws = _Draws(problem, rng, problem.n, b2)
    return problem.inner_value(draws.all, w0, draws.batches(*key, draws.all)), problem.n


def gradient_estimate(
    problem: FccoProblem, w: np.ndarray, idx: np.ndarray, batches: np.ndarray, y: np.ndarray,
    additive_batch: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """(gradient, inner-oracle calls) at ``w``: the mean over the components
    ``idx`` of the vector-Jacobian products with the envelope gradients ``y``
    (one row each, as ``batches``), plus the additive-term gradient on
    ``additive_batch`` (which a problem with an additive term needs).  The
    calls are one per component and one for the additive batch."""
    grad = problem.inner_vjp(idx, w, batches, y)
    if problem.additive is None:
        return grad, len(idx)
    return grad + problem.additive.grad(w, additive_batch), len(idx) + 1


def momentum_step(
    v: np.ndarray, w: np.ndarray, grad: np.ndarray, beta: float, eta: float
) -> tuple[np.ndarray, np.ndarray]:
    """v <- (1-beta) v + beta grad;  w <- w - eta v."""
    v_new = (1.0 - beta) * v + beta * grad
    return v_new, w - eta * v_new


def adam_step(
    v: np.ndarray,
    w: np.ndarray,
    s: np.ndarray,
    grad: np.ndarray,
    beta: float,
    beta2: float,
    eps: float,
    eta: float,
    clip: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adam-type update with elementwise rates eta/(sqrt(s)+eps).

    The rate uses the pre-update second moment; ``clip`` clamps every
    effective rate into [eta*low, eta*high], enforcing the bounded-rate
    condition the adaptive analysis assumes instead of assuming it.
    """
    v_new = (1.0 - beta) * v + beta * grad
    rate = np.clip(eta / (np.sqrt(s) + eps), eta * clip[0], eta * clip[1])
    w_new = w - rate * v_new
    s_new = (1.0 - beta2) * s + beta2 * grad * grad
    return v_new, w_new, s_new


def theory_hyperparams(
    eps: float,
    n: int,
    b1: int,
    b2: int,
    outer_lipschitz: float,
    scale: float = 1.0,
    iters: int = 1000,
) -> SonexConfig:
    """Config from the analysis scalings at target accuracy ``eps``:
    lam = eps/outer_lipschitz, beta ~ min(b1,b2) eps^2, gamma ~ b2 eps^4,
    eta ~ b1 sqrt(b2) eps^3 / n, with the variance-reduced correction default.

    The analysis fixes orders, not constants; ``scale`` multiplies beta,
    gamma, eta jointly.  beta and gamma are clamped into their analyzed
    ranges (0, 2/7] and (0, 1/2].
    """
    if eps <= 0 or scale <= 0:
        raise ConfigError("eps and scale must be positive")
    lam = eps / outer_lipschitz
    beta = min(scale * min(b1, b2) * eps**2, 2.0 / 7.0)
    gamma = min(scale * b2 * eps**4, 0.5)
    eta = scale * b1 * np.sqrt(b2) * eps**3 / n
    return SonexConfig(
        lam=lam, eta=eta, beta=beta, gamma=gamma, gamma_prime=None,
        b1=b1, b2=b2, iters=iters,
    )


def _metric_row(
    problem, w, lam, iteration, calls, draws
) -> tuple[TraceRow, StationarityReport]:
    rep = stationarity_report(problem, w, lam)
    return TraceRow(
        iteration=iteration,
        inner_oracle_calls=calls,
        component_draws=draws,
        f_value=rep.f_value,
        f_lambda_value=rep.f_lambda_value,
        grad_norm=rep.grad_F_lambda_norm,
        stat_t_residual=rep.approx_t_residual,
        max_violation=rep.max_inner_value if problem.is_penalty else None,
    ), rep


@dataclass(kw_only=True)
class OuterLoopConfig:
    """The settings ``_run_outer_loop`` reads, shared by both solver configs.

    ``validate`` makes the run-wide checks once, so the step code can take
    them as given: every field's kind and declared range, the update kind,
    lam against the outer function (positive, and below 1/weak_convexity),
    the length of ``w0``, the batch sizes against the problem and the
    Adam-type rate bounds, which the Adam-type update needs and no other
    update takes.
    """

    lam: float
    b1: int = bounded("[1, inf)", default=1)
    b2: int = bounded("[1, inf)", default=1)
    iters: int = bounded("[0, inf)", default=100)
    update_kind: str = "momentum"
    adam_beta2: float = bounded("(0, 1)", default=0.01)  # weight on the squared gradient in the EMA
    adam_clip: tuple[float, ...] | None = None
    metric_every: int | None = bounded("[1, inf)", default=None)
    stop_grad_norm: float | None = bounded("[0, inf)", default=None)
    w0: np.ndarray | None = None

    def validate(self, problem: FccoProblem) -> None:
        _check_field_types(self)
        if self.update_kind not in ("momentum", "adam"):
            raise ConfigError(f"update_kind must be 'momentum' or 'adam', got {self.update_kind!r}")
        _check_smoothing(problem.outer, self.lam)
        if self.w0 is not None and len(self.w0) != problem.d:
            raise ConfigError(f"w0 must have length d={problem.d}, got {len(self.w0)}")
        if self.b1 > problem.n:
            raise ConfigError(f"b1 must be at most n={problem.n}, got {self.b1}")
        smallest = min(problem.populations)
        if self.b2 > smallest:
            raise ConfigError(f"b2 must be at most the smallest population {smallest}, got {self.b2}")
        clip = self.adam_clip
        if (clip is None) == (self.update_kind == "adam"):
            raise ConfigError(f"adam_clip is set exactly when update_kind is 'adam', got "
                              f"update_kind {self.update_kind!r} and adam_clip {clip}")
        if clip is not None and not (len(clip) == 2 and 0 < clip[0] <= clip[1]):
            raise ConfigError("adam_clip must be two bounds with 0 < low <= high")


# Every non-finite value of a diverging run reaches a check here (ensure_finite
# on each iterate and inner iterate, the metric-row check) and ends the run as
# SolverAbort, so numpy's overflow warnings would only repeat the abort.  The
# scope is entered once per solve.
@np.errstate(all="ignore")
def _run_outer_loop(
    problem: FccoProblem,
    config: OuterLoopConfig,
    rng: SeededRng,
    tau_stream: int,
    beta: float,
    eta: float,
    step: Callable[[SonexState, int], tuple[np.ndarray, int, int]],
    init_u: Callable[[np.ndarray], tuple[np.ndarray, int]] | None = None,
) -> SolverResult:
    """Outer loop shared by both solvers.

    ``step(state, t)`` returns (gradient estimate at state.w, inner oracle
    calls, component draws) for outer iteration t; the loop then takes the
    momentum or Adam-type step with mixing ``beta`` and step size ``eta``,
    logs a metric row on the configured cadence, and keeps the iterate at a
    step drawn uniformly from {1..iters} off stream ``tau_stream``.
    ``init_u(w0)``, when given, returns state.u's starting value and the
    inner-oracle calls it made.  The config is validated; each step checks
    only that the new iterate is finite, and each metric row that its F,
    F_lambda and gradient norm are.  The last row's exact pass is the
    result's ``final_report``.
    """
    t0 = time.perf_counter()
    w = np.array(config.w0, dtype=float) if config.w0 is not None else problem.initial_point()
    u, calls = (None, 0) if init_u is None else init_u(w)
    state = SonexState(
        w=w, u=u, v=np.zeros(problem.d),
        s=np.zeros(problem.d) if config.update_kind == "adam" else None,
    )
    draws = 0

    trace = SolverTrace()
    row_wall_seconds = []

    def log_row(it: int) -> tuple[TraceRow, StationarityReport]:
        row_wall_seconds.append(time.perf_counter() - t0)
        row, rep = _metric_row(problem, state.w, config.lam, it, calls, draws)
        trace.append(row)
        if not np.isfinite((row.f_value, row.f_lambda_value, row.grad_norm)).all():
            raise SolverAbort(f"non-finite metric row at iteration {it}", trace)
        return row, rep

    cadence = config.metric_every or max(1, config.iters // 200)
    _, report = log_row(0)

    iters = config.iters
    tau = int(rng.spawn(tau_stream).gen.integers(1, iters + 1)) if iters else None
    w_sampled = None
    stopped = False

    for t in range(iters):
        try:
            grad, step_calls, step_draws = step(state, t)
            calls += step_calls
            draws += step_draws
            if config.update_kind == "adam":
                state.v, state.w, state.s = adam_step(
                    state.v, state.w, state.s, grad, beta,
                    config.adam_beta2, _ADAM_EPS, eta, config.adam_clip,
                )
            else:
                state.v, state.w = momentum_step(state.v, state.w, grad, beta, eta)
            ensure_finite(state.w, "iterate")
        except NonFiniteError as exc:
            raise SolverAbort(str(exc), trace) from exc

        it = t + 1
        if it == tau:
            w_sampled, sampled_iteration = state.w.copy(), it
        if it % cadence == 0 or it == iters:
            row, report = log_row(it)
            stopped = config.stop_grad_norm is not None and row.grad_norm <= config.stop_grad_norm
            if stopped:
                break

    if w_sampled is None:
        # no step, or the run stopped before the drawn output iteration; fall
        # back to the final iterate
        w_sampled, sampled_iteration = state.w.copy(), trace.last().iteration
    return SolverResult(trace, state.w.copy(), w_sampled, sampled_iteration, report, stopped, state, row_wall_seconds)


@dataclass(kw_only=True)
class SonexConfig(OuterLoopConfig):
    eta: float = bounded("[0, inf)")
    beta: float = bounded("(0, 1]", default=0.1)
    gamma: float = bounded("(0, 1]", default=0.1)
    gamma_prime: float | None = bounded("[0, inf)", default=None)  # None = variance-reduced default

    def resolved_gamma_prime(self, n: int) -> float:
        if self.gamma_prime is None:
            return msvr_correction_default(n, self.b1, self.gamma)
        return float(self.gamma_prime)

    def validate(self, problem: FccoProblem) -> None:
        super().validate(problem)
        if self.resolved_gamma_prime(problem.n) > 0 and self.gamma > 0.5:
            raise ConfigError("gamma must be <= 1/2 when the tracker correction is active")
        # beta = 1 is the SGD-type update, analysed on its own
        if 2.0 / 7.0 < self.beta < 1.0:
            warnings.warn("beta > 2/7 leaves the analyzed regime of the momentum recursion")


def run_sonex(problem: FccoProblem, config: SonexConfig, rng: SeededRng) -> SolverResult:
    """Run the single-loop solver for config.iters iterations.

    Returns the trace, the final iterate, and one iterate sampled uniformly
    from {1..T} (the output the convergence guarantee concerns).  A non-finite
    iterate, or a metric row whose F, F_lambda or gradient norm is not
    finite, raises SolverAbort carrying the trace so far.  The one early stop
    is a metric row whose gradient norm is at most ``config.stop_grad_norm``.
    """
    config.validate(problem)
    n = problem.n
    gamma_prime = config.resolved_gamma_prime(n)

    draws = _Draws(problem, rng, config.b1, config.b2)

    def step(state: SonexState, t: int):
        idx = draws.components(_COMPONENTS, t)
        batches = draws.batches(_BATCH, t, idx)
        g_new, g_prev, value_calls = draws.values(problem, idx, batches, state.w, gamma_prime)
        state.u[idx] = msvr_update(state.u[idx], g_new, g_prev, config.gamma, gamma_prime)
        y = moreau_grad(problem.outer, config.lam, state.u[idx])
        grad, grad_calls = gradient_estimate(
            problem, state.w, idx, batches, y, draws.additive_batch(_ADDITIVE, t)
        )
        return grad, value_calls + grad_calls, config.b1

    return _run_outer_loop(
        problem, config, rng, _TAU, config.beta, config.eta, step,
        init_u=lambda w: init_trackers(problem, w, config.b2, rng),
    )
