"""Loop-form references of the single-loop solver and of the double-loop
solver's inner and outer loops, for tests that compare ``run_sonex``,
``run_inner_alexr`` and ``run_alexr2`` against them.

They are written straight from the update equations: one oracle call per
(component, sample) pair, Python sums over samples and components, and the
envelope gradient read off the outer function's prox.  They share nothing
with the solvers' batched arithmetic, only their random draws, which come
from ``sonex._Draws`` on the solver's seed, so that both see the same
components and batches at every step.
"""

from __future__ import annotations

import numpy as np

from fcco import alexr2
from fcco.alexr2 import Alexr2Config
from fcco.core import FccoProblem, SeededRng
from fcco.sonex import _ADAM_EPS, _ADDITIVE, _BATCH, _COMPONENTS, _INIT, SonexConfig, _Draws


def batch_mean_value(problem: FccoProblem, i: int, w: np.ndarray, batch) -> np.ndarray:
    """(1/b) sum over the batch of component i's one-sample inner values."""
    total = np.zeros(problem.d1)
    for s in batch:
        total = total + problem.inner_value(np.array([i]), w, np.array([[s]]))[0]
    return total / len(batch)


def batch_mean_vjp(problem: FccoProblem, i: int, w: np.ndarray, batch, y: np.ndarray) -> np.ndarray:
    """(1/b) sum over the batch of component i's one-sample Jacobians,
    transposed and applied to y."""
    total = np.zeros(problem.d)
    for s in batch:
        total = total + problem.inner_vjp(np.array([i]), w, np.array([[s]]), y[None])
    return total / len(batch)


def batch_estimates(problem: FccoProblem, rng: SeededRng, w: np.ndarray, b2: int, purpose: int, counter: int):
    """One batch estimate of every g_i at w, on the batches of b2 samples
    drawn at (purpose, counter): the trackers' starting values."""
    draws = _Draws(problem, rng, problem.n, b2)
    batches = draws.batches(purpose, counter, draws.all)
    return np.array([batch_mean_value(problem, i, w, batches[i]) for i in range(problem.n)])


def envelope_gradient(problem: FccoProblem, idx, batches, u, lam: float, w, batch0) -> np.ndarray:
    """(1/|S|) sum_{i in S} J_i(w; B_i)^T (u_i - prox_{lam f}(u_i)) / lam + grad g_0(w; B_0)
    over the components ``idx`` and their ``batches``; the last term only
    on a problem with an additive term g_0, whose batch is ``batch0``."""
    grad = np.zeros(problem.d)
    for i, batch in zip(idx, batches):
        y = (u[i] - problem.outer.prox(lam, u[i])) / lam
        grad = grad + batch_mean_vjp(problem, i, w, batch, y)
    grad = grad / len(idx)
    if problem.additive is not None:
        grad0 = np.zeros(problem.d)
        for s in batch0:
            grad0 = grad0 + problem.additive.grad(w, np.array([s]))
        grad = grad + grad0 / len(batch0)
    return grad


def parameter_step(config, eta: float, w, v, s2, grad):
    """(w, v, s2) after v <- (1 - beta) v + beta G, then w <- w - eta v for
    the momentum update, or, for the Adam-type update, w <- w - r v with the
    elementwise rate r = eta / (sqrt(s) + eps) clamped into [eta low,
    eta high] by ``adam_clip``, and s <- (1 - beta2) s + beta2 G^2 after it."""
    v = (1.0 - config.beta) * v + config.beta * grad
    if config.update_kind != "adam":
        return w - eta * v, v, s2
    low, high = config.adam_clip
    rate = eta / (np.sqrt(s2) + _ADAM_EPS)
    rate = np.minimum(np.maximum(rate, eta * low), eta * high)
    return w - rate * v, v, (1.0 - config.adam_beta2) * s2 + config.adam_beta2 * grad * grad


def reference_sonex(problem: FccoProblem, config: SonexConfig, seed: int, gamma_prime: float) -> list[np.ndarray]:
    """The iterates w_0, ..., w_T, T = ``config.iters``, of the steps

        u_i <- (1 - gamma) u_i + gamma g_i(w_t; B_i) + gamma' (g_i(w_t; B_i) - g_i(w_{t-1}; B_i))
        G   <- (1/|S|) sum_{i in S} J_i(w_t; B_i)^T (u_i - prox_{lam f}(u_i)) / lam + grad g_0(w_t; B_0)

    (G from ``envelope_gradient``) for every i in the step's component set
    S, then the momentum or Adam-type step of ``parameter_step`` on G with
    step size eta.  g_i(w; B) is component i's inner value averaged over
    batch B, J_i its Jacobian and g_0 the additive term.  The trackers start
    at one batch estimate of every g_i at w_0, and at t = 0 there is no
    w_{-1}, so the correction term is 0.  ``gamma_prime`` is taken as given, not resolved from the
    config, so that a test can turn the correction off.
    """
    rng = SeededRng(seed)
    w = problem.initial_point() if config.w0 is None else np.array(config.w0, dtype=float)
    u = batch_estimates(problem, rng, w, config.b2, _INIT, 0)
    draws = _Draws(problem, rng, config.b1, config.b2)
    v, s2 = np.zeros(problem.d), np.zeros(problem.d)
    w_prev = w
    iterates = [w]
    for t in range(config.iters):
        idx = draws.components(_COMPONENTS, t)
        batches = draws.batches(_BATCH, t, idx)
        for i, batch in zip(idx, batches):
            g_now = batch_mean_value(problem, i, w, batch)
            g_prev = batch_mean_value(problem, i, w_prev, batch)
            u[i] = (1.0 - config.gamma) * u[i] + config.gamma * g_now + gamma_prime * (g_now - g_prev)
        grad = envelope_gradient(problem, idx, batches, u, config.lam, w, draws.additive_batch(_ADDITIVE, t))
        w_prev = w
        w, v, s2 = parameter_step(config, config.eta, w, v, s2, grad)
        iterates.append(w)
    return iterates


def reference_inner_alexr(
    problem: FccoProblem,
    w_t: np.ndarray,
    config: Alexr2Config,
    rng: SeededRng,
    k: int,
    theta: float,
    u_init: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(z, u) after ``k`` steps of

        g~_i <- g_i(z_k; B_i) + theta (g_i(z_k; B_i) - g_i(z_{k-1}; B_i))
        u_i  <- (1 - gamma^) u_i + gamma^ g~_i,  gamma^ = gamma / (1 + gamma)
        z    <- argmin_z <G, z> + ||z - w_t||^2 / (2 nu) + ||z - z_k||^2 / (2 eta)
              = (z_k / eta + w_t / nu - G) / (1 / eta + 1 / nu)

    for every i in the step's component set S, from z_0 = w_t, with the
    draws of ``rng``.  G is ``envelope_gradient`` at z_k on the Jacobian
    batches B'_i, which are drawn apart from the value batches B_i.  The
    trackers start at ``u_init``, or at one batch estimate of every g_i at
    w_t, and at k = 0 there is no z_{-1}, so the extrapolation is 0.
    ``theta`` is taken as given, not read from the config, so that a test
    can turn the extrapolation off.
    """
    if u_init is None:
        u = batch_estimates(problem, rng, w_t, config.b2, alexr2._INIT, 0)
    else:
        u = np.array(u_init, dtype=float)
    gamma_hat = config.gamma / (1.0 + config.gamma)
    draws = _Draws(problem, rng, config.b1, config.b2)
    z = z_prev = np.array(w_t, dtype=float)
    for t in range(k):
        idx = draws.components(alexr2._COMPONENTS, t)
        batch_val = draws.batches(alexr2._BATCH_VAL, t, idx)
        batch_jac = draws.batches(alexr2._BATCH_JAC, t, idx)
        for i, batch in zip(idx, batch_val):
            g_now = batch_mean_value(problem, i, z, batch)
            g_prev = batch_mean_value(problem, i, z_prev, batch)
            u[i] = (1.0 - gamma_hat) * u[i] + gamma_hat * (g_now + theta * (g_now - g_prev))
        batch0 = draws.additive_batch(alexr2._ADDITIVE, t)
        grad = envelope_gradient(problem, idx, batch_jac, u, config.lam, z, batch0)
        z_prev = z
        z = (z / config.eta + w_t / config.nu - grad) / (1.0 / config.eta + 1.0 / config.nu)
    return z, u


def reference_alexr2(problem: FccoProblem, config: Alexr2Config, seed: int, theta: float) -> list[np.ndarray]:
    """The iterates w_0, ..., w_T, T = ``config.iters``, of the outer steps

        z   <- reference_inner_alexr from w_t, K_t inner steps, trackers u

    then the momentum or Adam-type step of ``parameter_step`` on
    G = (w_t - z) / nu with step size alpha, with K_t = k_inner (1 + t)
    under ``k_growth`` and k_inner otherwise.  Outer step t runs its inner
    loop on the draws of the child stream (alexr2._COMPONENTS, t) and hands
    its trackers on to the next step.  They start at one batch estimate of every g_i at w_t, drawn from the
    outer stream at (alexr2._INIT, t), at t = 0 and, without
    ``warm_start_dual``, at every step.  ``theta`` is passed to the inner
    loop as given.
    """
    rng = SeededRng(seed)
    w = problem.initial_point() if config.w0 is None else np.array(config.w0, dtype=float)
    v, s2 = np.zeros(problem.d), np.zeros(problem.d)
    u = None
    iterates = [w]
    for t in range(config.iters):
        if u is None or not config.warm_start_dual:
            u = batch_estimates(problem, rng, w, config.b2, alexr2._INIT, t)
        k_t = config.k_inner * (1 + t) if config.k_growth else config.k_inner
        z, u = reference_inner_alexr(problem, w, config, rng.spawn(alexr2._COMPONENTS, t), k_t, theta, u)
        w, v, s2 = parameter_step(config, config.alpha, w, v, s2, (w - z) / config.nu)
        iterates.append(w)
    return iterates
