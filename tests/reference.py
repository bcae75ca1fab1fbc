"""Loop-form references of the single-loop solver and of the double-loop
solver's inner loop, for tests that compare ``run_sonex`` and
``run_inner_alexr`` against them.

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


def reference_sonex(problem: FccoProblem, config: SonexConfig, seed: int, gamma_prime: float) -> np.ndarray:
    """The iterate after ``config.iters`` steps of

        u_i <- (1 - gamma) u_i + gamma g_i(w_t; B_i) + gamma' (g_i(w_t; B_i) - g_i(w_{t-1}; B_i))
        G   <- (1/|S|) sum_{i in S} J_i(w_t; B_i)^T (u_i - prox_{lam f}(u_i)) / lam + grad g_0(w_t; B_0)
        v   <- (1 - beta) v + beta G

    (G from ``envelope_gradient``) for every i in the step's component set
    S, then w <- w - eta v for the momentum update, or, for the Adam-type
    update, w <- w - r v with the elementwise rate r = eta / (sqrt(s) + eps)
    clamped into [eta low, eta high] by ``adam_clip``, and
    s <- (1 - beta2) s + beta2 G^2 after it.  g_i(w; B)
    is component i's inner value averaged over batch B, J_i its Jacobian and
    g_0 the additive term.  The trackers start at one batch estimate of
    every g_i at w_0, and at t = 0 there is no w_{-1}, so the correction
    term is 0.  ``gamma_prime`` is taken as given, not resolved from the
    config, so that a test can turn the correction off.
    """
    rng = SeededRng(seed)
    n = problem.n
    w = problem.initial_point() if config.w0 is None else np.array(config.w0, dtype=float)
    init = _Draws(problem, rng, n, config.b2)
    init_batches = init.batches(_INIT, 0, init.all)
    u = np.array([batch_mean_value(problem, i, w, init_batches[i]) for i in range(n)])
    draws = _Draws(problem, rng, config.b1, config.b2)
    v, s2 = np.zeros(problem.d), np.zeros(problem.d)
    w_prev = w
    for t in range(config.iters):
        idx = draws.components(_COMPONENTS, t)
        batches = draws.batches(_BATCH, t, idx)
        for i, batch in zip(idx, batches):
            g_now = batch_mean_value(problem, i, w, batch)
            g_prev = batch_mean_value(problem, i, w_prev, batch)
            u[i] = (1.0 - config.gamma) * u[i] + config.gamma * g_now + gamma_prime * (g_now - g_prev)
        grad = envelope_gradient(problem, idx, batches, u, config.lam, w, draws.additive_batch(_ADDITIVE, t))
        w_prev = w
        v = (1.0 - config.beta) * v + config.beta * grad
        if config.update_kind == "adam":
            low, high = config.adam_clip
            rate = config.eta / (np.sqrt(s2) + _ADAM_EPS)
            rate = np.minimum(np.maximum(rate, config.eta * low), config.eta * high)
            w = w - rate * v
            s2 = (1.0 - config.adam_beta2) * s2 + config.adam_beta2 * grad * grad
        else:
            w = w - config.eta * v
    return w


def reference_inner_alexr(
    problem: FccoProblem,
    w_t: np.ndarray,
    config: Alexr2Config,
    seed: int,
    k: int,
    theta: float,
    u_init: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(z, u) after ``k`` steps of

        g~_i <- g_i(z_k; B_i) + theta (g_i(z_k; B_i) - g_i(z_{k-1}; B_i))
        u_i  <- (1 - gamma^) u_i + gamma^ g~_i,  gamma^ = gamma / (1 + gamma)
        z    <- argmin_z <G, z> + ||z - w_t||^2 / (2 nu) + ||z - z_k||^2 / (2 eta)
              = (z_k / eta + w_t / nu - G) / (1 / eta + 1 / nu)

    for every i in the step's component set S, from z_0 = w_t.  G is
    ``envelope_gradient`` at z_k on the Jacobian batches B'_i, which are
    drawn apart from the value batches B_i.  The trackers start at
    ``u_init``, or at one batch estimate of every g_i at w_t, and at k = 0
    there is no z_{-1}, so the extrapolation is 0.  ``theta`` is taken as
    given, not read from the config, so that a test can turn the
    extrapolation off.
    """
    rng = SeededRng(seed)
    n = problem.n
    if u_init is None:
        init = _Draws(problem, rng, n, config.b2)
        init_batches = init.batches(alexr2._INIT, 0, init.all)
        u = np.array([batch_mean_value(problem, i, w_t, init_batches[i]) for i in range(n)])
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
