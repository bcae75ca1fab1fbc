"""Loop-form reference of the single-loop solver, for tests that compare
``run_sonex`` against it.

It is written straight from the update equations: one oracle call per
(component, sample) pair, Python sums over samples and components, and the
envelope gradient read off the outer function's prox.  It shares nothing
with the solver's batched arithmetic, only its random draws, which come from
``sonex._Draws`` on the solver's seed, so that both see the same components
and batches at every step.
"""

from __future__ import annotations

import numpy as np

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


def reference_sonex(problem: FccoProblem, config: SonexConfig, seed: int, gamma_prime: float) -> np.ndarray:
    """The iterate after ``config.iters`` steps of

        u_i <- (1 - gamma) u_i + gamma g_i(w_t; B_i) + gamma' (g_i(w_t; B_i) - g_i(w_{t-1}; B_i))
        G   <- (1/|S|) sum_{i in S} J_i(w_t; B_i)^T (u_i - prox_{lam f}(u_i)) / lam + grad g_0(w_t; B_0)
        v   <- (1 - beta) v + beta G

    for every i in the step's component set S, then w <- w - eta v for the
    momentum update (``sgd_baseline`` is the momentum update with beta = 1),
    or, for the Adam-type update, w <- w - r v with the elementwise rate
    r = eta / (sqrt(s) + eps), clamped into [eta low, eta high] under
    ``adam_clip``, and s <- (1 - beta2) s + beta2 G^2 after it.  g_i(w; B)
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
    beta = 1.0 if config.update_kind == "sgd_baseline" else config.beta
    v, s2 = np.zeros(problem.d), np.zeros(problem.d)
    w_prev = w
    for t in range(config.iters):
        idx = draws.components(_COMPONENTS, t)
        batches = draws.batches(_BATCH, t, idx)
        grad = np.zeros(problem.d)
        for i, batch in zip(idx, batches):
            g_now = batch_mean_value(problem, i, w, batch)
            g_prev = batch_mean_value(problem, i, w_prev, batch)
            u[i] = (1.0 - config.gamma) * u[i] + config.gamma * g_now + gamma_prime * (g_now - g_prev)
        for i, batch in zip(idx, batches):
            y = (u[i] - problem.outer.prox(config.lam, u[i])) / config.lam
            grad = grad + batch_mean_vjp(problem, i, w, batch, y)
        grad = grad / len(idx)
        if problem.additive is not None:
            batch0 = draws.additive_batch(_ADDITIVE, t)
            grad0 = np.zeros(problem.d)
            for s in batch0:
                grad0 = grad0 + problem.additive.grad(w, np.array([s]))
            grad = grad + grad0 / len(batch0)
        w_prev = w
        v = (1.0 - beta) * v + beta * grad
        if config.update_kind == "adam":
            rate = config.eta / (np.sqrt(s2) + _ADAM_EPS)
            if config.adam_clip is not None:
                low, high = config.adam_clip
                rate = np.minimum(np.maximum(rate, config.eta * low), config.eta * high)
            w = w - rate * v
            s2 = (1.0 - config.adam_beta2) * s2 + config.adam_beta2 * grad * grad
        else:
            w = w - config.eta * v
    return w
