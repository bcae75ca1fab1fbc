"""Exact evaluation, stationarity certificates, and brute-force test oracles.

The grid prox oracle, one grid search for d1 <= 2, and the
finite-difference oracle deliberately share no code with the closed forms
they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ConfigError, FccoProblem
from .smoothing import _prox_and_envelope

__all__ = [
    "StationarityReport",
    "eval_exact",
    "stationarity_report",
    "finite_difference_gradient",
    "brute_force_prox",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def finite_difference_gradient(
    fn: Callable[[np.ndarray], float], w: np.ndarray, h: float = 1e-6
) -> np.ndarray:
    """Central differences per coordinate; ``fn`` must be deterministic."""
    w = np.asarray(w, dtype=float)
    g = np.zeros_like(w)
    for j in range(w.size):
        e = np.zeros_like(w)
        e[j] = h
        g[j] = (fn(w + e) - fn(w - e)) / (2.0 * h)
    return g


def _golden_section(fn, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Minimize a unimodal 1-D function on [lo, hi]."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def brute_force_prox(outer, lam: float, t, step: float = 1e-5) -> np.ndarray:
    """Grid-search prox oracle for d1 <= 2 catalog entries.

    Searches a grid of 121 points per axis over the box t +- 3*lam*lipschitz
    (the prox lies within lam*lipschitz of t), re-centred on each stage's
    argmin until the spacing reaches min(step, 1e-7), and finishes with
    golden-section refinement.  Independent of the closed-form prox
    implementations it validates.
    """
    if outer.dim > 2:
        raise ConfigError("grid prox oracle supports d1 <= 2 only")
    if lam <= 0 or step <= 0:
        raise ConfigError("lam and step must be positive")
    t = np.atleast_1d(np.asarray(t, dtype=float))

    def objective(v):
        return outer.value(v) + float(np.sum((v - t) ** 2)) / (2.0 * lam)

    center = t.copy()
    half = max(3.0 * lam * outer.lipschitz, 64.0 * step)
    npts = 121
    # staged zoom: keep a generous box (6 grid spacings) around each stage's
    # argmin; the objective is convex so the zoom tracks the minimizer
    while True:
        axes = [np.linspace(c - half, c + half, npts) for c in center]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, outer.dim)
        vals = outer.value(pts) + np.sum((pts - t) ** 2, axis=1) / (2.0 * lam)
        center = pts[int(np.argmin(vals))].copy()
        spacing = 2.0 * half / (npts - 1)
        if spacing <= min(step, 1e-7):
            break
        half = 6.0 * spacing

    # golden polish along each axis and, in 2-D, the diagonals, which cover
    # kinks aligned with the gap coordinate, where axis-only sweeps can stall
    dirs = list(np.eye(outer.dim))
    if outer.dim == 2:
        dirs += [np.array([1.0, 1.0]) / math.sqrt(2.0), np.array([1.0, -1.0]) / math.sqrt(2.0)]
    v = center
    span = 4.0 * spacing
    for _ in range(3):
        for u in dirs:
            s = _golden_section(lambda a: objective(v + a * u), -span, span, tol=1e-13)
            v = v + s * u
        span = max(span / 8.0, 1e-10)
    return v


def eval_exact(problem: FccoProblem, w: np.ndarray, lam: float) -> tuple[float, float]:
    """Population objective and its outer-smoothed value at w.

    Returns (F, F_lam) where F averages f_i(g_i(w)) and F_lam averages the
    envelope values, both plus the additive term when present.  This is the
    value half of stationarity_report's pass and calls no VJP.
    """
    w = np.asarray(w, dtype=float)
    _, _, f, f_lam = _exact_values(problem, problem.population_groups, w, lam)
    return f, f_lam


def _exact_values(problem: FccoProblem, groups, w: np.ndarray, lam: float):
    """(g, p, F, F_lam): the (n, d1) stack of full-population inner values
    (one oracle call per group of ``problem.population_groups``), their
    prox points, and the objective and its outer-smoothed value."""
    g = np.empty((problem.n, problem.d1))
    for idx, batches in groups:
        g[idx] = problem.inner_value(idx, w, batches)
    p, envelopes = _prox_and_envelope(problem.outer, lam, g)
    f = _sum_in_order(problem.outer.value(g)) / problem.n
    f_lam = _sum_in_order(envelopes) / problem.n
    if problem.additive is not None:
        extra = float(problem.additive.value(w))
        f += extra
        f_lam += extra
    return g, p, f, f_lam


def _sum_in_order(values: np.ndarray) -> float:
    # left to right from 0.0, which np.sum (pairwise from 8 terms on) does not
    # round like; + 0.0 turns cumsum's -0.0 on an all -0.0 input into 0.0
    return float(np.cumsum(values)[-1]) + 0.0


@dataclass
class StationarityReport:
    """Exact objective values and computable stationarity surrogates at a
    candidate solution, from one pass over the components.

    inner_values is the (n, d1) stack of exact g_i(w); envelope_grads holds
    (g_i - prox(g_i)) / lam, whose full-population VJPs (the oracle the
    solvers step along) average to the exact smoothed gradient grad_F_lambda
    (plus the additive gradient), and on a penalty problem its column over m
    gives the multipliers.  approx_t_residual is bounded by lam * the outer
    Lipschitz constant.  f_value and f_lambda_value equal eval_exact's
    (F, F_lam); constraint_values holds the m constraint values c(g_i), read
    through the outer function, on a penalty problem and is None elsewhere.
    """

    grad_F_lambda_norm: float
    approx_t_residual: float
    f_value: float
    f_lambda_value: float
    constraint_values: np.ndarray | None
    grad_F_lambda: np.ndarray
    inner_values: np.ndarray
    envelope_grads: np.ndarray


def stationarity_report(problem: FccoProblem, w: np.ndarray, lam: float) -> StationarityReport:
    w = np.asarray(w, dtype=float)
    groups = problem.population_groups
    g, p, f, f_lam = _exact_values(problem, groups, w, lam)
    r = g - p
    y = r / lam
    vjps = [len(idx) * problem.inner_vjp(idx, w, batches, y[idx]) for idx, batches in groups]
    acc = sum(vjps) / problem.n
    if problem.additive is not None:
        acc = acc + problem.additive.exact_gradient(w)
    return StationarityReport(
        grad_F_lambda_norm=float(np.linalg.norm(acc)),
        approx_t_residual=float(np.max(np.linalg.norm(r, axis=1))),
        f_value=f,
        f_lambda_value=f_lam,
        constraint_values=problem.outer.constraint(g) if problem.is_penalty else None,
        grad_F_lambda=acc,
        inner_values=g,
        envelope_grads=y,
    )


def _gram_min_eig(problem: FccoProblem, w: np.ndarray, inner_values=None) -> tuple[float, bool]:
    """(smallest eigenvalue of J J^T, rank-deficient by shape) for the stack
    J of the exact inner Jacobians at w: its n d1 rows, or on a penalty
    problem the m constraint gradients J_i^T grad c(g_i), the exact g_i read
    from ``inner_values`` when a pass at w already holds them.  More rows
    than d make J J^T singular by shape: that reports (0.0, True) and builds
    no J.  A diagnostic for the regularity condition that upgrades the
    stationarity surrogates to a nearly-stationary guarantee, not a
    certificate by itself (the theory's threshold constant is existential
    and cannot be checked)."""
    if (problem.n if problem.is_penalty else problem.n * problem.d1) > problem.d:
        return 0.0, True
    rows = [problem.inner_jacobian_exact(i, w) for i in range(problem.n)]
    if problem.is_penalty:
        if inner_values is None:
            inner_values = [problem.inner_exact(i, w) for i in range(problem.n)]
        rows = [problem.outer.constraint_grad(g) @ jac for g, jac in zip(inner_values, rows)]
    stacked = np.vstack(rows)
    return float(np.linalg.eigvalsh(stacked @ stacked.T)[0]), False
