"""Exact evaluation, stationarity certificates, and brute-force test oracles.

The grid prox and finite-difference oracles deliberately share no code with
the closed forms they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import FccoProblem, OracleError, UnsupportedOperationError
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


def _brute_prox_1d(outer, lam, t, step):
    t0 = float(np.atleast_1d(t)[0])
    radius = max(3.0 * lam * outer.lipschitz, 16.0 * step)

    def grid_argmin(lo, hi, h):
        grid = np.arange(lo, hi + h, h)
        vals = outer.value(grid[:, None]) + (grid - t0) ** 2 / (2.0 * lam)
        return float(grid[int(np.argmin(vals))])

    # coarse pass, then re-grid around the argmin at the requested step; the
    # objective is unimodal (convex f plus strongly convex quadratic) so the
    # zoom cannot lose the minimizer
    coarse = max(step, 2.0 * radius / 8000.0)
    v0 = grid_argmin(t0 - radius, t0 + radius, coarse)
    if coarse > step:
        v0 = grid_argmin(v0 - 2.0 * coarse, v0 + 2.0 * coarse, step)

    def objective(v):
        return outer.value(np.array([v])) + (v - t0) ** 2 / (2.0 * lam)

    v_star = _golden_section(objective, v0 - 2.0 * step, v0 + 2.0 * step)
    return np.array([v_star])


def _brute_prox_2d(outer, lam, t, step):
    t = np.asarray(t, dtype=float)

    def objective(v):
        return outer.value(v) + float(np.sum((v - t) ** 2)) / (2.0 * lam)

    center = t.copy()
    half = max(3.0 * lam * outer.lipschitz, 64.0 * step)
    npts = 121
    # staged zoom: keep a generous box (6 grid spacings) around each stage's
    # argmin; the objective is convex so the zoom tracks the minimizer
    while True:
        xs = np.linspace(center[0] - half, center[0] + half, npts)
        ys = np.linspace(center[1] - half, center[1] + half, npts)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        vals = outer.value(pts) + np.sum((pts - t) ** 2, axis=1) / (2.0 * lam)
        center = pts[int(np.argmin(vals))].copy()
        spacing = 2.0 * half / (npts - 1)
        if spacing <= min(step, 1e-7):
            break
        half = 6.0 * spacing

    # directional golden polish; diagonal directions cover kinks aligned with
    # the gap coordinate, where axis-only sweeps can stall
    dirs = [
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        np.array([1.0, 1.0]) / math.sqrt(2.0),
        np.array([1.0, -1.0]) / math.sqrt(2.0),
    ]
    v = center
    span = 4.0 * spacing
    for _ in range(3):
        for u in dirs:
            s = _golden_section(lambda a: objective(v + a * u), -span, span, tol=1e-13)
            v = v + s * u
        span = max(span / 8.0, 1e-10)
    return v


def brute_force_prox(outer, lam: float, t, step: float = 1e-5) -> np.ndarray:
    """Grid-search prox oracle for d1 <= 2 catalog entries.

    Searches the box t +- 3*lam*lipschitz (the prox lies within
    lam*lipschitz of t) and finishes with golden-section refinement.
    Independent of the closed-form prox implementations it validates.
    """
    if outer.dim > 2:
        raise UnsupportedOperationError("grid prox oracle supports d1 <= 2 only")
    if lam <= 0 or step <= 0:
        raise OracleError("lam and step must be positive")
    if outer.dim == 1:
        return _brute_prox_1d(outer, lam, t, step)
    return _brute_prox_2d(outer, lam, t, step)


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
    # left to right from 0.0: np.sum is pairwise from 8 terms on, so it would
    # round differently from a running sum over the components
    total = 0.0
    for v in values.tolist():
        total += v
    return total


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
    (F, F_lam); max_inner_value is the largest inner-value coordinate over the
    components (the largest constraint value on a penalty problem).
    """

    grad_F_lambda_norm: float
    approx_t_residual: float
    f_value: float
    f_lambda_value: float
    max_inner_value: float
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
        max_inner_value=float(np.max(g)),
        grad_F_lambda=acc,
        inner_values=g,
        envelope_grads=y,
    )


def _gram_min_eig(problem: FccoProblem, w: np.ndarray) -> tuple[float, bool]:
    """(smallest eigenvalue of J J^T, rank-deficient by shape) for the
    (n d1, d) stack J of the exact inner Jacobians at w.  More rows than d
    make J J^T singular by shape: that reports (0.0, True) and builds no J.
    A diagnostic for the regularity condition that upgrades the stationarity
    surrogates to a nearly-stationary guarantee, not a certificate by itself
    (the theory's threshold constant is existential and cannot be checked)."""
    if problem.n * problem.d1 > problem.d:
        return 0.0, True
    stacked = np.vstack([problem.inner_jacobian_exact(i, w) for i in range(problem.n)])
    return float(np.linalg.eigvalsh(stacked @ stacked.T)[0]), False
