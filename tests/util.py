"""Shared tiny problem builders for the test suite."""

import numpy as np

from fcco import FccoProblem


def scalar_chain_problem(outer, slope=1.0):
    """n=1, d=1, d1=1 with identity inner map g(w) = w."""
    return FccoProblem(
        n=1,
        d=1,
        d1=1,
        outers=(outer,),
        inner_value=lambda i, w, batch: np.array([w[0]]),
        inner_vjp=lambda i, w, batch, y: np.array([float(y[0])]),
        populations=(1,),
        lipschitz_inner=1.0,
        smoothness_inner=0.0,
        weak_convexity_inner=0.0,
    )


def affine_problem(A, b, outers, noise=None):
    """Deterministic affine inner maps g_i(w) = A_i w + b_i (d1 = 1)."""
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    n, d = A.shape
    return FccoProblem(
        n=n,
        d=d,
        d1=1,
        outers=tuple(outers),
        inner_value=lambda i, w, batch: np.array([A[i] @ w + b[i]]),
        inner_vjp=lambda i, w, batch, y: float(y[0]) * A[i],
        populations=(1,) * n,
        lipschitz_inner=float(max(np.linalg.norm(A[i]) for i in range(n))),
        smoothness_inner=0.0,
        weak_convexity_inner=0.0,
    )
