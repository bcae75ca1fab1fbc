"""Shared tiny problem builders for the test suite."""

import numpy as np

from fcco import FccoProblem


def scalar_chain_problem(outer, slope=1.0):
    """n=1, d=1, d1=1 with identity inner map g(w) = w."""
    return FccoProblem(
        n=1,
        d=1,
        d1=1,
        outer=outer,
        inner_value=lambda idx, w, batches: np.full((len(idx), 1), w[0]),
        inner_vjp=lambda idx, w, batches, Y: np.array([Y[:, 0].mean()]),
        populations=(1,),
        lipschitz_inner=1.0,
        smoothness_inner=0.0,
        weak_convexity_inner=0.0,
    )


def affine_problem(A, b, outer, noise=None):
    """Deterministic affine inner maps g_i(w) = A_i w + b_i (d1 = 1)."""
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    n, d = A.shape
    return FccoProblem(
        n=n,
        d=d,
        d1=1,
        outer=outer,
        inner_value=lambda idx, w, batches: (A[idx] @ w + b[idx])[:, None],
        inner_vjp=lambda idx, w, batches, Y: Y[:, 0] @ A[idx] / len(idx),
        populations=(1,) * n,
        lipschitz_inner=float(max(np.linalg.norm(A[i]) for i in range(n))),
        smoothness_inner=0.0,
        weak_convexity_inner=0.0,
    )
