"""Shared tiny problem builders for the test suite."""

import numpy as np

from fcco import FccoProblem


def scalar_chain_problem(outer):
    """n=1, d=1, d1=1 with identity inner map g(w) = w."""
    return affine_problem([[1.0]], [0.0], outer)


def affine_problem(A, b, outer):
    """Deterministic affine inner maps g_i(w) = A_i w + b_i (d1 = 1)."""
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    n, d = A.shape
    return FccoProblem(
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
