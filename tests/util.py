"""Shared tiny problem builders and trace readers for the test suite."""

import csv
import hashlib

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


def read_trace(path):
    """The rows of a trace.csv file as dicts keyed by column name."""
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def outputs_sha256(outputs):
    """sha256 over a sequence of outputs.  Each adds its type, dtype and
    shape to its bytes; None adds b"None"."""
    digest = hashlib.sha256()
    for out in outputs:
        if out is None:
            digest.update(b"None")
            continue
        arr = np.asarray(out)
        digest.update(f"{type(out).__name__} {arr.dtype.str} {arr.shape}".encode() + arr.tobytes())
    return digest.hexdigest()
