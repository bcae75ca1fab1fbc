"""Problem abstractions shared by every solver.

Decision vectors are plain float64 numpy arrays; solvers reject non-finite
states instead of wrapping arrays in a dedicated type.  A problem is a bundle
of per-component batch oracles over finite populations, one outer function
shared by every component, and an optional smooth additive term (an
objective g0 in penalty problems, or a threshold coordinate in CVaR
problems).  Exact values and Jacobians for metrics are the
same batch oracles called on a whole population.

All randomness flows through :class:`SeededRng` so a run is reproducible
bit-for-bit from (seed, config).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ConfigError",
    "OracleError",
    "NonFiniteError",
    "SolverAbort",
    "UnsupportedOperationError",
    "SeededRng",
    "sample_components",
    "sample_data_batch",
    "AdditiveTerm",
    "FccoProblem",
    "TraceRow",
    "SolverTrace",
    "SolverResult",
    "TRACE_HEADER",
]


class ConfigError(ValueError):
    """Invalid solver or problem configuration."""


class OracleError(RuntimeError):
    """An oracle was called with invalid arguments."""


class NonFiniteError(RuntimeError):
    """A NaN/Inf appeared in solver state or a gradient estimate."""


class UnsupportedOperationError(RuntimeError):
    """Operation invoked outside the assumptions it requires."""


class SolverAbort(RuntimeError):
    """Solver stopped mid-run; carries the partial trace for post-mortems."""

    def __init__(self, message: str, trace: "SolverTrace | None" = None):
        super().__init__(message)
        self.trace = trace


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass
class SeededRng:
    """Deterministic RNG stream keyed by (seed, stream).

    Identical (seed, stream) pairs reproduce the same draw sequence; distinct
    streams are statistically independent.  ``spawn`` derives child streams by
    hashing integer ids, which is how solvers get one independent stream per
    (iteration, component) without any shared mutable state.
    """

    seed: int
    stream: int = 0
    _gen: np.random.Generator | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence(
                entropy=self.seed & _MASK64, spawn_key=(self.stream & _MASK64,)
            )
            self._gen = np.random.Generator(np.random.PCG64(ss))
        return self._gen

    def spawn(self, *ids: int) -> "SeededRng":
        stream = self.stream
        for k in ids:
            stream = _splitmix64((stream * 0x9E3779B97F4A7C15 + k + 1) & _MASK64)
        return SeededRng(self.seed, stream)


def sample_components(rng: SeededRng, n: int, b1: int) -> np.ndarray:
    """Uniform size-``b1`` subset of {0,..,n-1} without replacement, sorted.

    Sorted order keeps per-component reductions deterministic regardless of
    how oracle evaluation is scheduled.
    """
    if not 1 <= b1 <= n:
        raise ConfigError(f"component batch size must satisfy 1 <= b1 <= n, got b1={b1}, n={n}")
    idx = rng.gen.choice(n, size=b1, replace=False)
    return np.sort(idx)


def sample_data_batch(rng: SeededRng, population: int, b2: int) -> np.ndarray:
    """Uniform size-``b2`` index subset of a finite population, sorted."""
    if not 1 <= b2 <= population:
        raise ConfigError(
            f"data batch size must satisfy 1 <= b2 <= population, got b2={b2}, population={population}"
        )
    idx = rng.gen.choice(population, size=b2, replace=False)
    return np.sort(idx)


@dataclass
class AdditiveTerm:
    """Smooth term added to the compositional average.

    Covers both an objective g0 of a penalized constrained problem and the
    threshold coordinate of the CVaR objective, so the solvers need a single
    code path.  ``grad`` is the stochastic gradient over a batch of indices
    into a finite population; ``grad_exact`` defaults to a full-population
    call.
    """

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray, np.ndarray], np.ndarray]
    population: int = 1
    grad_exact: Callable[[np.ndarray], np.ndarray] | None = None

    def exact_gradient(self, w: np.ndarray) -> np.ndarray:
        if self.grad_exact is not None:
            return np.asarray(self.grad_exact(w), dtype=float)
        return np.asarray(self.grad(w, np.arange(self.population)), dtype=float)


@dataclass
class FccoProblem:
    """Oracle bundle for an n-component compositional objective
    (1/n) sum_i f(g_i(w)) with one outer function ``outer`` shared by every
    component.

    ``inner_value(i, w, batch)`` returns the batch average of the i-th inner
    map (shape (d1,)); ``inner_vjp(i, w, batch, y)`` returns the batch-average
    vector-Jacobian product, i.e. the transposed (d1, d) Jacobian applied to
    ``y``.  Oracles must be pure (safe to call concurrently).  The exact
    inner value and Jacobian are these oracles over the full population, so
    metrics step along the same vector-Jacobian products as the solvers.

    Declared constants (`lipschitz_inner`, `smoothness_inner`,
    `weak_convexity_inner`) feed theory-driven defaults and validation; they
    are claims made by the problem constructor, not estimated.
    """

    n: int
    d: int
    d1: int
    outer: object
    inner_value: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    inner_vjp: Callable[[int, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    populations: Sequence[int]
    additive: AdditiveTerm | None = None
    lipschitz_inner: float | None = None
    smoothness_inner: float | None = None
    weak_convexity_inner: float | None = None
    is_penalty: bool = False
    default_w0: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 1 or self.d1 < 1:
            raise ConfigError("n, d, d1 must be positive")
        if len(self.populations) != self.n:
            raise ConfigError("one population size per component required")
        if self.outer.dim != self.d1:
            raise ConfigError(
                f"outer function dimension {self.outer.dim} does not match problem d1={self.d1}"
            )

    @property
    def outers(self) -> tuple:
        """The shared outer function once per component, read-only.

        Kept because perfbench/tracer.py collects the outer types to trace
        from this tuple.
        """
        return (self.outer,) * self.n

    def batch_domain(self, i: int) -> int:
        return int(self.populations[i])

    def full_batch(self, i: int) -> np.ndarray:
        return np.arange(self.batch_domain(i))

    def inner_exact(self, i: int, w: np.ndarray) -> np.ndarray:
        return self.inner_value(i, w, self.full_batch(i))

    def inner_jacobian_exact(self, i: int, w: np.ndarray) -> np.ndarray:
        """(d1, d) Jacobian, one full-population VJP per unit vector."""
        batch = self.full_batch(i)
        return np.vstack([self.inner_vjp(i, w, batch, e) for e in np.eye(self.d1)])

    def initial_point(self) -> np.ndarray:
        if self.default_w0 is not None:
            return np.array(self.default_w0, dtype=float)
        return np.zeros(self.d)


TRACE_HEADER = (
    "iteration,inner_oracle_calls,component_draws,F,F_lambda,grad_norm,"
    "stat_t_residual,stat_grad_residual,max_violation,wall_ms"
)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    # 17 significant digits round-trips float64 exactly.
    return format(float(x), ".17g")


@dataclass
class TraceRow:
    iteration: int
    inner_oracle_calls: int
    component_draws: int
    f_value: float | None = None
    f_lambda_value: float | None = None
    grad_norm: float | None = None
    stat_t_residual: float | None = None
    stat_grad_residual: float | None = None
    max_violation: float | None = None
    wall_ms: float | None = None

    def to_csv_line(self) -> str:
        return ",".join(
            _fmt(v)
            for v in (
                self.iteration,
                self.inner_oracle_calls,
                self.component_draws,
                self.f_value,
                self.f_lambda_value,
                self.grad_norm,
                self.stat_t_residual,
                self.stat_grad_residual,
                self.max_violation,
                self.wall_ms,
            )
        )


@dataclass
class SolverTrace:
    """Per-iteration records of a solver run; oracle counts are cumulative."""

    rows: list[TraceRow] = field(default_factory=list)

    def append(self, row: TraceRow) -> None:
        if self.rows and row.inner_oracle_calls < self.rows[-1].inner_oracle_calls:
            raise ValueError("inner_oracle_calls must be nondecreasing")
        self.rows.append(row)

    def last(self) -> TraceRow:
        return self.rows[-1]

    def to_csv(self, path) -> None:
        lines = [TRACE_HEADER] + [r.to_csv_line() for r in self.rows]
        with open(path, "w", newline="") as f:
            f.write("\n".join(lines) + "\n")


@dataclass
class SolverResult:
    """Run output: trace, the final iterate, and the uniformly sampled iterate
    the convergence theory talks about.  ``state`` is the solver's final
    internal state (tracker buffers etc.), mainly for diagnostics."""

    trace: SolverTrace
    w_final: np.ndarray
    w_sampled: np.ndarray
    sampled_iteration: int
    stopped_early: bool = False
    state: object | None = None


def ensure_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values in {what}")
