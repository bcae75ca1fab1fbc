"""Problem abstractions shared by every solver.

Decision vectors are plain float64 numpy arrays; solvers reject non-finite
states instead of wrapping arrays in a dedicated type.  A problem is a bundle
of batched oracles over finite populations (one call evaluates a whole stack
of components, each on its own data batch), one outer function shared by
every component, and an optional smooth additive term (an objective g0 in
penalty problems, or a threshold coordinate in CVaR problems).  Exact values
and Jacobians for metrics are the same oracles called on whole populations.

All randomness flows through :class:`SeededRng` so a run is reproducible
bit-for-bit from (seed, config).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ConfigError",
    "bounded",
    "parse_fields",
    "NonFiniteError",
    "SolverAbort",
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
    """Invalid solver or problem configuration, including a problem outside
    the assumptions a method or oracle requires."""


class NonFiniteError(RuntimeError):
    """A NaN/Inf appeared in a solver iterate."""


class SolverAbort(RuntimeError):
    """Solver stopped mid-run; carries the partial trace for post-mortems."""

    def __init__(self, message: str, trace: "SolverTrace"):
        super().__init__(message)
        self.trace = trace


def _finite_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _finite_numbers(v) -> bool:
    vector = isinstance(v, (list, tuple)) or isinstance(v, np.ndarray) and v.ndim == 1
    return vector and all(_finite_number(x) for x in v)


_NUMBERS = ("a list of finite numbers", _finite_numbers)

# field annotation -> (what the value must be, test)
_FIELD_KINDS = {
    "int": (
        "an integer",
        lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    ),
    "float": ("a finite number", _finite_number),
    "bool": ("true or false", lambda v: isinstance(v, (bool, np.bool_))),
    "str": ("a string", lambda v: isinstance(v, str)),
    "dict": ("an object", lambda v: isinstance(v, dict)),
    "tuple[float, ...]": _NUMBERS,
    "np.ndarray": _NUMBERS,
}


def bounded(interval: str, default=MISSING):
    """A dataclass field whose value must lie in ``interval``, written as in
    mathematics: ``"(0, 1]"``, ``"[1, inf)"``.  ``_check_field_types``
    checks it right after the field's kind."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = operator.gt if interval[0] == "(" else operator.ge
    below = operator.lt if interval[-1] == ")" else operator.le

    def inside(value) -> bool:
        return above(value, low) and below(value, high)

    return field(default=default, metadata={"interval": (interval, inside)})


def _check_field_types(config) -> None:
    """Reject a malformed or out-of-range field of a config dataclass.  The
    kind of each field is read off its annotation, a string under ``from
    __future__ import annotations``; None passes only where the annotation
    allows it.  A field declared with ``bounded`` must then lie in its
    interval."""
    for f in fields(config):
        kind, _, rest = f.type.partition(" | ")
        value = getattr(config, f.name)
        if kind not in _FIELD_KINDS or (value is None and rest == "None"):
            continue
        what, ok = _FIELD_KINDS[kind]
        if not ok(value):
            raise ConfigError(f"{f.name} must be {what}, got {value!r}")
        interval, inside = f.metadata.get("interval", ("", None))
        if inside is not None and not inside(value):
            raise ConfigError(f"{f.name} must lie in {interval}, got {value!r}")


def parse_fields(cls, raw):
    """The config dataclass ``cls`` built from one JSON object ``raw``: the
    one boundary every config block passes.  Rejects a block that is not an
    object, unknown keys, missing required keys and malformed fields."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{cls.__name__} block must be an object, got {raw!r}")
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in raw]
    if missing:
        raise ConfigError(f"{cls.__name__} missing required keys: {missing}")
    config = cls(**raw)
    _check_field_types(config)
    return config


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _mix(stream: int, k: int) -> int:
    return _splitmix64((stream * 0x9E3779B97F4A7C15 + k + 1) & _MASK64)


@dataclass
class SeededRng:
    """Deterministic RNG stream keyed by (seed, stream).

    Identical (seed, stream) pairs reproduce the same draw sequence; distinct
    streams are statistically independent.  ``spawn`` derives child streams by
    hashing integer ids.  The solvers' per-step draws come from ``philox``:
    a counter-based generator (Salmon et al., "Parallel random numbers: as
    easy as 1, 2, 3", SC'11) keyed by (seed, stream, purpose) whose counter
    is the step, so no generator is built per step or per component.

    ``philox`` hands numpy its key as the list [seed, mixed stream and
    purpose], each word masked to 64 bits.  When one word is at least 2^63
    and the other is below, numpy converts that list through float64, which
    holds every integer only up to 2^53: larger seeds collide, and a small
    negative seed masks to a word that float64 rounds up to 2^64, outside
    uint64, which numpy casts with a warning.  The seed therefore lies in
    [0, 2^53]; ``cli.RunConfig`` rejects any other.  The conversion stays as
    it is because changing it would move every sampled trace.
    """

    seed: int
    stream: int = 0
    _gen: np.random.Generator | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _philox: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
            stream = _mix(stream, k)
        return SeededRng(self.seed, stream)

    def philox(self, purpose: int, counter: int) -> np.random.Generator:
        """The Philox generator keyed by (seed, stream, purpose), rewound to
        the start of block ``counter``: what is drawn from it next depends on
        (seed, stream, purpose, counter) alone.

        One generator per purpose is built on first use and rewound by every
        later call, so finish one block's draws before asking for the next.
        """
        entry = self._philox.get(purpose)
        if entry is None:
            bits = np.random.Philox(key=[self.seed & _MASK64, _mix(self.stream, purpose)])
            entry = self._philox[purpose] = (bits, np.random.Generator(bits), bits.state)
        bits, gen, state = entry
        # the counter's low words run within the block; setting the state
        # also drops any buffered output
        state["state"]["counter"] = np.array([0, 0, counter & _MASK64, 0], dtype=np.uint64)
        bits.state = state
        return gen


def _ranked(gen: np.random.Generator, populations, size: int, smallest: int, largest: int):
    """Rank one uniform per element of each row's population and keep the
    ``size`` smallest; rows shorter than ``largest`` are padded."""
    u = gen.random((len(populations), largest))
    if smallest < largest:
        u[np.arange(largest) >= populations[:, None]] = 2.0  # never among the smallest
    # the elements at or below each row's size-th smallest value, in index order
    cut = np.partition(u, size - 1, axis=1)[:, size - 1, None]
    flat = (u <= cut).ravel().nonzero()[0]
    if flat.size == size * len(u):  # no tie at the cut
        return flat.reshape(-1, size) % largest
    return np.sort(np.argpartition(u, size - 1, axis=1)[:, :size], axis=1)


def _redrawn(gen: np.random.Generator, populations, size: int, smallest: int, largest: int):
    """Draw ``size`` integers per row and redraw, all rows together, until
    no row holds a repeat.  Rows of one population share a scalar bound."""
    high = smallest if smallest == largest else populations[:, None]
    rows = np.sort(gen.integers(0, high, size=(len(populations), size)), axis=1)
    repeat = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
    while repeat.any():
        fresh = np.sort(gen.integers(0, high, size=(len(populations), size)), axis=1)
        rows[repeat] = fresh[repeat]
        repeat &= (fresh[:, 1:] == fresh[:, :-1]).any(axis=1)
    return rows


def _subsets(gen: np.random.Generator, populations, size: int, smallest: int, largest: int):
    """One sorted uniform size-``size`` subset of range(populations[r]) per
    row r, each read off a fixed block of ``gen``'s output.  ``smallest``
    and ``largest`` bound the populations; when they are equal, only
    ``len(populations)`` is read.

    Rows whose population is at most size**2 are ranked (``_ranked``).  The
    others are redrawn (``_redrawn``): a uniform tuple of distinct elements
    is a uniform subset, a repeat has probability below 1/2, and no
    population-sized array is built.  When the rows take both paths, the
    ranked rows draw first.  Every row is completed whichever rows the
    caller keeps, so row r depends on the generator's block and r only.
    """
    cutoff = size * size
    if largest <= cutoff:
        return _ranked(gen, populations, size, smallest, largest)
    if smallest > cutoff:
        return _redrawn(gen, populations, size, smallest, largest)
    ranked = populations <= cutoff
    small, large = populations[ranked], populations[~ranked]
    out = np.empty((len(populations), size), dtype=np.int64)
    out[ranked] = _ranked(gen, small, size, smallest, int(small.max()))
    out[~ranked] = _redrawn(gen, large, size, int(large.min()), largest)
    return out


def sample_components(gen: np.random.Generator, n: int, b1: int) -> np.ndarray:
    """Uniform size-``b1`` subset of {0,..,n-1} without replacement, sorted.

    Sorted order keeps per-component reductions deterministic regardless of
    how oracle evaluation is scheduled.
    """
    if not 1 <= b1 <= n:
        raise ConfigError(f"component batch size must satisfy 1 <= b1 <= n, got b1={b1}, n={n}")
    return _subsets(gen, (n,), b1, n, n)[0]


def sample_data_batch(gen: np.random.Generator, populations, b2: int) -> np.ndarray:
    """(len(populations), b2) int array: row i is a uniform size-``b2`` index
    subset of component i's population, sorted.  Row i comes from its own
    block of ``gen``'s output, so it is the same whichever components the
    caller goes on to use."""
    populations = np.asarray(populations, dtype=np.int64)
    smallest = int(np.minimum.reduce(populations))
    if not 1 <= b2 <= smallest:
        raise ConfigError(
            f"data batch size must satisfy 1 <= b2 <= population, got b2={b2}, population={smallest}"
        )
    return _subsets(gen, populations, b2, smallest, int(np.maximum.reduce(populations)))


@dataclass
class AdditiveTerm:
    """Smooth term added to the compositional average.

    Covers both an objective g0 of a penalized constrained problem and the
    threshold coordinate of the CVaR objective, so the solvers need a single
    code path.  ``grad`` is the stochastic gradient over a batch of indices
    into a finite population; ``grad_exact`` defaults to a full-population
    call.  Both return a float64 (d,) array, which ``exact_gradient`` passes
    on as is.
    """

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray, np.ndarray], np.ndarray]
    population: int = 1
    grad_exact: Callable[[np.ndarray], np.ndarray] | None = None

    def exact_gradient(self, w: np.ndarray) -> np.ndarray:
        if self.grad_exact is not None:
            return self.grad_exact(w)
        return self.grad(w, np.arange(self.population))


@dataclass
class FccoProblem:
    """Oracle bundle for an n-component compositional objective
    (1/n) sum_i f(g_i(w)) with one outer function ``outer`` shared by every
    component.

    The oracles are batched over a stack of k components:

    - ``inner_value(idx, w, batches)`` returns the (k, d1) array whose row j
      is the average of inner map ``idx[j]`` over the data indices
      ``batches[j]``;
    - ``inner_vjp(idx, w, batches, Y)`` returns the (d,) mean over j of the
      batch-average vector-Jacobian products, the transposed (d1, d)
      Jacobian of component ``idx[j]`` on ``batches[j]`` applied to ``Y[j]``.

    ``idx`` is an int array of k components and ``batches`` a (k, b) int
    array, so every row holds the same number of indices, each within its
    own component's population.  ``w`` is a float64 (d,) array and ``Y`` a
    float64 (k, d1) array (the solvers and the metric entry points coerce
    once), so oracles take them as given.  Oracles must be pure (safe to call
    concurrently).  The exact inner values and Jacobians are these oracles
    over whole populations, so metrics step along the same vector-Jacobian
    products as the solvers.

    The component count ``n`` is ``len(populations)``, not a field.
    Declared constants (`lipschitz_inner`, `smoothness_inner`,
    `weak_convexity_inner`) feed theory-driven defaults and validation; they
    are claims made by the problem constructor, not estimated.
    """

    d: int
    d1: int
    outer: object
    inner_value: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    inner_vjp: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    populations: Sequence[int]
    additive: AdditiveTerm | None = None
    lipschitz_inner: float | None = None
    smoothness_inner: float | None = None
    weak_convexity_inner: float | None = None
    is_penalty: bool = False

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 1 or self.d1 < 1:
            raise ConfigError("n, d, d1 must be positive")
        if self.outer.dim != self.d1:
            raise ConfigError(
                f"outer function dimension {self.outer.dim} does not match problem d1={self.d1}"
            )

    @property
    def n(self) -> int:
        return len(self.populations)

    @property
    def outers(self) -> tuple:
        """The shared outer function once per component, read-only.

        Kept because perfbench/tracer.py collects the outer types to trace
        from this tuple.
        """
        return (self.outer,) * self.n

    @cached_property
    def population_groups(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(idx, batches) per population size: the components of that size
        and their whole populations as a (k, size) batch array, the
        arguments of one exact oracle call.  Built once per problem, since
        every exact pass reads it."""
        pops = np.asarray(self.populations)
        groups = []
        for size in sorted(set(pops.tolist())):
            idx = np.flatnonzero(pops == size)
            groups.append((idx, np.tile(np.arange(size), (len(idx), 1))))
        return tuple(groups)

    def inner_exact(self, i: int, w: np.ndarray) -> np.ndarray:
        """Component i's exact inner value, shape (d1,): one oracle call over
        its whole population."""
        return self.inner_value(np.array([i]), w, np.arange(self.populations[i])[None])[0]

    def inner_jacobian_exact(self, i: int, w: np.ndarray) -> np.ndarray:
        """(d1, d) Jacobian of component i, one whole-population VJP per unit
        vector."""
        idx, batch = np.array([i]), np.arange(self.populations[i])[None]
        return np.vstack([self.inner_vjp(idx, w, batch, e[None]) for e in np.eye(self.d1)])

    def initial_point(self) -> np.ndarray:
        return np.zeros(self.d)


TRACE_HEADER = (
    "iteration,inner_oracle_calls,component_draws,F,F_lambda,grad_norm,"
    "stat_t_residual,max_violation"
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
    max_violation: float | None = None

    def to_csv_line(self) -> str:
        # the field order is TRACE_HEADER's column order; astuple would
        # deep-copy every value, at over three times the cost per row
        return ",".join(_fmt(getattr(self, f.name)) for f in fields(self))


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
    """Run output: trace, the final iterate and its exact pass (the last
    metric row's ``metrics.StationarityReport``), and the uniformly sampled
    iterate the convergence theory talks about.  ``state`` is the solver's
    final internal state (tracker buffers etc.), mainly for diagnostics, and
    ``row_wall_seconds`` the seconds from the solve's start to each trace row."""

    trace: SolverTrace
    w_final: np.ndarray
    w_sampled: np.ndarray
    sampled_iteration: int
    final_report: object
    stopped_early: bool = False
    state: object | None = None
    row_wall_seconds: list[float] = field(default_factory=list)


def ensure_finite(arr: np.ndarray, what: str) -> None:
    # one C-level count: ndarray.all goes through a Python-level wrapper
    finite = np.isfinite(arr)
    if np.count_nonzero(finite) != finite.size:
        raise NonFiniteError(f"non-finite values in {what}")
