"""Synthetic and toy benchmark problems.

Every stochastic oracle here is a finite-population model: per-sample
parameters (including noise) are frozen at construction and empirically
centered, so the exact values (the batch oracles over the whole population)
are the population means, and a batch estimate that averages per-sample
values is unbiased by construction (the ROC penalty's constraint is no such
average; see ``make_roc_fairness_toy``).
Declared Lipschitz/smoothness constants are computed from the generated
parameters over a stated test box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AdditiveTerm, ConfigError, FccoProblem, SeededRng, _check_field_types, bounded, parse_fields,
)
from .penalty import ConstrainedProblem, build_penalty_problem
from .smoothing import GapHinge, ScaledHinge, make_outer

__all__ = [
    "SyntheticFccoSpec",
    "GdroCvarSpec",
    "RocFairnessSpec",
    "make_synthetic_fcco",
    "make_gdro_cvar",
    "make_toy_constrained",
    "make_roc_fairness_toy",
    "make_roc_fairness_fcco",
    "cvar_from_losses",
]


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _sigmoid_prime(z):
    s = _sigmoid(z)
    return s * (1.0 - s)


@dataclass
class SyntheticFccoSpec:
    """Generator spec for compositional test problems.

    inner families: affine (A_i w + b_i), quadratic (rows 0.5 w'Q w + a'w + b),
    sigmoid (rows sigmoid(a'w + b)).  sigma0 perturbs per-sample offsets
    (value noise), sigma1 per-sample linear terms (gradient noise).
    """

    n: int = bounded("[1, inf)", default=8)
    d: int = bounded("[1, inf)", default=10)
    d1: int = bounded("[1, inf)", default=1)
    inner_kind: str = "affine"
    outer_kind: str = "identity"
    outer_param: float | None = None
    sigma0: float = bounded("[0, inf)", default=0.0)
    sigma1: float = bounded("[0, inf)", default=0.0)
    population: int = bounded("[1, inf)", default=50)
    seed: int = 0
    box_radius: float = bounded("(0, inf)", default=2.0)
    linear_scale: float = 1.0
    offset_shift: float = 0.0

    def validate(self) -> None:
        _check_field_types(self)
        if self.inner_kind not in ("affine", "quadratic", "sigmoid"):
            raise ConfigError(f"unknown inner family {self.inner_kind!r}")
        make_outer(self.outer_kind, self.outer_param)  # raises on bad kind


def _centered_noise(rng, shape, sigma):
    if sigma == 0.0:
        return np.zeros(shape)
    noise = rng.normal(size=shape) * sigma
    return noise - noise.mean(axis=1, keepdims=True)


@np.errstate(all="ignore")  # non-finite results fail the check below instead
def _validate_declared_lipschitz(problem: FccoProblem, box_radius: float, seed: int):
    # generated constants are claims; check them against sampled difference
    # quotients of the exact maps inside the stated box before handing the
    # problem out.  A non-finite constant, distance or gap fails: a check
    # that cannot be computed checks nothing.
    if not math.isfinite(problem.lipschitz_inner):
        raise ConfigError(
            f"declared inner Lipschitz constant must be finite, got {problem.lipschitz_inner}"
        )
    gen = SeededRng(seed, 424242).gen
    bound = problem.lipschitz_inner * (1.0 + 1e-6)
    for _ in range(100):  # sampled pairs
        i = int(gen.integers(problem.n))
        a = gen.normal(size=problem.d)
        a *= box_radius * gen.uniform() ** 0.5 / np.linalg.norm(a)
        b = gen.normal(size=problem.d)
        b *= box_radius * gen.uniform() ** 0.5 / np.linalg.norm(b)
        dist = np.linalg.norm(a - b)
        if not math.isfinite(dist):
            raise ConfigError(
                f"box_radius {box_radius} is too large to check the declared inner "
                f"Lipschitz constant: sampled distances overflow"
            )
        gap = np.linalg.norm(problem.inner_exact(i, a) - problem.inner_exact(i, b))
        if not gap <= bound * dist:  # a NaN gap fails too
            raise ConfigError(
                f"declared inner Lipschitz constant {problem.lipschitz_inner} violated "
                f"empirically (ratio {gap / dist:.4g})"
            )
    return problem


def make_synthetic_fcco(spec: SyntheticFccoSpec) -> FccoProblem:
    spec.validate()
    rng = SeededRng(spec.seed).gen
    n, d, d1, pop = spec.n, spec.d, spec.d1, spec.population

    lin = rng.normal(size=(n, d1, d)) * spec.linear_scale / math.sqrt(d)
    off = rng.normal(size=(n, d1)) + spec.offset_shift
    lin_samp = lin[:, None] + _centered_noise(rng, (n, pop, d1, d), spec.sigma1)
    off_samp = off[:, None] + _centered_noise(rng, (n, pop, d1), spec.sigma0)

    quad = None
    if spec.inner_kind == "quadratic":
        quad = np.empty((n, d1, d, d))
        for i in range(n):
            for j in range(d1):
                m = rng.normal(size=(d, d)) / math.sqrt(d)
                quad[i, j] = 0.5 * (m @ m.T)

    # flat views of the per-sample linear terms and offsets: sample j of
    # component i is row i * pop + j, so one take gathers a (k, b) batch
    lin_rows, off_rows = lin_samp.reshape(n * pop, d1, d), off_samp.reshape(n * pop, d1)

    def samples(idx, batches):
        rows = idx[:, None] * pop + batches
        return lin_rows.take(rows, axis=0), off_rows.take(rows, axis=0)

    def mean(x):  # the bits of x.mean(axis=1), without its Python-level wrapper
        return np.add.reduce(x, axis=1) / x.shape[1]

    # numpy sums the batch axis of a (k, b, d1, d) stack one d-row at a time;
    # gathered batch axis first, the same adds in the same order run on whole
    # slabs, about 5x faster.  It sums a (k, b, 1, 1) stack pairwise, so that
    # layout stays.
    batch_axis = 0 if d1 * d > 1 else 1

    def jacobian_rows(idx, batches):
        rows = idx[:, None] * pop + batches
        return rows.T if batch_axis == 0 else rows

    def jacobian_mean(x):
        return np.add.reduce(x, axis=batch_axis) / x.shape[batch_axis]

    def linear_mean(idx, batches):
        return jacobian_mean(lin_rows.take(jacobian_rows(idx, batches), axis=0))

    if spec.inner_kind == "affine":

        def values(idx, w, batches):
            lin, off = samples(idx, batches)
            return mean(lin @ w + off)

        def jacobians(idx, w, batches):
            return linear_mean(idx, batches)

    elif spec.inner_kind == "quadratic":

        def values(idx, w, batches):
            lin, off = samples(idx, batches)
            base = 0.5 * np.einsum("kabc,b,c->ka", quad.take(idx, axis=0), w, w)
            return base + mean(lin @ w + off)

        def jacobians(idx, w, batches):
            return np.einsum("kabc,c->kab", quad.take(idx, axis=0), w) + linear_mean(idx, batches)

    else:  # sigmoid

        def values(idx, w, batches):
            lin, off = samples(idx, batches)
            return mean(_sigmoid(lin @ w + off))

        def jacobians(idx, w, batches):
            rows = jacobian_rows(idx, batches)
            lin, off = lin_rows.take(rows, axis=0), off_rows.take(rows, axis=0)
            return jacobian_mean(_sigmoid_prime(lin @ w + off)[..., None] * lin)

    def inner_vjp(idx, w, batches, Y):
        # jacobians: the (k, d1, d) batch-average Jacobians
        return np.einsum("kad,ka->d", jacobians(idx, w, batches), Y) / len(idx)

    c_g, l_g = _synthetic_constants(spec, lin, lin_samp, quad)
    problem = FccoProblem(
        d=d,
        d1=d1,
        outer=make_outer(spec.outer_kind, spec.outer_param),
        inner_value=values,
        inner_vjp=inner_vjp,
        populations=(pop,) * n,
        lipschitz_inner=c_g,
        smoothness_inner=l_g,
        weak_convexity_inner=0.0,
    )
    return _validate_declared_lipschitz(problem, spec.box_radius, spec.seed)


@np.errstate(over="ignore")  # a huge box overflows c_g to inf, which the check rejects
def _synthetic_constants(spec, lin, lin_samp, quad):
    n = spec.n
    if spec.inner_kind == "affine":
        c_g = max(np.linalg.norm(lin[i], 2) for i in range(n))
        return float(c_g), 0.0
    if spec.inner_kind == "quadratic":
        r = spec.box_radius
        c_sq = []
        smooth = []
        for i in range(n):
            norms = [np.linalg.norm(quad[i, j], 2) for j in range(spec.d1)]
            rows = [
                (norms[j] * r + np.abs(lin_samp[i, :, j]).sum(axis=-1).max()) ** 2
                for j in range(spec.d1)
            ]
            c_sq.append(math.sqrt(sum(rows)))
            smooth.append(math.sqrt(sum(q**2 for q in norms)))
        return float(max(c_sq)), float(max(smooth))
    # sigmoid: per-row gradient norm <= ||a||/4, curvature <= 0.1 ||a||^2
    row_norms = np.linalg.norm(lin_samp, axis=-1)  # (n, pop, d1)
    c_g = float(np.sqrt((row_norms**2).sum(axis=-1)).max()) / 4.0
    l_g = 0.1 * float(np.sqrt((row_norms**4).sum(axis=-1)).max())
    return c_g, l_g


@dataclass
class GdroCvarSpec:
    """Group DRO with a CVaR objective over synthetic logistic-regression
    groups.  Decision is (theta in R^p, threshold s); each group contributes
    the inner map (mean group loss - s) through a (1/ratio)-hinge, and the
    threshold enters through the additive term.

    The outer Lipschitz constant is 1/ratio, so smoothing-parameter
    couplings of the form eps/lipschitz shrink with the ratio; small ratios
    need proportionally smaller smoothing for the same objective accuracy."""

    n_groups: int = bounded("[1, inf)", default=8)
    p: int = bounded("[1, inf)", default=4)
    samples_per_group: int = bounded("[1, inf)", default=200)
    ratio: float = bounded("(0, 1]", default=0.15)
    seed: int = 0
    group_shift: float = 1.0

    def validate(self) -> None:
        _check_field_types(self)
        if self.ratio * self.n_groups < 1:
            raise ConfigError("ratio * n_groups must be >= 1")


def make_gdro_cvar(spec: GdroCvarSpec) -> FccoProblem:
    spec.validate()
    rng = SeededRng(spec.seed).gen
    n, p, m = spec.n_groups, spec.p, spec.samples_per_group
    d = p + 1
    xs, ys = [], []
    for _ in range(n):
        mean = rng.normal(size=p) * spec.group_shift
        w_true = rng.normal(size=p)
        x = rng.normal(size=(m, p)) + mean
        y = np.where(rng.uniform(size=m) < _sigmoid(x @ w_true), 1.0, -1.0)
        xs.append(x)
        ys.append(y)
    feats, labels = np.stack(xs), np.stack(ys)  # (n, m, p), (n, m)

    def margins(idx, theta, batches):
        rows = (idx[:, None], batches)
        x, lab = feats[rows], labels[rows]
        return x, lab, lab * (x @ theta)

    def inner_value(idx, w, batches):
        _, _, margin = margins(idx, w[:p], batches)
        return (np.logaddexp(0.0, -margin).mean(axis=1) - w[p])[:, None]

    def inner_vjp(idx, w, batches, Y):
        x, lab, margin = margins(idx, w[:p], batches)
        loss_grad = ((-lab * _sigmoid(-margin))[..., None] * x).mean(axis=1)  # (k, p)
        y = Y[:, 0]
        out = np.empty(d)
        out[:p] = y @ loss_grad / len(idx)
        out[p] = -y.mean()
        return out

    threshold_grad = np.eye(d)[p]  # built once; every call returns it, read-only
    threshold_grad.flags.writeable = False
    additive = AdditiveTerm(value=lambda w: float(w[p]), grad=lambda w, batch: threshold_grad, population=1)
    # a huge group_shift overflows a constant to inf, which the check rejects
    with np.errstate(over="ignore"):
        max_mean_norm = max(np.linalg.norm(x, axis=1).mean() for x in xs)
        lipschitz = float(math.sqrt(max_mean_norm**2 + 1.0))
        smoothness = float(max((np.linalg.norm(x, axis=1) ** 2).mean() for x in xs) / 4.0)
    problem = FccoProblem(
        d=d,
        d1=1,
        outer=ScaledHinge(1.0 / spec.ratio),
        inner_value=inner_value,
        inner_vjp=inner_vjp,
        populations=(m,) * n,
        additive=additive,
        lipschitz_inner=lipschitz,
        smoothness_inner=smoothness,
        weak_convexity_inner=0.0,
    )
    return _validate_declared_lipschitz(problem, 2.0, spec.seed)


def cvar_from_losses(losses, ratio: float) -> float:
    """Sort-based CVaR: average of the top ceil(ratio*n) losses with
    fractional weight on the last one.  Equals min_s s + mean[(loss-s)_+]/ratio."""
    losses = np.sort(np.asarray(losses, dtype=float))[::-1]
    count = ratio * losses.size
    if count < 1.0:
        raise ConfigError("ratio * group count must be >= 1")
    k = int(math.floor(count))
    total = losses[:k].sum()
    if k < losses.size and count > k:
        total += (count - k) * losses[k]
    return float(total / count)


# the parameters of each make_toy_constrained kind, with their defaults
@dataclass
class QpBoxToy:
    center: float = 2.0
    bound: float = 1.0


@dataclass
class CircleToy:
    center: tuple[float, ...] = (2.0, 0.0)


@dataclass
class WeaklyConvexToy:
    curvature: float = bounded("(0, 1)", default=0.3)  # keeps the constraint increasing


_TOYS = {"qp_box": QpBoxToy, "circle": CircleToy, "weakly_convex_1d": WeaklyConvexToy}


def _validate_constraint_lipschitz(cp: ConstrainedProblem) -> ConstrainedProblem:
    # the constraints are the penalty problem's inner maps; radius 2 is the
    # ball the circle's constant is stated for
    _validate_declared_lipschitz(build_penalty_problem(cp, 1.0), 2.0, 0)
    return cp


def make_toy_constrained(kind: str, **params) -> ConstrainedProblem:
    """Hand-solvable constrained fixtures, all of one shape: min ||w - c||^2
    s.t. h(w) <= 0, one constraint on a population of one.  The kinds differ
    only in data: the target c, the closures of h's value and gradient, h's
    declared constants and the known KKT pair (w*, nu*).

    qp_box:  c = center, h(w) = w - bound (1-D); for c > bound the constraint
             is active, w* = bound, nu* = 2(c - bound).
    circle:  c = center, h(w) = ||w||^2 - 1 (smooth); for c outside the disk
             w* = c/||c||, nu* = ||c|| - 1.
    weakly_convex_1d: c = 2, h(w) = (w-1) + a(1-cos(w-1)), weakly convex with
             modulus a but strictly increasing, so w* = 1, nu* = 2 as in qp_box.
    """
    if kind not in tuple(_TOYS):  # compared by ==: a kind read from JSON may be unhashable
        raise ConfigError(f"unknown toy kind {kind!r}")
    toy = parse_fields(_TOYS[kind], params)
    # h's value and gradient run on every inner step, so each kind writes them
    # as its own closures rather than calls through a shared h(w)
    if kind == "qp_box":
        c, bound = np.array([toy.center], dtype=float), float(toy.bound)
        h_value, h_grad = (lambda idx, w, batches: np.array([[w[0] - bound]] * len(idx)),
                           lambda idx, w, batches, Y: np.array([np.add.reduce(Y[:, 0]) / len(idx)]))
        lipschitz, smoothness, weak_convexity = 1.0, 0.0, 0.0
        w_star, nu_star = (c.copy(), 0.0) if c[0] <= bound else (np.array([bound]), 2.0 * (c[0] - bound))
    elif kind == "circle":
        if len(toy.center) != 2:
            raise ConfigError(f"circle center must be two numbers, got {toy.center!r}")
        c = np.asarray(toy.center, dtype=float)
        h_value, h_grad = (lambda idx, w, batches: np.array([[np.add.reduce(w * w) - 1.0]] * len(idx)),
                           lambda idx, w, batches, Y: (2.0 * w) * (np.add.reduce(Y[:, 0]) / len(idx)))
        lipschitz, smoothness, weak_convexity = 4.0, 2.0, 0.0  # over the ball of radius 2
        norm_c = float(np.linalg.norm(c))
        w_star, nu_star = (c.copy(), 0.0) if norm_c <= 1.0 else (c / norm_c, norm_c - 1.0)
    else:  # weakly_convex_1d
        c, a = np.array([2.0]), toy.curvature
        h_value, h_grad = (
            lambda idx, w, batches: np.array([[(w[0] - 1.0) + a * (1.0 - math.cos(w[0] - 1.0))]] * len(idx)),
            lambda idx, w, batches, Y: np.array([1.0 + a * math.sin(w[0] - 1.0)]) * (np.add.reduce(Y[:, 0]) / len(idx)),
        )
        # no smoothness constant: exercised as the weakly convex regime
        lipschitz, smoothness, weak_convexity = 1.0 + a, None, a
        w_star, nu_star = np.array([1.0]), 2.0
    cp = ConstrainedProblem(
        d=c.size,
        objective=AdditiveTerm(
            value=lambda w: float(np.sum((w - c) ** 2)), grad=lambda w, batch: 2.0 * (w - c)
        ),
        constraint_value=h_value,
        constraint_grad=h_grad,
        populations=(1,),
        lipschitz_constraints=lipschitz,
        smoothness_constraints=smoothness,
        weak_convexity_constraints=weak_convexity,
        known_solution=w_star,
        known_multipliers=np.array([nu_star]),
    )
    return _validate_constraint_lipschitz(cp)


@dataclass
class RocFairnessSpec:
    """ROC fairness instance shared by the penalty and the compositional form.

    ``thresholds`` are the score thresholds (at least one) at which each
    group's true- and false-positive rates are compared; ``margin`` is the
    allowed rate gap.  ``n_pos`` and ``n_neg`` are the positives and
    negatives per group, ``dim`` the feature dimension and ``seed`` the data
    seed.  Positives of group A are centred at a random mean plus 0.3 and
    negatives at its opposite; group B draws its own mean.
    """

    thresholds: tuple[float, ...]
    margin: float = bounded("(0, inf)", default=0.05)
    n_pos: int = bounded("[1, inf)", default=30)
    n_neg: int = bounded("[1, inf)", default=30)
    dim: int = bounded("[1, inf)", default=4)
    seed: int = 0

    def validate(self) -> None:
        _check_field_types(self)
        if len(self.thresholds) < 1:
            raise ConfigError("need at least one threshold")


class _RocData:
    """One ROC fairness instance: its samples, one threshold per constraint
    and the sizes and feature scale the makers declare."""

    def __init__(self, spec: RocFairnessSpec):
        spec.validate()
        n_pos, n_neg, dim = spec.n_pos, spec.n_neg, spec.dim
        rng = SeededRng(spec.seed).gen
        mu_a = rng.normal(size=dim) * 0.5 + 0.3
        mu_b = rng.normal(size=dim) * 0.5
        pos_a = rng.normal(size=(n_pos, dim)) + mu_a
        neg_a = rng.normal(size=(n_neg, dim)) - mu_a
        pos_b = rng.normal(size=(n_pos, dim)) + mu_b
        neg_b = rng.normal(size=(n_neg, dim)) - mu_b
        self.margin = float(spec.margin)
        self.all_pos = np.vstack([pos_a, pos_b])
        self.all_neg = np.vstack([neg_a, neg_b])
        # constraint k covers threshold k//2; even k compares positives
        # (true-positive rates), odd k negatives (false-positive rates).
        # feats[c] holds class c's samples of both groups side by side,
        # zero-padded to the larger class size: (2, rows, 2, dim)
        self.tau = np.repeat([float(t) for t in spec.thresholds], 2)
        self.feats = np.zeros((2, max(n_pos, n_neg), 2, dim))
        self.feats[0, :n_pos] = np.stack([pos_a, pos_b], axis=1)
        self.feats[1, :n_neg] = np.stack([neg_a, neg_b], axis=1)
        self.populations = (n_pos, n_neg) * len(spec.thresholds)
        self.scale = float(max(np.linalg.norm(x, axis=1).mean() for x in (pos_a, pos_b, neg_a, neg_b)))

    def _scores(self, idx, w, batches):
        x = self.feats[(idx % 2)[:, None], batches]  # (k, b, 2, dim)
        return x, x @ w - self.tau[idx][:, None, None]

    def rates(self, idx, w, batches):
        """(k, 2) group rates of constraints ``idx`` on their batches."""
        return _sigmoid(self._scores(idx, w, batches)[1]).mean(axis=1)

    def rate_jacobians(self, idx, w, batches):
        """(k, 2, dim) Jacobians of ``rates``."""
        x, z = self._scores(idx, w, batches)
        return (_sigmoid_prime(z)[..., None] * x).mean(axis=1)

    def auc_term(self):
        pos, neg = self.all_pos, self.all_neg
        n_pairs = len(pos) * len(neg)

        def value(w):
            diff = pos @ w
            return -float(_sigmoid(diff[:, None] - (neg @ w)[None, :]).mean())

        def grad(w, batch):
            i, j = np.divmod(batch, len(neg))
            delta = pos[i] - neg[j]
            sp = _sigmoid_prime(pos[i] @ w - neg[j] @ w)
            return -(sp[:, None] * delta).mean(axis=0)

        def grad_exact(w):
            # the pair sum of sp_ij (pos_i - neg_j), grouped by class sample
            sp = _sigmoid_prime((pos @ w)[:, None] - (neg @ w)[None, :])
            return -(sp.sum(axis=1) @ pos - sp.sum(axis=0) @ neg) / sp.size

        return AdditiveTerm(value=value, grad=grad, population=n_pairs, grad_exact=grad_exact)


def make_roc_fairness_toy(spec: RocFairnessSpec) -> ConstrainedProblem:
    """Pairwise ranking objective with 2*len(thresholds) rate-gap constraints
    |rate_groupA - rate_groupB| - margin <= 0, rates being sigmoid means of a
    linear scorer at each threshold.  Groups are generated with equal class
    counts so batches index both groups in lockstep.  A batch value,
    |batch rate gap| - margin, is no per-sample average: by Jensen's inequality
    it is biased upward wherever batches disagree on the sign of the gap."""
    data = _RocData(spec)

    def h_value(idx, w, batches):
        r = data.rates(idx, w, batches)
        return (np.abs(r[:, 0] - r[:, 1]) - data.margin)[:, None]

    def h_grad(idx, w, batches, Y):
        # rates and rate_jacobians from one score pass; s * (1 - s) is _sigmoid_prime
        x, z = data._scores(idx, w, batches)
        s = _sigmoid(z)
        r, jac = s.mean(axis=1), ((s * (1.0 - s))[..., None] * x).mean(axis=1)
        return (Y[:, 0] * np.sign(r[:, 0] - r[:, 1])) @ (jac[:, 0] - jac[:, 1]) / len(idx)

    cp = ConstrainedProblem(
        d=spec.dim,
        objective=data.auc_term(),
        constraint_value=h_value,
        constraint_grad=h_grad,
        populations=data.populations,
        lipschitz_constraints=data.scale / 2.0,
        smoothness_constraints=None,  # the gap has an absolute-value kink
        weak_convexity_constraints=0.2 * data.scale**2,
    )
    return _validate_constraint_lipschitz(cp)


def make_roc_fairness_fcco(spec: RocFairnessSpec) -> FccoProblem:
    """The same instance in native compositional form: one 2-vector of group
    rates per (threshold, class) through a gap hinge, with the ranking
    objective as the additive term.  Smooth inner maps, convex outer."""
    data = _RocData(spec)

    def inner_vjp(idx, w, batches, Y):
        return np.einsum("kgd,kg->d", data.rate_jacobians(idx, w, batches), Y) / len(idx)

    problem = FccoProblem(
        d=spec.dim,
        d1=2,
        outer=GapHinge(data.margin),
        inner_value=data.rates,
        inner_vjp=inner_vjp,
        populations=data.populations,
        additive=data.auc_term(),
        lipschitz_inner=math.sqrt(2.0) * data.scale / 4.0,
        smoothness_inner=0.15 * data.scale**2,
        weak_convexity_inner=None,
    )
    return _validate_declared_lipschitz(problem, 2.0, spec.seed)
