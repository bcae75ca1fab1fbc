"""Synthetic and toy benchmark problems.

Every stochastic oracle here is a finite-population model: per-sample
parameters (including noise) are frozen at construction and empirically
centered, so the exact values (the batch oracles over the whole population)
are the population means and batch estimates are unbiased by construction.
Declared Lipschitz/smoothness constants are computed from the generated
parameters over a stated test box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AdditiveTerm, ConfigError, FccoProblem, SeededRng
from .penalty import ConstrainedProblem
from .smoothing import CvarHinge, GapHinge, make_outer

__all__ = [
    "SyntheticFccoSpec",
    "GdroCvarSpec",
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
    ``jacobian_corruption`` scales the vjp/Jacobian oracles by (1 + c): a
    deliberate defect used as the gradient-check negative control.
    """

    n: int = 8
    d: int = 10
    d1: int = 1
    inner_kind: str = "affine"
    outer_kind: str = "identity"
    outer_param: float | None = None
    sigma0: float = 0.0
    sigma1: float = 0.0
    population: int = 50
    seed: int = 0
    box_radius: float = 2.0
    linear_scale: float = 1.0
    offset_shift: float = 0.0
    jacobian_corruption: float = 0.0

    def validate(self) -> None:
        if self.inner_kind not in ("affine", "quadratic", "sigmoid"):
            raise ConfigError(f"unknown inner family {self.inner_kind!r}")
        if self.population < 1:
            raise ConfigError("population must be >= 1")
        if self.sigma0 < 0 or self.sigma1 < 0:
            raise ConfigError("noise levels must be nonnegative")
        make_outer(self.outer_kind, self.outer_param)  # raises on bad kind


def _centered_noise(rng, shape, sigma):
    if sigma == 0.0:
        return np.zeros(shape)
    noise = rng.normal(size=shape) * sigma
    return noise - noise.mean(axis=1, keepdims=True)


def _validate_declared_lipschitz(problem: FccoProblem, box_radius: float, seed: int, pairs: int = 100):
    # generated constants are claims; check them against sampled difference
    # quotients of the exact maps inside the stated box before handing the
    # problem out
    gen = SeededRng(seed, 424242).gen
    bound = problem.lipschitz_inner * (1.0 + 1e-6)
    for _ in range(pairs):
        i = int(gen.integers(problem.n))
        a = gen.normal(size=problem.d)
        a *= box_radius * gen.uniform() ** 0.5 / np.linalg.norm(a)
        b = gen.normal(size=problem.d)
        b *= box_radius * gen.uniform() ** 0.5 / np.linalg.norm(b)
        gap = np.linalg.norm(problem.inner_exact(i, a) - problem.inner_exact(i, b))
        if gap > bound * np.linalg.norm(a - b):
            raise ConfigError(
                f"declared inner Lipschitz constant {problem.lipschitz_inner} violated "
                f"empirically (ratio {gap / np.linalg.norm(a - b):.4g})"
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
    jac_factor = 1.0 + spec.jacobian_corruption

    quad = None
    if spec.inner_kind == "quadratic":
        quad = np.empty((n, d1, d, d))
        for i in range(n):
            for j in range(d1):
                m = rng.normal(size=(d, d)) / math.sqrt(d)
                quad[i, j] = 0.5 * (m @ m.T)

    if spec.inner_kind == "affine":

        def values(i, w, batch):
            return lin_samp[i, batch] @ w + off_samp[i, batch]

        def jacobians(i, w, batch):
            return np.broadcast_to(lin_samp[i, batch], (len(batch), d1, d))

    elif spec.inner_kind == "quadratic":

        def values(i, w, batch):
            base = 0.5 * np.einsum("kab,a,b->k", quad[i], w, w)
            return base[None, :] + lin_samp[i, batch] @ w + off_samp[i, batch]

        def jacobians(i, w, batch):
            base = np.einsum("kab,b->ka", quad[i], w)
            return base[None, :, :] + lin_samp[i, batch]

    else:  # sigmoid

        def values(i, w, batch):
            return _sigmoid(lin_samp[i, batch] @ w + off_samp[i, batch])

        def jacobians(i, w, batch):
            z = lin_samp[i, batch] @ w + off_samp[i, batch]
            return _sigmoid_prime(z)[:, :, None] * lin_samp[i, batch]

    def inner_value(i, w, batch):
        return values(i, np.asarray(w, float), batch).mean(axis=0)

    def inner_vjp(i, w, batch, y):
        jac = jacobians(i, np.asarray(w, float), batch)
        return jac_factor * np.einsum("pkd,k->d", jac, np.asarray(y, float)) / len(batch)

    c_g, l_g = _synthetic_constants(spec, lin, lin_samp, quad)
    problem = FccoProblem(
        n=n,
        d=d,
        d1=d1,
        outers=tuple(make_outer(spec.outer_kind, spec.outer_param) for _ in range(n)),
        inner_value=inner_value,
        inner_vjp=inner_vjp,
        populations=(pop,) * n,
        lipschitz_inner=c_g,
        smoothness_inner=l_g,
        weak_convexity_inner=0.0,
    )
    return _validate_declared_lipschitz(problem, spec.box_radius, spec.seed)


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

    n_groups: int = 8
    p: int = 4
    samples_per_group: int = 200
    ratio: float = 0.15
    seed: int = 0
    group_shift: float = 1.0

    def validate(self) -> None:
        if self.n_groups < 1 or self.samples_per_group < 1:
            raise ConfigError("empty group")
        if not 0 < self.ratio <= 1:
            raise ConfigError("ratio must lie in (0, 1]")
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

    def losses(g, theta, batch):
        margin = ys[g][batch] * (xs[g][batch] @ theta)
        return np.logaddexp(0.0, -margin)

    def inner_value(g, w, batch):
        theta, s = w[:p], w[p]
        return np.array([losses(g, theta, batch).mean() - s])

    def loss_grad_theta(g, theta, batch):
        margin = ys[g][batch] * (xs[g][batch] @ theta)
        coef = -ys[g][batch] * _sigmoid(-margin)
        return (coef[:, None] * xs[g][batch]).mean(axis=0)

    def inner_vjp(g, w, batch, y):
        out = np.empty(d)
        out[:p] = loss_grad_theta(g, w[:p], batch)
        out[p] = -1.0
        return float(y[0]) * out

    additive = AdditiveTerm(
        value=lambda w: float(w[p]),
        grad=lambda w, batch: np.eye(d)[p],
        population=1,
    )
    max_mean_norm = max(np.linalg.norm(x, axis=1).mean() for x in xs)
    problem = FccoProblem(
        n=n,
        d=d,
        d1=1,
        outers=tuple(CvarHinge(spec.ratio) for _ in range(n)),
        inner_value=inner_value,
        inner_vjp=inner_vjp,
        populations=(m,) * n,
        additive=additive,
        lipschitz_inner=float(math.sqrt(max_mean_norm**2 + 1.0)),
        smoothness_inner=float(
            max((np.linalg.norm(x, axis=1) ** 2).mean() for x in xs) / 4.0
        ),
        weak_convexity_inner=0.0,
        default_w0=np.zeros(d),
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


def _deterministic_term(value_fn, grad_fn):
    return AdditiveTerm(
        value=lambda w: float(value_fn(np.asarray(w, float))),
        grad=lambda w, batch: np.asarray(grad_fn(np.asarray(w, float)), float),
        population=1,
    )


def make_toy_constrained(kind: str, **params) -> ConstrainedProblem:
    """Hand-solvable constrained fixtures.

    qp_box:  min (w-c)^2 s.t. w <= bound (1-D); active case has w*=bound,
             multiplier 2(c-bound).
    circle:  min ||w-c||^2 s.t. ||w||^2 <= 1 (smooth); for c outside the disk
             w* = c/||c||, multiplier ||c||-1.
    weakly_convex_1d: same box objective with constraint
             (w-1) + a(1-cos(w-1)) <= 0, weakly convex with modulus a but
             strictly increasing, so w*=1 with multiplier 2 as in qp_box.
    """
    if kind == "qp_box":
        c = float(params.get("center", 2.0))
        bound = float(params.get("bound", 1.0))
        if c <= bound:
            w_star, nu_star = np.array([c]), np.array([0.0])
        else:
            w_star, nu_star = np.array([bound]), np.array([2.0 * (c - bound)])
        return ConstrainedProblem(
            d=1,
            m=1,
            objective=_deterministic_term(
                lambda w: (w[0] - c) ** 2, lambda w: np.array([2.0 * (w[0] - c)])
            ),
            constraint_value=lambda i, w, batch: float(w[0] - bound),
            constraint_grad=lambda i, w, batch: np.array([1.0]),
            populations=(1,),
            lipschitz_constraints=1.0,
            smoothness_constraints=0.0,
            weak_convexity_constraints=0.0,
            default_w0=np.array([0.0]),
            known_solution=w_star,
            known_multipliers=nu_star,
        )
    if kind == "circle":
        c = np.asarray(params.get("center", (2.0, 0.0)), dtype=float)
        norm_c = float(np.linalg.norm(c))
        if norm_c <= 1.0:
            w_star, nu_star = c.copy(), np.array([0.0])
        else:
            w_star, nu_star = c / norm_c, np.array([norm_c - 1.0])
        return ConstrainedProblem(
            d=2,
            m=1,
            objective=_deterministic_term(
                lambda w: float(np.sum((w - c) ** 2)), lambda w: 2.0 * (w - c)
            ),
            constraint_value=lambda i, w, batch: float(np.sum(w**2) - 1.0),
            constraint_grad=lambda i, w, batch: 2.0 * np.asarray(w, float),
            populations=(1,),
            lipschitz_constraints=4.0,  # over the ball of radius 2
            smoothness_constraints=2.0,
            weak_convexity_constraints=0.0,
            default_w0=np.zeros(2),
            known_solution=w_star,
            known_multipliers=nu_star,
        )
    if kind == "weakly_convex_1d":
        a = float(params.get("curvature", 0.3))
        if not 0 < a < 1:
            raise ConfigError("curvature must lie in (0, 1) to keep the constraint increasing")

        def g1(w):
            return float((w[0] - 1.0) + a * (1.0 - math.cos(w[0] - 1.0)))

        def g1_grad(w):
            return np.array([1.0 + a * math.sin(w[0] - 1.0)])

        return ConstrainedProblem(
            d=1,
            m=1,
            objective=_deterministic_term(
                lambda w: (w[0] - 2.0) ** 2, lambda w: np.array([2.0 * (w[0] - 2.0)])
            ),
            constraint_value=lambda i, w, batch: g1(w),
            constraint_grad=lambda i, w, batch: g1_grad(w),
            populations=(1,),
            lipschitz_constraints=1.0 + a,
            smoothness_constraints=None,  # exercised as the weakly convex regime
            weak_convexity_constraints=a,
            default_w0=np.array([0.0]),
            known_solution=np.array([1.0]),
            known_multipliers=np.array([2.0]),
        )
    raise ConfigError(f"unknown toy kind {kind!r}")


class _RocData:
    def __init__(self, thresholds, margin, n_pos, n_neg, dim, seed, identical_groups, shift):
        if len(thresholds) < 1:
            raise ConfigError("need at least one threshold")
        if margin <= 0:
            raise ConfigError("margin must be positive")
        if n_pos < 1 or n_neg < 1:
            raise ConfigError("degenerate group: every group needs positives and negatives")
        rng = SeededRng(seed).gen
        mu_a = rng.normal(size=dim) * 0.5 + shift
        mu_b = mu_a if identical_groups else rng.normal(size=dim) * 0.5
        self.pos = [rng.normal(size=(n_pos, dim)) + mu_a, None]
        self.neg = [rng.normal(size=(n_neg, dim)) - mu_a, None]
        if identical_groups:
            self.pos[1] = self.pos[0].copy()
            self.neg[1] = self.neg[0].copy()
        else:
            self.pos[1] = rng.normal(size=(n_pos, dim)) + mu_b
            self.neg[1] = rng.normal(size=(n_neg, dim)) - mu_b
        self.thresholds = [float(t) for t in thresholds]
        self.margin = float(margin)
        self.dim = dim
        self.n_pos = n_pos
        self.n_neg = n_neg
        self.all_pos = np.vstack(self.pos)
        self.all_neg = np.vstack(self.neg)

    def samples(self, k):
        # constraint k covers threshold k//2; even k compares positives
        # (true-positive rates), odd k negatives (false-positive rates)
        tau = self.thresholds[k // 2]
        bank = self.pos if k % 2 == 0 else self.neg
        return tau, bank

    def rate_pair(self, k, w, batch):
        tau, bank = self.samples(k)
        return np.array(
            [
                _sigmoid(bank[0][batch] @ w - tau).mean(),
                _sigmoid(bank[1][batch] @ w - tau).mean(),
            ]
        )

    def rate_jacobian(self, k, w, batch):
        tau, bank = self.samples(k)
        jac = np.empty((2, self.dim))
        for g in (0, 1):
            x = bank[g][batch]
            jac[g] = (_sigmoid_prime(x @ w - tau)[:, None] * x).mean(axis=0)
        return jac

    def population(self, k):
        return self.n_pos if k % 2 == 0 else self.n_neg

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

        return AdditiveTerm(value=value, grad=grad, population=n_pairs)

    def feature_scale(self):
        return float(
            max(
                np.linalg.norm(arr, axis=1).mean()
                for arr in (*self.pos, *self.neg)
            )
        )


def make_roc_fairness_toy(
    thresholds,
    margin: float = 0.05,
    n_pos: int = 30,
    n_neg: int = 30,
    dim: int = 4,
    seed: int = 0,
    identical_groups: bool = False,
    shift: float = 0.3,
) -> ConstrainedProblem:
    """Pairwise ranking objective with 2*len(thresholds) rate-gap constraints
    |rate_groupA - rate_groupB| - margin <= 0, rates being sigmoid means of a
    linear scorer at each threshold.  Groups are generated with equal class
    counts so batches index both groups in lockstep."""
    data = _RocData(thresholds, margin, n_pos, n_neg, dim, seed, identical_groups, shift)
    m = 2 * len(data.thresholds)

    def h_value(k, w, batch):
        r = data.rate_pair(k, np.asarray(w, float), batch)
        return float(abs(r[0] - r[1]) - data.margin)

    def h_grad(k, w, batch):
        w = np.asarray(w, float)
        r = data.rate_pair(k, w, batch)
        jac = data.rate_jacobian(k, w, batch)
        return float(np.sign(r[0] - r[1])) * (jac[0] - jac[1])

    scale = data.feature_scale()
    return ConstrainedProblem(
        d=dim,
        m=m,
        objective=data.auc_term(),
        constraint_value=h_value,
        constraint_grad=h_grad,
        populations=tuple(data.population(k) for k in range(m)),
        lipschitz_constraints=scale / 2.0,
        smoothness_constraints=None,  # the gap has an absolute-value kink
        weak_convexity_constraints=0.2 * scale**2,
        default_w0=np.zeros(dim),
    )


def make_roc_fairness_fcco(
    thresholds,
    margin: float = 0.05,
    n_pos: int = 30,
    n_neg: int = 30,
    dim: int = 4,
    seed: int = 0,
    identical_groups: bool = False,
    shift: float = 0.3,
) -> FccoProblem:
    """The same instance in native compositional form: one 2-vector of group
    rates per (threshold, class) through a gap hinge, with the ranking
    objective as the additive term.  Smooth inner maps, convex outer."""
    data = _RocData(thresholds, margin, n_pos, n_neg, dim, seed, identical_groups, shift)
    m = 2 * len(data.thresholds)

    def inner_value(k, w, batch):
        return data.rate_pair(k, np.asarray(w, float), batch)

    def inner_vjp(k, w, batch, y):
        jac = data.rate_jacobian(k, np.asarray(w, float), batch)
        return jac.T @ np.asarray(y, float)

    scale = data.feature_scale()
    problem = FccoProblem(
        n=m,
        d=dim,
        d1=2,
        outers=tuple(GapHinge(data.margin) for _ in range(m)),
        inner_value=inner_value,
        inner_vjp=inner_vjp,
        populations=tuple(data.population(k) for k in range(m)),
        additive=data.auc_term(),
        lipschitz_inner=math.sqrt(2.0) * scale / 4.0,
        smoothness_inner=0.15 * scale**2,
        weak_convexity_inner=None,
        default_w0=np.zeros(dim),
    )
    return _validate_declared_lipschitz(problem, 2.0, seed)
