import dataclasses

import numpy as np
import pytest

from fcco import ConfigError, SeededRng
from fcco.cli import build_problem
from fcco.metrics import (
    eval_exact,
    finite_difference_gradient,
    stationarity_report,
)
from fcco.penalty import build_penalty_problem
from fcco.problems import (
    GdroCvarSpec,
    RocFairnessSpec,
    SyntheticFccoSpec,
    _validate_constraint_lipschitz,
    cvar_from_losses,
    make_gdro_cvar,
    make_roc_fairness_fcco,
    make_synthetic_fcco,
    make_toy_constrained,
)
from util import outputs_sha256


def test_noiseless_batch_equals_exact():
    spec = SyntheticFccoSpec(n=4, d=5, d1=2, inner_kind="sigmoid", outer_kind="gap_hinge",
                             outer_param=0.1, population=9, seed=0)
    prob = make_synthetic_fcco(spec)
    gen = np.random.default_rng(1)
    w = gen.normal(size=5)
    for i in range(4):
        for batch in (np.array([0]), np.array([2, 5, 8])):
            np.testing.assert_allclose(prob.inner_value(np.array([i]), w, batch[None])[0], prob.inner_exact(i, w))


def test_affine_identity_outer_has_constant_gradient():
    spec = SyntheticFccoSpec(n=5, d=4, d1=1, inner_kind="affine", outer_kind="identity", seed=3)
    prob = make_synthetic_fcco(spec)
    g1 = stationarity_report(prob, np.zeros(4), 0.1).grad_F_lambda
    g2 = stationarity_report(prob, np.ones(4) * 2.3, 0.1).grad_F_lambda
    np.testing.assert_allclose(g1, g2, atol=1e-14)


def test_quadratic_hinge_flat_region_is_stationary():
    spec = SyntheticFccoSpec(n=5, d=4, d1=1, inner_kind="quadratic", outer_kind="scaled_hinge",
                             outer_param=1.0, population=1, seed=2, offset_shift=-4.0, linear_scale=0.3)
    prob = make_synthetic_fcco(spec)
    w = np.zeros(4)
    assert max(prob.inner_exact(i, w)[0] for i in range(5)) < 0
    f, f_lam = eval_exact(prob, w, 0.05)
    assert f == 0.0 and f_lam == 0.0
    rep = stationarity_report(prob, w, 0.05)
    assert rep.grad_F_lambda_norm == 0.0


def test_declared_lipschitz_bound_holds_in_box():
    for kind in ("affine", "quadratic", "sigmoid"):
        spec = SyntheticFccoSpec(n=4, d=5, d1=2, inner_kind=kind, outer_kind="gap_hinge",
                                 outer_param=0.2, sigma1=0.2, population=8, seed=6, box_radius=2.0)
        prob = make_synthetic_fcco(spec)
        gen = np.random.default_rng(7)
        for _ in range(100):
            a = gen.normal(size=5)
            a *= 2.0 * gen.uniform() ** 0.5 / np.linalg.norm(a)
            b = gen.normal(size=5)
            b *= 2.0 * gen.uniform() ** 0.5 / np.linalg.norm(b)
            ga, gb = prob.inner_exact(1, a), prob.inner_exact(1, b)
            ratio = np.linalg.norm(ga - gb) / np.linalg.norm(a - b)
            assert ratio <= prob.lipschitz_inner * (1 + 1e-6)


def test_noise_is_unbiased():
    spec = SyntheticFccoSpec(n=2, d=3, d1=1, inner_kind="affine", sigma0=0.5, population=10_000, seed=4)
    prob = make_synthetic_fcco(spec)
    w = np.array([0.2, -0.1, 0.4])
    rng = SeededRng(0)
    picks = np.array([rng.spawn(t).gen.integers(10_000) for t in range(10_000)])
    draws = prob.inner_value(np.zeros(10_000, dtype=int), w, picks[:, None])
    assert abs(draws.mean() - prob.inner_exact(0, w)[0]) < 4 * 0.5 / 100


def test_synthetic_spec_validation():
    with pytest.raises(ConfigError):
        make_synthetic_fcco(SyntheticFccoSpec(inner_kind="cubic"))
    with pytest.raises(ConfigError):
        make_synthetic_fcco(SyntheticFccoSpec(outer_kind="mystery"))
    with pytest.raises(ConfigError):
        make_synthetic_fcco(SyntheticFccoSpec(population=0))


def test_cvar_sort_oracle_examples():
    losses = np.array([3.0, 1.0, 2.0, 5.0])
    assert cvar_from_losses(losses, 1.0) == pytest.approx(losses.mean())
    assert cvar_from_losses(losses, 0.5) == pytest.approx(4.0)  # top two
    assert cvar_from_losses(losses, 0.25) == pytest.approx(5.0)
    # fractional weight: ratio*n = 1.5 -> (5 + 0.5*3)/1.5
    assert cvar_from_losses(losses, 0.375) == pytest.approx((5.0 + 0.5 * 3.0) / 1.5)
    with pytest.raises(ConfigError):
        cvar_from_losses(losses, 0.1)


def _gdro_losses(prob, theta):
    w = np.concatenate([theta, [0.0]])
    return np.array([prob.inner_exact(g, w)[0] for g in range(prob.n)])


def test_gdro_objective_min_over_s_equals_cvar():
    spec = GdroCvarSpec(n_groups=5, p=3, samples_per_group=40, ratio=0.4, seed=2)
    prob = make_gdro_cvar(spec)
    gen = np.random.default_rng(0)
    for _ in range(5):
        theta = gen.normal(size=3)
        losses = _gdro_losses(prob, theta)
        grid = np.linspace(losses.min() - 1, losses.max() + 1, 20001)
        vals = [s + np.maximum(losses - s, 0).sum() / (0.4 * 5) for s in grid]
        assert min(vals) == pytest.approx(cvar_from_losses(losses, 0.4), abs=1e-4)


def test_gdro_two_groups_half_ratio_is_max():
    spec = GdroCvarSpec(n_groups=2, p=2, samples_per_group=30, ratio=0.5, seed=5)
    prob = make_gdro_cvar(spec)
    losses = _gdro_losses(prob, np.array([0.3, -0.2]))
    assert cvar_from_losses(losses, 0.5) == pytest.approx(losses.max(), abs=1e-6)


def test_gdro_ratio_one_is_average_loss():
    spec = GdroCvarSpec(n_groups=3, p=2, samples_per_group=25, ratio=1.0, seed=6)
    prob = make_gdro_cvar(spec)
    losses = _gdro_losses(prob, np.zeros(2))
    assert cvar_from_losses(losses, 1.0) == pytest.approx(losses.mean())


def test_gdro_gradients_match_finite_differences():
    spec = GdroCvarSpec(n_groups=3, p=3, samples_per_group=20, ratio=0.5, seed=7)
    prob = make_gdro_cvar(spec)
    gen = np.random.default_rng(2)
    w = gen.normal(size=4) * 0.5
    lam = 0.05
    exact = stationarity_report(prob, w, lam).grad_F_lambda
    fd = finite_difference_gradient(lambda v: eval_exact(prob, v, lam)[1], w, h=1e-6)
    assert np.linalg.norm(fd - exact) / max(1.0, np.linalg.norm(exact)) <= 1e-5


def test_gdro_spec_validation():
    with pytest.raises(ConfigError):
        make_gdro_cvar(GdroCvarSpec(n_groups=4, ratio=0.1))  # ratio * n < 1
    with pytest.raises(ConfigError):
        make_gdro_cvar(GdroCvarSpec(n_groups=0))


def test_qp_box_known_solution():
    cp = make_toy_constrained("qp_box")
    np.testing.assert_allclose(cp.known_solution, [1.0])
    np.testing.assert_allclose(cp.known_multipliers, [2.0])
    # KKT: grad g0 + nu grad g1 = 0 at the solution
    g0 = cp.objective.exact_gradient(cp.known_solution)
    g1 = cp.constraint_grad_exact(0, cp.known_solution)
    np.testing.assert_allclose(g0 + cp.known_multipliers[0] * g1, [0.0], atol=1e-12)


def test_qp_box_interior_center():
    cp = make_toy_constrained("qp_box", center=0.5)
    np.testing.assert_allclose(cp.known_solution, [0.5])
    np.testing.assert_allclose(cp.known_multipliers, [0.0])


def test_circle_known_solution():
    cp = make_toy_constrained("circle")
    np.testing.assert_allclose(cp.known_solution, [1.0, 0.0])
    np.testing.assert_allclose(cp.known_multipliers, [1.0])
    g0 = cp.objective.exact_gradient(cp.known_solution)
    g1 = cp.constraint_grad_exact(0, cp.known_solution)
    np.testing.assert_allclose(g0 + 1.0 * g1, np.zeros(2), atol=1e-12)


def test_weakly_convex_toy_regime():
    cp = make_toy_constrained("weakly_convex_1d")
    assert cp.smoothness_constraints is None
    assert cp.weak_convexity_constraints == pytest.approx(0.3)
    np.testing.assert_allclose(cp.known_solution, [1.0])
    # constraint is increasing, boundary at w = 1
    assert cp.constraint_value_exact(0, np.array([1.0])) == pytest.approx(0.0)
    assert cp.constraint_value_exact(0, np.array([0.5])) < 0
    # second derivative is negative somewhere: genuinely non-convex
    h = 1e-4
    w = np.array([1.0 + np.pi])
    curv = (
        cp.constraint_value_exact(0, w + h) - 2 * cp.constraint_value_exact(0, w)
        + cp.constraint_value_exact(0, w - h)
    ) / h**2
    assert curv < 0


# case -> (kind, parameters, sha256 of its oracles' outputs and declared
# data): the qp_box centre at 2 is outside the box (active constraint), at
# 0.5 inside it.  The objective value is the correctly rounded square of
# w - c, not libm's pow(w - c, 2), which can differ from it in the last bit.
# A change that moves a toy's numbers updates its hash here on purpose.
_TOY_ORACLE_HASHES = {
    "qp_box_active": ("qp_box", {},
        "c95610ee53dc732328d4a241d597eb161f3df368857ec48e6b08011de2fb165d"),
    "qp_box_inactive": ("qp_box", {"center": 0.5},
        "6931febc53651846b38874684b873cbe13555b3c780d4b72741b28af67252a86"),
    "circle": ("circle", {},
        "f6f336b041ffd89325fcb7ddd8504812b990442edb798d5bd5df9416a3a988b3"),
    "weakly_convex_1d": ("weakly_convex_1d", {},
        "501ee18dc085203e428b22726f2ac5b928a451050c3f2e211db70f51af4fd9fc"),
}


def _toy_oracle_outputs(cp):
    """The objective value and gradient and the constraint value and
    gradient at seeded points and weights Y, one and three rows deep, then
    the declared constants and the known KKT pair."""
    gen = np.random.default_rng(12)
    for k in (1, 3):
        idx, batches = np.zeros(k, dtype=np.int64), np.zeros((k, 1), dtype=np.int64)
        for _ in range(5):
            w, Y = 2.0 * gen.normal(size=cp.d), gen.normal(size=(k, 1))
            yield cp.objective.value(w)
            yield cp.objective.grad(w, np.arange(1))
            yield cp.constraint_value(idx, w, batches)
            yield cp.constraint_grad(idx, w, batches, Y)
    yield from (cp.lipschitz_constraints, cp.smoothness_constraints, cp.weak_convexity_constraints,
                cp.known_solution, cp.known_multipliers)


@pytest.mark.parametrize("case", sorted(_TOY_ORACLE_HASHES))
def test_toy_oracles_match_pinned_hashes(case):
    kind, params, expected = _TOY_ORACLE_HASHES[case]
    assert outputs_sha256(_toy_oracle_outputs(make_toy_constrained(kind, **params))) == expected


# (inner kind, d1, d) -> sha256 of make_synthetic_fcco's value, VJP and exact
# outputs: idx is each component alone, every component and a
# non-contiguous subset, on batches of 11 from a population of 16.  d = 1
# with d1 = 1 is the one shape whose batch sum numpy runs pairwise.  Any
# change to how the oracles gather or average must keep these bits.
_SYNTHETIC_ORACLE_HASHES = {
    ("affine", 1, 1):
        "1f370e3801602367a42c69f5e015fc730b8c24372d848cee631af601d37d82d4",
    ("affine", 1, 4):
        "2c16e1e2dce81282d7c4ebbf34b218b01579025edd5a6f403e135788f3dc8924",
    ("affine", 2, 4):
        "88eeceff4f87c6ff667cb2fad9190a2611d7e465e9f4c2ec27732cd16f04ab96",
    ("quadratic", 1, 1):
        "a81fa60bebf3f080aa9eebb7c2519e4c47abcfc01eceb62375fa3c468965fb4d",
    ("quadratic", 1, 4):
        "d9d3e484b807af21897c2dc59795881dccb94a1af781c63086317a3ce772f642",
    ("quadratic", 2, 4):
        "3f8bcd6405b5cb9f870848d79513b24c7e0fbb76f7b49b14b16a406632bddc6c",
    ("sigmoid", 1, 1):
        "8d112baba2a60e2b5e3b3062514744877ea473fc94737855d16f5557109700ef",
    ("sigmoid", 1, 4):
        "32a2ee90a994bca83c95aa1da6bfcbfb20621f5ca4bd5bf2504005965bc90808",
    ("sigmoid", 2, 4):
        "a01994c78c86db78af9ba2cceb29966f04b11cbbbd23c8517a6292cab870b73a",
}


def _synthetic_oracle_outputs(kind, d1, d):
    n, pop = 5, 16
    outer = {"outer_kind": "gap_hinge", "outer_param": 0.1} if d1 == 2 else {}
    prob = make_synthetic_fcco(SyntheticFccoSpec(
        n=n, d=d, d1=d1, inner_kind=kind, sigma0=0.3, sigma1=0.2, population=pop, seed=4, **outer))
    gen = np.random.default_rng(21)
    for idx in (*np.arange(n)[:, None], np.arange(n), np.array([3, 0, 4])):
        for _ in range(3):
            w, Y = gen.normal(size=d), gen.normal(size=(len(idx), d1))
            batches = np.stack([gen.choice(pop, 11, replace=False) for _ in idx])
            yield prob.inner_value(idx, w, batches)
            yield prob.inner_vjp(idx, w, batches, Y)
    for i in range(n):
        yield prob.inner_exact(i, w)


@pytest.mark.parametrize("kind, d1, d", sorted(_SYNTHETIC_ORACLE_HASHES))
def test_synthetic_oracles_match_pinned_hashes(kind, d1, d):
    assert outputs_sha256(_synthetic_oracle_outputs(kind, d1, d)) == _SYNTHETIC_ORACLE_HASHES[kind, d1, d]


def test_unknown_toy_kind_rejected():
    with pytest.raises(ConfigError):
        make_toy_constrained("simplex")


def test_roc_large_margin_is_vacuous():
    pen = make_roc_fairness_fcco(RocFairnessSpec([0.0], margin=1.0, seed=1), penalty_slope=1.0)
    gen = np.random.default_rng(4)
    for _ in range(10):
        w = gen.normal(size=pen.d) * 3
        for k in range(pen.n):
            assert pen.outer.constraint(pen.inner_exact(k, w)) < 0


def _rel_err(got, ref):
    return np.linalg.norm(got - ref) / max(1.0, np.linalg.norm(ref))


def test_roc_constraint_gradients_match_fd():
    # the rate Jacobians against finite differences of the exact rates, and
    # each constraint gradient J_k^T grad c(g_k) against finite differences
    # of the exact constraint |r_A - r_B| - margin
    pen = make_roc_fairness_fcco(RocFairnessSpec([-0.5, 0.5], margin=0.01, seed=2), penalty_slope=1.0)
    gen = np.random.default_rng(5)
    w = gen.normal(size=pen.d) * 0.7
    for k in range(pen.n):
        jac = pen.inner_jacobian_exact(k, w)
        fd = np.array([finite_difference_gradient(lambda v, k=k, a=a: pen.inner_exact(k, v)[a], w)
                       for a in range(2)])
        assert _rel_err(fd, jac) <= 1e-5
        exact = pen.outer.constraint_grad(pen.inner_exact(k, w)) @ jac
        fd = finite_difference_gradient(lambda v, k=k: pen.outer.constraint(pen.inner_exact(k, v)), w)
        assert _rel_err(fd, exact) <= 1e-5


def test_roc_degenerate_group_rejected():
    with pytest.raises(ConfigError):
        make_roc_fairness_fcco(RocFairnessSpec([0.0], margin=0.1, n_pos=0), penalty_slope=1.0)


def test_roc_fcco_view_matches_constrained_view():
    # the penalty is the compositional form with its gap hinge at the slope:
    # the same rates, the constraint values |r_A - r_B| - margin read through
    # the outer function, and the exact objective of the ranking term plus
    # slope/m times the constraint hinges
    spec = RocFairnessSpec(thresholds=[-1.0, 1.0], margin=0.05, seed=9)
    prob = make_roc_fairness_fcco(spec)
    pen = make_roc_fairness_fcco(spec, penalty_slope=4.0)
    assert pen.is_penalty and not prob.is_penalty
    gen = np.random.default_rng(1)
    w = gen.normal(size=prob.d)
    gaps = []
    for k in range(prob.n):
        rates = prob.inner_exact(k, w)
        np.testing.assert_array_equal(pen.inner_exact(k, w), rates)
        gaps.append(abs(rates[0] - rates[1]) - 0.05)
        assert pen.outer.constraint(rates) == pytest.approx(gaps[-1], abs=1e-12)
    assert max(gaps) > 0
    hinges = sum(max(c, 0.0) for c in gaps) / prob.n
    assert eval_exact(prob, w, 0.01)[0] == pytest.approx(prob.additive.value(w) + hinges, rel=1e-12)
    assert eval_exact(pen, w, 0.01)[0] == pytest.approx(prob.additive.value(w) + 4.0 * hinges, rel=1e-12)


def test_roc_batch_values_are_unbiased():
    # the rates are per-sample averages, so their batch values average to the
    # exact rates; the bound was fixed before the first run.  The negative
    # control is the constraint value the penalty form once sampled,
    # |batch rate gap| - margin, which Jensen's inequality biases upward
    # where batches disagree on the sign of the gap: at this point the
    # largest constraint is near 0, as at a solution, and the scores spread
    # the per-sample rates
    draws, b2, bound = 4000, 4, 0.02
    pen = make_roc_fairness_fcco(RocFairnessSpec([-1.0, 0.0, 1.0], n_pos=20, n_neg=20, seed=6), penalty_slope=4.0)
    w = np.array([-0.4, -0.25, 0.3, 0.8])
    idx = np.arange(pen.n)
    gen = np.random.default_rng(12)
    rates = np.array([
        pen.inner_value(idx, w, np.array([gen.choice(20, size=b2, replace=False) for _ in idx]))
        for _ in range(draws)
    ])
    exact = np.array([pen.inner_exact(i, w) for i in idx])
    assert abs(np.max(pen.outer.constraint(exact))) < 0.01
    assert np.max(np.abs(rates.mean(axis=0) - exact)) <= bound
    biased = np.abs(rates[..., 0] - rates[..., 1]) - pen.outer.margin
    assert np.max(np.abs(biased.mean(axis=0) - pen.outer.constraint(exact))) > bound


def _per_component_reference(prob, idx, w, batches, Y):
    """Values and mean VJP assembled by hand from one-component oracle calls:
    the batch average of one-sample calls per component, then the mean over
    the components of J_i^T y_i, with J_i's rows read off unit-vector VJPs."""
    values, vjps = [], []
    for i, batch, y in zip(idx, batches, Y):
        one = np.array([i])
        parts = batch[:, None, None]
        values.append(np.mean([prob.inner_value(one, w, part)[0] for part in parts], axis=0))
        jac = np.mean(
            [[prob.inner_vjp(one, w, part, e[None]) for e in np.eye(prob.d1)] for part in parts],
            axis=0,
        )
        vjps.append(jac.T @ y)
    return np.array(values), np.mean(vjps, axis=0)


def _random_call(prob, gen, k, b):
    idx = np.sort(gen.choice(prob.n, size=k, replace=False))
    batches = np.array([np.sort(gen.choice(prob.populations[i], size=b, replace=False)) for i in idx])
    return idx, gen.normal(size=prob.d), batches, gen.normal(size=(k, prob.d1))


def _assert_close(got, ref, rel=1e-12):
    assert np.linalg.norm(got - ref) <= rel * np.linalg.norm(ref)


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_synthetic_fcco(SyntheticFccoSpec(
            n=5, d=4, d1=2, inner_kind="affine", outer_kind="gap_hinge", outer_param=0.1,
            sigma0=0.3, sigma1=0.2, population=9, seed=1)),
        lambda: make_synthetic_fcco(SyntheticFccoSpec(
            n=5, d=4, d1=2, inner_kind="quadratic", outer_kind="gap_hinge", outer_param=0.1,
            sigma0=0.3, sigma1=0.2, population=9, seed=2)),
        lambda: make_synthetic_fcco(SyntheticFccoSpec(
            n=5, d=4, d1=2, inner_kind="sigmoid", outer_kind="gap_hinge", outer_param=0.1,
            sigma0=0.3, sigma1=0.2, population=9, seed=3)),
        lambda: make_gdro_cvar(GdroCvarSpec(n_groups=5, p=3, samples_per_group=12, ratio=0.4, seed=4)),
        lambda: make_roc_fairness_fcco(RocFairnessSpec(thresholds=[-0.5, 0.5], n_pos=7, n_neg=11, seed=5)),
        # constraints are d1 = 1 inner maps whose oracles the penalty problem forwards
        lambda: build_penalty_problem(make_toy_constrained("qp_box"), 1.0),
        lambda: build_penalty_problem(make_toy_constrained("circle", center=[1.5, -0.5]), 1.0),
        lambda: build_penalty_problem(make_toy_constrained("weakly_convex_1d"), 1.0),
        lambda: build_problem({"kind": "roc_fairness", "thresholds": [-0.5, 0.5], "n_pos": 7,
                               "n_neg": 11, "seed": 5, "penalty_slope": 4.0})[0],
    ],
    ids=["affine", "quadratic", "sigmoid", "gdro_cvar", "roc_fairness_fcco",
         "qp_box", "circle", "weakly_convex_1d", "roc_fairness"],
)
def test_batched_oracles_match_per_component_reference(make):
    prob = make()
    gen = np.random.default_rng(8)
    for k, b in ((1, 1), (3, 4), (prob.n, 6)):
        k, b = min(k, prob.n), min(b, min(prob.populations))
        idx, w, batches, Y = _random_call(prob, gen, k, b)
        ref_values, ref_vjp = _per_component_reference(prob, idx, w, batches, Y)
        values = prob.inner_value(idx, w, batches)
        assert values.shape == (k, prob.d1)
        _assert_close(values, ref_values)
        _assert_close(prob.inner_vjp(idx, w, batches, Y), ref_vjp)
    # the one-sample Jacobian rows the reference is built from match finite
    # differences of the one-sample values
    one, sample = idx[:1], batches[:1, :1]
    jac = np.array([prob.inner_vjp(one, w, sample, e[None]) for e in np.eye(prob.d1)])
    fd = np.array([
        finite_difference_gradient(lambda v, a=a: prob.inner_value(one, v, sample)[0, a], w)
        for a in range(prob.d1)
    ])
    np.testing.assert_allclose(jac, fd, atol=1e-6)


def test_penalty_wrapper_matches_constraint_oracles():
    cp = make_toy_constrained("circle", center=[1.5, -0.5])
    prob = build_penalty_problem(cp, 4.0)
    gen = np.random.default_rng(9)
    for _ in range(3):
        idx, w, batches, Y = _random_call(prob, gen, 1, 1)
        _assert_close(prob.inner_value(idx, w, batches), cp.constraint_value(idx, w, batches))
        _assert_close(prob.inner_vjp(idx, w, batches, Y), cp.constraint_grad(idx, w, batches, Y))


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_toy_constrained("qp_box"),
        lambda: make_toy_constrained("circle", center=[1.5, -0.5]),
        lambda: make_toy_constrained("weakly_convex_1d"),
    ],
    ids=["qp_box", "circle", "weakly_convex_1d"],
)
def test_batched_constraint_oracles_match_one_row_calls(make):
    cp = make()
    prob = build_penalty_problem(cp, 1.0)
    gen = np.random.default_rng(10)
    for k, b in ((1, 1), (cp.m, 1), (cp.m, min(cp.populations))):
        idx, w, batches, _ = _random_call(prob, gen, k, b)
        values = cp.constraint_value(idx, w, batches)
        assert values.shape == (k, 1)
        for j, (i, batch) in enumerate(zip(idx, batches)):
            one = np.array([i]), w, batch[None]
            _assert_close(values[j], cp.constraint_value(*one)[0])
            # weight k on row j alone: the mean gradient is row j's gradient
            pick = np.zeros((k, 1))
            pick[j] = k
            grad = cp.constraint_grad(idx, w, batches, pick)
            assert grad.shape == (cp.d,)
            _assert_close(grad, cp.constraint_grad(*one, np.ones((1, 1))))


@pytest.mark.parametrize("n_pos, n_neg", [(9, 9), (7, 11)])
def test_auc_exact_gradient_matches_pair_gradient(n_pos, n_neg):
    auc = make_roc_fairness_fcco(RocFairnessSpec(thresholds=[0.0], n_pos=n_pos, n_neg=n_neg, seed=6)).additive
    assert auc.grad_exact is not None
    gen = np.random.default_rng(11)
    for _ in range(3):
        w = gen.normal(size=4)
        _assert_close(auc.exact_gradient(w), auc.grad(w, np.arange(auc.population)))


def test_declared_constraint_lipschitz_is_checked():
    # every constrained toy passes at construction; the circle's constant
    # understated as 1.0 (it is 4 over the radius-2 ball) fails
    circle = make_toy_constrained("circle")
    assert _validate_constraint_lipschitz(circle) is circle
    with pytest.raises(ConfigError, match="Lipschitz"):
        _validate_constraint_lipschitz(dataclasses.replace(circle, lipschitz_constraints=1.0))


@pytest.mark.parametrize("penalty_slope", [4.0, None], ids=["penalty", "fcco"])
def test_roc_needs_a_threshold(penalty_slope):
    with pytest.raises(ConfigError) as info:
        make_roc_fairness_fcco(RocFairnessSpec(()), penalty_slope)
    assert info.type is ConfigError and "need at least one threshold" in str(info.value)
