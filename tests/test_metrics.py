import dataclasses

import numpy as np
import pytest

from fcco import (
    Identity,
    OracleError,
    ScaledHinge,
    UnsupportedOperationError,
    brute_force_prox,
    eval_exact,
    finite_difference_gradient,
    stationarity_report,
)
from fcco.metrics import _gram_min_eig, _sum_in_order
from fcco.problems import SyntheticFccoSpec, make_synthetic_fcco
from util import affine_problem, scalar_chain_problem


def test_fd_gradient_on_quadratic():
    g = finite_difference_gradient(lambda w: float(w @ w), np.array([1.0, 2.0]), h=1e-5)
    np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-8)


def test_fd_gradient_constant_and_linear():
    w = np.array([0.3, -0.7, 1.1])
    np.testing.assert_allclose(finite_difference_gradient(lambda v: 4.2, w), np.zeros(3))
    a = np.array([1.5, -2.0, 0.25])
    np.testing.assert_allclose(finite_difference_gradient(lambda v: float(a @ v), w), a, atol=1e-9)


def test_brute_prox_identity_and_hinge():
    np.testing.assert_allclose(brute_force_prox(Identity(), 0.3, [1.0]), [0.7], atol=1e-8)
    np.testing.assert_allclose(brute_force_prox(ScaledHinge(1.0), 0.5, [0.2]), [0.0], atol=1e-5)
    np.testing.assert_allclose(brute_force_prox(ScaledHinge(1.0), 0.5, [2.0]), [1.5], atol=1e-6)


def test_brute_prox_small_lam_returns_input():
    t = np.array([0.37])
    got = brute_force_prox(ScaledHinge(1.0), 1e-6, t, step=1e-4)
    np.testing.assert_allclose(got, t, atol=1e-5)


def test_brute_prox_rejects_high_dim():
    class Big:
        dim = 3
        lipschitz = 1.0

    with pytest.raises(UnsupportedOperationError):
        brute_force_prox(Big(), 0.1, np.zeros(3))


def test_eval_exact_identity_shift():
    prob = scalar_chain_problem(Identity())
    for lam in (0.05, 0.4):
        f, f_lam = eval_exact(prob, np.array([0.8]), lam)
        assert f == pytest.approx(0.8)
        assert f_lam == pytest.approx(0.8 - lam / 2)


def test_eval_exact_flat_hinge_region():
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    prob = affine_problem(A, [-2.0, -3.0], ScaledHinge(2.0))
    f, f_lam = eval_exact(prob, np.zeros(2), 0.1)
    assert f == 0.0 and f_lam == 0.0


def test_eval_exact_sandwich_on_random_instances():
    spec = SyntheticFccoSpec(n=6, d=5, d1=1, inner_kind="affine", outer_kind="scaled_hinge", outer_param=2.0, seed=4)
    prob = make_synthetic_fcco(spec)
    gen = np.random.default_rng(0)
    c_f = prob.outer.lipschitz
    for _ in range(50):
        w = gen.normal(size=5)
        lam = gen.uniform(1e-3, 0.5)
        f, f_lam = eval_exact(prob, w, lam)
        assert f_lam <= f + 1e-12
        assert f <= f_lam + lam * c_f**2 / 2 + 1e-12


def test_grad_exact_matches_fd_on_a2_instance():
    spec = SyntheticFccoSpec(n=8, d=10, d1=2, inner_kind="quadratic", outer_kind="gap_hinge", outer_param=0.2, seed=1, population=10)
    prob = make_synthetic_fcco(spec)
    gen = np.random.default_rng(5)
    w = gen.normal(size=10) * 0.5
    lam = 0.07
    exact = stationarity_report(prob, w, lam).grad_F_lambda
    fd = finite_difference_gradient(lambda v: eval_exact(prob, v, lam)[1], w, h=1e-6)
    assert np.linalg.norm(fd - exact) / max(1.0, np.linalg.norm(exact)) <= 1e-5


def test_grad_exact_zero_at_inactive_hinges():
    A = np.eye(3)
    prob = affine_problem(A, [-5.0, -4.0, -6.0], ScaledHinge(1.0))
    np.testing.assert_allclose(stationarity_report(prob, np.zeros(3), 0.1).grad_F_lambda, np.zeros(3))


def test_grad_exact_identity_affine_is_mean_row():
    A = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]])
    prob = affine_problem(A, [0.0, 1.0, -1.0], Identity())
    grad = stationarity_report(prob, np.array([0.3, -0.2]), 0.2).grad_F_lambda
    np.testing.assert_allclose(grad, A.mean(axis=0))


def test_metric_gradient_follows_the_solvers_vjp():
    # a VJP 10% off the true derivative must show up in the metric gradient,
    # since the solvers step along that VJP
    prob = dataclasses.replace(
        scalar_chain_problem(Identity()),
        inner_vjp=lambda idx, w, batches, Y: 1.1 * Y.mean(axis=0),
    )
    w, lam = np.array([0.4]), 0.2
    exact = stationarity_report(prob, w, lam).grad_F_lambda
    fd = finite_difference_gradient(lambda v: eval_exact(prob, v, lam)[1], w)
    assert np.linalg.norm(exact - fd) > 0.05 * np.linalg.norm(fd)


def test_stationarity_identity_t_residual_is_lam():
    prob = scalar_chain_problem(Identity())
    rep = stationarity_report(prob, np.array([0.4]), 0.25)
    assert rep.approx_t_residual == pytest.approx(0.25)
    np.testing.assert_allclose(rep.envelope_grads, [[1.0]])


def test_stationarity_residual_bounded_by_lam_times_lipschitz():
    spec = SyntheticFccoSpec(n=5, d=4, d1=1, inner_kind="affine", outer_kind="cvar_hinge", outer_param=0.2, seed=2)
    prob = make_synthetic_fcco(spec)
    gen = np.random.default_rng(3)
    c_f = prob.outer.lipschitz
    for _ in range(25):
        w, lam = gen.normal(size=4), gen.uniform(1e-3, 0.8)
        rep = stationarity_report(prob, w, lam)
        assert rep.approx_t_residual <= lam * c_f + 1e-12


def test_gram_orthonormal_jacobian():
    A = np.eye(2, 4)  # two orthonormal rows in R^4
    prob = affine_problem(A, [0.0, 0.0], Identity())
    gram_min, deficient = _gram_min_eig(prob, np.zeros(4))
    assert gram_min == pytest.approx(1.0)
    assert not deficient


def test_gram_repeated_row_is_singular():
    A = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    prob = affine_problem(A, [0.0, 0.0], Identity())
    gram_min, _ = _gram_min_eig(prob, np.zeros(3))
    assert gram_min == pytest.approx(0.0, abs=1e-12)


def test_gram_shape_deficient_flags():
    A = np.random.default_rng(0).normal(size=(4, 2))
    prob = affine_problem(A, np.zeros(4), Identity())
    gram_min, deficient = _gram_min_eig(prob, np.zeros(2))
    assert gram_min == 0.0
    assert deficient


def test_gram_matches_reference_eigensolver():
    gen = np.random.default_rng(11)
    A = gen.normal(size=(3, 7))
    prob = affine_problem(A, np.zeros(3), Identity())
    gram_min, _ = _gram_min_eig(prob, np.zeros(7))
    ref = np.linalg.svd(A, compute_uv=False)[-1] ** 2
    assert gram_min == pytest.approx(ref, rel=1e-10, abs=1e-12)


def _one_pass_row_case(problem, w, lam):
    from fcco.sonex import _metric_row

    value = problem.inner_value
    seen = []

    def counting(idx, v, batches):
        for i, batch in zip(idx, batches):
            assert np.array_equal(batch, np.arange(problem.populations[i]))  # whole population
            seen.append(int(i))
        return value(idx, v, batches)

    problem.inner_value = counting
    try:
        row, _ = _metric_row(problem, w, lam, 7, 11, 3)
    finally:
        problem.inner_value = value
    assert sorted(seen) == list(range(problem.n))  # one exact value per component
    f, f_lam = eval_exact(problem, w, lam)
    assert row.f_value == f
    assert row.f_lambda_value == f_lam
    assert row.grad_norm == float(np.linalg.norm(stationarity_report(problem, w, lam).grad_F_lambda))
    assert (row.iteration, row.inner_oracle_calls, row.component_draws) == (7, 11, 3)
    return row


def test_metric_row_is_one_pass_on_penalty_problem():
    from fcco.penalty import build_penalty_problem
    from fcco.problems import make_toy_constrained

    prob = build_penalty_problem(make_toy_constrained("circle"), 20.0)
    w = np.array([1.1, -0.4])
    row = _one_pass_row_case(prob, w, 5e-4)
    assert row.max_violation == max(float(prob.inner_exact(i, w)[0]) for i in range(prob.n))
    assert row.max_violation == pytest.approx(1.1**2 + 0.4**2 - 1.0)


def test_metric_row_is_one_pass_without_penalty():
    from fcco.problems import RocFairnessSpec, make_roc_fairness_fcco

    prob = make_roc_fairness_fcco(RocFairnessSpec(thresholds=[-1.0, 0.0, 1.0], n_pos=12, n_neg=12, seed=6))
    w = np.random.default_rng(5).normal(size=prob.d)
    row = _one_pass_row_case(prob, w, 0.05)
    assert row.max_violation is None


def test_stationarity_report_on_ragged_populations_matches_component_loop():
    from fcco.problems import RocFairnessSpec, make_roc_fairness_fcco
    from fcco.smoothing import moreau_grad

    prob = make_roc_fairness_fcco(RocFairnessSpec(thresholds=[-1.0, 0.0, 1.0], n_pos=50, n_neg=70, seed=4))
    assert len(set(prob.populations)) == 2
    lam = 0.05
    for w in np.random.default_rng(6).normal(size=(3, prob.d)):
        rep = stationarity_report(prob, w, lam)
        g = np.array([prob.inner_exact(i, w) for i in range(prob.n)])
        y = moreau_grad(prob.outer, lam, g)
        grad = np.zeros(prob.d)
        for i in range(prob.n):
            whole = np.arange(prob.populations[i])[None]
            grad += prob.inner_vjp(np.array([i]), w, whole, y[i][None])
        grad = grad / prob.n + prob.additive.exact_gradient(w)
        f = float(np.mean(prob.outer.value(g))) + prob.additive.value(w)
        assert np.linalg.norm(rep.inner_values - g) <= 1e-12 * np.linalg.norm(g)
        assert np.linalg.norm(rep.grad_F_lambda - grad) <= 1e-12 * np.linalg.norm(grad)
        assert rep.f_value == pytest.approx(f, rel=1e-12, abs=1e-12)


def test_exact_passes_read_one_population_grouping(monkeypatch):
    # the (idx, batches) groups are built once per problem: a report and a
    # value pass hand the same object to their exact oracle calls
    from fcco import metrics
    from fcco.problems import RocFairnessSpec, make_roc_fairness_fcco

    prob = make_roc_fairness_fcco(RocFairnessSpec(thresholds=[0.0], n_pos=5, n_neg=7, seed=4))
    seen = []

    def recorded(problem, groups, w, lam, real=metrics._exact_values):
        seen.append(groups)
        return real(problem, groups, w, lam)

    monkeypatch.setattr(metrics, "_exact_values", recorded)
    w = np.zeros(prob.d)
    stationarity_report(prob, w, 0.05)
    eval_exact(prob, w, 0.05)
    assert len(seen) == 2
    assert seen[0] is seen[1] is prob.population_groups


def test_sum_in_order_is_a_running_sum_from_zero():
    gen = np.random.default_rng(8)
    for size in range(1, 301):
        values = gen.normal(size=size) * 10.0 ** gen.uniform(-5, 5, size=size)
        total = 0.0
        for v in values.tolist():
            total += v
        got = _sum_in_order(values)
        assert type(got) is float and got == total
    got = _sum_in_order(np.full(5, -0.0))
    assert got == 0.0 and np.copysign(1.0, got) == 1.0  # 0.0 + (-0.0) is +0.0


@pytest.mark.parametrize("lam, step", [(0.0, 1e-5), (0.5, 0.0)], ids=["lam", "step"])
def test_brute_force_prox_rejects_nonpositive_lam_and_step(lam, step):
    with pytest.raises(OracleError) as info:
        brute_force_prox(ScaledHinge(1.0), lam, [0.2], step=step)
    assert info.type is OracleError and "lam and step must be positive" in str(info.value)
