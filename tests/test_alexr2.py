from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fcco import (
    ConfigError,
    NonFiniteError,
    ScaledHinge,
    SeededRng,
    SolverAbort,
    UnsupportedOperationError,
)
from fcco.alexr2 import (
    Alexr2Config,
    check_assumptions,
    extrapolated_inner_value,
    inner_primal_step,
    outer_momentum_step,
    rho_outer_smoothed,
    run_alexr2,
    run_inner_alexr,
    smoothed_objective_smoothness,
    stable_extrapolation,
    theory_inner_params,
    theory_outer_stepsize,
)
from fcco.cli import _prepare, build_problem
from fcco.metrics import finite_difference_gradient, stationarity_report
from fcco.problems import SyntheticFccoSpec, make_synthetic_fcco
from fcco.smoothing import moreau_value
from util import outputs_sha256, scalar_chain_problem


def default_config(**over):
    base = dict(
        lam=0.1, nu=0.5, eta=0.05, theta=0.9, gamma=0.1, beta=0.5, alpha=0.1,
        k_inner=100, iters=10, b1=1, b2=1,
    )
    base.update(over)
    return Alexr2Config(**base)


def test_extrapolated_inner_value_examples():
    assert extrapolated_inner_value(np.array([2.0]), np.array([1.0]), 0.0)[0] == 2.0
    assert extrapolated_inner_value(np.array([2.0]), np.array([2.0]), 0.7)[0] == 2.0
    assert extrapolated_inner_value(np.array([2.0]), np.array([1.0]), 1.0)[0] == 3.0


def _primal_step(z_k, w, grad, nu, eta):
    return inner_primal_step(z_k, w / nu, grad, eta, 1.0 / eta + 1.0 / nu)


def test_inner_primal_step_examples():
    w = np.array([1.0, -1.0])
    np.testing.assert_allclose(_primal_step(w, w, np.zeros(2), 0.5, 0.2), w)
    got = _primal_step(np.zeros(1), np.zeros(1), np.array([2.0]), 1.0, 1.0)
    np.testing.assert_allclose(got, [-1.0])
    # eta -> infinity limit is the plain proximal-gradient step w - nu*G
    got = _primal_step(np.array([5.0]), np.array([1.0]), np.array([2.0]), 0.3, 1e9)
    np.testing.assert_allclose(got, [1.0 - 0.3 * 2.0], atol=1e-6)


def test_inner_primal_step_first_order_condition():
    gen = np.random.default_rng(0)
    for _ in range(50):
        z, w, g = gen.normal(size=3), gen.normal(size=3), gen.normal(size=3)
        nu, eta = gen.uniform(0.01, 1.0), gen.uniform(0.01, 1.0)
        z_new = _primal_step(z, w, g, nu, eta)
        foc = g + (z_new - w) / nu + (z_new - z) / eta
        assert np.max(np.abs(foc)) <= 1e-10 * (1 + np.linalg.norm(g))


def hinge_chain():
    return scalar_chain_problem(ScaledHinge(1.0))


def test_run_inner_zero_iterations_returns_anchor():
    prob = hinge_chain()
    z, u, calls = run_inner_alexr(prob, np.array([1.0]), default_config(), SeededRng(0), k=0)
    np.testing.assert_array_equal(z, [1.0])


def test_refine_zero_iterations_is_identity():
    # a k = 0 refinement run leaves an off-grid anchor exactly where it was
    prob = hinge_chain()
    z, _, _ = run_inner_alexr(prob, np.array([1.3]), default_config(), SeededRng(0), k=0)
    np.testing.assert_array_equal(z, [1.3])


def test_refine_prox_accuracy_on_hinge_instance():
    # one long inner run from the anchor refines it to the prox point
    prob = hinge_chain()
    lam, nu = 0.1, 0.5
    eta, gamma = theory_inner_params(0.9, nu, 0.0, 1, 1)
    cfg = default_config(lam=lam, nu=nu, eta=eta, gamma=gamma)
    z, _, _ = run_inner_alexr(prob, np.array([1.0]), cfg, SeededRng(4), k=500)
    assert abs(z[0] - 0.5) <= 1e-3  # grid prox of the 1-D instance is 0.5


def test_run_inner_rejects_zero_smoothing_before_any_oracle_call():
    # a direct call runs no validate, so the inner loop checks lam itself
    prob = hinge_chain()
    calls = []
    inner_value = prob.inner_value
    prob.inner_value = lambda *args: calls.append(args) or inner_value(*args)
    with pytest.raises(ConfigError):
        run_inner_alexr(prob, np.array([1.0]), default_config(lam=0.0), SeededRng(0))
    assert calls == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_inner_diverging_direct_call_raises_nonfinite_error():
    # no outer loop's errstate scope encloses a direct call, so the inner loop
    # must keep numpy's overflow warnings from preempting its own abort
    circle = Path(__file__).resolve().parents[1] / "configs" / "circle_alexr2.json"
    _, problem, _, _, config = _prepare(circle)
    with pytest.raises(NonFiniteError, match="inner iterate"):
        run_inner_alexr(problem, np.array([1e200, 1e200]), config, SeededRng(7), k=5)


def test_run_inner_does_not_worsen_stationarity_on_smooth_quadratic():
    spec = SyntheticFccoSpec(
        n=4, d=3, d1=1, inner_kind="quadratic", outer_kind="scaled_hinge", outer_param=1.0,
        population=1, seed=9, linear_scale=0.5, offset_shift=-0.5,
    )
    prob = make_synthetic_fcco(spec)
    lam, nu = 0.05, 0.1
    theta = stable_extrapolation(prob, lam, nu, 4)
    eta, gamma = theory_inner_params(theta, nu, rho_outer_smoothed(prob), 4, 4)
    cfg = default_config(lam=lam, nu=nu, eta=eta, theta=theta, gamma=gamma, b1=4, k_inner=600)
    w = np.full(3, 0.8)
    z, _, _ = run_inner_alexr(prob, w, cfg, SeededRng(2))
    before = stationarity_report(prob, w, lam).grad_F_lambda_norm
    after = stationarity_report(prob, z, lam).grad_F_lambda_norm
    assert after <= before + 1e-9


def test_run_inner_hinge_instance_matches_grid_prox():
    # min over z of envelope(z) + (z-1)^2 / (2*0.5); grid says 0.5
    prob = hinge_chain()
    lam, nu = 0.1, 0.5
    eta, gamma = theory_inner_params(0.9, nu, 0.0, 1, 1)
    cfg = default_config(lam=lam, nu=nu, eta=eta, gamma=gamma, k_inner=500)
    z, _, _ = run_inner_alexr(prob, np.array([1.0]), cfg, SeededRng(3))
    grid = np.linspace(-1.0, 2.0, 300001)
    vals = moreau_value(ScaledHinge(1.0), lam, grid[:, None]) + (grid - 1.0) ** 2
    z_star = grid[int(np.argmin(vals))]
    assert z_star == pytest.approx(0.5, abs=1e-5)
    assert abs(z[0] - z_star) <= 1e-4


def test_run_inner_contracts_on_quadratic_identity():
    spec = SyntheticFccoSpec(n=3, d=3, d1=1, inner_kind="quadratic", outer_kind="identity", population=1, seed=6)
    prob = make_synthetic_fcco(spec)
    lam, nu = 0.1, 0.2
    w = np.full(3, 0.5)
    # direct solve: min mean_i g_i(z) + |z-w|^2/(2 nu); the Jacobian of the
    # quadratic family is affine in w, so columns of Q come from differences
    quad = np.zeros((3, 3))
    lin = np.zeros(3)
    for i in range(3):
        jac0 = prob.inner_jacobian_exact(i, np.zeros(3))[0]
        e = np.eye(3)
        hess_i = np.column_stack(
            [prob.inner_jacobian_exact(i, e[j])[0] - jac0 for j in range(3)]
        )
        quad += hess_i / 3
        lin += jac0 / 3
    z_star = np.linalg.solve(quad + np.eye(3) / nu, w / nu - lin)
    theta = stable_extrapolation(prob, lam, nu, 1)
    eta, gamma = theory_inner_params(theta, nu, 0.0, 3, 3)
    cfg = default_config(lam=lam, nu=nu, eta=eta, theta=theta, gamma=gamma, b1=3, k_inner=800)
    dists = []
    z, _, _ = run_inner_alexr(
        prob, w, cfg, SeededRng(1), on_step=lambda k, zk: dists.append(np.linalg.norm(zk - z_star))
    )
    d = np.array([x for x in dists if x > 1e-13])
    factor = np.exp(np.mean(np.log(d[1:] / d[:-1])))
    assert factor < 1.0
    assert dists[-1] < 1e-5


def test_outer_momentum_step_examples():
    w, v = outer_momentum_step(np.ones(2), np.ones(2), np.array([3.0, -1.0]), 0.4, 0.1, 0.5)
    np.testing.assert_allclose(v, 0.6 * np.array([3.0, -1.0]))
    w2, v2 = outer_momentum_step(np.array([2.0]), np.array([0.0]), np.array([0.0]), 0.5, 0.1, 1.0)
    assert v2[0] == pytest.approx(1.0)
    assert w2[0] == pytest.approx(2.0 - 0.1)


def test_prox_residual_matches_envelope_gradient_in_1d():
    # with exact inner solves, (w - z_hat)/nu is the gradient of the
    # nested-smoothed objective; check against finite differences of a grid
    # evaluation of that envelope
    prob = hinge_chain()
    lam, nu = 0.1, 0.5
    eta, gamma = theory_inner_params(0.95, nu, 0.0, 1, 1)
    cfg = default_config(lam=lam, nu=nu, eta=eta, theta=0.95, gamma=gamma, k_inner=800)

    def nested_value(wv):
        grid = np.linspace(wv[0] - 2.0, wv[0] + 2.0, 80001)
        vals = moreau_value(ScaledHinge(1.0), lam, grid[:, None]) + (grid - wv[0]) ** 2 / (2 * nu)
        return float(np.min(vals))

    w = np.array([0.8])
    z, _, _ = run_inner_alexr(prob, w, cfg, SeededRng(5))
    residual = (w - z) / nu
    fd = finite_difference_gradient(nested_value, w, h=1e-4)
    assert abs(residual[0] - fd[0]) <= 1e-3


def test_run_alexr2_single_noop_step():
    prob = hinge_chain()
    cfg = default_config(iters=1, k_inner=0, w0=np.array([0.7]))
    res = run_alexr2(prob, cfg, SeededRng(0))
    np.testing.assert_allclose(res.w_final, [0.7])  # v = (1-beta)*0 + beta*0


def test_run_alexr2_aborts_on_nonfinite_vjp_with_partial_trace():
    # z falls from 1 by about 0.04 per inner step; once it is below 0.9 the
    # VJP is NaN, and so is the next inner iterate
    prob = replace(
        hinge_chain(),
        inner_vjp=lambda idx, w, batches, Y: np.array([Y[:, 0].mean() if w[0] > 0.9 else np.nan]),
    )
    cfg = default_config(w0=np.array([1.0]))
    with pytest.raises(SolverAbort) as exc:
        run_alexr2(prob, cfg, SeededRng(0))
    assert [row.iteration for row in exc.value.trace.rows] == [0]


def test_run_alexr2_deterministic_replay():
    spec = SyntheticFccoSpec(
        n=4, d=3, d1=1, inner_kind="affine", outer_kind="scaled_hinge", outer_param=2.0,
        sigma0=0.3, population=8, seed=2,
    )
    prob = make_synthetic_fcco(spec)
    cfg = default_config(lam=0.05, nu=0.3, eta=0.02, gamma=0.2, alpha=0.05, k_inner=12, iters=8, b1=2, b2=3)
    r1 = run_alexr2(prob, cfg, SeededRng(17))
    r2 = run_alexr2(prob, cfg, SeededRng(17))
    assert [r.to_csv_line() for r in r1.trace.rows] == [r.to_csv_line() for r in r2.trace.rows]
    np.testing.assert_array_equal(r1.w_final, r2.w_final)


def test_gate_rejects_nonmonotone_outer_with_weakly_convex_inner():
    spec = SyntheticFccoSpec(n=2, d=3, d1=2, inner_kind="sigmoid", outer_kind="gap_hinge", outer_param=0.1, seed=0)
    prob = make_synthetic_fcco(spec)
    prob.smoothness_inner = None
    prob.weak_convexity_inner = 0.5
    with pytest.raises(UnsupportedOperationError):
        check_assumptions(prob)


def test_gate_accepts_monotone_outer_with_weakly_convex_inner():
    prob = hinge_chain()
    prob.smoothness_inner = None
    prob.weak_convexity_inner = 0.5
    check_assumptions(prob)


def test_nu_bound_enforced():
    prob = hinge_chain()
    prob.smoothness_inner = 4.0  # rho bound = sqrt(1)*1*4 = 4, so nu < 0.25
    cfg = default_config(nu=0.3)
    with pytest.raises(ConfigError):
        cfg.validate(prob)
    default_config(nu=0.2).validate(prob)


def test_beta_gate():
    prob = hinge_chain()
    with pytest.raises(ConfigError):
        default_config(beta=0.6).validate(prob)


def test_batch_size_and_adam_gates():
    prob = make_synthetic_fcco(SyntheticFccoSpec(
        n=3, d=2, d1=1, inner_kind="affine", outer_kind="scaled_hinge", outer_param=1.0,
        population=6, seed=4,
    ))
    default_config(b2=6).validate(prob)
    for bad in (dict(b2=7), dict(b2=0), dict(b1=4), dict(adam_clip=(2.0, 1.0)),
                dict(adam_clip=(0.1, 1.0), adam_beta2=1.0)):
        with pytest.raises(ConfigError):
            default_config(**bad).validate(prob)


def test_smoothed_objective_smoothness_needs_nu_below_inverse_rho():
    for nu, rho in ((2.0, 1.0), (1.0, 1.0), (0.0, 1.0), (-0.5, 0.0)):
        with pytest.raises(ConfigError):
            smoothed_objective_smoothness(nu, rho)
    with pytest.raises(ConfigError):
        theory_outer_stepsize(0.5, 1.0, 1.0)
    # rho = 0 (convex smoothed objective) puts no upper bound on nu
    assert smoothed_objective_smoothness(0.5, 0.0) == pytest.approx(4.0)
    assert smoothed_objective_smoothness(0.5, 1.0) == pytest.approx(1.5 / 0.25)
    assert theory_outer_stepsize(0.5, 0.5, 0.0) == pytest.approx(0.0625)


def test_rho_outer_smoothed_prefers_smoothness():
    prob = hinge_chain()
    prob.smoothness_inner = 2.0
    prob.weak_convexity_inner = 9.0
    assert rho_outer_smoothed(prob) == pytest.approx(2.0)
    prob.smoothness_inner = None
    assert rho_outer_smoothed(prob) == pytest.approx(9.0)


def test_theory_outer_stepsize_matches_formula():
    assert theory_outer_stepsize(0.5, 0.1, 0.0) == pytest.approx(0.5 / (2 * 20.0))


def test_dual_restart_and_growth_schedule_run_deterministically():
    spec = SyntheticFccoSpec(
        n=3, d=2, d1=1, inner_kind="affine", outer_kind="scaled_hinge", outer_param=1.0,
        sigma0=0.2, population=6, seed=4,
    )
    prob = make_synthetic_fcco(spec)
    cfg = default_config(
        lam=0.05, nu=0.3, eta=0.02, gamma=0.2, alpha=0.05, k_inner=4, iters=5,
        b1=2, b2=2, warm_start_dual=False, k_growth=True,
    )
    r1 = run_alexr2(prob, cfg, SeededRng(6))
    r2 = run_alexr2(prob, cfg, SeededRng(6))
    np.testing.assert_array_equal(r1.w_final, r2.w_final)
    # K_t = k_inner * (1 + t): 4+8+12+16+20 inner draws of b1 components
    assert r1.trace.last().component_draws == 2 * sum(4 * (1 + t) for t in range(5))


def test_outer_residual_norm_trends_down_on_constrained_toy():
    from fcco.penalty import build_penalty_problem
    from fcco.problems import make_toy_constrained

    cp = make_toy_constrained("qp_box")
    pen = build_penalty_problem(cp, 20.0)
    lam, nu = 5e-4, 0.1
    theta = stable_extrapolation(pen, lam, nu, 1)
    eta, gamma = theory_inner_params(theta, nu, rho_outer_smoothed(pen), 1, 1)
    cfg = Alexr2Config(lam=lam, nu=nu, eta=eta, theta=theta, gamma=gamma, beta=0.5,
                       alpha=theory_outer_stepsize(0.5, nu, 0.0), k_inner=250, iters=120,
                       b1=1, b2=1, metric_every=5)
    res = run_alexr2(pen, cfg, SeededRng(7))
    rows = [r for r in res.trace.rows if r.iteration > 0 and r.grad_norm > 1e-12]
    xs = np.array([r.iteration for r in rows], dtype=float)
    ys = np.log([r.grad_norm for r in rows])
    slope = np.polyfit(xs, ys, 1)[0]
    assert slope < 0


# sha256 of the (z, u, calls) that run_inner_alexr returns after 200 steps:
# on the circle of configs/circle_alexr2.json, whose draws are forced, and on
# the ROC fairness penalty instance with sampled draws, where the trackers
# update through u[idx].  A change to the inner step must keep these bits.
_INNER_RUN_HASHES = {
    "circle": ({"kind": "toy_constrained", "which": "circle", "penalty_slope": 20.0},
               dict(lam=0.0005, nu=0.0125, eta=0.0003205128205128194, theta=0.9875,
                    gamma=0.012499999999999956, b1=1, b2=1),
               "57b59577406681691413111b8bad350b6bc02100adcf74fd5251cc7ce77de3c2"),
    "roc-penalty": ({"kind": "roc_fairness", "thresholds": [-1.0, 0.0, 1.0], "margin": 0.05,
                     "n_pos": 20, "n_neg": 24, "seed": 6, "penalty_slope": 4.0},
                    dict(lam=0.01, nu=0.1, eta=0.02, theta=0.9, gamma=0.2, b1=2, b2=8),
                    "0a0a410559a66a4856f16f4a35ad30b741694f79d3e50cdee232fd0c37b82e98"),
}


@pytest.mark.parametrize("case", sorted(_INNER_RUN_HASHES))
def test_inner_run_matches_pinned_hash(case):
    problem_cfg, params, expected = _INNER_RUN_HASHES[case]
    problem, _ = build_problem(problem_cfg)
    config = default_config(**params)
    config.validate(problem)
    w_t = 0.5 + np.random.default_rng(3).normal(size=problem.d)
    assert outputs_sha256(run_inner_alexr(problem, w_t, config, SeededRng(4), k=200)) == expected


def _chain(**constants):
    return replace(scalar_chain_problem(ScaledHinge(1.0)), **constants)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: rho_outer_smoothed(_chain(smoothness_inner=None, weak_convexity_inner=None)),
         "problem must declare smoothness_inner or weak_convexity_inner"),
        (lambda: theory_inner_params(1.0, 0.1, 0.0, 4, 2), "theta must lie in (0, 1)"),
        (lambda: theory_inner_params(0.5, 1.0, 1.0, 4, 2), "decrease nu"),
        (lambda: stable_extrapolation(_chain(lipschitz_inner=None), 0.1, 0.1, 1),
         "problem must declare lipschitz_inner"),
        (lambda: stable_extrapolation(_chain(smoothness_inner=1.0), 0.1, 2.0, 1), "nu too large"),
        (lambda: check_assumptions(_chain(smoothness_inner=None, weak_convexity_inner=None)),
         "declare smoothness_inner or weak_convexity_inner on the problem"),
    ],
    ids=["rho_no_curvature", "theta_one", "theta_below_rho_nu", "no_lipschitz", "nu_too_large",
         "assumptions_no_curvature"],
)
def test_double_loop_helpers_reject_bad_input(call, fragment):
    with pytest.raises(ConfigError) as info:
        call()
    assert info.type is ConfigError and fragment in str(info.value)
