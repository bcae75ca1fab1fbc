import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcco import (
    ConfigError,
    FccoProblem,
    Identity,
    ScaledHinge,
    SeededRng,
    SolverAbort,
    sample_data_batch,
)
from fcco.alexr2 import Alexr2Config, run_alexr2
from fcco.smoothing import moreau_grad
from fcco.metrics import stationarity_report
from fcco.problems import SyntheticFccoSpec, make_synthetic_fcco
from fcco.sonex import (
    SonexConfig,
    adam_step,
    gradient_estimate,
    init_trackers,
    momentum_step,
    msvr_correction_default,
    msvr_update,
    run_sonex,
    theory_hyperparams,
)
from util import affine_problem, scalar_chain_problem


def test_msvr_update_examples():
    assert msvr_update(np.array([4.0]), np.array([2.0]), np.array([2.0]), 1.0, 0.0)[0] == 2.0
    assert msvr_update(np.array([4.0]), np.array([2.0]), np.array([2.0]), 0.5, 0.0)[0] == 3.0
    got = msvr_update(np.array([1.0]), np.array([2.0]), np.array([1.5]), 0.2, 0.1)
    assert got[0] == pytest.approx(1.25)


def test_msvr_correction_default_examples():
    assert msvr_correction_default(5, 5, 0.5) == pytest.approx(0.5)
    assert msvr_correction_default(100, 10, 0.5) == pytest.approx(18.5)
    assert msvr_correction_default(2, 1, 0.0) == pytest.approx(2.0)
    with pytest.raises(ConfigError):
        msvr_correction_default(4, 2, 1.0)


def test_momentum_step_beta_one_is_sgd():
    v, w = momentum_step(np.array([5.0, -5.0]), np.array([1.0, 1.0]), np.array([2.0, 0.0]), 1.0, 0.1)
    np.testing.assert_allclose(v, [2.0, 0.0])
    np.testing.assert_allclose(w, [0.8, 1.0])


def test_momentum_step_arithmetic():
    v, w = momentum_step(np.array([1.0, 0.0]), np.zeros(2), np.array([0.0, 1.0]), 0.5, 1.0)
    np.testing.assert_allclose(v, [0.5, 0.5])
    np.testing.assert_allclose(w, [-0.5, -0.5])


def test_momentum_decay_without_gradient():
    v = np.array([2.0, -1.0])
    w = np.zeros(2)
    beta = 0.3
    for t in range(1, 20):
        v, w = momentum_step(v, w, np.zeros(2), beta, 0.0)
        assert np.linalg.norm(v) == pytest.approx((1 - beta) ** t * np.linalg.norm([2.0, -1.0]))


def test_adam_step_unit_denominator():
    v0 = np.array([0.5, -2.0])
    # rates inside the clip pass through it unchanged
    v, w, s = adam_step(v0, np.zeros(2), np.zeros(2), v0, 1.0, 0.1, 1.0, 0.05, clip=(1e-6, 1e6))
    np.testing.assert_allclose(w, -0.05 * v0)  # rate uses the pre-update s = 0


def test_adam_ema_fixed_point():
    c = 3.0
    s = np.array([0.0])
    v = np.array([0.0])
    w = np.array([0.0])
    for _ in range(3000):
        v, w, s = adam_step(v, w, s, np.array([c]), 0.5, 0.05, 1e-3, 1e-4, clip=(1e-6, 1e6))
    assert np.sqrt(s[0]) == pytest.approx(c, rel=1e-6)


def test_adam_clip_pins_momentum_trajectory():
    gen = np.random.default_rng(0)
    grads = [gen.normal(size=3) for _ in range(25)]
    v1, w1 = np.zeros(3), np.ones(3)
    v2, w2, s2 = np.zeros(3), np.ones(3), np.zeros(3)
    for g in grads:
        v1, w1 = momentum_step(v1, w1, g, 0.2, 0.01)
        v2, w2, s2 = adam_step(v2, w2, s2, g, 0.2, 0.1, 1e-9, 0.01, clip=(1.0, 1.0))
    np.testing.assert_allclose(w1, w2)
    np.testing.assert_allclose(v1, v2)


def test_theory_hyperparams_example():
    cfg = theory_hyperparams(0.1, n=1, b1=1, b2=1, outer_lipschitz=1.0)
    assert cfg.lam == pytest.approx(0.1)
    assert cfg.beta == pytest.approx(0.01)
    assert cfg.gamma == pytest.approx(1e-4)
    assert cfg.eta == pytest.approx(1e-3)


def test_theory_hyperparams_scale_linearity_and_clamp():
    a = theory_hyperparams(0.1, 10, 2, 4, 1.0, scale=1.0)
    b = theory_hyperparams(0.1, 10, 2, 4, 1.0, scale=2.0)
    assert b.lam == a.lam
    assert b.beta == pytest.approx(2 * a.beta)
    assert b.gamma == pytest.approx(2 * a.gamma)
    assert b.eta == pytest.approx(2 * a.eta)
    clamped = theory_hyperparams(1.0, 100, 100, 100, 1.0)
    assert clamped.beta == pytest.approx(2.0 / 7.0)
    assert clamped.gamma == pytest.approx(0.5)


def test_init_trackers_exact_on_full_population():
    spec = SyntheticFccoSpec(n=4, d=3, d1=1, inner_kind="affine", sigma0=0.4, population=12, seed=0)
    prob = make_synthetic_fcco(spec)
    w0 = np.array([0.1, -0.2, 0.3])
    u, calls = init_trackers(prob, w0, 12, SeededRng(1))
    assert calls == 4
    for i in range(4):
        np.testing.assert_allclose(u[i], prob.inner_exact(i, w0))


def test_init_trackers_unbiased_over_seeds():
    spec = SyntheticFccoSpec(n=2, d=3, d1=1, inner_kind="affine", sigma0=0.5, population=400, seed=7)
    prob = make_synthetic_fcco(spec)
    w0 = np.zeros(3)
    b2 = 8
    means = np.mean([init_trackers(prob, w0, b2, SeededRng(s))[0] for s in range(300)], axis=0)
    exact = np.array([prob.inner_exact(i, w0) for i in range(2)])
    # CLT: std of the mean ~ sigma0/sqrt(300*b2)
    tol = 4 * 0.5 / np.sqrt(300 * b2)
    assert np.max(np.abs(means - exact)) < tol


def _estimate(prob, w, u, idx, batches, lam):
    # the envelope gradients read off the trackers, as run_sonex's step does
    return gradient_estimate(prob, w, idx, batches, moreau_grad(prob.outer, lam, u[idx]))


def test_gradient_estimate_identity_affine_mean():
    A = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    prob = affine_problem(A, np.zeros(3), Identity())
    w = np.array([0.5, -0.5])
    u = np.array([prob.inner_exact(i, w) for i in range(3)])
    b1 = np.array([0, 1, 2])
    batches = np.zeros((3, 1), dtype=int)
    got, calls = _estimate(prob, w, u, b1, batches, lam=0.1)
    np.testing.assert_allclose(got, A.mean(axis=0))
    assert calls == 3


def test_gradient_estimate_flat_hinge_is_zero():
    A = np.eye(2)
    prob = affine_problem(A, [-3.0, -4.0], ScaledHinge(1.0))
    w = np.zeros(2)
    u = np.array([prob.inner_exact(i, w) for i in range(2)])
    got, _ = _estimate(prob, w, u, np.array([0, 1]), np.zeros((2, 1), dtype=int), 0.2)
    np.testing.assert_allclose(got, np.zeros(2))


def test_gradient_estimate_chain_rule_single_component():
    prob = scalar_chain_problem(ScaledHinge(1.0))
    lam = 0.3
    w = np.array([0.1])  # inside the envelope's quadratic band
    u = np.array([prob.inner_exact(0, w)])
    got, _ = _estimate(prob, w, u, np.array([0]), np.array([[0]]), lam)
    exact = stationarity_report(prob, w, lam).grad_F_lambda
    np.testing.assert_allclose(got, exact, rtol=1e-12)


def _quad_hinge_spec(**over):
    base = dict(
        n=6, d=4, d1=1, inner_kind="quadratic", outer_kind="scaled_hinge", outer_param=1.0,
        population=1, seed=5, linear_scale=0.5, offset_shift=-1.0,
    )
    base.update(over)
    return SyntheticFccoSpec(**base)


def test_run_sonex_zero_iterations():
    prob = make_synthetic_fcco(_quad_hinge_spec())
    cfg = SonexConfig(lam=0.1, eta=1e-3, beta=0.2, gamma=0.5, b1=6, b2=1, iters=0)
    res = run_sonex(prob, cfg, SeededRng(0))
    assert len(res.trace.rows) == 1
    np.testing.assert_array_equal(res.w_final, prob.initial_point())


def test_run_sonex_deterministic_replay():
    prob = make_synthetic_fcco(_quad_hinge_spec(population=9, sigma0=0.2))
    cfg = SonexConfig(lam=0.1, eta=1e-3, beta=0.2, gamma=0.4, b1=3, b2=4, iters=60, metric_every=10)
    r1 = run_sonex(prob, cfg, SeededRng(21))
    r2 = run_sonex(prob, cfg, SeededRng(21))
    assert [r.to_csv_line() for r in r1.trace.rows] == [r.to_csv_line() for r in r2.trace.rows]
    np.testing.assert_array_equal(r1.w_final, r2.w_final)
    np.testing.assert_array_equal(r1.w_sampled, r2.w_sampled)


@pytest.mark.parametrize("case", ["sonex", "alexr2", "zero_iterations", "stopped"])
def test_final_report_is_the_exact_pass_at_w_final(case):
    prob = make_synthetic_fcco(_quad_hinge_spec(population=9, sigma0=0.2))
    cfg = SonexConfig(lam=0.1, eta=1e-3, beta=0.2, gamma=0.4, b1=3, b2=4, iters=25, metric_every=10)
    run = run_sonex
    if case == "alexr2":
        cfg = Alexr2Config(lam=0.05, nu=0.2, eta=0.02, theta=0.9, gamma=0.2, beta=0.5, alpha=0.05,
                           b1=2, b2=3, k_inner=10, iters=8, metric_every=3)
        run = run_alexr2
    elif case == "zero_iterations":
        cfg = dataclasses.replace(cfg, iters=0)
    elif case == "stopped":
        cfg = dataclasses.replace(cfg, stop_grad_norm=1e9)
    res = run(prob, cfg, SeededRng(4))
    assert res.stopped_early == (case == "stopped")
    fresh = stationarity_report(prob, res.w_final, cfg.lam)
    for f in dataclasses.fields(fresh):
        got, want = getattr(res.final_report, f.name), getattr(fresh, f.name)
        assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want, f.name


@pytest.mark.filterwarnings("ignore:beta > 2/7")
def test_run_sonex_noiseless_full_batch_matches_exact_descent():
    prob = make_synthetic_fcco(_quad_hinge_spec())
    lam, eta, beta = 0.1, 2e-3, 0.3
    cfg = SonexConfig(lam=lam, eta=eta, beta=beta, gamma=0.5, b1=6, b2=1, iters=40, metric_every=40)
    res = run_sonex(prob, cfg, SeededRng(2))
    # replay with the exact smoothed gradient: trackers stay exact, so the
    # stochastic path degenerates to deterministic momentum descent
    w = prob.initial_point()
    v = np.zeros(prob.d)
    for _ in range(40):
        g = stationarity_report(prob, w, lam).grad_F_lambda
        v = (1 - beta) * v + beta * g
        w = w - eta * v
    np.testing.assert_allclose(res.w_final, w, atol=1e-12)


def test_run_sonex_f_lambda_monotone_on_smooth_problem():
    spec = SyntheticFccoSpec(n=5, d=4, d1=1, inner_kind="quadratic", outer_kind="identity", population=1, seed=8)
    prob = make_synthetic_fcco(spec)
    cfg = SonexConfig(
        lam=0.1, eta=5e-3, beta=1.0, gamma=1.0, gamma_prime=0.0, b1=5, b2=1,
        iters=300, metric_every=1, w0=np.full(4, 1.0),
    )
    res = run_sonex(prob, cfg, SeededRng(0))
    vals = [r.f_lambda_value for r in res.trace.rows]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


@pytest.mark.filterwarnings("ignore:beta > 2/7")
def test_run_sonex_stale_trackers_outside_sampled_set():
    prob = make_synthetic_fcco(_quad_hinge_spec(population=5, sigma0=0.3))
    cfg = SonexConfig(lam=0.1, eta=1e-3, beta=0.5, gamma=0.4, gamma_prime=0.0, b1=1, b2=2, iters=1)
    rng = SeededRng(33)
    res = run_sonex(prob, cfg, rng)
    u0, _ = init_trackers(prob, prob.initial_point(), 2, SeededRng(33))
    changed = [i for i in range(prob.n) if not np.array_equal(res.state.u[i], u0[i])]
    assert len(changed) == 1


def test_run_sonex_aborts_on_nonfinite_with_partial_trace():
    def bad_value(idx, w, batches):
        return np.full((len(idx), 1), w[0] if abs(w[0]) < 0.05 else np.nan)

    prob = FccoProblem(
        d=1, d1=1, outer=Identity(),
        inner_value=bad_value,
        inner_vjp=lambda idx, w, batches, Y: np.array([np.nan if abs(w[0]) > 0.05 else 1.0]),
        populations=(1,),
    )
    cfg = SonexConfig(lam=0.1, eta=1.0, beta=1.0, gamma=1.0, gamma_prime=0.0, b1=1, b2=1, iters=50)
    with pytest.raises(SolverAbort) as exc:
        run_sonex(prob, cfg, SeededRng(0))
    assert exc.value.trace is not None
    assert len(exc.value.trace.rows) >= 1


def test_config_validation_gates():
    prob = affine_problem(np.eye(4), np.zeros(4), Identity())
    with pytest.raises(ConfigError):
        SonexConfig(lam=0.0, eta=1e-3).validate(prob)
    with pytest.raises(ConfigError):
        SonexConfig(lam=0.1, eta=-1.0).validate(prob)
    with pytest.raises(ConfigError):
        SonexConfig(lam=0.1, eta=1e-3, gamma=0.7).validate(prob)  # correction active
    with pytest.raises(ConfigError):
        SonexConfig(lam=0.1, eta=1e-3, b1=9).validate(prob)
    for kind in ("nesterov", "sgd_baseline"):
        with pytest.raises(ConfigError, match="update_kind must be 'momentum' or 'adam'"):
            SonexConfig(lam=0.1, eta=1e-3, update_kind=kind).validate(prob)
    with pytest.raises(ConfigError, match="adam_clip is set exactly when update_kind is 'adam'"):
        SonexConfig(lam=0.1, eta=1e-3, update_kind="adam").validate(prob)
    SonexConfig(lam=0.1, eta=0.0, beta=0.2, gamma=0.7, gamma_prime=0.0).validate(prob)


@pytest.mark.parametrize("beta, warns", [(0.2, False), (0.5, True), (1.0, False)])
def test_beta_warning_only_between_two_sevenths_and_one(beta, warns):
    # beta = 1 is the SGD-type update, which the analysis covers apart from
    # the momentum recursion's (0, 2/7]
    prob = affine_problem(np.eye(4), np.zeros(4), Identity())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        SonexConfig(lam=0.1, eta=1e-3, beta=beta).validate(prob)
    assert [str(w.message).startswith("beta > 2/7") for w in caught] == ([True] if warns else [])


def test_data_batch_must_fit_every_population():
    prob = make_synthetic_fcco(_quad_hinge_spec(population=5))
    SonexConfig(lam=0.1, eta=1e-3, b2=5).validate(prob)
    for b2 in (0, 6):
        with pytest.raises(ConfigError, match="b2"):
            SonexConfig(lam=0.1, eta=1e-3, b2=b2).validate(prob)
    with pytest.raises(ConfigError, match="b2"):
        run_sonex(prob, SonexConfig(lam=0.1, eta=1e-3, b2=6, iters=1), SeededRng(0))


@settings(max_examples=40, deadline=None)
@given(
    gamma=st.floats(0.01, 0.99),
    gp=st.floats(0.0, 3.0),
    u=st.floats(-5, 5),
    g_new=st.floats(-5, 5),
    g_prev=st.floats(-5, 5),
)
def test_msvr_update_is_affine_identity(gamma, gp, u, g_new, g_prev):
    got = msvr_update(np.array([u]), np.array([g_new]), np.array([g_prev]), gamma, gp)
    expect = (1 - gamma) * u + gamma * g_new + gp * (g_new - g_prev)
    assert got[0] == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_adam_clip_bounds_every_displacement():
    gen = np.random.default_rng(3)
    v, w, s = np.zeros(4), np.zeros(4), np.zeros(4)
    eta, lo, hi = 0.05, 0.2, 3.0
    for _ in range(50):
        g = gen.normal(size=4) * gen.uniform(0.1, 5.0)
        v, w_new, s = adam_step(v, w, s, g, 0.3, 0.1, 1e-8, eta, clip=(lo, hi))
        move = np.abs(w_new - w)
        assert np.all(move <= eta * hi * np.abs(v) + 1e-15)
        assert np.all(move >= eta * lo * np.abs(v) - 1e-15)
        w = w_new


def test_tracker_error_nonincreasing_and_hits_noise_floor():
    # frozen iterate, no correction term: the tracker is a plain moving
    # average whose mean-square error decays monotonically to the
    # gamma-scaled batch-noise floor
    sigma0, b2, gamma, n_comp = 0.5, 5, 0.05, 3
    # monotonicity is only visible during the decay phase; later checkpoints
    # sit on the noise floor where sample fluctuations dominate
    checkpoints = [1, 5, 15, 40, 1000]
    totals = {t: 0.0 for t in checkpoints}
    seeds = 12
    for seed in range(seeds):
        spec = SyntheticFccoSpec(n=n_comp, d=4, d1=1, inner_kind="affine",
                                 outer_kind="identity", sigma0=sigma0,
                                 population=400, seed=200 + seed)
        prob = make_synthetic_fcco(spec)
        w = np.zeros(4)
        g_exact = np.array([prob.inner_exact(i, w) for i in range(n_comp)])
        rng = SeededRng(seed)
        u, _ = init_trackers(prob, w, b2, rng)
        every = np.arange(n_comp)
        for t in range(1, 1001):
            batches = sample_data_batch(rng.philox(7, t), prob.populations, b2)
            u = msvr_update(u, prob.inner_value(every, w, batches), u * 0, gamma, 0.0)
            if t in totals:
                totals[t] += float(np.mean((u - g_exact) ** 2)) / seeds
    errs = [totals[t] for t in checkpoints]
    assert all(b <= a * 1.1 for a, b in zip(errs[:4], errs[1:4]))  # decay phase
    assert errs[-1] < 2 * gamma * sigma0**2 / b2  # settles at the noise floor


def test_component_batches_do_not_depend_on_the_drawn_set():
    import dataclasses

    prob = make_synthetic_fcco(SyntheticFccoSpec(n=6, d=3, d1=1, inner_kind="affine",
                                                 sigma0=0.3, population=40, seed=1))

    def step_calls(b1):
        calls = []

        def value(idx, w, batches):
            calls.append((idx.copy(), batches.copy()))
            return prob.inner_value(idx, w, batches)

        cfg = SonexConfig(lam=0.1, eta=1e-3, gamma_prime=0.0, b1=b1, b2=5, iters=30, metric_every=30)
        run_sonex(dataclasses.replace(prob, inner_value=value), cfg, SeededRng(4))
        return [call for call in calls if call[1].shape[1] == 5][1:]  # drop init_trackers

    full, subset = step_calls(6), step_calls(2)
    assert len(full) == len(subset) == 30
    drawn = set()
    for (idx_full, rows_full), (idx, rows) in zip(full, subset):
        assert np.array_equal(idx_full, np.arange(6)) and len(idx) == 2
        np.testing.assert_array_equal(rows, rows_full[idx])
        drawn.update(idx.tolist())
    assert len(drawn) == 6


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: msvr_correction_default(4, 0, 0.5), "need 1 <= b1 <= n"),
        (lambda: msvr_correction_default(4, 5, 0.5), "need 1 <= b1 <= n"),
        (lambda: theory_hyperparams(0.0, n=1, b1=1, b2=1, outer_lipschitz=1.0),
         "eps and scale must be positive"),
        (lambda: theory_hyperparams(0.1, n=1, b1=1, b2=1, outer_lipschitz=1.0, scale=0.0),
         "eps and scale must be positive"),
    ],
    ids=["b1_zero", "b1_above_n", "eps_zero", "scale_zero"],
)
def test_theory_helpers_reject_bad_input(call, fragment):
    with pytest.raises(ConfigError) as info:
        call()
    assert info.type is ConfigError and fragment in str(info.value)
