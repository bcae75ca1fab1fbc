import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcco import ConfigError, Identity, ScaledHinge, SeededRng
from fcco.metrics import eval_exact, stationarity_report
from fcco.penalty import (
    ConstrainedProblem,
    build_penalty_problem,
    kkt_report,
    regularity_check,
    suggest_penalty_slope,
)
from fcco.problems import RocFairnessSpec, make_roc_fairness_toy, make_toy_constrained
from fcco.smoothing import hinge_moreau_grad_closed_form, moreau_value
from fcco.sonex import SonexConfig, run_sonex
from util import affine_problem


def test_build_penalty_structure():
    cp = make_toy_constrained("qp_box")
    pen = build_penalty_problem(cp, 10.0)
    assert pen.n == 1 and pen.d1 == 1 and pen.is_penalty
    assert isinstance(pen.outer, ScaledHinge)
    assert pen.outer.slope == 10.0


def test_penalty_value_matches_hand_computation():
    # m=1: objective (w-2)^2, constraint w - 1 <= 0
    cp = make_toy_constrained("qp_box")
    pen = build_penalty_problem(cp, 10.0)
    lam = 0.01
    w = np.array([1.5])
    f, f_lam = eval_exact(pen, w, lam)
    expect = (1.5 - 2.0) ** 2 + moreau_value(ScaledHinge(10.0), lam, [0.5])
    assert f_lam == pytest.approx(expect, rel=1e-12)
    assert f == pytest.approx(0.25 + 10.0 * 0.5)


def test_penalty_vanishes_when_feasible():
    cp = make_toy_constrained("qp_box")
    pen = build_penalty_problem(cp, 10.0)
    w = np.array([0.2])  # strictly feasible
    f, f_lam = eval_exact(pen, w, 0.05)
    assert f == pytest.approx((0.2 - 2.0) ** 2)
    assert f_lam == pytest.approx((0.2 - 2.0) ** 2)


def test_exact_penalty_gap_bound():
    # 0 <= exact hinge penalty - smoothed penalty <= lam * slope^2 / 2
    cp = make_toy_constrained("circle")
    slope = 8.0
    pen = build_penalty_problem(cp, slope)
    gen = np.random.default_rng(3)
    for _ in range(200):
        w = gen.normal(size=2) * 1.5
        lam = gen.uniform(1e-3, 0.2)
        f, f_lam = eval_exact(pen, w, lam)
        gap = f - f_lam
        assert -1e-12 <= gap <= lam * slope**2 / 2 + 1e-12


def test_smoothing_vanishes_in_the_limit():
    cp = make_toy_constrained("qp_box")
    slope = 5.0
    pen = build_penalty_problem(cp, slope)
    w = np.array([1.7])
    exact_pen = (1.7 - 2.0) ** 2 + slope * 0.7
    for lam in (0.1, 0.01, 0.001):
        _, f_lam = eval_exact(pen, w, lam)
        assert abs(exact_pen - f_lam) <= lam * slope**2 / 2 + 1e-12


def test_kkt_strictly_feasible_point():
    cp = make_toy_constrained("qp_box")
    rep = kkt_report(cp, np.array([0.0]), 10.0, 0.01)
    assert rep.multipliers[0] == 0.0
    assert rep.complementarity == 0.0
    assert rep.stationarity == pytest.approx(4.0)  # |grad g0| at w=0


def test_kkt_deep_infeasibility_caps_multiplier():
    cp = make_toy_constrained("qp_box")
    slope, lam = 10.0, 0.01
    rep = kkt_report(cp, np.array([5.0]), slope, lam)  # violation 4 >> lam*slope
    assert rep.multipliers[0] == pytest.approx(slope / cp.m)
    assert rep.max_violation == pytest.approx(4.0)


def test_kkt_reproduces_hand_multiplier_near_solution():
    # active constraint at w*=1 has multiplier 2; slightly infeasible point
    # with slope=2 saturates the hinge cap and reproduces it
    cp = make_toy_constrained("qp_box")
    lam, slope = 0.01, 2.0
    w = np.array([1.03])  # violation 0.03 >= lam*slope = 0.02
    rep = kkt_report(cp, w, slope, lam)
    assert rep.multipliers[0] == pytest.approx(2.0)
    assert rep.stationarity == pytest.approx(abs(2 * (1.03 - 2.0) + 2.0), rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(w0=st.floats(-3, 6), slope=st.floats(0.5, 30.0), lam=st.floats(1e-3, 0.5))
def test_multiplier_formula_consistency(w0, slope, lam):
    cp = make_toy_constrained("qp_box")
    rep = kkt_report(cp, np.array([w0]), slope, lam)
    g = w0 - 1.0
    assert rep.multipliers[0] * cp.m * lam == pytest.approx(min(max(g, 0.0), lam * slope), abs=1e-12)


def test_kkt_report_reads_the_metric_pass():
    # m = 6 rate-gap constraints; lam*slope = 0.02 leaves inactive, unsaturated
    # and saturated hinges at these points
    cp = make_roc_fairness_toy(RocFairnessSpec(thresholds=[-1.0, 0.0, 1.0]))
    slope, lam = 10.0, 0.002
    pen = build_penalty_problem(cp, slope)
    gen = np.random.default_rng(0)
    for _ in range(4):
        w = 2.0 * gen.normal(size=cp.d)
        kkt = kkt_report(cp, w, slope, lam)
        rep = stationarity_report(pen, w, lam)
        assert kkt.stationarity == rep.grad_F_lambda_norm
        assert kkt.max_violation == rep.max_inner_value
        expect = [hinge_moreau_grad_closed_form(cp.constraint_value_exact(i, w), lam, slope) / cp.m
                  for i in range(cp.m)]
        np.testing.assert_allclose(kkt.multipliers, expect, rtol=1e-12)


def _cp_with_grads(rows):
    inner = affine_problem(rows, np.zeros(len(rows)), Identity())
    return ConstrainedProblem(
        d=inner.d,
        objective=make_toy_constrained("qp_box").objective,
        constraint_value=inner.inner_value,
        constraint_grad=inner.inner_vjp,
        populations=inner.populations,
    )


def test_regularity_orthonormal_columns():
    rep = regularity_check(_cp_with_grads(np.eye(3)), np.zeros(3))
    assert rep.sigma_min == pytest.approx(1.0)
    assert not rep.rank_deficient


def test_regularity_repeated_column_is_zero():
    rep = regularity_check(_cp_with_grads([[1.0, 0.0], [1.0, 0.0]]), np.zeros(2))
    assert rep.sigma_min == pytest.approx(0.0, abs=1e-12)


def test_regularity_matches_svd_reference():
    gen = np.random.default_rng(8)
    rows = gen.normal(size=(3, 5))  # 3 constraints in R^5 -> J is 5x3
    rep = regularity_check(_cp_with_grads(rows), np.zeros(5))
    ref = np.sqrt(np.linalg.eigvalsh(rows @ rows.T)[0])
    assert rep.sigma_min == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_regularity_shape_deficient_flag():
    rep = regularity_check(_cp_with_grads(np.ones((4, 2))), np.zeros(2))
    assert rep.sigma_min == 0.0
    assert rep.rank_deficient


def test_regularity_clamps_rounding_below_zero():
    # g3 = g1 + g2: the Gram matrix is singular, and eigvalsh puts its
    # smallest eigenvalue at about -2.7e-15, whose plain square root is NaN
    a, b = np.random.default_rng(4).normal(size=(2, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = regularity_check(_cp_with_grads([a, b, a + b]), np.zeros(5))
    assert math.isfinite(rep.sigma_min)
    assert rep.sigma_min == pytest.approx(0.0, abs=1e-12)
    assert not rep.rank_deficient


def test_constraint_count_is_the_population_count():
    cp = _cp_with_grads(np.eye(3))
    assert cp.m == 3
    with pytest.raises(TypeError):
        ConstrainedProblem(
            d=1, m=1, objective=cp.objective, constraint_value=cp.constraint_value,
            constraint_grad=cp.constraint_grad, populations=(1,),
        )


def test_suggest_penalty_slope():
    assert suggest_penalty_slope(3, 2.0, 0.5) == pytest.approx(1.5 * 3 * 3.0 / 0.5)
    with pytest.raises(ConfigError):
        suggest_penalty_slope(3, 2.0, 0.0)


def test_build_rejects_bad_params():
    cp = make_toy_constrained("qp_box")
    with pytest.raises(ConfigError):
        build_penalty_problem(cp, 0.0)


def test_violation_decreases_along_epsilon_grid():
    cp = make_toy_constrained("qp_box")
    slope = 20.0
    viols = []
    for eps in (0.1, 0.03, 0.01):
        pen = build_penalty_problem(cp, slope)
        cfg = SonexConfig(
            lam=eps / slope, eta=2e-3, beta=0.2, gamma=0.5, b1=1, b2=1, iters=40000,
            update_kind="adam", adam_beta2=0.1, adam_clip=(1e-4, 1.0),
            metric_every=200, stop_grad_norm=1e-3,
        )
        res = run_sonex(pen, cfg, SeededRng(3))
        viols.append(kkt_report(cp, res.w_final, slope, eps / slope).max_violation)
    assert viols[0] > viols[1] > viols[2]


def test_constrained_problem_needs_a_constraint():
    cp = _cp_with_grads(np.eye(3))
    with pytest.raises(ConfigError) as info:
        ConstrainedProblem(
            d=3, objective=cp.objective, constraint_value=cp.constraint_value,
            constraint_grad=cp.constraint_grad, populations=(),
        )
    assert info.type is ConfigError and "need at least one constraint" in str(info.value)
