"""run_sonex and run_inner_alexr against the loop-form references in
reference.py.

Each run_sonex case runs 100 steps on an instance with an additive term, b1 below n
and b2 below every population.  The tolerance was fixed before the first
comparison.  The variance correction (gamma' = 5.6 on the group-DRO
instance) carries each step's rounding into the next tracker update, so a
longer horizon is better checked in lockstep, one step at a time, than by
one comparison of the last iterate.

Each run_inner_alexr case runs 50 inner steps from cold trackers and from
warm ones.  It starts where its hinges are active and below their
saturation at lam times the slope, so the trackers move the iterate.

The run_alexr2 cases take 4 outer steps of 10, 20, 30 and 40 inner steps
(k_growth) on the group-DRO inner case, with the trackers handed on
between outer steps and with a cold start at each, under the momentum and
the Adam-type outer update.

The lockstep cases run longer, 300 sonex steps and 8 alexr2 outer steps
(10 to 80 inner steps), with a metric row after every step.  Each row's
values are compared with ``stationarity_report`` at the reference's iterate
of that row, so a miss is named by the first step it shows at.
"""

import functools

import numpy as np
import pytest

from fcco.alexr2 import Alexr2Config, run_alexr2, run_inner_alexr
from fcco.cli import build_problem
from fcco.core import SeededRng
from fcco.metrics import stationarity_report
from fcco.problems import (
    GdroCvarSpec,
    RocFairnessSpec,
    SyntheticFccoSpec,
    make_gdro_cvar,
    make_roc_fairness_fcco,
    make_synthetic_fcco,
)
from fcco.sonex import SonexConfig, run_sonex
from reference import reference_alexr2, reference_inner_alexr, reference_sonex

_RTOL = 1e-10  # on ||x_ref - x|| / ||x|| after the last step, for each output x
_SEED = 5

# the default group-DRO instance: n = 8 groups of 200 samples, and an
# additive term (the CVaR threshold) of population 1
_GDRO = dict(lam=0.05, eta=0.02, beta=0.2, gamma=0.4, b1=2, b2=5, iters=100)
# case -> (problem maker, config fields)
_CASES = {
    "gdro-momentum": ("gdro", _GDRO),
    # the SGD-type baseline: the momentum update with full mixing
    "gdro-sgd_baseline": ("gdro", {**_GDRO, "beta": 1.0}),
    # the clip binds on about 70% of the rates, so both branches run
    "gdro-adam-clip": ("gdro", {**_GDRO, "update_kind": "adam", "adam_clip": (1e-4, 1.0),
                                "adam_beta2": 0.1}),
    # an additive term whose batch is sampled: 6 of its 576 pairs per step
    "roc-momentum": ("roc", {**_GDRO, "eta": 0.05, "b2": 6}),
    # ragged populations of 20 and 9 (core._subsets): at b2 = 4, b2^2 = 16,
    # so the 20-sample rows are redrawn and the 9-sample rows ranked, the
    # mixed path; at b2 = 5 every row is ranked, the 9-sample rows padded to
    # 20.  The 720-pair additive batch is redrawn in both
    "roc-ragged-momentum": ("roc-ragged", {**_GDRO, "eta": 0.05, "b2": 4}),
    "roc-ragged-ranked-momentum": ("roc-ragged", {**_GDRO, "eta": 0.05, "b2": 5}),
    # the roc_fairness penalty: the same instance with its gap hinge at slope 4
    "roc-penalty-momentum": ("roc-penalty", {**_GDRO, "eta": 0.05, "b2": 6}),
}


def _problem(kind):
    if kind == "gdro":
        return make_gdro_cvar(GdroCvarSpec())
    n_pos, n_neg = (20, 9) if kind == "roc-ragged" else (12, 12)
    spec = RocFairnessSpec(thresholds=[-1.0, 0.0, 1.0], n_pos=n_pos, n_neg=n_neg, seed=6)
    return make_roc_fairness_fcco(spec, penalty_slope=4.0 if kind == "roc-penalty" else None)


def _gap(case, corrected):
    """Relative distance between run_sonex's final iterate and the
    reference's, the reference run with the solver's gamma' or with 0."""
    kind, fields = _CASES[case]
    problem, config = _problem(kind), SonexConfig(**fields)
    w = run_sonex(problem, config, SeededRng(_SEED)).w_final
    gamma_prime = config.resolved_gamma_prime(problem.n) if corrected else 0.0
    w_ref = reference_sonex(problem, config, _SEED, gamma_prime)[-1]
    return np.linalg.norm(w_ref - w) / np.linalg.norm(w)


@pytest.mark.parametrize("case", sorted(_CASES))
def test_run_sonex_matches_loop_reference(case):
    assert _gap(case, corrected=True) <= _RTOL


@pytest.mark.parametrize("case", sorted(_CASES))
def test_loop_reference_without_correction_misses(case):
    # the negative control: the same reference with gamma' = 0 must be told
    # apart from the solver at the same tolerance
    assert _gap(case, corrected=False) > _RTOL


_INNER_STEPS = 50
_ALEXR2_OUTER = dict(beta=0.5, alpha=0.1)  # read by the outer loop only
# case -> (problem maker, config fields, starting point w_t)
_INNER_CASES = {
    # an additive term (the CVaR threshold); the group losses start at log 2,
    # below the saturation lam / ratio = 1.33
    "gdro": (lambda: make_gdro_cvar(GdroCvarSpec()),
             dict(lam=0.2, nu=0.02, eta=0.02, theta=0.9, gamma=0.2, b1=2, b2=5), 0.0),
    # b2 = 3 of 8 samples per component; three of the four hinges start active
    "quadratic": (lambda: make_synthetic_fcco(SyntheticFccoSpec(
        n=4, d=3, d1=1, inner_kind="quadratic", outer_kind="scaled_hinge", outer_param=1.0,
        sigma0=0.2, population=8, seed=1)),
        dict(lam=2.0, nu=0.05, eta=0.02, theta=0.9, gamma=0.2, b1=2, b2=3), 1.0),
    # b1 = n and b2 = population = 1: _Draws' fixed-draw path, where the
    # value at the previous inner iterate is held, not recomputed
    "circle": (lambda: build_problem({"kind": "toy_constrained", "which": "circle",
                                      "penalty_slope": 20.0})[0],
               dict(lam=0.1, nu=0.0125, eta=0.0003205128205128194, theta=0.9875,
                    gamma=0.012499999999999956, b1=1, b2=1), np.array([1.5, 0.5])),
}


def _inner_gaps(case, warm, extrapolated):
    """Relative distances between run_inner_alexr's (z, u) and the
    reference's, the reference run with the solver's theta or with 0."""
    make, fields, start = _INNER_CASES[case]
    problem, config = make(), Alexr2Config(**fields, **_ALEXR2_OUTER)
    config.validate(problem)
    w_t = np.full(problem.d, start, dtype=float)
    u_init = None
    if warm:  # the trackers an earlier inner run leaves, as the outer loop hands them on
        _, u_init, _ = run_inner_alexr(problem, w_t, config, SeededRng(_SEED + 1), k=_INNER_STEPS)
    z, u, _ = run_inner_alexr(problem, w_t, config, SeededRng(_SEED), u_init=u_init, k=_INNER_STEPS)
    theta = config.theta if extrapolated else 0.0
    z_ref, u_ref = reference_inner_alexr(problem, w_t, config, SeededRng(_SEED), _INNER_STEPS, theta, u_init)
    return np.linalg.norm(z_ref - z) / np.linalg.norm(z), np.linalg.norm(u_ref - u) / np.linalg.norm(u)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("case", sorted(_INNER_CASES))
def test_run_inner_alexr_matches_loop_reference(case, warm):
    assert max(_inner_gaps(case, warm, extrapolated=True)) <= _RTOL


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("case", sorted(_INNER_CASES))
def test_inner_loop_reference_without_extrapolation_misses(case, warm):
    # the negative control: without the extrapolation both z and u are told
    # apart from the solver's at the same tolerance
    assert min(_inner_gaps(case, warm, extrapolated=False)) > _RTOL


_ADAM_OUTER = dict(update_kind="adam", adam_clip=(1.5, 5.0), adam_beta2=0.1)
# case id -> (warm_start_dual, outer-update fields).  Under _ADAM_OUTER the
# clip binds on 14 of the 20 rates, warm and cold: on all 5 at the first step
# (s = 0), then on two coordinates at the upper bound and one at the lower
_OUTER_CASES = {
    "cold": (False, {}),
    "warm": (True, {}),
    "adam-cold": (False, _ADAM_OUTER),
    "adam-warm": (True, _ADAM_OUTER),
}


def _outer_gap(case, extrapolated):
    """Relative distance between run_alexr2's final iterate and the
    reference's, the reference's inner loops run with the solver's theta or
    with 0."""
    make, fields, _ = _INNER_CASES["gdro"]
    warm, update = _OUTER_CASES[case]
    problem = make()
    config = Alexr2Config(**fields, **_ALEXR2_OUTER, **update, k_inner=10, k_growth=True, iters=4,
                          warm_start_dual=warm)
    w = run_alexr2(problem, config, SeededRng(_SEED)).w_final
    w_ref = reference_alexr2(problem, config, _SEED, config.theta if extrapolated else 0.0)[-1]
    return np.linalg.norm(w_ref - w) / np.linalg.norm(w)


@pytest.mark.parametrize("case", list(_OUTER_CASES))
def test_run_alexr2_matches_loop_reference(case):
    assert _outer_gap(case, extrapolated=True) <= _RTOL


@pytest.mark.parametrize("case", list(_OUTER_CASES))
def test_outer_loop_reference_without_extrapolation_misses(case):
    # the negative control: inner loops without the extrapolation are told
    # apart from the solver at the same tolerance
    assert _outer_gap(case, extrapolated=False) > _RTOL


_LOCKSTEP_RTOL = 1e-10  # on |x - x_ref| / max(1, |x_ref|), for each value of each row
_LOCKSTEP_SONEX = ("gdro-momentum", "gdro-adam-clip")


def _first_missed_row(problem, lam, trace, iterates):
    """The iteration of the first trace row whose F, F_lambda, gradient norm
    or t residual misses ``stationarity_report`` at the reference's iterate
    of that row, or None when every row matches."""
    for row in trace.rows:
        rep = stationarity_report(problem, iterates[row.iteration], lam)
        got = (row.f_value, row.f_lambda_value, row.grad_norm, row.stat_t_residual)
        want = (rep.f_value, rep.f_lambda_value, rep.grad_F_lambda_norm, rep.approx_t_residual)
        if any(abs(x - x_ref) > _LOCKSTEP_RTOL * max(1.0, abs(x_ref)) for x, x_ref in zip(got, want)):
            return row.iteration
    return None


# the solver runs, shared by each case's test and its control
@functools.cache
def _sonex_lockstep_run(case):
    kind, fields = _CASES[case]
    problem, config = _problem(kind), SonexConfig(**{**fields, "iters": 300}, metric_every=1)
    return problem, config, run_sonex(problem, config, SeededRng(_SEED)).trace


@functools.cache
def _alexr2_lockstep_run():
    make, fields, _ = _INNER_CASES["gdro"]
    problem = make()
    config = Alexr2Config(**fields, **_ALEXR2_OUTER, k_inner=10, k_growth=True, iters=8, metric_every=1)
    return problem, config, run_alexr2(problem, config, SeededRng(_SEED)).trace


def _sonex_lockstep_miss(case, corrected):
    problem, config, trace = _sonex_lockstep_run(case)
    gamma_prime = config.resolved_gamma_prime(problem.n) if corrected else 0.0
    return _first_missed_row(problem, config.lam, trace, reference_sonex(problem, config, _SEED, gamma_prime))


def _alexr2_lockstep_miss(extrapolated):
    problem, config, trace = _alexr2_lockstep_run()
    iterates = reference_alexr2(problem, config, _SEED, config.theta if extrapolated else 0.0)
    return _first_missed_row(problem, config.lam, trace, iterates)


@pytest.mark.parametrize("case", _LOCKSTEP_SONEX)
def test_run_sonex_trace_matches_loop_reference_in_lockstep(case):
    missed = _sonex_lockstep_miss(case, corrected=True)
    assert missed is None, f"first row that missed: iteration {missed}"


@pytest.mark.parametrize("case", _LOCKSTEP_SONEX)
def test_lockstep_reference_without_correction_misses(case):
    assert _sonex_lockstep_miss(case, corrected=False) is not None


def test_run_alexr2_trace_matches_loop_reference_in_lockstep():
    missed = _alexr2_lockstep_miss(extrapolated=True)
    assert missed is None, f"first row that missed: iteration {missed}"


def test_lockstep_outer_reference_without_extrapolation_misses():
    assert _alexr2_lockstep_miss(extrapolated=False) is not None
