"""run_sonex against the loop-form reference in reference.py.

Each case runs 100 steps on an instance with an additive term, b1 below n
and b2 below every population.  The tolerance was fixed before the first
comparison.  The variance correction (gamma' = 5.6 on the group-DRO
instance) carries each step's rounding into the next tracker update, so a
longer horizon is better checked in lockstep, one step at a time, than by
one comparison of the last iterate.
"""

import numpy as np
import pytest

from fcco.core import SeededRng
from fcco.problems import GdroCvarSpec, RocFairnessSpec, make_gdro_cvar, make_roc_fairness_fcco
from fcco.sonex import SonexConfig, run_sonex
from reference import reference_sonex

_RTOL = 1e-10  # on ||w_ref - w|| / ||w|| after the last step
_SEED = 5

# the default group-DRO instance: n = 8 groups of 200 samples, and an
# additive term (the CVaR threshold) of population 1
_GDRO = dict(lam=0.05, eta=0.02, beta=0.2, gamma=0.4, b1=2, b2=5, iters=100)
# case -> (problem maker, config fields)
_CASES = {
    "gdro-momentum": ("gdro", _GDRO),
    "gdro-sgd_baseline": ("gdro", {**_GDRO, "update_kind": "sgd_baseline"}),
    # the clip binds on about 70% of the rates, so both branches run
    "gdro-adam-clip": ("gdro", {**_GDRO, "update_kind": "adam", "adam_clip": (1e-4, 1.0),
                                "adam_beta2": 0.1}),
    # unclipped, the first step is taken at rate eta/1e-8 from s = 0; eta = 1e-8
    # keeps it from throwing w onto the flat parts of the hinges, where no
    # tracker value would move the iterate
    "gdro-adam": ("gdro", {**_GDRO, "update_kind": "adam", "eta": 1e-8, "adam_beta2": 1e-4}),
    # an additive term whose batch is sampled: 6 of its 576 pairs per step
    "roc-momentum": ("roc", {**_GDRO, "eta": 0.05, "b2": 6}),
}


def _problem(kind):
    if kind == "gdro":
        return make_gdro_cvar(GdroCvarSpec())
    return make_roc_fairness_fcco(RocFairnessSpec(thresholds=[-1.0, 0.0, 1.0], n_pos=12, n_neg=12, seed=6))


def _gap(case, corrected):
    """Relative distance between run_sonex's final iterate and the
    reference's, the reference run with the solver's gamma' or with 0."""
    kind, fields = _CASES[case]
    problem, config = _problem(kind), SonexConfig(**fields)
    w = run_sonex(problem, config, SeededRng(_SEED)).w_final
    gamma_prime = config.resolved_gamma_prime(problem.n) if corrected else 0.0
    w_ref = reference_sonex(problem, config, _SEED, gamma_prime)
    return np.linalg.norm(w_ref - w) / np.linalg.norm(w)


@pytest.mark.parametrize("case", sorted(_CASES))
def test_run_sonex_matches_loop_reference(case):
    assert _gap(case, corrected=True) <= _RTOL


@pytest.mark.parametrize("case", sorted(_CASES))
def test_loop_reference_without_correction_misses(case):
    # the negative control: the same reference with gamma' = 0 must be told
    # apart from the solver at the same tolerance
    assert _gap(case, corrected=False) > _RTOL
