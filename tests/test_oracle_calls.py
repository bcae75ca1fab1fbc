"""Inner-oracle accounting of both solvers: the traced count is the calls
actually made, and reusing the previous step's inner value under fixed draws
moves no iterate."""

import dataclasses

import pytest

import fcco.sonex
from fcco import AdditiveTerm, SeededRng
from fcco.alexr2 import Alexr2Config, run_alexr2
from fcco.penalty import build_penalty_problem
from fcco.problems import SyntheticFccoSpec, make_synthetic_fcco, make_toy_constrained
from fcco.sonex import SonexConfig, _Draws, run_sonex


def circle():
    """The shipped circle penalty toy: n = 1 on a population of one, so
    every draw is forced (``_Draws.fixed``)."""
    return build_penalty_problem(make_toy_constrained("circle"), 20.0)


def plain_synthetic():
    """Six components on populations of 40 and no additive term; the configs
    below draw b1 = 2 and b2 < 40, so nothing is forced."""
    return make_synthetic_fcco(SyntheticFccoSpec(
        n=6, d=3, d1=1, inner_kind="affine", outer_kind="scaled_hinge", outer_param=2.0,
        sigma0=0.3, population=40, seed=1,
    ))


def sampled_synthetic():
    """``plain_synthetic`` plus an additive term on 40 samples."""
    prob = plain_synthetic()
    quadratic = AdditiveTerm(
        value=lambda w: 0.5 * float(w @ w), grad=lambda w, batch: 1.0 * w, population=40
    )
    return dataclasses.replace(prob, additive=quadratic)


_ALEXR2_SAMPLED = Alexr2Config(
    lam=0.05, nu=0.3, eta=0.02, theta=0.9, gamma=0.2, beta=0.5, alpha=0.05,
    k_inner=12, iters=4, b1=2, b2=3, metric_every=2,
)
_SONEX_SAMPLED = SonexConfig(lam=0.05, eta=1e-3, b1=2, b2=5, iters=30, metric_every=10)
# the circle configs are configs/circle_alexr2.json and circle_sonex.json, cut short
CASES = {
    "alexr2-circle": (circle, run_alexr2, Alexr2Config(
        lam=5e-4, nu=0.0125, eta=3.205e-4, theta=0.9875, gamma=0.0125, beta=0.5, alpha=0.01,
        update_kind="adam", adam_beta2=0.1, adam_clip=(1e-4, 1.0),
        k_inner=40, iters=4, b1=1, b2=1, metric_every=2,
    )),
    "sonex-circle": (circle, run_sonex, SonexConfig(
        lam=5e-4, eta=1e-4, beta=0.2, gamma=0.5, b1=1, b2=1, iters=60, metric_every=20,
    )),
    "alexr2-sampled": (sampled_synthetic, run_alexr2, _ALEXR2_SAMPLED),
    # the trackers start cold at every outer step, n value calls each
    "alexr2-sampled-cold": (sampled_synthetic, run_alexr2,
                            dataclasses.replace(_ALEXR2_SAMPLED, warm_start_dual=False)),
    "alexr2-sampled-no-additive": (plain_synthetic, run_alexr2, _ALEXR2_SAMPLED),
    "sonex-sampled": (sampled_synthetic, run_sonex, _SONEX_SAMPLED),
    "sonex-sampled-no-additive": (plain_synthetic, run_sonex, _SONEX_SAMPLED),
}


def counting(problem, monkeypatch):
    """``problem`` with counting oracles, and the tally of the solver's own
    calls: components covered by value and VJP calls, and additive-gradient
    calls (none without an additive term).  Calls made inside a metric row
    are not solver calls."""
    tally = {"value": 0, "vjp": 0, "additive": 0}
    in_row = []
    metric_row = fcco.sonex._metric_row

    def row(*args):
        in_row.append(True)
        try:
            return metric_row(*args)
        finally:
            in_row.pop()

    monkeypatch.setattr(fcco.sonex, "_metric_row", row)

    def counted(kind, oracle, size):
        def call(*args):
            if not in_row:
                tally[kind] += size(*args)
            return oracle(*args)
        return call

    def components(idx, *rest):
        return len(idx)

    additive = problem.additive
    if additive is not None:
        additive = dataclasses.replace(additive, grad=counted("additive", additive.grad, lambda *args: 1))
    wrapped = dataclasses.replace(
        problem,
        inner_value=counted("value", problem.inner_value, components),
        inner_vjp=counted("vjp", problem.inner_vjp, components),
        additive=additive,
    )
    return wrapped, tally


@pytest.mark.parametrize("case", sorted(CASES))
def test_traced_calls_are_the_calls_made(monkeypatch, case):
    build, run, cfg = CASES[case]
    problem, tally = counting(build(), monkeypatch)
    res = run(problem, cfg, SeededRng(3))
    # the tracker init is one value call over all n components, so the
    # value tally holds its n
    assert tally["value"] >= problem.n and tally["vjp"] > 0
    assert (tally["additive"] > 0) == (problem.additive is not None)
    assert res.trace.last().inner_oracle_calls == tally["value"] + tally["vjp"] + tally["additive"]


def _without_reuse(monkeypatch):
    init = _Draws.__init__

    def no_reuse(self, *args):
        init(self, *args)
        self.fixed = False

    monkeypatch.setattr(_Draws, "__init__", no_reuse)


# value calls reuse skips by outer iteration ``it`` on the circle (n = 1):
# alexr2 at every inner step after the first of each inner run, sonex at every
# step after step 0, which never recomputes
SKIPPED = {
    "alexr2-circle": lambda it, cfg: it * (cfg.k_inner - 1),
    "sonex-circle": lambda it, cfg: max(it - 1, 0),
}


@pytest.mark.parametrize("case", sorted(SKIPPED))
def test_held_value_reuse_moves_no_iterate(monkeypatch, case):
    build, run, cfg = CASES[case]
    shipped = run(build(), cfg, SeededRng(3))
    with monkeypatch.context() as patch:
        _without_reuse(patch)
        recomputed = run(build(), cfg, SeededRng(3))

    assert shipped.w_final.tobytes() == recomputed.w_final.tobytes()
    assert shipped.state.u.tobytes() == recomputed.state.u.tobytes()

    def other_columns(result):
        return [dataclasses.replace(row, inner_oracle_calls=0).to_csv_line() for row in result.trace.rows]

    assert other_columns(shipped) == other_columns(recomputed)
    assert len(shipped.trace.rows) > 2
    for fast, slow in zip(shipped.trace.rows, recomputed.trace.rows):
        assert slow.inner_oracle_calls - fast.inner_oracle_calls == SKIPPED[case](fast.iteration, cfg)


def test_fixed_draws_are_the_forced_ones():
    assert _Draws(circle(), SeededRng(0), 1, 1).fixed
    synthetic = sampled_synthetic()
    assert not _Draws(synthetic, SeededRng(0), 2, 40).fixed  # components drawn
    assert not _Draws(synthetic, SeededRng(0), 6, 5).fixed  # batches drawn
    assert _Draws(synthetic, SeededRng(0), 6, 40).fixed
