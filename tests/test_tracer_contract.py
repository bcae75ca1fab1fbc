"""perfbench/tracer.py rebinds fcco's functions and problem oracles by name;
a traced solve must find every name it wraps and give the same trace."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from fcco import SeededRng, cli
from fcco.alexr2 import run_alexr2
from fcco.sonex import run_sonex

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _traced_solve(workload, iters):
    """(plain trace, traced trace, span summary) of an ``iters``-step solve
    of ``workload``, the traced one under perfbench's tracer."""
    tracer_mod = _load_tracer()
    raw = json.loads((PERFBENCH / "workloads" / f"{workload}.json").read_text())
    raw["solver"]["iters"] = iters
    if raw["solver"]["kind"] == "alexr2":
        raw["solver"]["k_inner"] = 50
    run_cfg = cli.RunConfig.from_dict(raw)
    problem, extras = cli.build_problem(run_cfg.problem)
    kind, solver_cfg = cli._solver_config(run_cfg.solver, run_cfg)
    runner = run_alexr2 if kind == "alexr2" else run_sonex

    def solve():
        result = runner(problem, solver_cfg, SeededRng(run_cfg.seed))
        return [row.to_csv_line() for row in result.trace.rows]

    plain = solve()
    tracer = tracer_mod.Tracer()
    with tracer_mod.installed(tracer, problem, extras.get("constrained")):
        traced = solve()
    return plain, traced, tracer.summary()


@pytest.mark.parametrize("workload", sorted(p.stem for p in (PERFBENCH / "workloads").glob("*.json")))
def test_traced_solve_matches_plain_solve(workload):
    plain, traced, summary = _traced_solve(workload, 10)
    assert traced == plain
    assert summary.calls.get("problems.inner_value", 0) > 0


@pytest.mark.parametrize(
    "workload, names",
    [
        ("sonex-synth", ["core.sample_data_batch"]),
        ("roc-metrics", ["core.sample_data_batch", "core.sample_components"]),
    ],
)
def test_traced_solve_counts_every_sampled_draw(workload, names):
    # the per-layer table's sampling rows come from the names the tracer
    # rebinds, so each step's draws must go through them
    iters = 10
    _, _, summary = _traced_solve(workload, iters)
    for name in names:
        assert summary.calls.get(name, 0) >= iters, name
