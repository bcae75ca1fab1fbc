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


@pytest.mark.parametrize("workload", sorted(p.stem for p in (PERFBENCH / "workloads").glob("*.json")))
def test_traced_solve_matches_plain_solve(workload):
    tracer_mod = _load_tracer()
    raw = json.loads((PERFBENCH / "workloads" / f"{workload}.json").read_text())
    raw["solver"]["iters"] = 10
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
    assert traced == plain
    assert tracer.summary().calls.get("problems.inner_value", 0) > 0
