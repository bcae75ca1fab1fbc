import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcco import cli
from fcco.alexr2 import Alexr2Config
from fcco.cli import (
    _PROBLEMS, RunConfig, _solver_config, _write_outputs, build_problem, cmd_bench, cmd_gradcheck, cmd_run,
)
from fcco.core import TRACE_HEADER, SeededRng
from fcco.problems import _TOYS, RocFairnessSpec
from fcco.smoothing import GapHinge, ScaledHinge
from fcco.sonex import SonexConfig, run_sonex
from util import read_trace, scalar_chain_problem

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted(ROOT.glob("configs/*.json")) + sorted(ROOT.glob("perfbench/workloads/*.json"))


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=1))
    return path


def synthetic_run_config(iters=0, **solver_over):
    solver = dict(kind="sonex", lam=0.1, eta=1e-3, beta=0.2, gamma=0.4, b1=2, b2=3, iters=iters)
    solver.update(solver_over)
    return {
        "seed": 7,
        "problem": {
            "kind": "synthetic", "n": 4, "d": 3, "d1": 1, "inner_kind": "affine",
            "outer_kind": "scaled_hinge", "outer_param": 1.0, "sigma0": 0.2,
            "population": 8, "seed": 1,
        },
        "solver": solver,
        "metric_every": 5,
    }


def test_run_zero_iterations_single_row(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", synthetic_run_config(iters=0))
    out = tmp_path / "out"
    assert cmd_run(cfg, out) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["iterations"] == 0


def test_run_reproducible_byte_for_byte(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", synthetic_run_config(iters=25))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cmd_run(cfg, out1) == 0
    assert cmd_run(cfg, out2) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


def test_run_malformed_config_no_outputs(tmp_path):
    # not JSON, and JSON whose root is not an object
    for text in ("{not json", "[1, 2]"):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert cmd_run(cfg, out) == 1
        assert not out.exists()


@pytest.mark.parametrize("under_file", [True, False], ids=["path_under_a_file", "path_is_a_file"])
def test_run_output_directory_error_exits_1_before_the_solve(tmp_path, capsys, monkeypatch, under_file):
    from fcco import cli

    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "out" if under_file else blocker
    solves = []
    monkeypatch.setattr(cli, "run_sonex", lambda *args: solves.append(args))
    cfg = write_config(tmp_path / "cfg.json", synthetic_run_config(iters=3))
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("output error: ")
    assert "Traceback" not in err
    assert solves == []


@pytest.mark.parametrize("blocked", ["trace.csv", "report.json", "abort"])
def test_run_output_write_error_exits_1(tmp_path, capsys, monkeypatch, blocked):
    # a directory where a file must go stands in for an unwritable file; the
    # abort case fails to write the partial trace of a solver abort
    from fcco import cli

    out = tmp_path / "out"
    (out / ("trace.csv" if blocked == "abort" else blocked)).mkdir(parents=True)
    if blocked == "abort":
        def aborted(*args, report=cli.stationarity_report):
            return dataclasses.replace(report(*args), f_value=math.inf)

        monkeypatch.setattr(cli, "stationarity_report", aborted)
    assert cli.main(["run", str(write_config(tmp_path / "cfg.json", synthetic_run_config(iters=3))),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("output error: ")
    assert "Traceback" not in err
    assert not (out / "report.json").is_file()


def test_bench_summary_write_error_exits_1(tmp_path, capsys):
    write_config(tmp_path / "a.json", synthetic_run_config(iters=3))
    (tmp_path / "bench_summary.csv").mkdir()
    assert cmd_bench(tmp_path) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("output error: ")
    assert "Traceback" not in captured.err
    assert "a.json,sonex,ok," in captured.out


def test_run_unknown_keys_rejected(tmp_path):
    payload = synthetic_run_config()
    payload["solvr"] = {}
    cfg = write_config(tmp_path / "cfg.json", payload)
    assert cmd_run(cfg, tmp_path / "out") == 1
    assert not (tmp_path / "out").exists()


def test_run_unknown_solver_field_rejected(tmp_path):
    payload = synthetic_run_config()
    payload["solver"]["step_size"] = 0.1
    cfg = write_config(tmp_path / "cfg.json", payload)
    assert cmd_run(cfg, tmp_path / "out") == 1


def test_run_constrained_reports_kkt(tmp_path):
    payload = {
        "seed": 3,
        "problem": {"kind": "toy_constrained", "which": "qp_box", "penalty_slope": 20.0},
        "solver": {
            "kind": "sonex", "lam": 0.0005, "eta": 0.002, "beta": 0.2, "gamma": 0.5,
            "b1": 1, "b2": 1, "iters": 30000, "update_kind": "adam", "adam_beta2": 0.1,
            "adam_clip": [1e-4, 1.0], "stop_grad_norm": 1e-3,
        },
        "metric_every": 200,
    }
    cfg = write_config(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    assert cmd_run(cfg, out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["final"]["max_violation"] <= 0.011
    assert abs(report["final"]["multipliers"][0] - 2.0) < 0.3
    assert report["gram_min_eig"] == pytest.approx(1.0)
    # max_violation column populated for penalty problems
    assert read_trace(out / "trace.csv")[-1]["max_violation"] != ""


def test_penalty_report_makes_one_jacobian_pass(tmp_path, monkeypatch):
    # the report's regularity diagnostic stacks the constraint Jacobian once:
    # one gradient call per constraint, plus one per population group for the
    # exact gradient of the one exact pass, at w_sampled.  The final block and
    # its KKT residuals read the last metric row's pass, so no value call is
    # at w_final.
    run_cfg = RunConfig.from_dict({
        "seed": 3,
        "problem": {"kind": "toy_constrained", "which": "qp_box", "penalty_slope": 5.0},
        "solver": {"kind": "sonex", "lam": 0.01, "eta": 1e-3, "beta": 0.2, "gamma": 0.5,
                   "b1": 1, "b2": 1, "iters": 5},
    })
    problem, extras = build_problem(run_cfg.problem)
    kind, solver_cfg = _solver_config(run_cfg.solver, run_cfg)
    result = run_sonex(problem, solver_cfg, SeededRng(run_cfg.seed))
    assert not np.array_equal(result.w_sampled, result.w_final)
    cp = extras["constrained"]
    calls = []
    value_points = []

    def counted(idx, w, batches, Y, grad=cp.constraint_grad):
        calls.append(len(idx))
        return grad(idx, w, batches, Y)

    def recorded(idx, w, batches, value=cp.constraint_value):
        value_points.append(np.array(w))
        return value(idx, w, batches)

    monkeypatch.setattr(cp, "constraint_grad", counted)
    monkeypatch.setattr(cp, "constraint_value", recorded)
    report = _write_outputs(tmp_path, run_cfg, problem, extras, kind, solver_cfg, result, 0.0)
    assert len(calls) == cp.m + len(problem.population_groups)
    assert report["gram_min_eig"] == pytest.approx(1.0)
    assert value_points
    assert all(np.array_equal(w, result.w_sampled) for w in value_points)
    assert not any(np.array_equal(w, result.w_final) for w in value_points)


@pytest.mark.parametrize("name", ["qp-box-sonex", "alexr2-sampled"])
def test_report_sampled_block_is_a_fresh_pass_at_w_sampled(tmp_path, name):
    from fcco.alexr2 import run_alexr2
    from fcco.cli import _point_block
    from fcco.metrics import stationarity_report
    from fcco.penalty import kkt_from_stationarity

    run_cfg = RunConfig.from_dict(_PINNED_RUNS[name][0])
    problem, extras = build_problem(run_cfg.problem)
    kind, solver_cfg = _solver_config(run_cfg.solver, run_cfg)
    run = run_alexr2 if kind == "alexr2" else run_sonex
    result = run(problem, solver_cfg, SeededRng(run_cfg.seed))
    _write_outputs(tmp_path, run_cfg, problem, extras, kind, solver_cfg, result, 0.0)
    report = json.loads((tmp_path / "report.json").read_text())

    rep = stationarity_report(problem, result.w_sampled, solver_cfg.lam)
    expected = {
        "iteration": result.sampled_iteration,
        "F": rep.f_value,
        "F_lambda": rep.f_lambda_value,
        "grad_norm": rep.grad_F_lambda_norm,
        "stat_t_residual": rep.approx_t_residual,
    }
    if "constrained" in extras:
        kkt = kkt_from_stationarity(rep)
        expected.update(max_violation=kkt.max_violation, complementarity=kkt.complementarity,
                        multipliers=kkt.multipliers.tolist())
    assert report["sampled"] == expected
    assert "sampled_iteration" not in report
    # final is the same block, read off the last metric row's pass at w_final
    assert report["final"] == _point_block(problem, result.final_report)
    assert set(report["final"]) == set(report["sampled"]) - {"iteration"}


def test_run_non_finite_sampled_block_exits_2(tmp_path, capsys, monkeypatch):
    # a non-finite value at the output iterate ends the run as a non-finite
    # metric row does: exit 2, the trace written, no NaN in a report.json
    from fcco import cli

    def overflowed(*args, report=cli.stationarity_report):
        return dataclasses.replace(report(*args), f_value=math.inf)

    monkeypatch.setattr(cli, "stationarity_report", overflowed)
    out = tmp_path / "out"
    assert cmd_run(write_config(tmp_path / "cfg.json", synthetic_run_config(iters=5)), out) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver abort: non-finite metrics at the sampled iteration ")
    assert "Traceback" not in err
    assert len(read_trace(out / "trace.csv")) == 2
    assert not (out / "report.json").exists()


def test_run_alexr2_solver_kind(tmp_path):
    payload = {
        "seed": 5,
        "problem": {"kind": "toy_constrained", "which": "qp_box", "penalty_slope": 20.0},
        "solver": {
            "kind": "alexr2", "lam": 0.0005, "nu": 0.1, "eta": 0.00256, "theta": 0.975,
            "gamma": 0.025, "beta": 0.5, "alpha": 0.0125, "k_inner": 300, "iters": 150,
            "b1": 1, "b2": 1, "stop_grad_norm": 1e-3,
        },
        "metric_every": 10,
    }
    cfg = write_config(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    assert cmd_run(cfg, out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["solver"] == "alexr2"
    assert report["final"]["grad_norm"] < 0.05


def test_gradcheck_passes_on_honest_problem(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", synthetic_run_config())
    assert cmd_gradcheck(cfg) == 0
    assert "pass" in capsys.readouterr().out


def test_gradcheck_identity_outer_tiny_error(tmp_path, capsys):
    payload = synthetic_run_config()
    payload["problem"]["outer_kind"] = "identity"
    payload["problem"].pop("outer_param")
    cfg = write_config(tmp_path / "cfg.json", payload)
    assert cmd_gradcheck(cfg) == 0
    out = capsys.readouterr().out
    errs = [float(line.rsplit(" ", 1)[1]) for line in out.splitlines() if line.startswith("grad check")]
    assert max(errs) <= 1e-8


def test_gradcheck_corrupted_jacobian_fails(tmp_path, capsys, monkeypatch):
    # the negative control: the configured problem with its VJPs scaled by 1.05
    build = cli.build_problem

    def corrupted(problem_cfg):
        problem, extras = build(problem_cfg)
        vjp = problem.inner_vjp
        problem.inner_vjp = lambda idx, w, batches, Y: 1.05 * vjp(idx, w, batches, Y)
        return problem, extras

    monkeypatch.setattr(cli, "build_problem", corrupted)
    cfg = write_config(tmp_path / "cfg.json", synthetic_run_config())
    assert cmd_gradcheck(cfg) == 2
    # it fails for the corrupted VJPs: the gradient checks miss, the prox check passes
    out = capsys.readouterr().out.splitlines()
    grad = [float(line.rsplit(" ", 1)[1]) for line in out if line.startswith("grad check")]
    prox = [float(line.rsplit(" ", 1)[1]) for line in out if line.startswith("prox check")]
    assert len(grad) == 3 and min(grad) > 1e-4
    assert len(prox) == 1 and prox[0] <= 1e-4


@pytest.mark.parametrize("outer_cls, source", [
    (ScaledHinge, "synthetic"),
    (GapHinge, ROOT / "configs" / "synthetic_a2_sonex.json"),
], ids=["1d", "2d"])
def test_gradcheck_corrupted_prox_fails(tmp_path, capsys, monkeypatch, outer_cls, source):
    # the negative control: the closed-form prox scaled by 1 + 1e-3 at a single
    # point, which only the prox check asks for; the metric pass's row stacks
    # keep the exact prox, so the gradient checks still pass
    prox = outer_cls.prox

    def corrupted(self, lam, t):
        p = prox(self, lam, t)
        return (1.0 + 1e-3) * p if np.ndim(t) == 1 else p

    monkeypatch.setattr(outer_cls, "prox", corrupted)
    if source == "synthetic":
        source = write_config(tmp_path / "cfg.json", synthetic_run_config())
    assert cmd_gradcheck(source) == 2
    out = capsys.readouterr().out.splitlines()
    grad = [float(line.rsplit(" ", 1)[1]) for line in out if line.startswith("grad check")]
    prox_err = [float(line.rsplit(" ", 1)[1]) for line in out if line.startswith("prox check")]
    assert len(grad) == 3 and max(grad) <= 1e-4
    assert len(prox_err) == 1 and prox_err[0] > 1e-4


def test_gradcheck_config_error_exits_1(tmp_path, capsys):
    from fcco.cli import main

    cfg = write_config(tmp_path / "cfg.json", synthetic_run_config(lam=0.0))
    assert main(["gradcheck", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_gradcheck_passes_on_shipped_configs(path):
    assert cmd_gradcheck(path) == 0


@pytest.mark.parametrize("key, value", [("metric_every", 100)])
def test_run_level_key_in_solver_block_rejected(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path / "cfg.json", synthetic_run_config(iters=5, **{key: value}))
    out = tmp_path / "out"
    assert cmd_run(cfg, out) == 1
    assert capsys.readouterr().err == f"config error: {key} is a run-level key\n"
    assert not out.exists()


def test_bench_empty_directory(tmp_path, capsys):
    assert cmd_bench(tmp_path) == 0
    table = (tmp_path / "bench_summary.csv").read_text().splitlines()
    assert len(table) == 1 and table[0].startswith("config,solver,status")


def test_bench_runs_all_configs_and_is_reproducible(tmp_path):
    gdro = {
        "seed": 2,
        "problem": {"kind": "gdro_cvar", "n_groups": 4, "p": 2, "samples_per_group": 30,
                     "ratio": 0.5, "seed": 3},
        "solver": {"kind": "sonex", "lam": 0.025, "eta": 0.02, "beta": 0.2, "gamma": 0.5,
                    "b1": 2, "b2": 10, "iters": 40},
        "metric_every": 20,
    }
    baseline = json.loads(json.dumps(gdro))
    baseline["solver"]["kind"] = "sgd_baseline"
    write_config(tmp_path / "a_sonex.json", gdro)
    write_config(tmp_path / "b_sgd.json", baseline)
    assert cmd_bench(tmp_path) == 0
    table = (tmp_path / "bench_summary.csv").read_text()
    lines = table.splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[2] == "ok"
        assert fields[3] != "" and fields[6] != ""
    # identical oracle accounting for the two update rules
    assert lines[1].split(",")[6] == lines[2].split(",")[6]
    first = table
    assert cmd_bench(tmp_path) == 0
    assert (tmp_path / "bench_summary.csv").read_text() == first


def test_bench_records_failures(tmp_path):
    write_config(tmp_path / "ok.json", synthetic_run_config(iters=3))
    (tmp_path / "broken.json").write_text("{oops")
    write_config(tmp_path / "fractional_iters.json", synthetic_run_config(iters=2.5))
    # a valid config whose output directory, <stem>_out, cannot be made
    write_config(tmp_path / "blocked.json", synthetic_run_config(iters=3))
    (tmp_path / "blocked_out").write_text("")
    assert cmd_bench(tmp_path) == 2
    lines = (tmp_path / "bench_summary.csv").read_text().splitlines()
    assert any("error:1" in line for line in lines)
    assert "fractional_iters.json,,error:1,,,,," in lines
    assert "blocked.json,,error:1,,,,," in lines


def test_config_round_trip():
    raw = synthetic_run_config(iters=12)
    cfg = RunConfig.from_dict(raw)
    again = RunConfig.from_dict(cfg.to_dict())
    assert cfg == again
    assert cfg.to_dict() == again.to_dict()


# trace.csv sha256 of every shipped run, keyed by its config's path from the
# repository root: the determinism contract, pinned.  A change that moves a
# trace updates its hash here on purpose.  perfbench/workloads/alexr2-circle
# is a byte copy of configs/circle_alexr2.json, so it is not run again.
_GOLDEN_TRACES = {
    "configs/circle_alexr2.json": "2b7ffe4445be3d502ff3e4a76125542c5f5e54ab36e70cb229f4784ff3d372f3",
    "configs/circle_sonex.json": "90560cd87eb85d4ed3156215bde02825ec98ede5b616c0609dbbc5b361bce596",
    "configs/gdro_cvar_r015_sgd_baseline.json": "7a65d32996e23febdef702c45edb8ca080221d564605003ca1553429de2a85eb",
    "configs/gdro_cvar_r015_sonex.json": "faac5f66b29becbe4946e25d379ea7164962c78e315d9dfb2fe45203bff4dbe7",
    "configs/synthetic_a2_sonex.json": "aca3d0d5359a2e3619dcffeefbc89fbe16f078fa43418d9509e4d11af3c7de24",
    "perfbench/workloads/sonex-synth.json": "c510cc97e6104365031ccfafa5addc1be0f1f8a496374dc34e98de099936dc72",
    "perfbench/workloads/roc-metrics.json": "e4b131b34c4e87e6cef9ae1100936f744049602ea95aaa70b490279f2531c338",
}
_CIRCLE_CONFIGS = ("circle_alexr2", "circle_sonex")


def _trace_sha256(out):
    return hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("name", _CIRCLE_CONFIGS)
def test_shipped_circle_trace_matches_golden_hash(tmp_path, name):
    out = tmp_path / "out"
    path = f"configs/{name}.json"
    assert cmd_run(ROOT / path, out) == 0
    assert _trace_sha256(out) == _GOLDEN_TRACES[path]


@pytest.mark.parametrize(
    "path", sorted(set(_GOLDEN_TRACES) - {f"configs/{name}.json" for name in _CIRCLE_CONFIGS})
)
def test_shipped_trace_matches_golden_hash(tmp_path, path):
    out = tmp_path / "out"
    assert cmd_run(ROOT / path, out) == 0
    assert _trace_sha256(out) == _GOLDEN_TRACES[path]


def test_every_shipped_run_has_a_golden_hash():
    copy, original = "perfbench/workloads/alexr2-circle.json", "configs/circle_alexr2.json"
    assert (ROOT / copy).read_bytes() == (ROOT / original).read_bytes()
    shipped = {path.relative_to(ROOT).as_posix() for path in SHIPPED}
    assert shipped == set(_GOLDEN_TRACES) | {copy}


def _key_paths(block, prefix=""):
    """Dotted paths of a report's keys, nested blocks included.  The config
    block echoes the run config, whose keys the config format documents."""
    for key, value in block.items():
        yield prefix + key
        if isinstance(value, dict) and key != "config":
            yield from _key_paths(value, f"{prefix}{key}.")


def test_readme_quotes_trace_header_and_every_report_key(tmp_path):
    readme = (ROOT / "README.md").read_text()
    assert TRACE_HEADER in readme
    keys = set()
    for path in SHIPPED:
        payload = json.loads(path.read_text())
        payload["solver"]["iters"] = 2  # the report's keys do not depend on the run length
        out = tmp_path / f"{path.stem}_out"
        assert cmd_run(write_config(tmp_path / path.name, payload), out) == 0
        keys.update(_key_paths(json.loads((out / "report.json").read_text())))
    assert {"sampled.iteration", "sampled.multipliers"} <= keys
    assert sorted(key for key in keys if f"`{key}`" not in readme) == []
    # and the reverse: every key README's report.json table names is written
    table = readme.split("| field | point | meaning |\n", 1)[1].split("\n\n", 1)[0]
    named = {key for row in table.splitlines() for key in re.findall(r"`([^`]+)`", row.split("|")[1])}
    assert "final.F" in named
    assert sorted(named - keys) == []


def test_sampled_trace_does_not_depend_on_blas_threads(tmp_path):
    """Results must not depend on how oracle calls are scheduled: a sampled
    workload run with a single BLAS thread gives the pinned trace."""
    import os
    import subprocess
    import sys

    import fcco

    path = "perfbench/workloads/sonex-synth.json"
    package_root = str(Path(fcco.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "fcco.cli", "run", str(ROOT / path), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert _trace_sha256(out) == _GOLDEN_TRACES[path]


# trace.csv sha256 of short runs down paths no shipped run takes: alexr2 with
# sampled draws, whose extrapolation evaluates the previous inner iterate on
# the step's batch, the constraint oracles of the penalty toys, and the ROC
# fairness penalty (its gap hinge at slope 4) under both solvers.  They live here, not in
# configs/, so the hashes above stay one per shipped run.
_PINNED_RUNS = {
    "alexr2-sampled": ({
        "seed": 5,
        "problem": {"kind": "synthetic", "n": 6, "d": 3, "d1": 1, "inner_kind": "quadratic",
                    "outer_kind": "scaled_hinge", "outer_param": 1.0, "sigma0": 0.2,
                    "sigma1": 0.1, "population": 30, "seed": 2},
        "solver": {"kind": "alexr2", "lam": 0.05, "nu": 0.2, "eta": 0.02, "theta": 0.9,
                   "gamma": 0.2, "beta": 0.5, "alpha": 0.05, "b1": 2, "b2": 10,
                   "k_inner": 20, "iters": 20},
        "metric_every": 5,
    }, "fe258275498d9f9a183ea7a06b5fb9ed5a0f9dea615f7e5cb3f7dfa053bd818a"),
    "roc-penalty-sonex": ({
        "seed": 4,
        "problem": {"kind": "roc_fairness", "thresholds": [-1.0, 0.0, 1.0], "margin": 0.05,
                    "n_pos": 20, "n_neg": 24, "seed": 6, "penalty_slope": 4.0},
        "solver": {"kind": "sonex", "lam": 0.01, "eta": 0.05, "beta": 0.2, "gamma": 0.4,
                   "b1": 3, "b2": 8, "iters": 60},
        "metric_every": 10,
    }, "1003e39c1fa4c5de19eec5612f06afcbafce3b50ff29ccc0fdafd05f845b9eaf"),
    "qp-box-sonex": ({
        "seed": 3,
        "problem": {"kind": "toy_constrained", "which": "qp_box", "penalty_slope": 5.0},
        "solver": {"kind": "sonex", "lam": 0.01, "eta": 1e-3, "beta": 0.2, "gamma": 0.5,
                   "b1": 1, "b2": 1, "iters": 400},
        "metric_every": 50,
    }, "06e1cd894593179e758983f426ee094ba31b6f42e2ae1356d05589fc445c8c42"),
    "weakly-convex-alexr2": ({
        "seed": 7,
        "problem": {"kind": "toy_constrained", "which": "weakly_convex_1d", "curvature": 0.3,
                    "penalty_slope": 10.0},
        "solver": {"kind": "alexr2", "lam": 0.001, "nu": 0.1, "eta": 0.002, "theta": 0.9,
                   "gamma": 0.05, "beta": 0.5, "alpha": 0.05, "b1": 1, "b2": 1,
                   "k_inner": 50, "iters": 60},
        "metric_every": 10,
    }, "4a80fef86f55dc5dd50e4ccf658a1fde9a0960b6f584c5686996ce6c374486ce"),
    "roc-penalty-alexr2": ({
        "seed": 4,
        "problem": {"kind": "roc_fairness", "thresholds": [-1.0, 0.0, 1.0], "margin": 0.05,
                    "n_pos": 20, "n_neg": 24, "seed": 6, "penalty_slope": 4.0},
        "solver": {"kind": "alexr2", "lam": 0.01, "nu": 0.1, "eta": 0.02, "theta": 0.9,
                   "gamma": 0.2, "beta": 0.5, "alpha": 0.05, "b1": 2, "b2": 8,
                   "k_inner": 20, "iters": 20},
        "metric_every": 5,
    }, "a23c5a520bade2449af119827b2a16717bb281afc8e2f166014ed5412194adb1"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
def test_unshipped_path_trace_matches_pinned_hash(tmp_path, name):
    payload, digest = _PINNED_RUNS[name]
    out = tmp_path / "out"
    assert cmd_run(write_config(tmp_path / "cfg.json", payload), out) == 0
    assert _trace_sha256(out) == digest


def test_shipped_configs_build(tmp_path):
    import pathlib

    config_dir = pathlib.Path(__file__).resolve().parents[1] / "configs"
    found = sorted(config_dir.glob("*.json"))
    assert found, "shipped configs missing"
    for path in found:
        raw = json.loads(path.read_text())
        cfg = RunConfig.from_dict(raw)
        problem, _ = build_problem(cfg.problem)
        assert problem.n >= 1


def test_run_solver_abort_exit_code(tmp_path):
    payload = {
        "seed": 1,
        "problem": {"kind": "synthetic", "n": 3, "d": 4, "d1": 1, "inner_kind": "quadratic",
                     "outer_kind": "identity", "population": 1, "seed": 0},
        "solver": {"kind": "sonex", "lam": 0.1, "eta": 1e308, "beta": 1.0, "gamma": 1.0,
                    "gamma_prime": 0.0, "b1": 3, "b2": 1, "iters": 50},
        "metric_every": 10,
    }
    cfg = write_config(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    assert cmd_run(cfg, out) == 2
    assert (out / "trace.csv").exists()  # partial trace still written

    # alpha 1e308 throws the outer iterate so far that the next inner loop's
    # iterate is non-finite, long before the first metric row after row 0
    payload = json.loads((ROOT / "configs" / "circle_alexr2.json").read_text())
    payload["solver"].update(alpha=1e308, iters=20, k_inner=5)
    del payload["solver"]["stop_grad_norm"]
    cfg = write_config(tmp_path / "alexr2.json", payload)
    out = tmp_path / "alexr2_out"
    assert cmd_run(cfg, out) == 2
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert [line.split(",")[0] for line in lines[1:]] == ["0"]


def test_run_non_finite_metric_row_exits_2(tmp_path, capsys):
    # w0 is finite, but F, F_lambda and grad_norm overflow at row 0: the run
    # ends there instead of writing NaN into report.json
    payload = {"seed": 1, "problem": {"kind": "synthetic"},
               "solver": {"kind": "sonex", "lam": 0.1, "eta": 0.01, "iters": 5, "w0": [1e308] * 10}}
    out = tmp_path / "out"
    assert cmd_run(write_config(tmp_path / "cfg.json", payload), out) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert (out / "trace.csv").read_text().splitlines()[1:] == ["0,8,0,nan,nan,nan,nan,"]
    assert not (out / "report.json").exists()


def test_console_entry_point(tmp_path):
    """Run the `[project.scripts]` target of pyproject.toml as its wrapper would.

    The declared `module:function` is imported in a fresh interpreter, with
    argv[0] set to the script name, and its return value becomes the exit
    status. The child imports fcco from the same directory as this suite, so
    no install and no `fcco` on PATH is needed.
    """
    import os
    import pathlib
    import subprocess
    import sys

    import fcco

    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")

    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["fcco"]
    module, function = target.split(":")
    wrapper = (
        f"import sys; from {module} import {function} as entry; "
        f"sys.argv[0] = 'fcco'; sys.exit(entry())"
    )
    package_root = str(pathlib.Path(fcco.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))

    def fcco_cli(*args):
        return subprocess.run(
            [sys.executable, "-c", wrapper, *args],
            capture_output=True, text=True, env=env, timeout=60,
        )

    cfg = write_config(tmp_path / "cfg.json", synthetic_run_config(iters=2))
    proc = fcco_cli("run", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "trace.csv").exists()
    proc = fcco_cli("gradcheck", str(cfg))
    assert proc.returncode == 0, proc.stderr

    # a non-zero main() return reaches the process status, with no traceback
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = fcco_cli("run", str(bad), "--out", str(tmp_path / "bad_out"))
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "bad_out").exists()


def test_report_row_wall_seconds_match_trace_rows(tmp_path):
    # wall times go to report.json only, one per trace row; trace.csv has no
    # wall column, so it stays reproducible byte for byte
    cfg = write_config(tmp_path / "cfg.json", synthetic_run_config(iters=12))
    out = tmp_path / "out"
    assert cmd_run(cfg, out) == 0
    rows = read_trace(out / "trace.csv")
    walls = json.loads((out / "report.json").read_text())["row_wall_seconds"]
    assert len(rows) == len(walls) == 4
    assert 0 <= walls[0] and walls == sorted(walls)
    assert not any("wall" in column for column in rows[0])


def test_roc_fairness_problem_kinds(tmp_path):
    penalty_run = {
        "seed": 4,
        "problem": {"kind": "roc_fairness", "thresholds": [-0.5, 0.5], "margin": 0.05,
                     "n_pos": 12, "n_neg": 12, "seed": 6, "penalty_slope": 4.0},
        "solver": {"kind": "sonex", "lam": 0.01, "eta": 0.05, "beta": 0.2, "gamma": 0.4,
                    "b1": 2, "b2": 6, "iters": 30},
        "metric_every": 10,
    }
    cfg = write_config(tmp_path / "roc.json", penalty_run)
    out = tmp_path / "roc_out"
    assert cmd_run(cfg, out) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["final"]["multipliers"]) == 4
    assert cmd_gradcheck(cfg) == 0  # the prox check runs on the gap hinge at slope 4

    fcco_form = {
        "seed": 4,
        "problem": {"kind": "roc_fairness_fcco", "thresholds": [-0.5, 0.5], "margin": 0.05,
                     "n_pos": 12, "n_neg": 12, "seed": 6},
        "solver": {"kind": "sonex", "lam": 0.05, "eta": 0.05, "beta": 0.2, "gamma": 0.4,
                    "b1": 2, "b2": 6, "iters": 10},
        "metric_every": 5,
    }
    cfg2 = write_config(tmp_path / "roc_fcco.json", fcco_form)
    assert cmd_run(cfg2, tmp_path / "roc_fcco_out") == 0
    assert cmd_gradcheck(cfg2) == 0


_SONEX = {"kind": "sonex", "lam": 0.0075, "eta": 0.02, "b1": 4, "b2": 8, "iters": 5}
_ALEXR2 = {"kind": "alexr2", "lam": 0.0075, "nu": 0.05, "eta": 0.01, "theta": 0.9, "gamma": 0.1,
           "beta": 0.5, "alpha": 0.01, "b1": 4, "b2": 8, "iters": 5}
# keys of a case that go to the config root instead of the solver block
_RUN_LEVEL = "run_level"
_GDRO = {"kind": "gdro_cvar", "n_groups": 8, "p": 4, "samples_per_group": 200, "ratio": 0.15,
         "seed": 2}


@pytest.mark.parametrize("solver", [_SONEX, _ALEXR2], ids=["sonex", "alexr2"])
def test_run_phase_config_error_bases_run(tmp_path, solver):
    # the malformed cases below each change one field of these valid configs
    cfg = write_config(tmp_path / "cfg.json", {"seed": 11, "problem": _GDRO, "solver": solver})
    assert cmd_run(cfg, tmp_path / "out") == 0


# explicit ids: deleting a case removes its own id and renames no other
_PHASE_CONFIG_ERRORS = {
    # b2 larger than the 200 samples each group holds
    "solver0": {"kind": "sonex", "lam": 0.0075, "eta": 0.02, "b1": 4, "b2": 500, "iters": 5},
    "solver1": {"kind": "alexr2", "lam": 0.0075, "nu": 0.1, "eta": 0.01, "theta": 0.9, "gamma": 0.1,
                "beta": 0.5, "alpha": 0.01, "b1": 4, "b2": 500, "iters": 5},
    # inverted Adam rate bounds
    "solver2": {"kind": "alexr2", "lam": 0.0075, "nu": 0.1, "eta": 0.01, "theta": 0.9, "gamma": 0.1,
                "beta": 0.5, "alpha": 0.01, "b1": 4, "b2": 8, "iters": 5, "update_kind": "adam",
                "adam_clip": [2.0, 1.0]},
    # Adam second-moment weight outside (0, 1)
    "solver3": {"kind": "sonex", "lam": 0.0075, "eta": 0.02, "b1": 4, "b2": 8, "iters": 5,
                "update_kind": "adam", "adam_clip": [1e-4, 1.0], "adam_beta2": 1.5},
    # malformed fields: an integer field given a fraction or a string
    "solver4": {**_SONEX, "iters": 2.5},
    "solver5": {**_SONEX, "b1": 2.5},
    "solver6": {**_SONEX, "b2": 2.5},
    "solver7": {**_SONEX, "b1": "4"},
    "solver8": {**_ALEXR2, "k_inner": 2.5},
    # ... or a float field given NaN
    "solver9": {**_SONEX, "lam": math.nan},
    "solver10": {**_SONEX, "eta": math.nan},
    "solver11": {**_ALEXR2, "lam": math.nan},
    "solver12": {**_ALEXR2, "nu": math.nan},
    "solver13": {**_ALEXR2, "eta": math.nan},
    "solver14": {**_ALEXR2, "alpha": math.nan},
    # the run-level metric cadence: not a positive integer
    "solver15": {**_SONEX, _RUN_LEVEL: {"metric_every": "5"}},
    "solver16": {**_SONEX, _RUN_LEVEL: {"metric_every": 0}},
    "solver17": {**_SONEX, _RUN_LEVEL: {"metric_every": -3}},
    "solver18": {**_SONEX, _RUN_LEVEL: {"metric_every": 2.5}},
    # run-level keys are not coerced: neither 2.5 nor "2" is a seed
    "solver19": {**_SONEX, _RUN_LEVEL: {"seed": 2.5}},
    "solver20": {**_SONEX, _RUN_LEVEL: {"seed": "2"}},
    # a starting point with a NaN, or of the wrong length (d = 5)
    "solver21": {**_SONEX, "w0": [math.nan, 0.0, 0.0, 0.0, 0.0]},
    "solver22": {**_ALEXR2, "w0": [0.0, 0.0]},
    # Adam rate bounds that are not a pair
    "solver23": {**_SONEX, "update_kind": "adam", "adam_clip": [1e-4, 1.0, 2.0]},
    # list entries that are not numbers are not coerced
    "solver24": {**_SONEX, "w0": ["1", "0", "0", "0", "0"]},
    "solver25": {**_SONEX, "w0": [True, False, False, False, False]},
    "solver26": {**_SONEX, "update_kind": "adam", "adam_clip": [True, 2]},
    "solver27": {**_SONEX, "update_kind": "adam", "adam_clip": ["1e-4", "1"]},
    # a setting the chosen update would ignore
    "solver28": {**_SONEX, "adam_clip": [1e-4, 1.0]},
    "solver29": {**_SONEX, "kind": "sgd_baseline", "update_kind": "adam"},
    # a solver block without its required lam
    "solver30": {k: v for k, v in _SONEX.items() if k != "lam"},
    # the Adam-type update without the rate bounds it always applies
    "solver31": {**_SONEX, "update_kind": "adam"},
    "solver32": {**_ALEXR2, "update_kind": "adam"},
}


@pytest.mark.parametrize("solver", list(_PHASE_CONFIG_ERRORS.values()), ids=list(_PHASE_CONFIG_ERRORS))
def test_run_phase_config_error_exits_1(tmp_path, capsys, solver):
    from fcco.cli import main

    solver = dict(solver)
    payload = {
        "seed": 11,
        "problem": _GDRO,
        **solver.pop(_RUN_LEVEL, {}),
        "solver": solver,
    }
    cfg = write_config(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_sgd_baseline_kind_is_beta_one_momentum(tmp_path):
    # solver kind sgd_baseline is the momentum update at beta = 1 and ignores
    # a beta in its block
    def trace(kind, beta):
        solver = {**_SONEX, "kind": kind, "beta": beta, "iters": 30}
        cfg = write_config(tmp_path / f"{kind}.json", {"seed": 11, "problem": _GDRO, "solver": solver})
        assert cmd_run(cfg, tmp_path / kind) == 0
        return (tmp_path / kind / "trace.csv").read_bytes()

    assert trace("sgd_baseline", 0.123) == trace("sonex", 1.0)


_SYNTHETIC = {"kind": "synthetic", "n": 4, "d": 3, "d1": 1, "inner_kind": "affine",
              "outer_kind": "scaled_hinge", "outer_param": 1.0, "sigma0": 0.2,
              "population": 8, "seed": 1}
_ROC_FCCO = {"kind": "roc_fairness_fcco", "thresholds": [0.0], "margin": 0.05, "n_pos": 8,
             "n_neg": 8, "seed": 1}
_SONEX_SMALL = {"kind": "sonex", "lam": 0.05, "eta": 1e-3, "beta": 0.2, "gamma": 0.4, "b1": 1,
                "b2": 1, "iters": 5}
_CIRCLE = {"kind": "toy_constrained", "which": "circle", "center": [2.0, 0.0], "penalty_slope": 10.0}
_WEAKLY_CONVEX = {"kind": "toy_constrained", "which": "weakly_convex_1d", "curvature": 0.3,
                  "penalty_slope": 10.0}
_QP_BOX = {"kind": "toy_constrained", "which": "qp_box", "center": 2.0, "bound": 1.0,
           "penalty_slope": 10.0}
_ROC_PENALTY = {**_ROC_FCCO, "kind": "roc_fairness", "penalty_slope": 10.0}


@pytest.mark.parametrize(
    "problem",
    [
        # non-finite problem fields are config errors, not solver failures
        {**_SYNTHETIC, "outer_param": math.nan},
        {**_SYNTHETIC, "sigma0": math.nan},
        {**_SYNTHETIC, "box_radius": math.inf},
        {**_SYNTHETIC, "population": 8.0},
        {**_GDRO, "group_shift": math.nan},
        {"kind": "toy_constrained", "which": "circle", "penalty_slope": math.nan},
        {**_ROC_FCCO, "margin": math.nan},
        {**_ROC_FCCO, "kind": "roc_fairness", "margin": math.nan},
        # malformed toy parameters, unknown ones included
        {"kind": "toy_constrained", "which": "circle", "centre": [3, 0]},
        {"kind": "toy_constrained", "which": "qp_box", "center": math.nan},
        {"kind": "toy_constrained", "which": "qp_box", "bound": math.nan},
        {"kind": "toy_constrained", "which": "circle", "center": [math.nan, 0]},
        {"kind": "toy_constrained", "which": "circle", "center": [3, 0, 0]},
        {**_ROC_FCCO, "thresholds": [0.0, math.nan]},
        {**_ROC_FCCO, "thresholds": []},
        {**_ROC_FCCO, "n_pos": 8.5},
        {**_ROC_FCCO, "kind": "roc_fairness", "thresholds": [math.nan]},
        # a penalty slope that is not a number is not coerced
        {**_CIRCLE, "penalty_slope": True},
        {**_CIRCLE, "penalty_slope": "5"},
        {**_ROC_FCCO, "kind": "roc_fairness", "penalty_slope": True},
        {**_ROC_FCCO, "kind": "roc_fairness", "penalty_slope": "5"},
        # a parameter the identity outer function would ignore
        {**_SYNTHETIC, "outer_kind": "identity"},
        # a box so large that the declared-constant check overflows
        {**_SYNTHETIC, "box_radius": 1e300},
        {**_SYNTHETIC, "inner_kind": "quadratic", "box_radius": 1e300},
        {**_SYNTHETIC, "inner_kind": "sigmoid", "box_radius": 1e300},
        # group means so far out that the declared constants overflow
        {**_GDRO, "group_shift": 1e155},
        # 10**14 coordinates need 3.2 PB for the inner maps, more than a
        # 64-bit address space maps, so numpy refuses the allocation at once
        {**_SYNTHETIC, "d": 10**14},
    ],
    ids=["outer_param", "sigma0", "box_radius", "population", "group_shift", "penalty_slope",
         "margin", "penalty_margin", "toy_unknown_key", "qp_box_center", "qp_box_bound",
         "circle_center", "circle_center_size", "thresholds", "thresholds_empty", "n_pos",
         "penalty_thresholds", "circle_slope_bool", "circle_slope_str", "roc_slope_bool",
         "roc_slope_str", "identity_outer_param", "affine_huge_box", "quadratic_huge_box",
         "sigmoid_huge_box", "gdro_huge_shift", "synthetic_too_large_to_allocate"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_nonfinite_problem_field_exits_1(tmp_path, capsys, problem):
    from fcco.cli import main

    cfg = write_config(tmp_path / "cfg.json", {"seed": 3, "problem": problem, "solver": _SONEX_SMALL})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "problem",
    [_SYNTHETIC, _GDRO, _CIRCLE, _ROC_FCCO, {**_ROC_FCCO, "kind": "roc_fairness"}],
    ids=["synthetic", "gdro_cvar", "toy_constrained", "roc_fairness_fcco", "roc_fairness"],
)
def test_run_nonfinite_problem_field_bases_run(tmp_path, problem):
    # each malformed case above changes one field of one of these valid problems
    cfg = write_config(tmp_path / "cfg.json", {"seed": 3, "problem": problem, "solver": _SONEX_SMALL})
    assert cmd_run(cfg, tmp_path / "out") == 0


# base -> (problem, solver, the block whose field the fuzz replaces; None for
# a run-level key)
_FUZZ_BASES = {
    "sonex": (_GDRO, _SONEX, "solver"),
    "alexr2": (_GDRO, _ALEXR2, "solver"),
    "sonex_small": (_SYNTHETIC, _SONEX_SMALL, "solver"),
    "synthetic": (_SYNTHETIC, _SONEX_SMALL, "problem"),
    "gdro_cvar": (_GDRO, _SONEX_SMALL, "problem"),
    "roc_fairness_fcco": (_ROC_FCCO, _SONEX_SMALL, "problem"),
    "circle": (_CIRCLE, _SONEX_SMALL, "problem"),
    "weakly_convex_1d": (_WEAKLY_CONVEX, _SONEX_SMALL, "problem"),
    "qp_box": (_QP_BOX, _SONEX_SMALL, "problem"),
    "roc_penalty": (_ROC_PENALTY, _SONEX_SMALL, "problem"),
    "run_level": (_SYNTHETIC, _SONEX_SMALL, None),
}
# integers only in [-2, 3], so that no drawn count makes a run long or large
_SCALARS = st.one_of(
    st.booleans(), st.text(max_size=3), st.none(), st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(-2, 3), st.floats(),
)
_FUZZ_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3), st.just({}))


def _fuzz_payload(base):
    problem, solver, _ = _FUZZ_BASES[base]
    return {"seed": 3, "problem": dict(problem), "solver": dict(solver), "metric_every": 2}


@st.composite
def _fuzzed_configs(draw):
    base = draw(st.sampled_from(sorted(_FUZZ_BASES)))
    payload = _fuzz_payload(base)
    block = _FUZZ_BASES[base][2]
    target = payload if block is None else payload[block]
    target[draw(st.sampled_from(sorted(target)))] = draw(_FUZZ_VALUES)
    return payload


def _run_quietly(payload, tmp):
    from fcco.cli import main

    cfg = write_config(Path(tmp) / "cfg.json", payload)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", str(cfg), "--out", str(Path(tmp) / "out")])
    return code, err.getvalue()


@pytest.mark.parametrize("base", sorted(_FUZZ_BASES))
def test_fuzz_bases_run(tmp_path, base):
    assert _run_quietly(_fuzz_payload(base), tmp_path) == (0, "")


# keys the schema no longer has: a config that still sets one is rejected, not run
_REMOVED_KEYS = [
    (None, "out", "elsewhere", "RunConfig"),
    (None, "record_wall_time", True, "RunConfig"),
    (_SYNTHETIC, "jacobian_corruption", 0.05, "SyntheticFccoSpec"),
    (_ROC_FCCO, "shift", 0.3, "RocFairnessSpec"),
    (_ROC_PENALTY, "identical_groups", True, "RocFairnessSpec"),
]


@pytest.mark.parametrize("problem, key, value, cls", _REMOVED_KEYS, ids=[c[1] for c in _REMOVED_KEYS])
def test_removed_key_is_unknown(tmp_path, problem, key, value, cls):
    payload = {"seed": 3, "problem": dict(problem or _SYNTHETIC), "solver": _SONEX_SMALL}
    (payload if problem is None else payload["problem"])[key] = value
    assert _run_quietly(payload, tmp_path) == (1, f"config error: unknown {cls} keys: [{key!r}]\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore:beta > 2/7")
@settings(max_examples=60)
@given(_fuzzed_configs())
def test_run_fuzzed_config_exits_cleanly(payload):
    # any one malformed field ends the run with 0, 1 or 2 and no traceback,
    # and a config error writes nothing
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _run_quietly(payload, tmp)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("config error: ")
            assert not (Path(tmp) / "out").exists()


def _block_class(base):
    """The config dataclass that reads the block ``base`` fuzzes."""
    problem, solver, block = _FUZZ_BASES[base]
    if block is None:
        return RunConfig
    if block == "solver":
        return Alexr2Config if solver["kind"] == "alexr2" else SonexConfig
    return _problem_class(problem)


def _problem_class(problem):
    """The dataclass that reads a problem block's parameters."""
    if problem["kind"] == "toy_constrained":
        return _TOYS[problem.get("which", "qp_box")]
    if problem["kind"] == "roc_fairness":
        return RocFairnessSpec
    return _PROBLEMS[problem["kind"]][0]


# config fields that no shipped config or perfbench workload sets, each with
# the reason it stays in the schema
_UNSET_FIELDS = {
    "SonexConfig.gamma_prime": "0 turns the MSVR correction off, as acceptance criterion 5 runs",
    "Alexr2Config.w0": "the starting point both solvers read; sonex-synth sets it on sonex",
    "Alexr2Config.k_growth": "the growing inner schedule K_t; perfbench reads schedule()",
    "Alexr2Config.warm_start_dual": "off gives the cold restarts the inner-loop guarantee is stated for",
    "SyntheticFccoSpec.box_radius": "the ball the declared constants are stated and checked on",
    "GdroCvarSpec.group_shift": "the spread of the group means; acceptance criterion 9 sets it",
    "QpBoxToy.center": "the target c, from which the known KKT pair follows",
    "QpBoxToy.bound": "the box the known KKT pair is stated for",
    "CircleToy.center": "the target c, from which the known KKT pair follows",
    "WeaklyConvexToy.curvature": "the weak-convexity modulus of the constraint",
}


def _set_fields(payload):
    """``Class.field`` for every dataclass field a run config sets; the
    run-level keys the CLI copies into the solver config count on RunConfig
    only."""
    problem, solver = dict(payload["problem"]), dict(payload["solver"])
    problem_cls = _problem_class(problem)
    for key in ("kind", "which", "penalty_slope"):
        problem.pop(key, None)
    solver_cls = Alexr2Config if solver.pop("kind") == "alexr2" else SonexConfig
    return ({f"RunConfig.{key}" for key in payload}
            | {f"{solver_cls.__name__}.{key}" for key in solver}
            | {f"{problem_cls.__name__}.{key}" for key in problem})


def test_every_config_field_is_set_by_a_shipped_run_or_allowlisted():
    shipped = set().union(*(_set_fields(json.loads(p.read_text())) for p in SHIPPED))
    classes = [RunConfig, SonexConfig, Alexr2Config, *(cls for cls, _ in _PROBLEMS.values()), *_TOYS.values()]
    copied = {"metric_every"}  # the run-level key of the solver configs
    unset = {
        f"{cls.__name__}.{f.name}"
        for cls in classes
        for f in dataclasses.fields(cls)
        if cls not in (SonexConfig, Alexr2Config) or f.name not in copied
    } - shipped
    assert sorted(unset - set(_UNSET_FIELDS)) == []
    # the allowlist names only fields that exist and that no shipped run sets
    assert sorted(set(_UNSET_FIELDS) - unset) == []


def _just_outside(f):
    """One value just outside each finite end of field ``f``'s declared
    interval: the end itself where it is open, the next integer or float
    beyond it where it is closed."""
    interval = f.metadata["interval"][0]
    ends = [float(end) for end in interval[1:-1].split(",")]
    integer = f.type.startswith("int")
    values = []
    for end, bracket, away in ((ends[0], interval[0], -1), (ends[1], interval[-1], 1)):
        if not math.isfinite(end):
            continue
        if bracket in "()":
            values.append(int(end) if integer else end)
        else:
            values.append(int(end) + away if integer else math.nextafter(end, away * math.inf))
    return values


def _range_cases():
    """(base, field, value) for every declared interval of every fuzzed
    block, each block class taken once; the run-level keys are one block."""
    classes = {}
    for base in sorted(_FUZZ_BASES):
        classes.setdefault(_block_class(base), base)
    return [
        (base, f.name, value)
        for cls, base in classes.items()
        for f in dataclasses.fields(cls)
        if "interval" in f.metadata
        for value in _just_outside(f)
    ]


_RANGE_CASES = _range_cases()


@pytest.mark.parametrize(
    "base, name, value", _RANGE_CASES, ids=[f"{b}-{n}={v!r}" for b, n, v in _RANGE_CASES]
)
def test_run_field_outside_declared_range_exits_1(tmp_path, base, name, value):
    payload = _fuzz_payload(base)
    block = _FUZZ_BASES[base][2]
    # the metric cadence is a run-level key, checked with the solver block
    target = payload if name in payload else payload[block]
    target[name] = value
    code, err = _run_quietly(payload, tmp_path)
    assert code == 1
    assert err.startswith(f"config error: {name} must lie in "), err
    assert not (tmp_path / "out").exists()


def test_run_accepts_the_largest_seed(tmp_path):
    # 2^53 is the largest seed philox's key conversion keeps apart from its
    # neighbours; 2^53 + 1 is a declared-range error above
    payload = {**_fuzz_payload("run_level"), "seed": 2**53}
    assert _run_quietly(payload, tmp_path) == (0, "")


def _beta_half_payload():
    # the shipped CVaR run at a momentum weight inside (2/7, 1), cut to 5 steps
    payload = json.loads((ROOT / "configs/gdro_cvar_r015_sonex.json").read_text())
    payload["solver"].update(beta=0.5, iters=5)
    return payload


def test_run_warning_raised_as_error_exits_1(tmp_path):
    # tier-1 raises every warning, as python -W error does
    code, err = _run_quietly(_beta_half_payload(), tmp_path)
    assert (code, err) == (1, "config error: beta > 2/7 leaves the analyzed regime of the momentum recursion\n")
    assert not (tmp_path / "out").exists()


def test_run_warning_not_raised_runs(tmp_path):
    with pytest.warns(UserWarning, match="beta > 2/7"):
        assert _run_quietly(_beta_half_payload(), tmp_path) == (0, "")
    assert (tmp_path / "out" / "trace.csv").is_file()


def test_run_alexr2_outside_assumptions_exits_1(tmp_path, monkeypatch):
    # the double loop refuses a weakly convex outer when it validates its
    # config, before anything is written
    from test_smoothing import ConcaveQuadratic

    problem = scalar_chain_problem(ConcaveQuadratic(0.5))
    monkeypatch.setattr(cli, "build_problem", lambda cfg: (problem, {}))
    solver = {"kind": "alexr2", "lam": 0.1, "nu": 0.5, "eta": 0.05, "theta": 0.9, "gamma": 0.1,
              "beta": 0.5, "alpha": 0.1, "b1": 1, "b2": 1, "iters": 2}
    code, err = _run_quietly({"seed": 3, "problem": _SYNTHETIC, "solver": solver}, tmp_path)
    assert (code, err) == (1, "config error: double-loop solver requires convex outer functions\n")
    assert not (tmp_path / "out").exists()


def test_bench_not_a_directory_exits_1(tmp_path, capsys):
    a_file = write_config(tmp_path / "cfg.json", synthetic_run_config())
    assert cli.main(["bench", str(a_file)]) == 1
    assert capsys.readouterr() == ("", f"not a directory: {a_file}\n")
