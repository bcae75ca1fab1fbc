import json
import math
from pathlib import Path

import pytest

from fcco.cli import RunConfig, build_problem, cmd_bench, cmd_gradcheck, cmd_run
from fcco.core import TRACE_HEADER

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
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    out = tmp_path / "out"
    assert cmd_run(cfg, out) == 1
    assert not out.exists()


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
    assert report["kkt"]["max_violation"] <= 0.011
    assert abs(report["kkt"]["multipliers"][0] - 2.0) < 0.3
    assert report["kkt"]["regularity_sigma_min"] == pytest.approx(1.0)
    # max_violation column populated for penalty problems
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[-1].split(",")[8] != ""


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
    assert report["kkt"]["stationarity"] < 0.05


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


def test_gradcheck_corrupted_jacobian_fails(tmp_path, capsys):
    payload = synthetic_run_config()
    payload["problem"]["jacobian_corruption"] = 0.05
    cfg = write_config(tmp_path / "cfg.json", payload)
    assert cmd_gradcheck(cfg) == 2
    # it fails for the corrupted VJPs: the gradient checks miss, the prox check passes
    out = capsys.readouterr().out.splitlines()
    grad = [float(line.rsplit(" ", 1)[1]) for line in out if line.startswith("grad check")]
    prox = [float(line.rsplit(" ", 1)[1]) for line in out if line.startswith("prox check")]
    assert len(grad) == 3 and min(grad) > 1e-4
    assert len(prox) == 1 and prox[0] <= 1e-4


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


@pytest.mark.parametrize("key, value", [("metric_every", 100), ("record_wall_time", True)])
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
    assert cmd_bench(tmp_path) == 2
    lines = (tmp_path / "bench_summary.csv").read_text().splitlines()
    assert any("error:1" in line for line in lines)
    assert "fractional_iters.json,,error:1,,,,," in lines


def test_config_round_trip():
    raw = synthetic_run_config(iters=12)
    cfg = RunConfig.from_dict(raw)
    again = RunConfig.from_dict(cfg.to_dict())
    assert cfg == again
    assert cfg.to_dict() == again.to_dict()


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


@pytest.mark.filterwarnings("ignore:beta > 2/7")
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


def test_wall_time_opt_in(tmp_path):
    payload = synthetic_run_config(iters=5)
    payload["record_wall_time"] = True
    cfg = write_config(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    assert cmd_run(cfg, out) == 0
    last = (out / "trace.csv").read_text().splitlines()[-1]
    assert last.split(",")[9] != ""
    # default configs leave the column empty for reproducibility
    payload["record_wall_time"] = False
    cfg2 = write_config(tmp_path / "cfg2.json", payload)
    assert cmd_run(cfg2, tmp_path / "out2") == 0
    assert (tmp_path / "out2" / "trace.csv").read_text().splitlines()[-1].split(",")[9] == ""


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
    assert "kkt" in report and len(report["kkt"]["multipliers"]) == 4

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


@pytest.mark.parametrize(
    "solver",
    [
        # b2 larger than the 200 samples each group holds
        {"kind": "sonex", "lam": 0.0075, "eta": 0.02, "b1": 4, "b2": 500, "iters": 5},
        {"kind": "alexr2", "lam": 0.0075, "nu": 0.1, "eta": 0.01, "theta": 0.9, "gamma": 0.1,
         "beta": 0.5, "alpha": 0.01, "b1": 4, "b2": 500, "iters": 5},
        # inverted Adam rate bounds
        {"kind": "alexr2", "lam": 0.0075, "nu": 0.1, "eta": 0.01, "theta": 0.9, "gamma": 0.1,
         "beta": 0.5, "alpha": 0.01, "b1": 4, "b2": 8, "iters": 5, "update_kind": "adam",
         "adam_clip": [2.0, 1.0]},
        # Adam second-moment weight outside (0, 1), without rate clipping
        {"kind": "sonex", "lam": 0.0075, "eta": 0.02, "b1": 4, "b2": 8, "iters": 5,
         "update_kind": "adam", "adam_beta2": 1.5},
        # malformed fields: an integer field given a fraction or a string
        {**_SONEX, "iters": 2.5},
        {**_SONEX, "b1": 2.5},
        {**_SONEX, "b2": 2.5},
        {**_SONEX, "b1": "4"},
        {**_ALEXR2, "k_inner": 2.5},
        # ... or a float field given NaN
        {**_SONEX, "lam": math.nan},
        {**_SONEX, "eta": math.nan},
        {**_ALEXR2, "lam": math.nan},
        {**_ALEXR2, "nu": math.nan},
        {**_ALEXR2, "eta": math.nan},
        {**_ALEXR2, "alpha": math.nan},
        # the run-level metric cadence: not a positive integer
        {**_SONEX, _RUN_LEVEL: {"metric_every": "5"}},
        {**_SONEX, _RUN_LEVEL: {"metric_every": 0}},
        {**_SONEX, _RUN_LEVEL: {"metric_every": -3}},
        {**_SONEX, _RUN_LEVEL: {"metric_every": 2.5}},
        # run-level keys are not coerced: 2.5 is no seed, "false" no bool
        {**_SONEX, _RUN_LEVEL: {"seed": 2.5}},
        {**_SONEX, _RUN_LEVEL: {"record_wall_time": "false"}},
        # a starting point with a NaN, or of the wrong length (d = 5)
        {**_SONEX, "w0": [math.nan, 0.0, 0.0, 0.0, 0.0]},
        {**_ALEXR2, "w0": [0.0, 0.0]},
        # Adam rate bounds that are not a pair
        {**_SONEX, "update_kind": "adam", "adam_clip": [1e-4, 1.0, 2.0]},
    ],
)
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


_SYNTHETIC = {"kind": "synthetic", "n": 4, "d": 3, "d1": 1, "inner_kind": "affine",
              "outer_kind": "scaled_hinge", "outer_param": 1.0, "sigma0": 0.2,
              "population": 8, "seed": 1}
_ROC_FCCO = {"kind": "roc_fairness_fcco", "thresholds": [0.0], "margin": 0.05, "n_pos": 8,
             "n_neg": 8, "seed": 1}
_SONEX_SMALL = {"kind": "sonex", "lam": 0.05, "eta": 1e-3, "beta": 0.2, "gamma": 0.4, "b1": 1,
                "b2": 1, "iters": 5}


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
        {**_ROC_FCCO, "shift": math.nan},
        {**_ROC_FCCO, "n_pos": 8.5},
        {**_ROC_FCCO, "kind": "roc_fairness", "thresholds": [math.nan]},
    ],
    ids=["outer_param", "sigma0", "box_radius", "population", "group_shift", "penalty_slope",
         "margin", "penalty_margin", "toy_unknown_key", "qp_box_center", "qp_box_bound",
         "circle_center", "circle_center_size", "thresholds", "shift", "n_pos",
         "penalty_thresholds"],
)
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
    [_SYNTHETIC, _GDRO, {"kind": "toy_constrained", "which": "circle"}, _ROC_FCCO,
     {**_ROC_FCCO, "kind": "roc_fairness"}],
    ids=["synthetic", "gdro_cvar", "toy_constrained", "roc_fairness_fcco", "roc_fairness"],
)
def test_run_nonfinite_problem_field_bases_run(tmp_path, problem):
    # each malformed case above changes one field of one of these valid problems
    cfg = write_config(tmp_path / "cfg.json", {"seed": 3, "problem": problem, "solver": _SONEX_SMALL})
    assert cmd_run(cfg, tmp_path / "out") == 0
