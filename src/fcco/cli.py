"""Batch experiment driver: ``fcco run|gradcheck|bench``.

Configs are JSON (the only input besides the seed inside them); runs write
``trace.csv`` with a fixed header plus a ``report.json`` summary.  Identical
config+seed reproduces trace.csv byte-for-byte; wall times go to report.json
only.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .alexr2 import Alexr2Config, run_alexr2
from .core import ConfigError, SeededRng, SolverAbort, _fmt, bounded, parse_fields
from .metrics import (
    _gram_min_eig,
    brute_force_prox,
    eval_exact,
    finite_difference_gradient,
    stationarity_report,
)
from .penalty import build_penalty_problem, kkt_from_stationarity
from .problems import (
    GdroCvarSpec,
    RocFairnessSpec,
    SyntheticFccoSpec,
    make_gdro_cvar,
    make_roc_fairness_fcco,
    make_roc_fairness_toy,
    make_synthetic_fcco,
    make_toy_constrained,
)
from .sonex import SonexConfig, run_sonex

__all__ = ["RunConfig", "cmd_run", "cmd_gradcheck", "cmd_bench", "main"]


@dataclasses.dataclass
class RunConfig:
    seed: int = bounded("[0, 9007199254740992]")  # see SeededRng: [0, 2^53]
    problem: dict
    solver: dict
    metric_every: int | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        return parse_fields(cls, raw)

    def to_dict(self) -> dict:
        """The fields that differ from their defaults, in field order."""
        values = ((f, getattr(self, f.name)) for f in dataclasses.fields(self))
        return {f.name: v for f, v in values if v != f.default}


# problem kind -> (parameter dataclass, maker)
_PROBLEMS = {
    "synthetic": (SyntheticFccoSpec, make_synthetic_fcco),
    "gdro_cvar": (GdroCvarSpec, make_gdro_cvar),
    "roc_fairness_fcco": (RocFairnessSpec, make_roc_fairness_fcco),
}
# constrained kind -> maker of the ConstrainedProblem behind the penalty
_CONSTRAINED = {
    "toy_constrained": lambda cfg: make_toy_constrained(cfg.pop("which", "qp_box"), **cfg),
    "roc_fairness": lambda cfg: make_roc_fairness_toy(parse_fields(RocFairnessSpec, cfg)),
}


def build_problem(problem_cfg: dict):
    """Returns (FccoProblem, extras); extras holds the constrained-problem
    view and penalty parameters when applicable."""
    cfg = dict(problem_cfg)
    kind = cfg.pop("kind", None)
    if kind not in (*_PROBLEMS, *_CONSTRAINED):
        raise ConfigError(f"unknown problem kind {kind!r}")
    if kind in _CONSTRAINED:
        slope = cfg.pop("penalty_slope", 10.0)
        cp = _CONSTRAINED[kind](cfg)
        return build_penalty_problem(cp, slope), {"constrained": cp, "penalty_slope": slope}
    spec_cls, make = _PROBLEMS[kind]
    return make(parse_fields(spec_cls, cfg)), {}


def _solver_config(solver_cfg: dict, run_cfg: RunConfig):
    cfg = dict(solver_cfg)
    kind = cfg.pop("kind", None)
    if kind not in ("sonex", "sgd_baseline", "alexr2"):
        raise ConfigError(f"unknown solver kind {kind!r}")
    if "metric_every" in cfg:
        raise ConfigError("metric_every is a run-level key")
    if kind == "sgd_baseline":  # momentum with full mixing; a beta in its block is ignored
        if cfg.get("update_kind", "momentum") != "momentum":
            raise ConfigError(f"solver kind sgd_baseline conflicts with update_kind {cfg['update_kind']!r}")
        cfg["beta"] = 1.0
    cfg["metric_every"] = run_cfg.metric_every
    return kind, parse_fields(Alexr2Config if kind == "alexr2" else SonexConfig, cfg)


def _load_config(path) -> RunConfig:
    with open(path) as f:
        raw = json.load(f)
    return RunConfig.from_dict(raw)


# ConfigError and JSONDecodeError are ValueErrors; a Warning is one that a
# -W error filter raised, a MemoryError a problem too large to build
_CONFIG_ERRORS = (OSError, TypeError, ValueError, MemoryError, Warning)


def _prepare(config_path):
    """(run config, problem, extras, solver kind, solver config) for a config
    file, the solver config validated; a bad config raises _CONFIG_ERRORS."""
    run_cfg = _load_config(config_path)
    problem, extras = build_problem(run_cfg.problem)
    kind, solver_cfg = _solver_config(run_cfg.solver, run_cfg)
    solver_cfg.validate(problem)
    return run_cfg, problem, extras, kind, solver_cfg


def _point_block(problem, rep) -> dict:
    """A point's report block, read off its exact pass ``rep``; the KKT
    residuals are added on a penalty problem."""
    block = {"F": rep.f_value, "F_lambda": rep.f_lambda_value,
             "grad_norm": rep.grad_F_lambda_norm, "stat_t_residual": rep.approx_t_residual}
    if problem.is_penalty:
        kr = kkt_from_stationarity(rep)
        block.update(max_violation=kr.max_violation, complementarity=kr.complementarity,
                     multipliers=kr.multipliers.tolist())
    return block


@np.errstate(all="ignore")  # a non-finite sampled block raises SolverAbort below
def _write_outputs(out_dir: Path, run_cfg, problem, extras, kind, solver_cfg, result, wall_s):
    """``final`` reads the last metric row's pass at w_final; the one exact
    pass made here is at w_sampled.  A non-finite value in it raises
    SolverAbort before anything is written.  ``extras`` is not read; the
    benchmark harness passes it positionally."""
    rep = stationarity_report(problem, result.w_sampled, solver_cfg.lam)
    sampled = {"iteration": result.sampled_iteration, **_point_block(problem, rep)}
    if not np.isfinite(np.hstack(list(sampled.values()))).all():
        raise SolverAbort(f"non-finite metrics at the sampled iteration {sampled['iteration']}", result.trace)
    out_dir.mkdir(parents=True, exist_ok=True)
    result.trace.to_csv(out_dir / "trace.csv")
    last = result.trace.last()
    gram_min, deficient = _gram_min_eig(problem, result.w_final)
    report = {
        "config": run_cfg.to_dict(),
        "solver": kind,
        "iterations": last.iteration,
        "inner_oracle_calls": last.inner_oracle_calls,
        "component_draws": last.component_draws,
        "final": _point_block(problem, result.final_report),
        "sampled": sampled,
        "stopped_early": result.stopped_early,
        "wall_seconds": wall_s,
        "row_wall_seconds": result.row_wall_seconds,
        "gram_min_eig": gram_min,
        "gram_rank_deficient": deficient,
    }
    with open(out_dir / "report.json", "w") as f:
        json.dump(report, f, indent=2)
    return report


def cmd_run(config_path, out_dir=None) -> int:
    """Run one config; writes <out>/trace.csv and <out>/report.json.  The
    output directory is made once the config has passed every check, before
    the solve; a write that fails there or after the solve exits 1."""
    try:
        run_cfg, problem, extras, kind, solver_cfg = _prepare(config_path)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out = Path(out_dir or (str(Path(config_path).with_suffix("")) + "_out"))
    rng = SeededRng(run_cfg.seed)
    try:
        out.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        try:
            result = (run_alexr2 if kind == "alexr2" else run_sonex)(problem, solver_cfg, rng)
            wall_s = time.perf_counter() - t0
            _write_outputs(out, run_cfg, problem, extras, kind, solver_cfg, result, wall_s)
        except SolverAbort as exc:
            print(f"solver abort: {exc}", file=sys.stderr)
            exc.trace.to_csv(out / "trace.csv")
            return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {out / 'trace.csv'}")
    return 0


def cmd_gradcheck(config_path) -> int:
    """Finite-difference and prox-oracle checks on the configured problem.

    Exit 0 iff the worst relative error is <= 1e-4, else 2 with a per-check
    breakdown; 1 on a config error, found while loading or by the checks.
    """
    try:
        run_cfg, problem, _, _, solver_cfg = _prepare(config_path)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return _gradcheck(problem, solver_cfg.lam, SeededRng(run_cfg.seed, 999).gen)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


def _gradcheck(problem, lam, gen) -> int:
    worst = 0.0
    for trial in range(3):
        w = problem.initial_point() + 0.5 * gen.normal(size=problem.d)
        exact = stationarity_report(problem, w, lam).grad_F_lambda
        fd = finite_difference_gradient(lambda v: eval_exact(problem, v, lam)[1], w, h=1e-6)
        err = float(np.linalg.norm(fd - exact) / max(1.0, np.linalg.norm(exact)))
        print(f"grad check {trial}: rel err {err:.3e}")
        worst = max(worst, err)
    outer = problem.outer
    err = 0.0
    for _ in range(10):
        t = gen.normal(size=outer.dim) * (2.0 * lam * outer.lipschitz + 1.0)
        lam_trial = float(gen.uniform(1e-3, 1.0))
        closed = outer.prox(lam_trial, t)
        brute = brute_force_prox(outer, lam_trial, t, step=1e-5)
        err = max(err, float(np.max(np.abs(closed - brute))))
    print(f"prox check {type(outer).__name__}: max abs err {err:.3e}")
    worst = max(worst, err)
    print(f"max error {worst:.3e}")
    if worst <= 1e-4:
        print("gradcheck: pass")
        return 0
    print("gradcheck: FAIL", file=sys.stderr)
    return 2


_BENCH_HEADER = "config,solver,status,final_F,final_F_lambda,final_grad_norm,inner_oracle_calls,component_draws"


def cmd_bench(config_dir) -> int:
    """Run every *.json config in a directory; write a comparison table."""
    config_dir = Path(config_dir)
    if not config_dir.is_dir():
        print(f"not a directory: {config_dir}", file=sys.stderr)
        return 1
    rows = []
    any_failed = False
    for cfg_path in sorted(config_dir.glob("*.json")):
        out = config_dir / f"{cfg_path.stem}_out"
        code = cmd_run(cfg_path, out_dir=out)
        if code == 0:
            with open(out / "report.json") as f:
                rep = json.load(f)
            final = rep["final"]
            rows.append(
                f"{cfg_path.name},{rep['solver']},ok,{_fmt(final['F'])},"
                f"{_fmt(final['F_lambda'])},{_fmt(final['grad_norm'])},"
                f"{rep['inner_oracle_calls']},{rep['component_draws']}"
            )
        else:
            any_failed = True
            rows.append(f"{cfg_path.name},,error:{code},,,,,")
    table = "\n".join([_BENCH_HEADER] + rows) + "\n"
    sys.stdout.write(table)
    try:
        (config_dir / "bench_summary.csv").write_text(table)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    return 2 if any_failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fcco", description="compositional-optimization benchmark driver"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_grad = sub.add_parser("gradcheck", help="oracle checks for a config")
    p_grad.add_argument("config")
    p_bench = sub.add_parser("bench", help="run every config in a directory")
    p_bench.add_argument("config_dir")
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out)
    if args.command == "gradcheck":
        return cmd_gradcheck(args.config)
    return cmd_bench(args.config_dir)


if __name__ == "__main__":
    sys.exit(main())
