#!/usr/bin/env python3
"""fcco benchmark: three solver workloads, end-to-end metrics, and a traced
per-layer breakdown.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sonex-synth --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One invocation runs one workload as a closed loop: one solve at a time in
this process, repeated until ``--seconds`` have passed.  It drives fcco
through the CLI's config loader, ``build_problem``, ``run_sonex`` /
``run_alexr2`` and the report writer, from the frozen config in
``perfbench/workloads/`` with ``--seed`` added to its solver and data seeds.
Every solve passes a correctness gate and must repeat the first solve's trace
exactly.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced solves, reports the per-layer metrics and
checks that tracing leaves ``trace.csv`` byte-identical.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Outputs go to ``.perfbench_out/<workload>/``.  See
``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_SETUP_PROBES, MAX_SETUP_PROBES = 7, 15

WORKLOADS = ("sonex-synth", "alexr2-circle", "roc-metrics")

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "oracle_calls": "count",
    "oracle_calls_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer functions timed during the solve; "<layer>.self" is the time the
# solver's own loop spends outside every function it calls.
SOLVE_FUNCTIONS = (
    "core.sample_data_batch",
    "core.sample_components",
    "core.spawn",
    "core.ensure_finite",
    "problems.inner_value",
    "problems.inner_vjp",
    "problems.inner_exact",
    "problems.inner_jacobian_exact",
    "problems.additive_value",
    "problems.additive_grad",
    "penalty.wrap",
    "smoothing.moreau_grad",
    "smoothing.moreau_value",
    "smoothing.dual_tracker_update",
    "smoothing.prox",
    "sonex.gradient_estimate",
    "sonex.msvr_update",
    "sonex.momentum_step",
    "sonex.adam_step",
    "sonex.self",
    "alexr2.run_inner_alexr",
    "alexr2.inner_primal_step",
    "alexr2.extrapolated_inner_value",
    "alexr2.outer_momentum_step",
    "alexr2.self",
    "metrics.eval_exact",
    "metrics.stationarity_report",
)
# Timed while the report writer runs.
WRITE_FUNCTIONS = ("penalty.kkt_report", "penalty.regularity_check")


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    from tracer import SOLVE_LAYERS

    names = []
    for fn in SOLVE_FUNCTIONS + WRITE_FUNCTIONS:
        names += [(f"{fn}.calls", "count"), (f"{fn}.us_per_call", "us"), (f"{fn}.share", "fraction")]
    names += [(f"{layer}.share", "fraction") for layer in SOLVE_LAYERS]
    names += [
        ("metrics.row_ms", "ms"),
        ("metrics.inner_exact_per_component_row", "calls/comp"),
        ("sonex.oracle_calls_per_iter", "calls/iter"),
        ("alexr2.oracle_calls_per_inner_step", "calls/step"),
        ("cli.load_config_ms", "ms"),
        ("cli.build_problem_ms", "ms"),
        ("cli.write_outputs_ms", "ms"),
        ("trace_overhead_frac", "fraction"),
    ]
    return names


# ---------------------------------------------------------------- workloads


def seeded_config(workload: str, seed: int) -> dict:
    """The frozen config with ``seed`` added to its solver and data seeds."""
    with open(HERE / "workloads" / f"{workload}.json") as f:
        cfg = json.load(f)
    cfg["seed"] += seed
    if "seed" in cfg["problem"]:
        cfg["problem"]["seed"] += seed
    return cfg


@dataclass
class Workload:
    name: str
    config_path: Path
    run_cfg: object
    problem: object
    extras: dict
    kind: str
    solver_cfg: object

    @property
    def runner(self):
        from fcco.alexr2 import run_alexr2
        from fcco.sonex import run_sonex

        return run_alexr2 if self.kind == "alexr2" else run_sonex

    @property
    def root_span(self) -> str:
        return "alexr2.self" if self.kind == "alexr2" else "sonex.self"


def load_workload(name: str, config_path: Path, wrap=lambda span, fn: fn) -> Workload:
    from fcco import cli

    run_cfg = wrap("cli.load_config", cli._load_config)(config_path)
    problem, extras = wrap("cli.build_problem", cli.build_problem)(run_cfg.problem)
    kind, solver_cfg = cli._solver_config(run_cfg.solver, run_cfg)
    return Workload(name, config_path, run_cfg, problem, extras, kind, solver_cfg)


def gate(wl: Workload, result) -> str | None:
    """None when a solve is correct, else the reason it is not."""
    import numpy as np
    from fcco.penalty import kkt_report

    rows = result.trace.rows
    last = rows[-1]
    finals = (last.f_value, last.f_lambda_value, last.grad_norm)
    if any(v is None or not math.isfinite(v) for v in finals):
        return f"non-finite final metrics {finals}"
    if wl.name == "alexr2-circle":
        # criterion 7 at eps = lam * slope: the known KKT point of the disk toy
        cp, slope, lam = wl.extras["constrained"], wl.extras["penalty_slope"], wl.solver_cfg.lam
        kkt = kkt_report(cp, result.w_final, slope, lam)
        dist = float(np.linalg.norm(result.w_final - cp.known_solution))
        if not result.stopped_early:
            return "did not reach stop_grad_norm"
        if dist > 1e-2 or kkt.stationarity > 5e-2 or kkt.max_violation > 1.1 * lam * slope:
            return (f"KKT targets missed: |w-w*|={dist:.3g} stationarity={kkt.stationarity:.3g} "
                    f"max_violation={kkt.max_violation:.3g}")
        return None
    if not last.grad_norm < rows[0].grad_norm:
        return f"grad_norm did not fall: {rows[0].grad_norm:.4g} -> {last.grad_norm:.4g}"
    return None


class Tally:
    """Counts solves and failed ones; a solve fails when it raises, misses the
    gate, or does not repeat the first solve's trace."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._reference = None

    def record(self, wl: Workload, result, error: str | None) -> bool:
        self.attempted += 1
        reason = error if result is None else gate(wl, result)
        if reason is None:
            lines = [row.to_csv_line() for row in result.trace.rows]
            if self._reference is None:
                self._reference = lines
            elif lines != self._reference:
                reason = "trace differs from the first solve of this invocation"
        if reason is not None:
            self.failed += 1
            self.failures.append(reason)
            print(f"solve {self.attempted} failed: {reason}", file=sys.stderr)
        return reason is None


def timed_solve(wl: Workload, runner):
    """(seconds, result or None, error or None) of one solve from a fresh rng."""
    from fcco.core import SeededRng

    rng = SeededRng(wl.run_cfg.seed)
    t0 = time.perf_counter()
    try:
        result = runner(wl.problem, wl.solver_cfg, rng)
    except Exception as exc:  # a failed solve is counted, the loop goes on
        traceback.print_exc()
        return time.perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, result, None


def write_outputs(wl: Workload, out_dir: Path, result, wall_s: float, wrap=lambda span, fn: fn) -> dict:
    from fcco import cli

    writer = wrap("cli.write_outputs", cli._write_outputs)
    return writer(out_dir, wl.run_cfg, wl.problem, wl.extras, wl.kind, wl.solver_cfg, result, wall_s)


def report_error(report: dict) -> str | None:
    finals = [report["final"][k] for k in ("F", "F_lambda", "grad_norm")]
    if any(v is None or not math.isfinite(v) for v in finals):
        return f"report.json has non-finite final metrics {finals}"
    return None


# ------------------------------------------------------------- measurement


def probe_setup(config_path: Path) -> float:
    """Seconds from starting a process to its problem being built."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config_path)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=120)
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0 or line.strip() != "built":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten samples
    above it; None below eleven samples."""
    xs = sorted(samples)
    if len(xs) < 11:
        return None
    k = len(xs) - 11
    return 100.0 * k / (len(xs) - 1), xs[k]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _blas_threads() -> int | None:
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    env_keys = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in env_keys},
        "machine": platform.machine(),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# --------------------------------------------------------------- the runs


def run_plain(wl: Workload, out: Path, seconds: float) -> tuple[Tally, dict, dict]:
    # Set-up probes go between solves, so that they sample the whole run and
    # not one moment of a machine whose speed drifts.
    setup = []
    tally = Tally()
    times = []
    kept = None
    deadline = time.perf_counter() + seconds
    while tally.attempted == 0 or time.perf_counter() < deadline:
        if len(setup) < MAX_SETUP_PROBES:
            setup.append(probe_setup(wl.config_path))
        elapsed, result, error = timed_solve(wl, wl.runner)
        if tally.record(wl, result, error):
            times.append(elapsed)
            kept = result
    while len(setup) < MIN_SETUP_PROBES:
        setup.append(probe_setup(wl.config_path))
    if kept is None:
        return tally, {}, {"setup_s": setup}
    error = report_error(write_outputs(wl, out / "untraced", kept, times[-1]))
    if error is not None:
        tally.failed += 1
        tally.failures.append(error)
    solve_s = statistics.median(times)
    calls = kept.trace.last().inner_oracle_calls
    values = {
        "setup_s": statistics.median(setup),
        "solve_s": solve_s,
        "oracle_calls": calls,
        "oracle_calls_per_s": calls / solve_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    tail = tail_percentile(times)
    samples = {"setup_s": setup, "solve_s": times,
               "solve_s_tail": None if tail is None else {"percentile": tail[0], "value": tail[1]}}
    return tally, metrics, samples


def run_traced(wl_name: str, config_path: Path, out: Path, seconds: float) -> tuple[Tally, dict, dict]:
    from tracer import SOLVE_LAYERS, SpanStats, Tracer, installed

    tracer = Tracer()
    wl = load_workload(wl_name, config_path, tracer.wrap)
    setup_stats = tracer.summary()
    constrained = wl.extras.get("constrained")

    tally = Tally()
    plain_times, traced_times = [], []
    solve_stats = SpanStats()
    plain_result = traced_result = None
    deadline = time.perf_counter() + seconds
    while tally.attempted == 0 or time.perf_counter() < deadline:
        elapsed, result, error = timed_solve(wl, wl.runner)
        if tally.record(wl, result, error):
            plain_times.append(elapsed)
            plain_result = result
        tracer.clear()
        with installed(tracer, wl.problem, constrained):
            elapsed, result, error = timed_solve(wl, tracer.wrap(wl.root_span, wl.runner))
        if tally.record(wl, result, error):
            traced_times.append(elapsed)
            traced_result = result
            solve_stats.add(tracer.summary())
    if plain_result is None or traced_result is None:
        return tally, {}, {}
    tracer.save(out / "spans.npz")

    write_outputs(wl, out / "untraced", plain_result, plain_times[-1])
    tracer.clear()
    with installed(tracer, wl.problem, constrained):
        report = write_outputs(wl, out / "traced", traced_result, traced_times[-1], tracer.wrap)
    write_stats = tracer.summary()
    for error in (report_error(report), transparency_error(out)):
        if error is not None:
            tally.failed += 1
            tally.failures.append(error)

    n = len(traced_times)
    solve_s = sum(traced_times) / n
    values = {}

    def per_call(fn, stats, runs):
        calls, self_s = stats.calls.get(fn, 0), stats.self_s.get(fn, 0.0)
        values[f"{fn}.calls"] = calls / runs
        values[f"{fn}.us_per_call"] = self_s / calls * 1e6 if calls else 0.0
        values[f"{fn}.share"] = self_s / runs / solve_s

    for fn in SOLVE_FUNCTIONS:
        per_call(fn, solve_stats, n)
    for fn in WRITE_FUNCTIONS:
        per_call(fn, write_stats, 1)
    for layer in SOLVE_LAYERS:
        values[f"{layer}.share"] = solve_stats.stage_s[layer] / n / solve_s

    rows = solve_stats.calls.get("metrics.row", 0)
    values["metrics.row_ms"] = solve_stats.inclusive_s.get("metrics.row", 0.0) / rows * 1e3 if rows else 0.0
    in_rows = solve_stats.calls_in_row.get("problems.inner_exact", 0)
    values["metrics.inner_exact_per_component_row"] = in_rows / (wl.problem.n * rows) if rows else 0.0
    last = traced_result.trace.last()
    if wl.kind == "alexr2":
        steps = sum(wl.solver_cfg.schedule(t) for t in range(last.iteration))
        values["sonex.oracle_calls_per_iter"] = 0.0
        values["alexr2.oracle_calls_per_inner_step"] = last.inner_oracle_calls / steps
    else:
        values["sonex.oracle_calls_per_iter"] = last.inner_oracle_calls / last.iteration
        values["alexr2.oracle_calls_per_inner_step"] = 0.0
    values["cli.load_config_ms"] = setup_stats.inclusive_s["cli.load_config"] * 1e3
    values["cli.build_problem_ms"] = setup_stats.inclusive_s["cli.build_problem"] * 1e3
    values["cli.write_outputs_ms"] = write_stats.inclusive_s["cli.write_outputs"] * 1e3
    values["trace_overhead_frac"] = statistics.median(traced_times) / statistics.median(plain_times) - 1.0

    metrics = {name: metric(values[name], unit) for name, unit in per_layer_names()}
    samples = {"solve_s_untraced": plain_times, "solve_s_traced": traced_times}
    return tally, metrics, samples


def transparency_error(out: Path) -> str | None:
    plain = (out / "untraced" / "trace.csv").read_bytes()
    traced = (out / "traced" / "trace.csv").read_bytes()
    return None if plain == traced else "traced trace.csv differs from the untraced one"


# ------------------------------------------------------------------ output


def print_summary(workload: str, args, tally: Tally, metrics: dict, samples: dict, machine: dict) -> None:
    print(f"workload {workload} seed {args.seed} trace {args.trace}: "
          f"{tally.attempted} solves, {tally.failed} failed")
    for name, m in metrics.items():
        if args.trace and m["value"] == 0:
            continue
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    if not args.trace and "solve_s" in samples:
        runs = len(samples["solve_s"])
        tail = samples["solve_s_tail"]
        tail_text = "n/a below 11 runs" if tail is None else f"p{tail['percentile']:.0f} {tail['value']:.6g} s"
        print(f"  solve_s over {runs} runs: median {metrics['solve_s']['value']:.6g} s, tail {tail_text}")
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'run_fail_frac':<44} {frac:>14.6g} fraction ({tally.failed} of {tally.attempted})")
    for reason in tally.failures:
        print(f"  failure: {reason}")
    print(f"machine: {json.dumps(machine, sort_keys=True)}")


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import fcco

    if not Path(fcco.__file__).resolve().is_relative_to(SRC):
        print(f"imported fcco from {fcco.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(seeded_config(args.workload, args.seed), indent=2) + "\n")

    if args.trace:
        tally, metrics, samples = run_traced(args.workload, config_path, out, args.seconds)
    else:
        wl = load_workload(args.workload, config_path)
        tally, metrics, samples = run_plain(wl, out, args.seconds)
    correct = tally.failed == 0 and bool(metrics)
    machine = machine_info()
    with open(out / f"result_trace{args.trace}.json", "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "machine": machine, "correct": correct,
                   "attempted": tally.attempted, "failed": tally.failed,
                   "failures": tally.failures, "metrics": metrics, "samples": samples}, f, indent=2)
    print_summary(args.workload, args, tally, metrics, samples, machine)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= proc.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fcco" / "__init__.py").is_file():
        print(f"fcco sources not found under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
