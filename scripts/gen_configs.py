#!/usr/bin/env python3
"""Regenerate the shipped experiment configs in configs/.

Step sizes for the double-loop runs come from the stability-coupled helpers,
so the JSON stays consistent with the solver defaults if those change.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fcco.alexr2 import (  # noqa: E402
    rho_outer_smoothed,
    stable_extrapolation,
    theory_inner_params,
)
from fcco.penalty import build_penalty_problem  # noqa: E402
from fcco.problems import make_toy_constrained  # noqa: E402

OUT = Path(__file__).resolve().parents[1] / "configs"


def gdro_cvar_r015(update_kind):
    # the reported CVaR ratio setting: r = 0.15 over 8 groups, C_f = 1/r
    solver = {
        "kind": "sonex" if update_kind != "sgd_baseline" else "sgd_baseline",
        "lam": 0.05 * 0.15,
        "eta": 0.02,
        "beta": 0.2,
        "gamma": 0.5,
        "b1": 4,
        "b2": 32,
        "iters": 1200,
    }
    if update_kind == "adam":
        solver.update(update_kind="adam", adam_beta2=0.1, adam_clip=[1e-4, 1.0])
    return {
        "seed": 11,
        "problem": {
            "kind": "gdro_cvar",
            "n_groups": 8,
            "p": 4,
            "samples_per_group": 200,
            "ratio": 0.15,
            "seed": 2,
        },
        "solver": solver,
        "metric_every": 50,
    }


def circle_alexr2():
    cp = make_toy_constrained("circle")
    slope, eps = 20.0, 0.01
    lam = eps / slope
    pen = build_penalty_problem(cp, slope)
    nu = 0.0125
    theta = stable_extrapolation(pen, lam, nu, 1)
    eta, gamma = theory_inner_params(theta, nu, rho_outer_smoothed(pen), pen.n, 1)
    return {
        "seed": 7,
        "problem": {"kind": "toy_constrained", "which": "circle", "penalty_slope": slope},
        "solver": {
            "kind": "alexr2",
            "lam": lam,
            "nu": nu,
            "eta": eta,
            "theta": theta,
            "gamma": gamma,
            "beta": 0.5,
            "alpha": 0.01,
            "update_kind": "adam",
            "adam_beta2": 0.1,
            "adam_clip": [1e-4, 1.0],
            "k_inner": 700,
            "iters": 800,
            "b1": 1,
            "b2": 1,
            "stop_grad_norm": 0.005,
        },
        "metric_every": 25,
    }


def circle_sonex():
    # plain momentum at a step respecting the 1/lam curvature of the hinge band
    return {
        "seed": 9,
        "problem": {"kind": "toy_constrained", "which": "circle", "penalty_slope": 20.0},
        "solver": {
            "kind": "sonex",
            "lam": 0.0005,
            "eta": 0.0001,
            "beta": 0.2,
            "gamma": 0.5,
            "b1": 1,
            "b2": 1,
            "iters": 60000,
            "stop_grad_norm": 0.005,
        },
        "metric_every": 200,
    }


def synthetic_a2_sonex():
    return {
        "seed": 4,
        "problem": {
            "kind": "synthetic",
            "n": 8,
            "d": 10,
            "d1": 2,
            "inner_kind": "sigmoid",
            "outer_kind": "gap_hinge",
            "outer_param": 0.1,
            "sigma0": 0.1,
            "sigma1": 0.1,
            "population": 50,
            "seed": 0,
        },
        "solver": {
            "kind": "sonex",
            "lam": 0.05,
            "eta": 0.05,
            "beta": 0.2,
            "gamma": 0.3,
            "b1": 4,
            "b2": 10,
            "iters": 600,
        },
        "metric_every": 25,
    }


def main():
    OUT.mkdir(exist_ok=True)
    configs = {
        "gdro_cvar_r015_sonex.json": gdro_cvar_r015("adam"),
        "gdro_cvar_r015_sgd_baseline.json": gdro_cvar_r015("sgd_baseline"),
        "circle_alexr2.json": circle_alexr2(),
        "circle_sonex.json": circle_sonex(),
        "synthetic_a2_sonex.json": synthetic_a2_sonex(),
    }
    for name, payload in configs.items():
        path = OUT / name
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
