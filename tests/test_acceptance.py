"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).
Tolerances are fixed here, not tuned at runtime."""

import json
import pathlib
import time

import numpy as np

from fcco import (
    GapHinge,
    Identity,
    ScaledHinge,
    SeededRng,
)
from fcco.alexr2 import (
    Alexr2Config,
    rho_outer_smoothed,
    run_alexr2,
    run_inner_alexr,
    stable_extrapolation,
    theory_inner_params,
)
from fcco.cli import cmd_run
from fcco.metrics import (
    _golden_section,
    _gram_min_eig,
    brute_force_prox,
    eval_exact,
    finite_difference_gradient,
    stationarity_report,
)
from fcco.penalty import (
    ConstrainedProblem,
    build_penalty_problem,
    kkt_report,
    regularity_check,
)
from fcco.problems import (
    GdroCvarSpec,
    RocFairnessSpec,
    SyntheticFccoSpec,
    cvar_from_losses,
    make_gdro_cvar,
    make_roc_fairness_fcco,
    make_synthetic_fcco,
    make_toy_constrained,
)
from fcco.smoothing import moreau_value
from fcco.sonex import SonexConfig, run_sonex, theory_hyperparams
from util import affine_problem, scalar_chain_problem

CATALOG = [ScaledHinge(1.0), ScaledHinge(1 / 0.15), GapHinge(0.05), Identity()]


def check(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} - {desc}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {desc} {detail}"


def test_criterion_01_prox_oracle_equivalence():
    start = time.perf_counter()
    gen = np.random.default_rng(101)
    worst = 0.0
    for outer in CATALOG:
        for _ in range(100):
            lam = float(gen.uniform(1e-3, 1.0))
            t = gen.normal(size=outer.dim) * (2.0 * lam * outer.lipschitz + 1.0)
            err = float(np.max(np.abs(outer.prox(lam, t) - brute_force_prox(outer, lam, t, step=1e-5))))
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    check(1, "closed-form prox matches grid oracle to 1e-6",
          worst <= 1e-6 and elapsed < 10.0, f"worst={worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    for trial in range(10):
        spec = SyntheticFccoSpec(
            n=8, d=10, d1=2, inner_kind="sigmoid" if trial % 2 else "quadratic",
            outer_kind="gap_hinge", outer_param=0.1, sigma0=0.3, sigma1=0.2,
            population=30, seed=trial,
        )
        prob = make_synthetic_fcco(spec)
        gen = SeededRng(trial, 55).gen
        w = gen.normal(size=10) * 0.6
        lam = float(gen.uniform(0.01, 0.3))
        exact = stationarity_report(prob, w, lam).grad_F_lambda
        fd = finite_difference_gradient(lambda v: eval_exact(prob, v, lam)[1], w, h=1e-6)
        worst = max(worst, float(np.linalg.norm(fd - exact) / max(1.0, np.linalg.norm(exact))))
    roc = make_roc_fairness_fcco(RocFairnessSpec(thresholds=[-1.0, 0.0, 1.0], margin=0.05, seed=2))
    w = SeededRng(9).gen.normal(size=roc.d) * 0.5
    for lam in (0.05, 0.2):
        exact = stationarity_report(roc, w, lam).grad_F_lambda
        fd = finite_difference_gradient(lambda v: eval_exact(roc, v, lam)[1], w, h=1e-6)
        worst = max(worst, float(np.linalg.norm(fd - exact) / max(1.0, np.linalg.norm(exact))))
    elapsed = time.perf_counter() - start
    check(2, "smoothed gradient vs finite differences, rel err <= 1e-5",
          worst <= 1e-5 and elapsed < 30.0, f"worst={worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_moreau_identities():
    gen = np.random.default_rng(33)
    ok = True
    for outer in CATALOG:
        c2 = outer.lipschitz**2
        for _ in range(1000):
            lam = float(gen.uniform(1e-3, 1.0))
            t = gen.normal(size=outer.dim) * 4.0
            p = outer.prox(lam, t)
            obj = outer.value(p) + np.sum((p - t) ** 2) / (2 * lam)
            q = p + gen.normal(size=outer.dim) * gen.uniform(1e-3, 0.3)
            if obj > outer.value(q) + np.sum((q - t) ** 2) / (2 * lam) + 1e-10:
                ok = False
            env, val = moreau_value(outer, lam, t), outer.value(t)
            if not (env <= val + 1e-12 and val <= env + lam * c2 / 2 + 1e-12):
                ok = False
    check(3, "prox optimality and envelope sandwich on 1000 points per entry", ok)


def _criterion4_spec(sigma0, population):
    return SyntheticFccoSpec(
        n=20, d=10, d1=1, inner_kind="quadratic", outer_kind="scaled_hinge",
        outer_param=1.0, sigma0=sigma0, sigma1=0.0, population=population,
        seed=3, linear_scale=0.5, offset_shift=-2.0,
    )


def test_criterion_04_sonex_convergence():
    start = time.perf_counter()
    prob = make_synthetic_fcco(_criterion4_spec(0.0, 50))
    cfg = theory_hyperparams(0.05, n=20, b1=20, b2=50, outer_lipschitz=1.0, iters=100_000)
    cfg.metric_every = 500
    cfg.stop_grad_norm = 1e-3
    cfg.w0 = np.full(10, 1.2)
    res = run_sonex(prob, cfg, SeededRng(11))
    noiseless_ok = res.trace.last().grad_norm <= 1e-3 and res.trace.last().iteration <= 100_000
    # with lam = eps/C_f this output certifies the approximate-stationarity
    # conditions: small aggregated gradient and prox displacements <= lam*C_f
    rep = stationarity_report(prob, res.w_final, cfg.lam)
    noiseless_ok = noiseless_ok and rep.approx_t_residual <= cfg.lam * 1.0 + 1e-12
    noiseless_ok = noiseless_ok and rep.grad_F_lambda_norm <= 0.05

    noisy = make_synthetic_fcco(_criterion4_spec(0.1, 200))
    cfg2 = theory_hyperparams(0.05, n=20, b1=20, b2=25, outer_lipschitz=1.0, scale=3.0, iters=16_000)
    cfg2.metric_every = 100
    cfg2.w0 = np.full(10, 1.0)
    res2 = run_sonex(noisy, cfg2, SeededRng(12))
    tail = [r.grad_norm for r in res2.trace.rows[-100:]]
    trailing = float(np.mean(tail))
    elapsed = time.perf_counter() - start
    check(4, "single-loop solver reaches the stationarity targets",
          noiseless_ok and trailing <= 1e-2 and elapsed < 120.0,
          f"grad={res.trace.last().grad_norm:.1e} at {res.trace.last().iteration} iters, "
          f"trailing={trailing:.1e}, {elapsed:.0f}s")


def test_criterion_05_tracker_noise_floor():
    sigma0, b2, gamma, n = 0.5, 5, 0.05, 4
    errs = []
    for seed in range(30):
        spec = SyntheticFccoSpec(n=n, d=6, d1=1, inner_kind="affine", outer_kind="identity",
                                 sigma0=sigma0, population=500, seed=100 + seed)
        prob = make_synthetic_fcco(spec)
        cfg = SonexConfig(lam=0.1, eta=0.0, beta=0.25, gamma=gamma, gamma_prime=0.0,
                          b1=n, b2=b2, iters=1000, metric_every=1000)
        res = run_sonex(prob, cfg, SeededRng(seed))
        g = np.array([prob.inner_exact(i, res.w_final) for i in range(n)])
        errs.append(float(np.mean(np.sum((res.state.u - g) ** 2, axis=1))))
    floor = 10 * gamma * sigma0**2 / b2
    mean_err = float(np.mean(errs))
    check(5, "frozen-iterate tracker error falls below 10*gamma*sigma0^2/b2",
          mean_err < floor, f"err={mean_err:.2e} vs floor={floor:.2e}")


def test_criterion_06_inner_loop_quality():
    # (a) 1-D hinge proximal instance against the grid prox
    prob = scalar_chain_problem(ScaledHinge(1.0))
    lam, nu = 0.1, 0.5
    eta, gamma = theory_inner_params(0.9, nu, 0.0, 1, 1)
    cfg = Alexr2Config(lam=lam, nu=nu, eta=eta, theta=0.9, gamma=gamma, beta=0.5,
                       alpha=0.1, k_inner=500, b1=1, b2=1)
    z, _, _ = run_inner_alexr(prob, np.array([1.0]), cfg, SeededRng(3))
    grid = np.linspace(-1.0, 2.0, 300001)
    vals = moreau_value(ScaledHinge(1.0), lam, grid[:, None]) + (grid - 1.0) ** 2
    z_star = float(grid[int(np.argmin(vals))])
    inner_err = abs(float(z[0]) - z_star)

    # (b) affine/hinge saddle: fitted geometric contraction factor < 1
    gen = np.random.default_rng(4)
    A = gen.normal(size=(3, 2))
    b = np.array([0.2, -0.1, 0.05])
    saddle = affine_problem(A, b, ScaledHinge(2.0))
    lam2, nu2 = 0.1, 0.5
    w = np.array([1.0, 1.0])

    def prox_objective(zv):
        # one value per row of zv, a point or an (N, 2) stack
        return sum(
            moreau_value(ScaledHinge(2.0), lam2, (zv @ A[i] + b[i])[..., None]) for i in range(3)
        ) / 3 + np.sum((zv - w) ** 2, axis=-1) / (2 * nu2)

    zs = np.linspace(-1.5, 1.5, 301)
    grid2 = np.stack(np.meshgrid(zs, zs, indexing="ij"), axis=-1).reshape(-1, 2)
    z_ref = grid2[int(np.argmin(prox_objective(grid2)))].copy()
    for _ in range(6):
        for dim in (0, 1):
            def slice_fn(a, dim=dim):
                q = z_ref.copy()
                q[dim] += a
                return prox_objective(q)
            z_ref[dim] += _golden_section(slice_fn, -0.02, 0.02, tol=1e-13)
    theta = stable_extrapolation(saddle, lam2, nu2, 1)
    eta2, gamma2 = theory_inner_params(theta, nu2, 0.0, 3, 1)
    cfg2 = Alexr2Config(lam=lam2, nu=nu2, eta=eta2, theta=theta, gamma=gamma2, beta=0.5,
                        alpha=0.1, k_inner=300, b1=3, b2=1)
    dists = []
    run_inner_alexr(saddle, w, cfg2, SeededRng(0),
                    on_step=lambda k, zk: dists.append(float(np.linalg.norm(zk - z_ref))))
    d = np.array([x for x in dists if x > 1e-12])
    factor = float(np.exp(np.mean(np.log(d[1:] / d[:-1]))))
    check(6, "inner loop: prox error <= 1e-4 at K=500; saddle contraction < 1",
          inner_err <= 1e-4 and factor < 1.0,
          f"err={inner_err:.1e}, factor={factor:.3f}")


def _solve_toy_alexr2(kind, nu, k_inner, iters, seed=7):
    cp = make_toy_constrained(kind)
    slope, eps = 20.0, 0.01
    lam = eps / slope
    pen = build_penalty_problem(cp, slope)
    theta = stable_extrapolation(pen, lam, nu, 1)
    eta, gamma = theory_inner_params(theta, nu, rho_outer_smoothed(pen), pen.n, 1)
    cfg = Alexr2Config(lam=lam, nu=nu, eta=eta, theta=theta, gamma=gamma, beta=0.5,
                       alpha=0.01, update_kind="adam", adam_beta2=0.1, adam_clip=(1e-4, 1.0),
                       k_inner=k_inner, iters=iters, b1=1, b2=1,
                       metric_every=25, stop_grad_norm=5e-3)
    res = run_alexr2(pen, cfg, SeededRng(seed))
    return cp, kkt_report(cp, res.w_final, slope, lam), res


def test_criterion_07_constrained_toys():
    start = time.perf_counter()
    eps = 0.01
    cp1, kkt1, res1 = _solve_toy_alexr2("qp_box", nu=0.1, k_inner=300, iters=600)
    ok1 = (
        np.linalg.norm(res1.w_final - cp1.known_solution) <= 1e-2
        and kkt1.stationarity <= 5e-2
        and kkt1.max_violation <= 1.1 * eps
    )
    cp2, kkt2, res2 = _solve_toy_alexr2("circle", nu=0.0125, k_inner=700, iters=2500)
    ok2 = (
        np.linalg.norm(res2.w_final - cp2.known_solution) <= 1e-2
        and kkt2.stationarity <= 5e-2
        and kkt2.max_violation <= 1.1 * eps
    )
    # the smooth circle toy through the single-loop solver
    cp3 = make_toy_constrained("circle")
    pen3 = build_penalty_problem(cp3, 20.0)
    cfg3 = SonexConfig(lam=eps / 20.0, eta=1e-4, beta=0.2, gamma=0.5, b1=1, b2=1,
                       iters=60_000, metric_every=100, stop_grad_norm=5e-3)
    res3 = run_sonex(pen3, cfg3, SeededRng(9))
    kkt3 = kkt_report(cp3, res3.w_final, 20.0, eps / 20.0)
    ok3 = (
        np.linalg.norm(res3.w_final - cp3.known_solution) <= 1e-2
        and kkt3.stationarity <= 5e-2
        and kkt3.max_violation <= 1.1 * eps
    )
    elapsed = time.perf_counter() - start
    check(7, "constrained toys reach the KKT targets at eps=0.01",
          ok1 and ok2 and ok3 and elapsed < 240.0,
          f"qp_box stat={kkt1.stationarity:.1e}, circle stat={kkt2.stationarity:.1e}, "
          f"sonex stat={kkt3.stationarity:.1e}, {elapsed:.0f}s")


def test_criterion_08_penalty_exactness_along_trace():
    cp = make_toy_constrained("circle")
    slope = 20.0
    lam = 5e-4
    pen = build_penalty_problem(cp, slope)
    cfg = SonexConfig(lam=lam, eta=5e-3, beta=0.2, gamma=0.5, b1=1, b2=1, iters=3000,
                      update_kind="adam", adam_beta2=0.1, adam_clip=(1e-4, 1.0),
                      metric_every=50)
    res = run_sonex(pen, cfg, SeededRng(5))
    bound = lam * slope**2 / 2
    gaps = [row.f_value - row.f_lambda_value for row in res.trace.rows]
    ok = all(-1e-12 <= g <= bound + 1e-12 for g in gaps)
    check(8, "exact-penalty gap within lam*slope^2/2 at every trace point",
          ok, f"max gap={max(gaps):.2e} vs bound={bound:.2e}")


def test_criterion_09_gdro_cvar_consistency():
    spec = GdroCvarSpec(n_groups=2, p=2, samples_per_group=60, ratio=0.5, seed=1, group_shift=0.8)
    prob = make_gdro_cvar(spec)
    lam = 0.01 * 0.5  # eps / outer lipschitz = eps * ratio
    cfg = SonexConfig(lam=lam, eta=0.02, beta=0.2, gamma=0.5, b1=2, b2=20, iters=20_000,
                      metric_every=500)
    res = run_sonex(prob, cfg, SeededRng(2))
    solver_obj, _ = eval_exact(prob, res.w_final, lam)

    def group_losses(theta):
        w = np.concatenate([theta, [0.0]])
        return np.array([prob.inner_exact(g, w)[0] for g in range(2)])

    best = np.inf
    for t1 in np.linspace(-3, 3, 81):
        for t2 in np.linspace(-3, 3, 81):
            best = min(best, cvar_from_losses(group_losses(np.array([t1, t2])), 0.5))
    gap = abs(solver_obj - best) / abs(best)

    cfg_path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "gdro_cvar_r015_sonex.json"
    shipped = json.loads(cfg_path.read_text())
    ratio_ok = shipped["problem"]["ratio"] == 0.15
    check(9, "solver objective within 5% of the grid CVaR minimum; r=0.15 config shipped",
          gap <= 0.05 and ratio_ok, f"gap={gap:.3f}")


def test_criterion_10_trace_determinism(tmp_path):
    base_problem = {
        "kind": "synthetic", "n": 5, "d": 4, "d1": 1, "inner_kind": "affine",
        "outer_kind": "scaled_hinge", "outer_param": 1.0, "sigma0": 0.3,
        "population": 12, "seed": 3,
    }
    solvers = {
        "sonex": {"kind": "sonex", "lam": 0.05, "eta": 1e-3, "beta": 0.2, "gamma": 0.4,
                   "b1": 2, "b2": 4, "iters": 40},
        "sgd_baseline": {"kind": "sgd_baseline", "lam": 0.05, "eta": 1e-3, "gamma": 0.4,
                          "b1": 2, "b2": 4, "iters": 40},
        "alexr2": {"kind": "alexr2", "lam": 0.05, "nu": 0.3, "eta": 0.02, "theta": 0.9,
                    "gamma": 0.2, "beta": 0.5, "alpha": 0.05, "k_inner": 10, "iters": 10,
                    "b1": 2, "b2": 4},
    }
    ok = True
    for name, solver in solvers.items():
        payload = {"seed": 13, "problem": base_problem, "solver": solver, "metric_every": 5}
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(payload))
        assert cmd_run(cfg, tmp_path / f"{name}_a") == 0
        assert cmd_run(cfg, tmp_path / f"{name}_b") == 0
        same = (tmp_path / f"{name}_a" / "trace.csv").read_bytes() == (
            tmp_path / f"{name}_b" / "trace.csv"
        ).read_bytes()
        ok = ok and same
    check(10, "identical config+seed gives byte-identical trace.csv per solver", ok)


def test_criterion_11_regularity_diagnostics(tmp_path):
    gen = np.random.default_rng(77)
    ok = True
    for _ in range(5):
        A = gen.normal(size=(3, 7))
        prob = affine_problem(A, np.zeros(3), Identity())
        gram_min, _ = _gram_min_eig(prob, np.zeros(7))
        ref = float(np.linalg.svd(A, compute_uv=False)[-1] ** 2)
        if abs(gram_min - ref) > 1e-10 * max(1.0, abs(ref)):
            ok = False
    for _ in range(5):
        rows = gen.normal(size=(3, 5))
        inner = affine_problem(rows, np.zeros(3), Identity())
        cp2 = ConstrainedProblem(
            d=5, objective=make_toy_constrained("qp_box").objective,
            constraint_value=inner.inner_value, constraint_grad=inner.inner_vjp,
            populations=(1,) * 3,
        )
        got = regularity_check(cp2, np.zeros(5)).sigma_min
        ref = float(np.sqrt(np.linalg.eigvalsh(rows @ rows.T)[0]))
        if abs(got - ref) > 1e-10 * max(1.0, ref):
            ok = False
    # the run report exposes the Gram eigenvalue, whose square root is sigma_min
    payload = {
        "seed": 3,
        "problem": {"kind": "toy_constrained", "which": "qp_box", "penalty_slope": 5.0},
        "solver": {"kind": "sonex", "lam": 0.01, "eta": 1e-3, "beta": 0.2, "gamma": 0.5,
                    "b1": 1, "b2": 1, "iters": 5},
    }
    cfg = tmp_path / "reg.json"
    cfg.write_text(json.dumps(payload))
    assert cmd_run(cfg, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    # qp_box's one constraint has gradient 1, so its Gram matrix is [[1]]
    exposed = abs(report["gram_min_eig"] - 1.0) <= 1e-10
    check(11, "eigen/SVD diagnostics match references and are exposed in reports",
          ok and exposed)
