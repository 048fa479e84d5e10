"""Acceptance suite: every numbered claim the package makes about itself.

Each criterion function measures one claim (closed-form benchmarks,
exact-identity residuals, certificate existence, Monte Carlo agreement,
reproducibility) and returns a report entry with the measured numbers, the
required thresholds, and a pass flag.  Reports carry no timestamps and no
worker counts so that two runs with the same seed are byte-identical.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import Callable

import numpy as np

from . import __version__
from ._util import THREADS_ENV, dump_json, jsonable, stream
from .control import action_generators, enumerate_policies, hjb_residual, policy_iteration
from .eigen import principal_eigenpair
from .errors import ExitRateError
from .grid import assemble_generator, build_grid, discrete_gradient
from .mc import monte_carlo_check, simulate_killed
from .problems import (
    bang_bang,
    bm_interval,
    builtin_catalog,
    drift_interval,
    rect_2d,
    validate_problem,
)
from .qprocess import (
    doob_transform,
    girsanov_check,
    lyapunov_certificate,
    rayleigh_identity,
    stationary_measures,
    survival_asymptotics,
    verify_uniform_ergodicity,
)
from .variational import MASS_TOL, TV_TOL, occupation_check

DEFAULT_SEED = 20260814
# Criterion 12's killed paths and time step; its confined horizon, paths and time step.
MC_SETTINGS = {"mc_paths": 100_000, "mc_dt": 1e-3, "q_T": 6.25, "q_paths": 256, "q_dt": 1e-3}
# Every criterion's solver tolerance.
TOL = 1e-10
PI_HALF = float(np.pi**2 / 2.0)


def _solve_const(problem, h: float, action: int = 0, tol: float = 1e-10):
    grid = build_grid(problem, h)
    gen = assemble_generator(grid, problem, action)
    return grid, gen, principal_eigenpair(gen, tol=tol)


def _entry(cid: int, title: str, passed: bool, measured: dict, required: dict) -> dict:
    return {
        "id": cid,
        "title": title,
        "passed": bool(passed),
        "measured": jsonable(measured),
        "required": jsonable(required),
    }


def _c1_interval_eigenvalue(cfg: dict) -> dict:
    t0 = time.perf_counter()
    prob = validate_problem(bm_interval())
    errs = {}
    lams = {}
    for k in (64, 128, 256):
        _, _, pair = _solve_const(prob, 1.0 / k, tol=cfg["tol"])
        lams[k] = pair.lam
        errs[k] = abs(pair.lam - PI_HALF)
    orders = [float(np.log2(errs[64] / errs[128])), float(np.log2(errs[128] / errs[256]))]
    runtime_ok = (time.perf_counter() - t0) < 5.0
    passed = errs[256] <= 1e-3 and min(orders) >= 1.9 and runtime_ok
    return _entry(
        1,
        "interval eigenvalue matches pi^2/2 with second-order convergence",
        passed,
        {"lam_finest": lams[256], "abs_err_finest": errs[256], "orders": orders, "runtime_ok": runtime_ok},
        {"abs_err": 1e-3, "min_order": 1.9, "runtime_s": 5.0},
    )


def _c2_drift_shift(cfg: dict) -> dict:
    rows = []
    ok = True
    for c in (0.5, 1.0, 2.0):
        prob = validate_problem(drift_interval(c))
        _, _, pair = _solve_const(prob, 1.0 / 256, tol=cfg["tol"])
        target = PI_HALF + 0.5 * c * c
        err = abs(pair.lam - target)
        ok = ok and err <= 5e-3
        rows.append({"c": c, "lam": pair.lam, "target": target, "abs_err": err})
    return _entry(
        2,
        "constant drift shifts the eigenvalue by c^2/2",
        ok,
        {"cases": rows},
        {"abs_err": 5e-3},
    )


def _c3_square_eigenvalue(cfg: dict) -> dict:
    t0 = time.perf_counter()
    prob = validate_problem(rect_2d())
    zero_action = prob.actions.index("0")
    _, _, pair = _solve_const(prob, 1.0 / 128, action=zero_action, tol=cfg["tol"])
    err = abs(pair.lam - float(np.pi**2))
    runtime_ok = (time.perf_counter() - t0) < 60.0
    return _entry(
        3,
        "square-domain eigenvalue matches pi^2",
        err <= 5e-3 and runtime_ok,
        {"lam": pair.lam, "abs_err": err, "runtime_ok": runtime_ok},
        {"abs_err": 5e-3, "runtime_s": 60.0},
    )


def _c4_exact_conjugation(cfg: dict) -> dict:
    rng = stream(cfg["seed"], 0xC4)
    worst = 0.0
    cases = []
    prob1 = validate_problem(bm_interval())
    _, gen1, pair1 = _solve_const(prob1, 1.0 / 64, tol=cfg["tol"])
    prob3 = validate_problem(bang_bang())
    trace3 = policy_iteration(prob3, 1.0 / 64, mode="MAX", tol=cfg["tol"])
    for name, gen, pair in (
        (prob1.name, gen1, pair1),
        (prob3.name, trace3.final_generator, trace3.final_pair),
    ):
        n = gen.matrix.shape[0]
        sup = 0.0
        for t in (0.1, 1.0, 5.0):
            _, _, gap = girsanov_check(gen, pair, t, rng.random((5, n)).T)
            sup = max(sup, gap)
        worst = max(worst, sup)
        cases.append({"problem": name, "n": n, "sup_gap": sup})
    return _entry(
        4,
        "transformed semigroup reproduces the killed semigroup exactly",
        worst <= 1e-8,
        {"cases": cases, "worst_gap": worst},
        {"sup_gap": 1e-8},
    )


def _c5_product_identity(cfg: dict) -> dict:
    rows = []
    ok = True
    for spec in builtin_catalog():
        prob = validate_problem(spec)
        trace = policy_iteration(prob, 1.0 / 32, mode="MAX", tol=cfg["tol"])
        model = doob_transform(trace.final_generator, trace.final_pair)
        stationary_measures(trace.final_generator, model, trace.final_pair)
        resid = model.product_residual
        ok = ok and resid <= 1e-12
        rows.append({"problem": prob.name, "l1_gap": resid})
    return _entry(
        5,
        "invariant law equals the eigenfunction-weighted quasi-stationary law",
        ok,
        {"cases": rows},
        {"l1_gap": 1e-12},
    )


def _c6_survival_limit(cfg: dict) -> dict:
    rows = []
    ok = True
    for spec in (bm_interval(), drift_interval(1.0)):
        prob = validate_problem(spec)
        grid, gen, pair = _solve_const(prob, 1.0 / 32, tol=cfg["tol"])
        x0 = int(grid.nearest_index(np.array([[0.3]]))[0])
        rep = survival_asymptotics(gen, pair, t_list=(1.0, 5.0, 10.0), x0_index=x0)
        gap = abs(rep.rows[-1][1] - rep.limit_value)
        ok = ok and gap <= 1e-6
        rows.append({"problem": prob.name, "scaled_survival_t10": rep.rows[-1][1], "limit": rep.limit_value, "gap": gap})

    prob = validate_problem(bm_interval())
    _, gen3, pair3 = _solve_const(prob, 0.25, tol=cfg["tol"])
    rep3 = survival_asymptotics(gen3, pair3, t_list=(1.0,), x0_index=1)
    exact = 0.5 * (1.0 + float(np.sqrt(2.0)))
    gap3 = abs(rep3.limit_value - exact)
    ok = ok and gap3 <= 1e-10
    return _entry(
        6,
        "scaled survival converges to the eigen-predicted limit",
        ok,
        {"cases": rows, "three_node_limit": rep3.limit_value, "three_node_gap": gap3},
        {"gap_t10": 1e-6, "three_node_gap": 1e-10},
    )


def _c7_quadratic_form(cfg: dict) -> dict:
    rows = []
    ok = True
    for spec in (bm_interval(), drift_interval(1.0)):
        prob = validate_problem(spec)
        rel = {}
        for k in (64, 128):
            grid, gen, pair = _solve_const(prob, 1.0 / k, tol=cfg["tol"])
            mu, _ = stationary_measures(gen, doob_transform(gen, pair), pair)
            _, rel_err = rayleigh_identity(grid, prob, np.log(pair.psi), mu, pair.lam)
            rel[k] = rel_err
        ok = ok and rel[64] <= 0.05 and rel[128] < rel[64]
        rows.append({"problem": prob.name, "rel_err_h64": rel[64], "rel_err_h128": rel[128]})
    return _entry(
        7,
        "gradient quadratic form reproduces the eigenvalue and improves with h",
        ok,
        {"cases": rows},
        {"rel_err_h64": 0.05, "h128_smaller": True},
    )


def _c8_policy_iteration(cfg: dict) -> dict:
    prob = validate_problem(bang_bang())
    trace = policy_iteration(prob, 0.25, mode="MAX", tol=cfg["tol"])
    lams = [s.lam for s in trace.steps]
    monotone = all(lams[i + 1] <= lams[i] + 1e-12 for i in range(len(lams) - 1))
    best, _, count = enumerate_policies(prob, 0.25, tol=cfg["tol"])
    agree = abs(trace.lam - best)
    trace_min = policy_iteration(prob, 0.25, mode="MIN", tol=cfg["tol"])
    strict = trace_min.lam - trace.lam
    passed = monotone and agree <= 1e-10 and count == 128 and strict > 1e-10
    return _entry(
        8,
        "policy iteration is monotone and matches exhaustive enumeration",
        passed,
        {
            "lam_sequence": lams,
            "monotone": monotone,
            "enumeration_lam": best,
            "enumeration_count": count,
            "pi_vs_enum_gap": agree,
            "min_minus_max_mode": strict,
        },
        {"pi_vs_enum_gap": 1e-10, "count": 128, "strict_gap": 1e-10},
    )


def _c9_hjb_residual(cfg: dict) -> dict:
    prob = validate_problem(bang_bang())
    hs = [1.0 / 16, 1.0 / 32, 1.0 / 64]
    res = [hjb_residual(prob, h, mode="MAX", tol=cfg["tol"]) for h in hs]
    slope = float(np.polyfit(np.log(hs), np.log(res), 1)[0])
    c_bound = max(r / h for r, h in zip(res, hs))
    return _entry(
        9,
        "optimality-equation residual vanishes at first order",
        slope >= 0.9,
        {"h": hs, "residuals": res, "order": slope, "residual_over_h": c_bound},
        {"min_order": 0.9},
    )


def _c10_occupation_lp(cfg: dict) -> dict:
    t0 = time.perf_counter()
    check = occupation_check(validate_problem(bang_bang()), 1.0 / 8, tol=cfg["tol"])
    lam = check.lam_star
    rel = abs(check.sol.value - lam) / lam
    tp_gap = abs(check.transform.objective - lam)
    runtime_ok = (time.perf_counter() - t0) < 120.0
    passed = rel <= 0.05 and tp_gap <= 1e-8 and check.structure["all_ok"] and runtime_ok
    return _entry(
        10,
        "occupation-measure program recovers the optimal rate and minimizer",
        passed,
        {
            "lp_value": check.sol.value,
            "lam_star": lam,
            "rel_gap": rel,
            "transform_point_gap": tp_gap,
            "transform_point_residual": check.transform.stationarity_residual,
            "n_variables": check.sol.lp.n_variables,
            "structure": check.structure,
            "runtime_ok": runtime_ok,
        },
        {"rel_gap": 0.05, "transform_point_gap": 1e-8, "structure": f"tv<={TV_TOL:g}, mass>={MASS_TOL:g}", "runtime_s": 120.0},
    )


def _c11_lyapunov(cfg: dict) -> dict:
    rows = []
    ok = True
    for spec in builtin_catalog():
        prob = validate_problem(spec)
        h = 1.0 / 64 if prob.dim == 1 else 1.0 / 32
        trace = policy_iteration(prob, h, mode="MAX", tol=cfg["tol"])
        cert = lyapunov_certificate(prob, h, trace.final_policy, tol=cfg["tol"])
        model = doob_transform(trace.final_generator, trace.final_pair)
        pointwise = cert.check(model.g_tilde)
        ok = ok and cert.rho > 0 and pointwise
        rows.append(
            {
                "problem": prob.name,
                "rho": cert.rho,
                "C": cert.C,
                "eps": cert.eps,
                "pointwise": pointwise,
                "ring_dominated": cert.ring_dominated,
            }
        )
    uni = verify_uniform_ergodicity(
        validate_problem(bang_bang()), 1.0 / 64, n_policies=10, seed=cfg["seed"], tol=cfg["tol"]
    )
    uniform_ok = uni["certificate"]["rho"] > 0
    policies_ok = uni["all_policies_hold"]
    return _entry(
        11,
        "drift certificates exist per policy, uniformly, and for random policies",
        ok and uniform_ok and policies_ok,
        {
            "per_problem": rows,
            "uniform_rho": uni["certificate"]["rho"],
            "uniform_eps_cut": uni["certificate"]["eps_cut"],
            "random_policy_slack_bound": uni["slack_bound_ch"],
            "random_policy_max_slack": max(p["slack_needed"] for p in uni["per_policy"]),
            "all_policies_hold": policies_ok,
        },
        {"rho": "positive", "random_policy_slack": "<= C*h"},
    )


def _c12_monte_carlo(cfg: dict) -> dict:
    t0 = time.perf_counter()
    prob = validate_problem(bm_interval())
    grid, gen, pair = _solve_const(prob, 1.0 / 32, tol=cfg["tol"])
    mu, _ = stationary_measures(gen, doob_transform(gen, pair), pair)
    # The reweighted indicator, the middle half of the box, is 0.25 < x < 0.75 here.
    _, est, occ, tv, gir = monte_carlo_check(
        prob, grid, 0, pair, mu, [0.5], cfg["seed"],
        killed=(cfg["mc_dt"], 1.6, cfg["mc_paths"]),
        fit_window=(0.5, 1.5),
        confined=(cfg["q_dt"], cfg["q_T"], cfg["q_paths"]),
        reweight=(1.0, 50_000, 10_000, cfg["mc_dt"], cfg["mc_dt"]),
    )
    beta_tol = max(3.0 * est.stderr, 0.05 * PI_HALF)
    beta_ok = abs(est.rate - PI_HALF) <= beta_tol
    runtime_ok = (time.perf_counter() - t0) < 120.0
    passed = beta_ok and tv <= 0.05 and gir["overlap"] and runtime_ok
    return _entry(
        12,
        "Monte Carlo agrees: exit rate, confined occupancy, path-change identity",
        passed,
        {
            "beta_hat": est.rate,
            "beta_stderr": est.stderr,
            "beta_abs_err": abs(est.rate - PI_HALF),
            "beta_tol": beta_tol,
            "occupancy_tv": tv,
            "projections": occ.projections,
            "girsanov_lhs": gir["lhs"],
            "girsanov_rhs": gir["rhs"],
            "girsanov_overlap": gir["overlap"],
            "runtime_ok": runtime_ok,
        },
        {"beta": "max(3*stderr, 5%)", "occupancy_tv": 0.05, "runtime_s": 120.0},
    )


def _c13_conditioned_convergence(cfg: dict) -> dict:
    rows = []
    ok = True
    for spec in (bm_interval(), drift_interval(1.0)):
        prob = validate_problem(spec)
        grid, gen, pair = _solve_const(prob, 1.0 / 32, tol=cfg["tol"])
        x0 = int(grid.nearest_index(np.array([[0.3]]))[0])
        rep = survival_asymptotics(
            gen, pair, t_list=np.linspace(0.2, 1.0, 17), x0_index=x0
        )
        rel_gap = abs(rep.tv_fit_rate - rep.spectral_gap) / rep.spectral_gap
        ok = ok and rep.tv_fit_r2 >= 0.99 and rel_gap <= 0.10
        rows.append(
            {
                "problem": prob.name,
                "fit_rate": rep.tv_fit_rate,
                "spectral_gap": rep.spectral_gap,
                "rel_gap": rel_gap,
                "r2": rep.tv_fit_r2,
            }
        )
    return _entry(
        13,
        "conditioned law converges to the quasi-stationary law at the spectral gap",
        ok,
        {"cases": rows},
        {"r2": 0.99, "rate_rel_gap": 0.10},
    )


def four_representations(prob, h: float, tol: float = 1e-10) -> dict:
    """Four independent evaluations of the optimal exit rate.

    (i) half the gradient quadratic form of the optimal log-eigenfunction
    under the conditioned invariant law; (ii) the minimum of that form over a
    family of solved policies; (iii) the eigenfunction-form ratio under the
    quasi-stationary law; (iv) the family minimum of that ratio.
    """
    grid = build_grid(prob, h)
    sig = prob.sigma(grid.nodes)

    def both_forms(gen, pair):
        mu, alpha = stationary_measures(gen, doob_transform(gen, pair), pair)
        v_log, _ = rayleigh_identity(grid, prob, np.log(pair.psi), mu, pair.lam)
        g_psi = discrete_gradient(grid, pair.psi, extension="zero")
        num = float(np.sum(np.sum((sig * g_psi) ** 2, axis=1) / pair.psi * alpha))
        den = 2.0 * float(np.sum(pair.psi * alpha))
        return v_log, num / den

    traces = [policy_iteration(prob, h, mode="MAX", tol=tol, grid=grid)]
    if prob.n_actions > 1:  # with one action MIN repeats MAX
        traces.append(policy_iteration(prob, h, mode="MIN", tol=tol, grid=grid))
    # The traces already hold each optimum's generator and pair at this tol;
    # each constant-action policy not among them is solved here.
    family = [(tr.final_policy, tr.final_generator, tr.final_pair) for tr in traces]
    gens = action_generators(grid, prob)
    family += [(np.full(grid.n, u, dtype=int), gens[u], None) for u in range(prob.n_actions)]

    seen = set()
    log_vals = []
    psi_vals = []
    for pol, gen, pair in family:
        key = tuple(int(v) for v in pol)
        if key in seen:
            continue
        seen.add(key)
        if pair is None:
            pair = principal_eigenpair(gen, tol=tol)
        v_log, v_psi = both_forms(gen, pair)
        log_vals.append(v_log)
        psi_vals.append(v_psi)

    for form, vals in (("log-gradient", log_vals), ("eigenfunction-ratio", psi_vals)):
        if min(vals) == 0.0:
            raise ExitRateError(f"the {form} form vanishes at h={h:g}; the representations need a finer mesh")
    values = [log_vals[0], min(log_vals), psi_vals[0], min(psi_vals)]
    pairwise = max(
        abs(a - b) / min(abs(a), abs(b)) for i, a in enumerate(values) for b in values[i + 1 :]
    )
    return {
        "values": values,
        "max_pairwise_rel_diff": pairwise,
        "lam_star": traces[0].lam,
        "n_policies": len(log_vals),
    }


def _c14_representations(cfg: dict) -> dict:
    rows = []
    ok = True
    for spec in (bm_interval(), bang_bang()):
        prob = validate_problem(spec)
        rep = four_representations(prob, 1.0 / 64, tol=cfg["tol"])
        ok = ok and rep["max_pairwise_rel_diff"] <= 0.05
        rows.append({"problem": prob.name, **rep})
    return _entry(
        14,
        "four expressions for the optimal rate agree pairwise",
        ok,
        {"cases": rows},
        {"max_pairwise_rel_diff": 0.05},
    )


def _c15_determinism(cfg: dict) -> dict:
    digests = []
    saved = os.environ.get(THREADS_ENV)
    try:
        for workers in (1, 8):
            os.environ[THREADS_ENV] = str(workers)
            prob = validate_problem(bm_interval())
            ens = simulate_killed(prob, 0, [0.5], dt=1e-3, T=0.5, n_paths=65536, seed=cfg["seed"])
            best, pol, _ = enumerate_policies(validate_problem(bang_bang()), 0.25, tol=cfg["tol"])
            blob = hashlib.sha256()
            for arr in (ens.exit_times, ens.censored, ens.terminal_states, np.float64(best), pol.astype(np.int64)):
                blob.update(arr.tobytes())
            digests.append(blob.hexdigest())
    finally:
        if saved is None:
            os.environ.pop(THREADS_ENV, None)
        else:
            os.environ[THREADS_ENV] = saved
    return _entry(
        15,
        "results are bit-identical across worker counts",
        digests[0] == digests[1],
        {"digest_1_worker": digests[0], "digest_8_workers": digests[1]},
        {"digests": "equal"},
    )


_CRITERIA: list[Callable[[dict], dict]] = [
    _c1_interval_eigenvalue,
    _c2_drift_shift,
    _c3_square_eigenvalue,
    _c4_exact_conjugation,
    _c5_product_identity,
    _c6_survival_limit,
    _c7_quadratic_form,
    _c8_policy_iteration,
    _c9_hjb_residual,
    _c10_occupation_lp,
    _c11_lyapunov,
    _c12_monte_carlo,
    _c13_conditioned_convergence,
    _c14_representations,
    _c15_determinism,
]


def run_acceptance(seed: int = DEFAULT_SEED, out_dir: str | None = None, echo: bool = False) -> dict:
    """Run all acceptance criteria; optionally write the JSON report."""

    cfg = {"seed": int(seed), **MC_SETTINGS, "tol": TOL}
    entries = []
    for fn in _CRITERIA:
        entry = fn(cfg)
        entries.append(entry)
        if echo:
            status = "PASS" if entry["passed"] else "FAIL"
            print(f"criterion {entry['id']:>2}: {status}  {entry['title']}", flush=True)
    report = {
        "package_version": __version__,
        "seed": cfg["seed"],
        "config": cfg,
        "criteria": entries,
        "all_passed": bool(all(e["passed"] for e in entries)),
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        dump_json(jsonable(report), os.path.join(out_dir, "verify_report.json"))
    return report
