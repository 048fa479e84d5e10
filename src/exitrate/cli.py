"""Command-line front end.

Subcommands: solve, optimize, qprocess, variational, simulate, verify,
representations.  Each declares only the flags it reads (see SUBCOMMANDS).
Every subcommand but verify is a handler on one problem that returns its
report and its files; run_on_problem resolves the problem, embeds the
resolved flags in the report, the seed among them where the subcommand takes
one, so a run can be replayed exactly, and emits the report before the files.
Exit codes: 0 success, 1 usage or runtime error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys

import numpy as np

from ._util import dump_json, jsonable, philox, write_csv
from .control import policy_iteration, export_trace_csv
from .eigen import principal_eigenpair
from .errors import ExitRateError
from .grid import Grid, assemble_generator, build_grid, default_spacing
from .mc import check_confined_start, export_ensemble_csv, monte_carlo_check
from .problems import CATALOG, load_problem, problem_by_name, validate_problem
from .qprocess import (
    check_dense,
    doob_transform,
    girsanov_check,
    lyapunov_certificate,
    rayleigh_identity,
    stationary_measures,
    survival_asymptotics,
)
from .variational import export_mps, export_solution_csv, occupation_check
from .verify import DEFAULT_SEED, four_representations, run_acceptance


def _params(args: argparse.Namespace) -> dict:
    """--param KEY=VAL overrides as finite floats, in the order given; a problem file takes none."""
    keys = list(inspect.signature(CATALOG[args.problem]).parameters) if args.problem in CATALOG else []
    params = {}
    for kv in args.param or []:
        key, _, val = kv.partition("=")
        try:
            params[key] = float(val)
        except ValueError:
            key = None  # not a number: fails the check below
        if key not in keys or not np.isfinite(params[key]):
            raise ExitRateError(f"--param {kv!r} needs KEY=VAL, VAL a finite number; {args.problem} takes {', '.join(keys) or 'none'}")
    return params


def run_on_problem(handler, args: argparse.Namespace) -> int:
    """Resolve the problem, run a subcommand handler on it and emit what it returns.

    The report embeds the subcommand's flags as resolved under "config", with
    --out left out and --param as "params" only when given.  It is printed or,
    given --out, written to <out>/<command>_report.json before the handler's files.
    """
    params = _params(args)
    spec = load_problem(args.problem) if args.problem.endswith(".json") else problem_by_name(args.problem, **params)
    prob = validate_problem(spec)
    h = args.h if args.h is not None else default_spacing(prob)
    report, files = handler(args, prob, h)
    config = {key: getattr(args, key) for key in args.flags if key not in ("problem", "param", "h", "out")}
    config.update(problem=prob.name, h=h)
    if params:
        config["params"] = params
    report = jsonable({"config": config, **report})
    if not args.out:
        print(json.dumps(report, sort_keys=True, indent=2), flush=True)
        return 0
    os.makedirs(args.out, exist_ok=True)
    dump_json(report, os.path.join(args.out, f"{args.command}_report.json"))
    for name, write in files.items():
        write(os.path.join(args.out, name))
    return 0


def _x0_point(args, prob) -> list[float]:
    """--x0 as prob.dim coordinates strictly inside the box; the centre by default."""
    if args.x0 is None:
        return [0.5 * (lo + hi) for lo, hi in prob.bounds]
    try:
        vals = [float(s) for s in args.x0.split(",")]
    except ValueError:
        raise ExitRateError(f"--x0 {args.x0} needs {prob.dim} comma-separated numbers") from None
    if len(vals) != prob.dim or not all(lo < v < hi for v, (lo, hi) in zip(vals, prob.bounds)):
        box = " x ".join(f"({lo:g}, {hi:g})" for lo, hi in prob.bounds)
        raise ExitRateError(f"--x0 {args.x0} needs {prob.dim} coordinates strictly inside the box {box}")
    return vals


def _per_node(grid: Grid, columns: dict[str, np.ndarray]):
    """A CSV file writer: one row per node, its coordinates x1.. then the named columns."""
    header = [f"x{k + 1}" for k in range(grid.d)] + list(columns)
    return lambda path: write_csv(path, header, np.column_stack([grid.nodes, *columns.values()]))


def cmd_solve(args: argparse.Namespace, prob, h: float):
    if not 0 <= args.action < prob.n_actions:
        raise ExitRateError(f"--action {args.action} needs an action index of {prob.name} in 0..{prob.n_actions - 1}")
    grid = build_grid(prob, h)
    gen = assemble_generator(grid, prob, args.action)
    pair = principal_eigenpair(gen, tol=args.tol)
    report = {
        "lam": pair.lam,
        "cw_interval": list(pair.cw_interval),
        "residual": pair.residual,
        "residual_left": pair.residual_left,
        "iterations": pair.iterations,
        "n_nodes": grid.n,
    }
    return report, {"eigenpair.csv": _per_node(grid, {"psi": pair.psi, "phi": pair.phi})}


def cmd_optimize(args: argparse.Namespace, prob, h: float):
    trace = policy_iteration(prob, h, mode=args.mode, tol=args.tol)
    report = {
        "lam": trace.lam,
        "sweeps": len(trace.steps),
        "converged": trace.converged,
        "lam_sequence": [s.lam for s in trace.steps],
        "changes_per_sweep": [s.n_changes for s in trace.steps],
        "cw_interval": list(trace.final_pair.cw_interval),
        "n_nodes": trace.grid.n,
    }
    return report, {
        "trace.csv": lambda path: export_trace_csv(trace, path),
        "eigenpair.csv": _per_node(trace.grid, {"psi": trace.final_pair.psi, "phi": trace.final_pair.phi}),
    }


def cmd_qprocess(args: argparse.Namespace, prob, h: float):
    x0_point = _x0_point(args, prob)
    grid = build_grid(prob, h)
    # girsanov_check's dense exponentials cap n: refuse before solving anything.
    check_dense(grid.n)
    trace = policy_iteration(prob, h, mode=args.mode, tol=args.tol, grid=grid)
    gen, pair = trace.final_generator, trace.final_pair
    model = doob_transform(gen, pair)
    mu, alpha = stationary_measures(gen, model, pair)
    _, rayleigh_rel = rayleigh_identity(grid, prob, trace.psi_log, mu, pair.lam)
    rng = philox(args.seed, 0xC11)
    _, _, sup_gap = girsanov_check(gen, pair, 1.0, rng.random((3, grid.n)).T)
    x0 = int(grid.nearest_index(np.array([x0_point]))[0])
    surv = survival_asymptotics(gen, pair, t_list=(1.0, 5.0, 10.0), x0_index=x0)
    cert = lyapunov_certificate(prob, h, trace.final_policy, tol=args.tol)
    report = {
        "lam": pair.lam,
        "row_sum_residual": model.row_sum_residual,
        "product_residual": model.product_residual,
        "conjugation_sup_gap": sup_gap,
        "rayleigh_rel_err": rayleigh_rel,
        "survival": {
            "x0_index": x0,
            "rows": [list(r) for r in surv.rows],
            "limit": surv.limit_value,
            "tv_fit_rate": surv.tv_fit_rate,
            "spectral_gap": surv.spectral_gap,
        },
        "certificate": {"rho": cert.rho, "C": cert.C, "eps": cert.eps},
    }
    columns = {"mu_tilde": mu, "alpha": alpha, "psi": pair.psi, "phi": pair.phi, "V": cert.V}
    return report, {"measures.csv": _per_node(grid, columns)}


def cmd_variational(args: argparse.Namespace, prob, h: float):
    check = occupation_check(prob, h, tol=args.tol)
    sol, lp = check.sol, check.sol.lp
    report = {
        "lp_value": sol.value,
        "lam_star": check.lam_star,
        "rel_gap": abs(sol.value - check.lam_star) / abs(check.lam_star),
        "transform_point_objective": check.transform.objective,
        "n_variables": lp.n_variables,
        "n_wpoints": len(lp.w_grid),
        "iterations": sol.iterations,
        "feasibility_residual": sol.feasibility_residual,
        "structure": check.structure,
    }
    return report, {
        "occupation.csv": lambda path: export_solution_csv(sol, path),
        "occupation.mps": lambda path: export_mps(lp, path),
    }


def cmd_simulate(args: argparse.Namespace, prob, h: float):
    x0_point = _x0_point(args, prob)
    grid = build_grid(prob, h)
    check_confined_start(grid, x0_point, what="--x0 " + ",".join(f"{v:g}" for v in x0_point))
    # One action: one sweep, with principal_eigenpair's bits; policy 0 keeps the constant-drift path.
    trace = policy_iteration(prob, h, mode=args.mode, tol=args.tol, grid=grid)
    gen, pair = trace.final_generator, trace.final_pair
    policy = 0 if prob.n_actions == 1 else trace.final_policy
    mu, _ = stationary_measures(gen, doob_transform(gen, pair), pair)
    ens, est, occ, tv, gir = monte_carlo_check(
        prob, grid, policy, pair, mu, x0_point, args.seed,
        killed=(args.dt, args.T, args.paths),
        fit_window=(0.25 * args.T, 0.75 * args.T),
        confined=(args.dt, args.T, max(4, args.paths // 2048)),
        reweight=(min(1.0, args.T), args.paths // 2, args.paths // 5, args.dt, args.dt),
    )
    report = {
        "lam": pair.lam,
        "beta_hat": est.rate,
        "beta_stderr": est.stderr,
        "beta_abs_err": abs(est.rate - pair.lam),
        "occupancy_tv": tv,
        "killed_qpaths": occ.killed,
        "projections": occ.projections,
        "girsanov": {k: gir[k] for k in ("lhs", "rhs", "overlap")},
    }
    return report, {
        "ensemble.csv": lambda path: export_ensemble_csv(ens, path),
        "occupancy.csv": _per_node(grid, {"mass": occ.histogram}),
    }


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_acceptance(seed=args.seed, out_dir=args.out, echo=True)
    print("all criteria passed" if report["all_passed"] else "FAILURES present", flush=True)
    return 0 if report["all_passed"] else 2


def cmd_representations(args: argparse.Namespace, prob, h: float):
    rep = four_representations(prob, h, tol=args.tol)
    vals = rep["values"]
    labels = [
        "log_gradient_form",
        "log_gradient_family_min",
        "eigenfunction_ratio",
        "eigenfunction_ratio_family_min",
    ]
    report = {
        "values": dict(zip(labels, vals)),
        "max_pairwise_rel_diff": rep["max_pairwise_rel_diff"],
        "lam_star": rep["lam_star"],
        "n_policies": rep["n_policies"],
    }
    return report, {}


# Every flag a subcommand can take: its option string is "--" + the key.
FLAGS: dict[str, dict] = {
    "problem": dict(default="bm-interval", help="catalog name or problem JSON path"),
    "param": dict(action="append", metavar="KEY=VAL", help="numeric problem parameter override"),
    "h": dict(type=float, default=None, help="lattice spacing (default: problem-dependent)"),
    "mode": dict(choices=("MAX", "MIN"), default="MAX"),
    "seed": dict(type=int, default=DEFAULT_SEED),
    "tol": dict(type=float, default=1e-10),
    "out": dict(default=None, help="directory for the JSON report and CSV artifacts"),
    "x0": dict(default=None, help="comma-separated start point"),
    "action": dict(type=int, default=0, help="fixed action index"),
    "dt": dict(type=float, default=1e-4),
    "T": dict(type=float, default=2.0),
    "paths": dict(type=int, default=100_000),
}

_PROBLEM = ("problem", "param", "h", "tol", "out")

# name -> (handler, one-line help, the flags it reads).
SUBCOMMANDS: dict[str, tuple] = {
    "solve": (cmd_solve, "eigenpair of one fixed action", _PROBLEM + ("action",)),
    "optimize": (cmd_optimize, "policy iteration", _PROBLEM + ("mode",)),
    "qprocess": (cmd_qprocess, "conditioned process of the optimal policy", _PROBLEM + ("mode", "seed", "x0")),
    "variational": (cmd_variational, "occupation-measure LP cross-check", _PROBLEM),
    "simulate": (
        cmd_simulate,
        "Monte Carlo rate, occupancy and reweighting",
        _PROBLEM + ("mode", "seed", "x0", "dt", "T", "paths"),
    ),
    "representations": (cmd_representations, "four expressions of the optimal rate", _PROBLEM),
    "verify": (cmd_verify, "run the full acceptance suite", ("seed", "out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exitrate",
        description="Optimal exit rates of controlled diffusions: eigenvalue "
        "solvers, conditioned-process construction, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key in flags:
            p.add_argument("--" + key, **FLAGS[key])
        p.set_defaults(run=functools.partial(run_on_problem, fn) if "problem" in flags else fn, flags=flags)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ExitRateError, FileNotFoundError, KeyError, ValueError) as exc:
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        print(f"error: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
