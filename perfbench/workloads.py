"""The benchmark's three workloads: their operations, inputs and output checks.

An operation is one closed-loop unit of work: a few calls into exitrate's
public functions followed by the acceptance battery's own check on what they
returned.  Every call goes through a module attribute (``eigen.principal_eigenpair``,
``mc.simulate_killed``) so that the tracer can wrap it where it is looked up.

Inputs come from the workload seed only: the Monte Carlo streams, the start
node of the survival table, the random policies of the uniform-ergodicity
check and the order in which a pass runs the operations.  The mesh sizes,
path counts and time steps are fixed by the workload definition.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from exitrate import control, eigen, grid, mc, problems, qprocess, variational

PI_HALF = math.pi**2 / 2.0

# A Monte Carlo rate further than this share from its reference, or an
# occupancy further than this in total variation, is wrong rather than
# unlucky: the battery's tolerance decides `failed`, this bound `correct`.
MC_GROSS = 0.25


class Context:
    """Per-operation bookkeeping: phase timers, work counts and check results.

    A phase is named after the exitrate entry point the benchmark called, not
    after what that calls: lyapunov_certificate runs eigensolves but counts as
    "conditioned".
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.phases: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.failures: list[str] = []
        self.wrong: list[str] = []
        self.notes: list[str] = []

    @contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] += time.perf_counter() - start

    def check(self, ok: bool, what: str, sane: bool | None = None) -> None:
        """Record a battery check; `sane` is the gross bound for sampled results."""
        if not ok:
            self.failures.append(what)
        if not (ok if sane is None else sane):
            self.wrong.append(what)


@dataclass(frozen=True)
class Op:
    id: str
    run: Callable[[Context], None]
    seed: int


def _derive(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1, np.uint32)[0])


def catalog() -> dict[str, problems.ValidatedProblem]:
    """Every problem the workloads use, validated once."""
    specs = [
        problems.bm_interval(),
        problems.bang_bang(),
        problems.rect_2d(),
        *(problems.drift_interval(c) for c in (0.5, 1.0, 2.0)),
    ]
    out = {}
    for spec in specs:
        key = spec.name if spec.name != "drift-interval" else f"drift-interval-c{spec.actions[0]}"
        out[key] = problems.validate_problem(spec)
    return out


# ---------------------------------------------------------------- shared steps


def _const(prob, h: float, action: int = 0):
    g = grid.build_grid(prob, h)
    gen = grid.assemble_generator(g, prob, action)
    return g, gen, eigen.principal_eigenpair(gen)


def _check_bracket(ctx: Context, pair, label: str) -> None:
    lo, hi = pair.cw_interval
    ctx.check(lo <= pair.lam <= hi, f"{label}: lambda {pair.lam!r} outside its CW bracket [{lo!r}, {hi!r}]")


def _check_pi(ctx: Context, trace, label: str) -> None:
    lams = [s.lam for s in trace.steps]
    sign = 1.0 if trace.mode == "MAX" else -1.0
    monotone = all(sign * (lams[i + 1] - lams[i]) <= 1e-12 for i in range(len(lams) - 1))
    ctx.check(trace.converged and monotone, f"{label}: policy iteration not monotone/converged: {lams}")
    _check_bracket(ctx, trace.final_pair, label)


def _conditioned(ctx: Context, gen, pair, label: str):
    with ctx.phase("conditioned"):
        model = qprocess.doob_transform(gen, pair)
        mu, _ = qprocess.stationary_measures(gen, model, pair)
    ctx.check(
        model.product_residual <= 1e-12,
        f"{label}: product_residual {model.product_residual:.3e} > 1e-12",
    )
    return model, mu


def _certificate(ctx: Context, prob, h: float, policy, model, label: str) -> None:
    with ctx.phase("conditioned"):
        cert = qprocess.lyapunov_certificate(prob, h, policy)
        pointwise = cert.check(model.g_tilde)
    ctx.check(cert.rho > 0 and pointwise, f"{label}: certificate rho={cert.rho!r} pointwise={pointwise}")


def _pi(ctx: Context, prob, h: float, mode: str, g=None):
    with ctx.phase("optimize"):
        return control.policy_iteration(prob, h, mode=mode, grid=g)


def _rate_check(ctx: Context, est, ref: float, label: str) -> None:
    """Battery rule: rate within max(3 stderr, 5%) of its reference."""
    err = abs(est.rate - ref)
    tol = max(3.0 * est.stderr, 0.05 * ref)
    ctx.notes.append(f"{label}: rate {est.rate:.4f} +- {est.stderr:.4f} vs {ref:.4f}")
    ctx.check(
        err <= tol,
        f"{label}: rate {est.rate:.4f} vs {ref:.4f}, |err| {err:.4f} > {tol:.4f}",
        sane=err <= MC_GROSS * ref,
    )


def _path_steps(ens) -> int:
    return int(np.rint(ens.exit_times / ens.dt).sum())


def _tv(hist: np.ndarray, mu: np.ndarray) -> float:
    return 0.5 * float(np.abs(hist - mu).sum())


# ---------------------------------------------------------------- solve-ladder


def solve_ladder(probs: dict, seed: int) -> list[Op]:
    bm, bb, r2 = probs["bm-interval"], probs["bang-bang"], probs["rect-2d"]
    ops: list[Op] = []

    def add(op_id: str, fn: Callable[[Context], None]) -> None:
        ops.append(Op(op_id, fn, _derive(seed, len(ops))))

    def bm_ladder(ctx: Context) -> None:
        errs = {}
        for k in (64, 128, 256):
            with ctx.phase("optimize"):
                _, gen, pair = _const(bm, 1.0 / k)
            _check_bracket(ctx, pair, f"bm-interval h=1/{k}")
            errs[k] = abs(pair.lam - PI_HALF)
            model, _ = _conditioned(ctx, gen, pair, f"bm-interval h=1/{k}")
            if k == 64:
                _certificate(ctx, bm, 1.0 / k, 0, model, "bm-interval h=1/64")
        orders = [math.log2(errs[64] / errs[128]), math.log2(errs[128] / errs[256])]
        ctx.check(errs[256] <= 1e-3, f"bm-interval h=1/256: |lambda - pi^2/2| {errs[256]:.3e} > 1e-3")
        ctx.check(min(orders) >= 1.9, f"bm-interval: convergence orders {orders} < 1.9")

    add("eigen-bm-interval-h64-256", bm_ladder)

    for c in (0.5, 1.0, 2.0):
        prob = probs[f"drift-interval-c{c:g}"]

        def drift_op(ctx: Context, prob=prob, c=c) -> None:
            with ctx.phase("optimize"):
                _, gen, pair = _const(prob, 1.0 / 256)
            target = PI_HALF + 0.5 * c * c
            err = abs(pair.lam - target)
            ctx.check(err <= 5e-3, f"drift-interval c={c:g}: |lambda - target| {err:.3e} > 5e-3")
            _check_bracket(ctx, pair, f"drift-interval c={c:g}")
            _conditioned(ctx, gen, pair, f"drift-interval c={c:g}")

        add(f"eigen-drift-interval-c{c:g}-h256", drift_op)

    def rect_zero(ctx: Context) -> None:
        with ctx.phase("optimize"):
            _, gen, pair = _const(r2, 1.0 / 128, action=r2.actions.index("0"))
        err = abs(pair.lam - math.pi**2)
        ctx.check(err <= 5e-3, f"rect-2d action 0: |lambda - pi^2| {err:.3e} > 5e-3")
        _check_bracket(ctx, pair, "rect-2d action 0")
        _conditioned(ctx, gen, pair, "rect-2d action 0")

    add("eigen-rect-2d-a0-h128", rect_zero)

    for k in (32, 64, 128):

        def rect_pi(ctx: Context, k=k) -> None:
            label = f"rect-2d MAX h=1/{k}"
            tr = _pi(ctx, r2, 1.0 / k, "MAX")
            _check_pi(ctx, tr, label)
            model, _ = _conditioned(ctx, tr.final_generator, tr.final_pair, label)
            if k == 32:
                _certificate(ctx, r2, 1.0 / k, tr.final_policy, model, label)
                x0 = int(np.random.default_rng(ctx.seed).integers(tr.grid.n))
                with ctx.phase("conditioned"):
                    rep = qprocess.survival_asymptotics(
                        tr.final_generator, tr.final_pair, t_list=(1.0, 5.0, 10.0), x0_index=x0
                    )
                gap = abs(rep.rows[-1][1] - rep.limit_value)
                ctx.check(gap <= 1e-6, f"{label}: scaled survival at t=10 is {gap:.3e} from its limit")

        add(f"pi-rect-2d-h{k}", rect_pi)

    for k in (64, 256):

        def bb_pi(ctx: Context, k=k) -> None:
            g = grid.build_grid(bb, 1.0 / k)
            tr_max = _pi(ctx, bb, 1.0 / k, "MAX", g)
            tr_min = _pi(ctx, bb, 1.0 / k, "MIN", g)
            for tr in (tr_max, tr_min):
                label = f"bang-bang {tr.mode} h=1/{k}"
                _check_pi(ctx, tr, label)
                model, _ = _conditioned(ctx, tr.final_generator, tr.final_pair, label)
                if k == 64 and tr.mode == "MAX":
                    _certificate(ctx, bb, 1.0 / k, tr.final_policy, model, label)
            gap = tr_min.lam - tr_max.lam
            ctx.check(gap > 1e-10, f"bang-bang h=1/{k}: MIN - MAX = {gap!r} not > 1e-10")

        add(f"pi-bang-bang-h{k}", bb_pi)

    def bm_fine(ctx: Context) -> None:
        with ctx.phase("optimize"):
            _, gen, pair = _const(bm, 1.0 / 1024)
        err = abs(pair.lam - PI_HALF)
        ctx.check(err <= 1e-3, f"bm-interval h=1/1024: |lambda - pi^2/2| {err:.3e} > 1e-3")
        _check_bracket(ctx, pair, "bm-interval h=1/1024")
        _conditioned(ctx, gen, pair, "bm-interval h=1/1024")

    add("eigen-bm-interval-h1024", bm_fine)

    def bb_fine(ctx: Context) -> None:
        tr = _pi(ctx, bb, 1.0 / 1024, "MAX")
        _check_pi(ctx, tr, "bang-bang MAX h=1/1024")
        _conditioned(ctx, tr.final_generator, tr.final_pair, "bang-bang MAX h=1/1024")

    add("pi-bang-bang-max-h1024", bb_fine)

    def uniform(ctx: Context) -> None:
        with ctx.phase("conditioned"):
            rep = qprocess.verify_uniform_ergodicity(bb, 1.0 / 64, n_policies=10, seed=ctx.seed)
        rho = rep["certificate"]["rho"]
        ctx.check(rho > 0, f"uniform certificate rho={rho!r}")
        ctx.check(rep["all_policies_hold"], "uniform ergodicity: a random policy needs more than C*h slack")

    add("uniform-ergodicity-bang-bang-h64", uniform)
    return ops


# ---------------------------------------------------------------- lp-enum


def lp_enum(probs: dict, seed: int) -> list[Op]:
    bb, r2 = probs["bang-bang"], probs["rect-2d"]
    ops: list[Op] = []

    def add(op_id: str, fn: Callable[[Context], None]) -> None:
        ops.append(Op(op_id, fn, _derive(seed, len(ops))))

    for prob, k in ((bb, 8), (bb, 16), (bb, 32), (bb, 64), (r2, 4)):

        def lp_op(ctx: Context, prob=prob, k=k) -> None:
            label = f"{prob.name} LP h=1/{k}"
            h = 1.0 / k
            g = grid.build_grid(prob, h)
            tr_max = _pi(ctx, prob, h, "MAX", g)
            tr_min = _pi(ctx, prob, h, "MIN", g)
            with ctx.phase("lp"):
                cands = [
                    variational.candidate_from_trace("stay", tr_max),
                    variational.candidate_from_trace("leave", tr_min),
                ]
                lp = variational.build_occupation_lp(g, prob, variational.build_w_grid(g, cands), cands)
                sol = variational.solve_lp(lp)
                tp = variational.transform_point(lp, 0, tr_max.final_policy)
            _, mu = _conditioned(ctx, tr_max.final_generator, tr_max.final_pair, label)
            with ctx.phase("lp"):
                structure = variational.verify_minimizer_structure(sol, mu, tr_max.final_policy, candidate=0)
            rel = abs(sol.value - tr_max.lam) / tr_max.lam
            tp_gap = abs(tp.objective - tr_max.lam)
            ctx.check(rel <= 0.05, f"{label}: LP value {sol.value!r} is {rel:.3e} from lambda* {tr_max.lam!r}")
            ctx.check(tp_gap <= 1e-8, f"{label}: transform_point gap {tp_gap:.3e} > 1e-8")
            ctx.notes.append(
                f"{label}: {lp.n_variables} variables, {sol.iterations} pivots, "
                f"minimizer structure all_ok={structure['all_ok']}"
            )

        add(f"lp-{prob.name}-h{k}", lp_op)

    for h, label in ((0.25, "h1/4"), (2.0 / 11.0, "h2/11")):

        def enum_op(ctx: Context, h=h) -> None:
            with ctx.phase("enumerate"):
                best, _, count = control.enumerate_policies(bb, h)
            tr = _pi(ctx, bb, h, "MAX")
            _check_pi(ctx, tr, f"bang-bang MAX h={h:g}")
            n = tr.grid.n
            ctx.check(count == 2**n, f"enumeration counted {count} policies, expected {2**n}")
            gap = abs(tr.lam - best)
            ctx.check(gap <= 1e-10, f"bang-bang h={h:g}: policy iteration is {gap:.3e} from enumeration")

        add(f"enum-bang-bang-{label.replace('/', '_')}", enum_op)
    return ops


# ---------------------------------------------------------------- mc-ensemble

def killed_bm(prob, dt: float, seed: int):
    """The bm-interval killed ensemble: 65,536 paths from x=0.5 up to T=1.6."""
    return mc.simulate_killed(prob, 0, [0.5], dt, 1.6, 65_536, seed)


def mc_ensemble(probs: dict, seed: int) -> list[Op]:
    bm, bb, r2 = probs["bm-interval"], probs["bang-bang"], probs["rect-2d"]
    ops: list[Op] = []

    def add(op_id: str, fn: Callable[[Context], None]) -> None:
        ops.append(Op(op_id, fn, _derive(seed, len(ops))))

    for dt in (1e-4, 1e-3):

        def killed_op(ctx: Context, dt=dt) -> None:
            with ctx.phase("killed"):
                ens = killed_bm(bm, dt, ctx.seed)
            ctx.counts["killed_path_steps"] += _path_steps(ens)
            est = mc.estimate_exit_rate(ens, fit_window=(0.5, 1.5))
            _rate_check(ctx, est, PI_HALF, f"bm-interval killed dt={dt:g}")

        add(f"killed-bm-interval-dt{dt:g}", killed_op)

    def killed_rect(ctx: Context) -> None:
        tr = _pi(ctx, r2, 1.0 / 32, "MAX")
        with ctx.phase("killed"):
            ens = mc.simulate_killed(r2, tr.final_policy, [0.5, 0.5], 1e-3, 0.7, 32_768, ctx.seed, grid=tr.grid)
        ctx.counts["killed_path_steps"] += _path_steps(ens)
        est = mc.estimate_exit_rate(ens, fit_window=(0.2, 0.6))
        _rate_check(ctx, est, tr.lam, "rect-2d killed dt=0.001")

    add("killed-rect-2d-policy-h32-dt0.001", killed_rect)

    def confined_bm(ctx: Context) -> None:
        with ctx.phase("optimize"):
            g, gen, pair = _const(bm, 1.0 / 32)
        _, mu = _conditioned(ctx, gen, pair, "bm-interval h=1/32")
        n_paths, dt, T = 32, 1e-3, 20.0
        with ctx.phase("confined"):
            occ = mc.simulate_qprocess(bm, g, 0, np.log(pair.psi), [0.5], dt, T, n_paths, ctx.seed)
        ctx.counts["confined_path_steps"] += n_paths * int(round(T / dt))
        tv = _tv(occ.histogram, mu)
        ctx.check(tv <= 0.05 and occ.killed == 0, f"bm-interval confined TV {tv:.4f} > 0.05", sane=tv <= MC_GROSS)

    add("confined-bm-interval-T20", confined_bm)

    def confined_rect(ctx: Context) -> None:
        tr = _pi(ctx, r2, 1.0 / 32, "MAX")
        _, mu = _conditioned(ctx, tr.final_generator, tr.final_pair, "rect-2d h=1/32")
        n_paths, dt, T = 32, 1e-3, 10.0
        with ctx.phase("confined"):
            occ = mc.simulate_qprocess(
                r2, tr.grid, tr.final_policy, tr.psi_log, [0.5, 0.5], dt, T, n_paths, ctx.seed
            )
        ctx.counts["confined_path_steps"] += n_paths * int(round(T / dt))
        tv = _tv(occ.histogram, mu)
        ctx.check(tv <= 0.05 and occ.killed == 0, f"rect-2d confined TV {tv:.4f} > 0.05", sane=tv <= MC_GROSS)

    add("confined-rect-2d-T10", confined_rect)

    def reweight(ctx: Context) -> None:
        with ctx.phase("optimize"):
            g, _, pair = _const(bm, 1.0 / 32)

        def middle(points: np.ndarray) -> np.ndarray:
            return ((points[:, 0] > 0.25) & (points[:, 0] < 0.75)).astype(float)

        with ctx.phase("reweight"):
            rep = mc.mc_girsanov_check(
                bm, g, 0, pair, middle, t=1.0, x0=[0.5],
                n_killed=16_384, n_qpaths=2_048, seed=ctx.seed, dt=1e-4, dt_q=1e-3,
            )
        # The 95% intervals have half-widths near 2 stderr, so three times
        # their sum is a miss of about 6 stderr: wrong, not unlucky.
        halves = (rep["lhs_ci"][1] - rep["lhs_ci"][0] + rep["rhs_ci"][1] - rep["rhs_ci"][0]) / 2.0
        ctx.check(
            rep["overlap"],
            f"reweighting CIs do not overlap: {rep['lhs_ci']} vs {rep['rhs_ci']}",
            sane=abs(rep["lhs"] - rep["rhs"]) <= 3.0 * halves,
        )

    add("reweight-bm-interval", reweight)

    def ctmc(ctx: Context) -> None:
        tr = _pi(ctx, bb, 1.0 / 32, "MAX")
        x0 = int(tr.grid.nearest_index(np.array([[0.0]]))[0])
        n_paths, T = 4_096, 2.5
        ens = mc.simulate_ctmc(tr.final_generator, x0, T, ctx.seed, n_paths)
        as_paths = mc.TrajectoryEnsemble(
            n_paths=n_paths, dt=0.0, horizon=T, exit_times=ens.exit_times, censored=ens.censored,
            terminal_states=np.zeros((n_paths, 1)), seed=ctx.seed, x0=np.zeros(1),
        )
        est = mc.estimate_exit_rate(as_paths, fit_window=(0.5, 2.0))
        _rate_check(ctx, est, tr.lam, "bang-bang chain h=1/32")

    add("ctmc-bang-bang-h32", ctmc)
    return ops


WORKLOADS: dict[str, Callable[[dict, int], list[Op]]] = {
    "solve-ladder": solve_ladder,
    "mc-ensemble": mc_ensemble,
    "lp-enum": lp_enum,
}


# ---------------------------------------------------------------- determinism probes
# Run in the traced run at EXITRATE_THREADS=1 and =2; the digests must match
# (the rule of acceptance criterion 15) and the time ratio is the map speed-up.


def _killed_digest(probs: dict, ops: list[Op]) -> str:
    op = next(o for o in ops if o.id == "killed-bm-interval-dt0.001")
    ens = killed_bm(probs["bm-interval"], 1e-3, op.seed)
    blob = hashlib.sha256()
    for arr in (ens.exit_times, ens.censored, ens.terminal_states):
        blob.update(arr.tobytes())
    return blob.hexdigest()


def _enumeration_digest(probs: dict, ops: list[Op]) -> str:
    best, policy, _ = control.enumerate_policies(probs["bang-bang"], 0.25)
    blob = hashlib.sha256()
    blob.update(np.float64(best).tobytes())
    blob.update(policy.astype(np.int64).tobytes())
    return blob.hexdigest()


DETERMINISM: dict[str, Callable[[dict, list[Op]], str]] = {
    "mc-ensemble": _killed_digest,
    "lp-enum": _enumeration_digest,
}
