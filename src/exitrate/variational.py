"""Occupation-measure linear program for the optimal exit rate.

The decay rate of the best-surviving policy equals the smallest drift-change
cost among stationary controlled chains that never exit.  This module builds
that statement as a finite LP: one nonnegative variable per (node, action,
drift-tilt) triple, one stationarity row per node, one normalization row.

A drift tilt is indexed by a candidate log-eigenfunction and a scale s.  It
multiplies each in-domain jump rate of the chosen action's generator row by
exp(s * (psi(y) - psi(x))) and redirects boundary flux to zero, so the tilted
row is conservative.  Its cost is the exact relative-entropy rate of the tilt,
which for the matched candidate at s=1 reproduces the conditioned chain row
for row and prices it at the eigenvalue.  Each variable also carries the
drift vector w whose quadratic cost 0.5*|sigma^T w|^2 equals that entropy
rate, so the objective reads as the classical control cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .control import PolicyIterationTrace
from .errors import TooLarge
from .grid import Generator, Grid, assemble_generator, discrete_gradient
from .qprocess import null_vector
from .simplex import SimplexResult, solve_standard_lp
from ._util import write_csv

MAX_LP_VARIABLES = 50_000
MAX_W_POINTS = 16


@dataclass(frozen=True)
class Candidate:
    """A solved policy whose log-eigenfunction seeds drift tilts."""

    name: str
    policy: np.ndarray
    psi_log: np.ndarray
    lam: float
    generator: Generator
    grad: np.ndarray


def candidate_from_trace(name: str, trace: PolicyIterationTrace) -> Candidate:
    grid = trace.grid
    psi_log = trace.psi_log
    return Candidate(
        name=name,
        policy=np.asarray(trace.final_policy, dtype=np.int64),
        psi_log=psi_log,
        lam=trace.final_pair.lam,
        generator=trace.final_generator,
        grad=discrete_gradient(grid, psi_log, extension="log-zero"),
    )


@dataclass(frozen=True)
class WPoint:
    """One point of the per-node drift grid.

    candidate is None for the untilted base row (w = 0); otherwise the tilt
    follows scale * gradient of that candidate's log-eigenfunction.
    """

    label: str
    candidate: Optional[int]
    scale: float


def build_w_grid(
    grid: Grid,
    candidates: Sequence[Candidate],
    scales: Sequence[float] = (1.0, 0.5, 2.0),
) -> tuple[WPoint, ...]:
    """Zero plus one point per (candidate, scale); small by design."""

    for cand in candidates:
        if cand.psi_log.shape != (grid.n,):
            raise ValueError("candidate eigenfunction does not match the grid")
    points = [WPoint(label="0", candidate=None, scale=0.0)]
    for ci, cand in enumerate(candidates):
        for s in scales:
            points.append(WPoint(label=f"{cand.name}:s={s:g}", candidate=ci, scale=float(s)))
    if len(points) > MAX_W_POINTS:
        raise TooLarge(f"w-grid has {len(points)} points, cap is {MAX_W_POINTS}")
    return tuple(points)


@dataclass(frozen=True)
class LPVariable:
    node: int
    action: int
    wpoint: int
    cost: float
    nominal_w: np.ndarray
    effective_w: np.ndarray
    row_cols: np.ndarray
    row_vals: np.ndarray


@dataclass
class OccupationLP:
    grid: Grid
    w_grid: tuple[WPoint, ...]
    candidates: tuple[Candidate, ...]
    variables: list[LPVariable]
    a_eq: np.ndarray
    b_eq: np.ndarray
    c: np.ndarray
    row_scale: float
    index: dict = field(repr=False, default_factory=dict)

    @property
    def n_variables(self) -> int:
        return len(self.variables)


def _tilted_row(
    off_cols: np.ndarray,
    off_vals: np.ndarray,
    killed: float,
    node: int,
    psi_log: np.ndarray,
    scale: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Tilt one generator row; returns (cols, vals, entropy rate)."""

    z = scale * (psi_log[off_cols] - psi_log[node])
    q = off_vals * np.exp(z)
    # Per-channel rate g*(z e^z - e^z + 1) >= 0; the dropped boundary flux
    # costs its full intensity.
    cost = float(np.sum(q * z - q + off_vals) + killed)
    cols = np.concatenate([off_cols, [node]])
    vals = np.concatenate([q, [-q.sum()]])
    return cols, vals, max(cost, 0.0)


def build_occupation_lp(
    grid: Grid,
    problem,
    w_grid: Sequence[WPoint],
    candidates: Sequence[Candidate],
    policy: Optional[np.ndarray] = None,
) -> OccupationLP:
    """Assemble the stationarity-plus-normalization LP.

    With policy given, each node offers only that action (the fixed-policy
    program); otherwise all actions are available everywhere.
    """

    n = grid.n
    d = grid.d
    n_actions = problem.n_actions
    sigma = problem.sigma(grid.nodes)

    if policy is not None:
        policy = np.asarray(policy, dtype=np.int64)
        if policy.shape != (n,):
            raise ValueError("policy length does not match the grid")
        n_total = n * len(w_grid)
    else:
        n_total = n * n_actions * len(w_grid)
    if n_total > MAX_LP_VARIABLES:
        raise TooLarge(f"LP would have {n_total} variables, cap is {MAX_LP_VARIABLES}")

    generators = [assemble_generator(grid, problem, u) for u in range(n_actions)]
    rows_by_action = []
    for gen in generators:
        mat = gen.matrix
        idx = np.split(mat.indices, mat.indptr[1:-1])
        val = np.split(mat.data, mat.indptr[1:-1])
        rows_by_action.append((idx, val, gen.killed))

    variables: list[LPVariable] = []
    index: dict = {}
    for x in range(n):
        actions = (int(policy[x]),) if policy is not None else range(n_actions)
        for u in actions:
            idx, val, killed_vec = rows_by_action[u]
            cols_u = idx[x]
            vals_u = val[x]
            off = cols_u != x
            off_cols = cols_u[off]
            off_vals = vals_u[off]
            killed = float(killed_vec[x])
            for wi, wp in enumerate(w_grid):
                if wp.candidate is None:
                    cols, vals, cost = cols_u, vals_u, 0.0
                    nominal = np.zeros(d)
                else:
                    cand = candidates[wp.candidate]
                    cols, vals, cost = _tilted_row(
                        off_cols, off_vals, killed, x, cand.psi_log, wp.scale
                    )
                    nominal = wp.scale * cand.grad[x]
                effective = _effective_w(nominal, sigma[x], cost)
                index[(x, u, wi)] = len(variables)
                variables.append(
                    LPVariable(
                        node=x,
                        action=u,
                        wpoint=wi,
                        cost=cost,
                        nominal_w=nominal,
                        effective_w=effective,
                        row_cols=np.asarray(cols, dtype=np.int64),
                        row_vals=np.asarray(vals, dtype=float),
                    )
                )

    row_scale = grid.h ** 2
    n_vars = len(variables)
    a_eq = np.zeros((n + 1, n_vars))
    for j, var in enumerate(variables):
        a_eq[var.row_cols, j] = var.row_vals * row_scale
    a_eq[n, :] = 1.0
    b_eq = np.zeros(n + 1)
    b_eq[n] = 1.0
    c = np.array([var.cost for var in variables])
    return OccupationLP(
        grid=grid,
        w_grid=tuple(w_grid),
        candidates=tuple(candidates),
        variables=variables,
        a_eq=a_eq,
        b_eq=b_eq,
        c=c,
        row_scale=row_scale,
        index=index,
    )


def _effective_w(nominal: np.ndarray, sigma_x: np.ndarray, cost: float) -> np.ndarray:
    """Rescale the nominal direction so 0.5*|sigma^T w|^2 equals the cost."""

    base = float(np.linalg.norm(sigma_x * nominal))
    if cost <= 0.0:
        return np.zeros_like(nominal)
    if base == 0.0:
        # Directionless tilt (isolated node): put the cost on the first axis.
        w = np.zeros_like(nominal)
        w[0] = np.sqrt(2.0 * cost) / sigma_x[0]
        return w
    return nominal * (np.sqrt(2.0 * cost) / base)


@dataclass
class OccupationSolution:
    value: float
    pi: np.ndarray
    lp: OccupationLP
    duals: np.ndarray
    iterations: int
    feasibility_residual: float
    complementary_slackness: float

    def node_marginal(self) -> np.ndarray:
        marg = np.zeros(self.lp.grid.n)
        for j, var in enumerate(self.lp.variables):
            marg[var.node] += self.pi[j]
        return marg

    def mass_on_policy(self, policy: np.ndarray) -> float:
        policy = np.asarray(policy, dtype=np.int64)
        total = 0.0
        for j, var in enumerate(self.lp.variables):
            if var.action == policy[var.node]:
                total += self.pi[j]
        return float(total)


def solve_lp(lp: OccupationLP) -> OccupationSolution:
    res: SimplexResult = solve_standard_lp(lp.a_eq, lp.b_eq, lp.c)
    return OccupationSolution(
        value=res.value,
        pi=res.x,
        lp=lp,
        duals=res.duals,
        iterations=res.iterations,
        feasibility_residual=res.feasibility_residual,
        complementary_slackness=res.complementary_slackness,
    )


def generator_pairing(lp: OccupationLP, f: np.ndarray, pi: np.ndarray) -> float:
    """Evaluate the measure against the controlled generator applied to f.

    Stationarity of pi is equivalent to this vanishing for every f; the LP
    rows impose it on the indicator basis.
    """

    f = np.asarray(f, dtype=float)
    total = 0.0
    for j, var in enumerate(lp.variables):
        if pi[j] != 0.0:
            total += pi[j] * float(var.row_vals @ f[var.row_cols])
    return total


@dataclass(frozen=True)
class TransformPoint:
    pi: np.ndarray
    objective: float
    stationarity_residual: float


def transform_point(lp: OccupationLP, candidate: int, policy: np.ndarray) -> TransformPoint:
    """Feasible point that selects the matched tilt of one policy everywhere.

    Its node marginal is the stationary law of the tilted chain and its
    objective equals that policy's decay rate up to eigen-solver residual.
    """

    policy = np.asarray(policy, dtype=np.int64)
    n = lp.grid.n
    wi = next(
        i
        for i, wp in enumerate(lp.w_grid)
        if wp.candidate == candidate and wp.scale == 1.0
    )
    picks = [lp.index[(x, int(policy[x]), wi)] for x in range(n)]

    q = np.zeros((n, n))
    for x, j in enumerate(picks):
        var = lp.variables[j]
        q[x, var.row_cols] = var.row_vals
    # The matched tilt reproduces a conditioned chain, whose law peaks near
    # the maximum of the candidate's eigenfunction: pin the null solve there.
    mu = null_vector(q, int(np.argmax(lp.candidates[candidate].psi_log)))

    pi = np.zeros(lp.n_variables)
    pi[picks] = mu
    objective = float(lp.c @ pi)
    resid = float(np.abs(lp.a_eq @ pi - lp.b_eq).max())
    return TransformPoint(pi=pi, objective=objective, stationarity_residual=resid)


def fixed_policy_lp(
    grid: Grid,
    problem,
    policy: np.ndarray,
    candidates: Sequence[Candidate],
    scales: Sequence[float] = (1.0, 0.5, 2.0),
) -> tuple[OccupationLP, OccupationSolution]:
    """Single-policy program; its value approximates that policy's rate."""

    w_grid = build_w_grid(grid, candidates, scales)
    lp = build_occupation_lp(grid, problem, w_grid, candidates, policy=policy)
    return lp, solve_lp(lp)


def verify_minimizer_structure(
    sol: OccupationSolution,
    mu_tilde: np.ndarray,
    policy: np.ndarray,
    candidate: int,
    tv_tol: float = 0.05,
    mass_tol: float = 0.95,
) -> dict:
    """Check the optimal measure against the conditioned chain's profile.

    Measures: total variation of the node marginal to the conditioned
    stationary law, mass fraction on the reference policy, and mass fraction
    on the drift point nearest the candidate's gradient at each node.
    """

    lp = sol.lp
    marg = sol.node_marginal()
    tv = 0.5 * float(np.abs(marg - mu_tilde).sum())
    frac_policy = sol.mass_on_policy(policy)

    grad_star = lp.candidates[candidate].grad
    nearest_mass = 0.0
    for j, var in enumerate(lp.variables):
        if sol.pi[j] == 0.0:
            continue
        target = grad_star[var.node]
        best = None
        best_dist = np.inf
        for wi, wp in enumerate(lp.w_grid):
            if wp.candidate is None:
                w_vec = np.zeros(lp.grid.d)
            else:
                w_vec = wp.scale * lp.candidates[wp.candidate].grad[var.node]
            dist = float(np.linalg.norm(w_vec - target))
            if dist < best_dist - 1e-15:
                best_dist = dist
                best = {wi}
            elif dist <= best_dist + 1e-15:
                best.add(wi)
        if var.wpoint in best:
            nearest_mass += sol.pi[j]

    return {
        "tv_to_mu_tilde": tv,
        "tv_tol": tv_tol,
        "tv_ok": bool(tv <= tv_tol),
        "mass_on_policy": frac_policy,
        "mass_on_nearest_w": float(nearest_mass),
        "mass_tol": mass_tol,
        "policy_mass_ok": bool(frac_policy >= mass_tol),
        "w_mass_ok": bool(nearest_mass >= mass_tol),
        "all_ok": bool(
            tv <= tv_tol and frac_policy >= mass_tol and nearest_mass >= mass_tol
        ),
    }


def _mps_field(value: float) -> str:
    """value at the highest precision (at most 10 digits) that fits 12 columns."""
    return next(text for text in (f"{value:.{p}g}" for p in range(10, 0, -1)) if len(text) <= 12)


def export_mps(lp: OccupationLP, path: str, name: str = "EXITRATE") -> None:
    """Fixed-column MPS dump of the LP for external cross-checks."""

    n = lp.grid.n
    lines = [f"NAME          {name}"]
    lines.append("ROWS")
    lines.append(" N  COST")
    for y in range(n):
        lines.append(f" E  S{y:07d}")
    lines.append(" E  MASS")
    lines.append("COLUMNS")
    for j, var in enumerate(lp.variables):
        col = f"X{j:07d}"
        entries = [("COST", var.cost)]
        entries += [
            (f"S{int(y):07d}", float(v) * lp.row_scale)
            for y, v in zip(var.row_cols, var.row_vals)
        ]
        entries.append(("MASS", 1.0))
        for k in range(0, len(entries), 2):
            pair = entries[k : k + 2]
            line = f"    {col:<10}{pair[0][0]:<10}{_mps_field(pair[0][1]):<12}"
            if len(pair) == 2:
                line += f"   {pair[1][0]:<10}{_mps_field(pair[1][1]):<12}"
            lines.append(line.rstrip())
    lines.append("RHS")
    lines.append(f"    RHS       MASS      {_mps_field(1.0)}")
    lines.append("BOUNDS")
    lines.append("ENDATA")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def export_solution_csv(sol: OccupationSolution, path: str, threshold: float = 0.0) -> None:
    lp = sol.lp
    d = lp.grid.d
    header = (
        ["node"]
        + [f"x{k + 1}" for k in range(d)]
        + ["action", "wpoint", "scale"]
        + [f"w{k + 1}" for k in range(d)]
        + ["cost", "mass"]
    )
    rows = []
    for j, var in enumerate(lp.variables):
        if sol.pi[j] <= threshold:
            continue
        wp = lp.w_grid[var.wpoint]
        rows.append(
            [var.node]
            + list(lp.grid.nodes[var.node])
            + [var.action, wp.label, wp.scale]
            + list(var.nominal_w)
            + [var.cost, sol.pi[j]]
        )
    write_csv(path, header, rows)
