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
for row and prices it at the eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .control import MAX_SWEEPS, PolicyIterationTrace, action_generators, policy_iteration
from .eigen import PERMC_SPEC
from .errors import Infeasible, NoConvergence, TooLarge
from .grid import Grid, _policy_array, build_grid, discrete_gradient
from .qprocess import doob_transform, null_vector, probability_vector, stationary_measures
from ._util import write_csv

MAX_LP_VARIABLES = 50_000
MAX_W_POINTS = 16
# Tilt scales per candidate; scale 1 is the matched tilt transform_point picks.
W_SCALES = (1.0, 0.5, 2.0)
# verify_minimizer_structure's bounds: node-marginal TV at most TV_TOL, and at
# least MASS_TOL of the mass on the reference policy and on the nearest tilt.
TV_TOL = 0.05
MASS_TOL = 0.95
MPS_NAME = "EXITRATE"


@dataclass(frozen=True)
class Candidate:
    """A solved policy whose log-eigenfunction seeds drift tilts."""

    name: str
    psi_log: np.ndarray
    grad: np.ndarray


def candidate_from_trace(name: str, trace: PolicyIterationTrace) -> Candidate:
    psi_log = trace.psi_log
    return Candidate(name, psi_log, discrete_gradient(trace.grid, psi_log, extension="log-zero"))


@dataclass(frozen=True)
class WPoint:
    """One point of the per-node drift grid.

    candidate is None for the untilted base row (w = 0); otherwise the tilt
    follows scale * gradient of that candidate's log-eigenfunction.
    """

    label: str
    candidate: Optional[int]
    scale: float


def build_w_grid(grid: Grid, candidates: Sequence[Candidate]) -> tuple[WPoint, ...]:
    """Zero plus one point per (candidate, scale in W_SCALES); small by design."""

    for cand in candidates:
        if cand.psi_log.shape != (grid.n,):
            raise ValueError("candidate eigenfunction does not match the grid")
    points = [WPoint(label="0", candidate=None, scale=0.0)]
    for ci, cand in enumerate(candidates):
        for s in W_SCALES:
            points.append(WPoint(label=f"{cand.name}:s={s:g}", candidate=ci, scale=float(s)))
    if len(points) > MAX_W_POINTS:
        raise TooLarge(f"w-grid has {len(points)} points, cap is {MAX_W_POINTS}")
    return tuple(points)


@dataclass
class OccupationLP:
    """The program as parallel arrays over its variables.

    Variable j is the triple (node[j], action[j], wpoint[j]), in lexicographic
    order; c[j] is its cost and nominal_w[j] its drift point.  Column j of
    `rows` is the variable's generator row, unscaled, so the stationarity
    pairing and the transform point read the rates without a rounding step
    through h^2.
    """

    grid: Grid
    w_grid: tuple[WPoint, ...]
    candidates: tuple[Candidate, ...]
    node: np.ndarray
    action: np.ndarray
    wpoint: np.ndarray
    c: np.ndarray
    nominal_w: np.ndarray
    rows: sp.csc_matrix

    @property
    def n_variables(self) -> int:
        return self.c.size

    @property
    def row_scale(self) -> float:
        return self.grid.h ** 2

    @property
    def a_eq(self) -> sp.csc_matrix:
        """Stationarity rows scaled by h^2 (entries O(1)), then the mass row."""
        mass = sp.csc_matrix(np.ones((1, self.n_variables)))
        return sp.vstack([self.rows * self.row_scale, mass], format="csc")

    @property
    def b_eq(self) -> np.ndarray:
        return np.append(np.zeros(self.grid.n), 1.0)


def build_occupation_lp(
    grid: Grid,
    problem,
    w_grid: Sequence[WPoint],
    candidates: Sequence[Candidate],
    policy: Optional[np.ndarray] = None,
) -> OccupationLP:
    """Assemble the stationarity-plus-normalization LP.

    With policy given, each node offers only that action (the fixed-policy
    program); otherwise all actions are available everywhere.  Rows are
    tilted one (action, w-point) block at a time; per-row sums go through
    np.bincount, which adds in index order like a loop over the row.
    """

    n, d, n_w = grid.n, grid.d, len(w_grid)
    if policy is not None:
        # _policy_array rejects an action no generator has: its variables would lack rows.
        offered = _policy_array(grid, problem, policy).astype(np.int64)[:, None]
    else:
        offered = np.tile(np.arange(problem.n_actions, dtype=np.int64), (n, 1))
    n_total = offered.size * n_w
    if n_total > MAX_LP_VARIABLES:
        raise TooLarge(f"LP would have {n_total} variables, cap is {MAX_LP_VARIABLES}")

    node = np.repeat(np.arange(n, dtype=np.int64), offered.shape[1] * n_w)
    action = np.repeat(offered.ravel(), n_w)
    wpoint = np.tile(np.arange(n_w, dtype=np.int64), offered.size)
    c = np.zeros(n_total)
    nominal_w = np.zeros((n_total, d))
    owner: list[np.ndarray] = []
    row: list[np.ndarray] = []
    val: list[np.ndarray] = []
    for u, gen in enumerate(action_generators(grid, problem)):
        mat = gen.matrix
        x_sel, k_sel = np.nonzero(offered == u)
        # first[x]: index of variable (x, u, w-point 0), or -1 if x lacks u.
        first = np.full(n, -1, dtype=np.int64)
        first[x_sel] = (x_sel * offered.shape[1] + k_sel) * n_w
        src = np.repeat(np.arange(n), np.diff(mat.indptr))
        keep = first[src] >= 0
        e_src, e_col, e_val = src[keep], mat.indices[keep], mat.data[keep]
        off = e_col != e_src
        o_src, o_col, o_val = e_src[off], e_col[off], e_val[off]
        for wi, wp in enumerate(w_grid):
            if wp.candidate is None:
                owner.append(first[e_src] + wi)
                row.append(e_col)
                val.append(e_val)
                continue
            cand = candidates[wp.candidate]
            z = wp.scale * (cand.psi_log[o_col] - cand.psi_log[o_src])
            q = o_val * np.exp(z)
            # Per-channel rate g*(z e^z - e^z + 1) >= 0; the dropped boundary
            # flux costs its full intensity.
            rate = np.bincount(o_src, weights=q * z - q + o_val, minlength=n)
            # astype: bincount of no entries (a lone node) returns int zeros,
            # whose negation would lose the -0.0 the row's diagonal holds.
            outflow = np.bincount(o_src, weights=q, minlength=n).astype(float)
            j = first[x_sel] + wi
            c[j] = np.maximum(rate[x_sel] + gen.killed[x_sel], 0.0)
            nominal_w[j] = wp.scale * cand.grad[x_sel]
            owner += [first[o_src] + wi, j]
            row += [o_col, x_sel]
            val += [q, -outflow[x_sel]]

    # Group the entries by variable; the stable sort keeps each tilted row's
    # diagonal after its off-diagonal rates.
    owner_all = np.concatenate(owner)
    order = np.argsort(owner_all, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(owner_all, minlength=n_total))])
    rows = sp.csc_matrix(
        (np.concatenate(val)[order], np.concatenate(row)[order], indptr), shape=(n, n_total)
    )
    return OccupationLP(
        grid=grid,
        w_grid=tuple(w_grid),
        candidates=tuple(candidates),
        node=node,
        action=action,
        wpoint=wpoint,
        c=c,
        nominal_w=nominal_w,
        rows=rows,
    )


def _ordered_sum(values: np.ndarray, where: np.ndarray) -> float:
    """Sum of values[where], added one at a time in index order."""
    return float(np.bincount(where.astype(np.intp), weights=values, minlength=2)[1])


@dataclass
class OccupationSolution:
    value: float
    pi: np.ndarray
    lp: OccupationLP
    duals: np.ndarray
    iterations: int
    feasibility_residual: float

    def node_marginal(self) -> np.ndarray:
        return np.bincount(self.lp.node, weights=self.pi, minlength=self.lp.grid.n)

    def mass_on_policy(self, policy: np.ndarray) -> float:
        policy = np.asarray(policy, dtype=np.int64)
        return _ordered_sum(self.pi, self.lp.action == policy[self.lp.node])


def _evaluate(q: sp.csr_matrix, c_pol: np.ndarray, pin: int) -> tuple[np.ndarray, float, np.ndarray]:
    """Stationary law mu, gain g = mu . c_pol and bias of one policy's chain,
    from one LU of m = q + 1 e_pin^T (nonsingular by the added column).

    mu^T q = 0 and sum(mu) = 1 give m^T mu = e_pin, and then mu^T m b = b[pin]:
    the bias solving m b = g - c_pol has b[pin] = 0 and c_pol + q b = g.
    """
    n = q.shape[0]
    column = sp.csr_matrix((np.ones(n), (np.arange(n), np.full(n, pin))), shape=(n, n))
    lu = splu((q + column).tocsc(), permc_spec=PERMC_SPEC)
    mu = probability_vector(lu.solve(np.eye(1, n, pin)[0], trans="T"))
    g = float(mu @ c_pol)
    return mu, g, lu.solve(g - c_pol)


def solve_lp(lp: OccupationLP) -> OccupationSolution:
    """Optimal vertex of the program by average-cost policy iteration.

    Variable j is a decision at node[j] with rate row rows[:, j] and cost
    c[j].  Untilted rows that leak to the boundary carry no mass in any
    feasible point and are dropped; any choice of one remaining row per node
    is an irreducible chain.  A sweep evaluates the policy and moves a node
    to the variable minimizing c_j + rows_j . bias when that beats its own by
    more than 1e-12 * max(1, |g|).  At the fixed point each node takes the
    lowest-index variable within that tolerance of its best, which is then
    evaluated once more.  duals = (-bias / h^2, g) certifies the value
    against a_eq.  See the README, "Occupation LP".
    """
    n = lp.grid.n
    # Per-column sums by bincount: scipy's abs() and max() sort a matrix's
    # entries in place, which would reorder the columns export_mps writes.
    owner = np.repeat(np.arange(lp.n_variables), np.diff(lp.rows.indptr))
    colsum = np.bincount(owner, weights=lp.rows.data, minlength=lp.n_variables)
    leak = colsum < -1e-12 * np.bincount(owner, weights=np.abs(lp.rows.data), minlength=lp.n_variables)
    keep = np.flatnonzero(~leak)
    counts = np.bincount(lp.node[keep], minlength=n)
    if not counts.all():
        raise Infeasible(f"{int(np.sum(counts == 0))} of {n} nodes have only rows that leak")
    rows, c, node = lp.rows[:, keep], lp.c[keep], lp.node[keep]
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])

    def lowest_within(scores: np.ndarray, slack: float) -> np.ndarray:
        near = scores <= np.minimum.reduceat(scores, starts)[node] + slack
        return np.minimum.reduceat(np.where(near, np.arange(keep.size), keep.size), starts)

    choice, pin, seen = starts, n // 2, set()
    for sweep in range(1, MAX_SWEEPS + 1):
        mu, g, bias = _evaluate(rows[:, choice].T.tocsr(), c[choice], pin)
        scores = c + rows.T @ bias
        tol = 1e-12 * max(1.0, abs(g))
        better = scores[choice] > np.minimum.reduceat(scores, starts) + tol
        if not better.any():
            break
        seen.add(choice.tobytes())
        choice, pin = np.where(better, lowest_within(scores, 0.0), choice), int(np.argmax(mu))
        if choice.tobytes() in seen:
            raise NoConvergence(
                f"occupation LP policy iteration entered a cycle at sweep {sweep}: the gain is "
                f"g = {g!r} and {int(better.sum())} nodes change back to an earlier policy"
            )
    else:
        raise NoConvergence(
            f"occupation LP policy iteration did not converge in {MAX_SWEEPS} sweeps: at sweep "
            f"{sweep} the gain is g = {g!r} and {int(better.sum())} nodes still change"
        )
    tie = lowest_within(scores, tol)
    if np.any(tie != choice):
        choice, sweep = tie, sweep + 1
        mu, g, bias = _evaluate(rows[:, choice].T.tocsr(), c[choice], pin)
    # A constant added to the bias moves a leaking row's reduced cost
    # c_j + rows_j . bias - g by the constant times colsum_j and no other's:
    # lower the bias until those are nonnegative too.
    if leak.any():
        reduced = lp.c[leak] + lp.rows[:, leak].T @ bias - g
        bias = bias + min(0.0, float(np.min(reduced / -colsum[leak])))
    pi = np.zeros(lp.n_variables)
    pi[keep[choice]] = mu
    return OccupationSolution(
        value=g,
        pi=pi,
        lp=lp,
        duals=np.append(-bias / lp.row_scale, g),
        iterations=sweep,
        feasibility_residual=float(np.abs(lp.a_eq @ pi - lp.b_eq).max()),
    )


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
    wi = next(
        i
        for i, wp in enumerate(lp.w_grid)
        if wp.candidate == candidate and wp.scale == 1.0
    )
    # One variable per node, in node order.
    picks = np.flatnonzero((lp.action == policy[lp.node]) & (lp.wpoint == wi))
    q = lp.rows[:, picks].T
    # The matched tilt reproduces a conditioned chain, whose law peaks near
    # the maximum of the candidate's eigenfunction: pin the null solve there.
    mu = null_vector(q, int(np.argmax(lp.candidates[candidate].psi_log)))

    pi = np.zeros(lp.n_variables)
    pi[picks] = mu
    objective = float(lp.c @ pi)
    resid = float(np.abs(lp.a_eq @ pi - lp.b_eq).max())
    return TransformPoint(pi=pi, objective=objective, stationarity_residual=resid)


def verify_minimizer_structure(
    sol: OccupationSolution,
    mu_tilde: np.ndarray,
    policy: np.ndarray,
    candidate: int,
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

    # nearest[wi, x]: w-point wi is among the nearest to the candidate's
    # gradient at node x.  A point within 1e-15 of the best so far joins it;
    # one closer by more than that replaces it.
    grad_star = lp.candidates[candidate].grad
    best_dist = np.full(lp.grid.n, np.inf)
    nearest = np.zeros((len(lp.w_grid), lp.grid.n), dtype=bool)
    for wi, wp in enumerate(lp.w_grid):
        w = 0.0 if wp.candidate is None else wp.scale * lp.candidates[wp.candidate].grad
        dist = np.linalg.norm(w - grad_star, axis=1)
        closer = dist < best_dist - 1e-15
        nearest[:, closer] = False
        nearest[wi] = closer | (dist <= best_dist + 1e-15)
        best_dist = np.where(closer, dist, best_dist)
    nearest_mass = _ordered_sum(sol.pi, nearest[lp.wpoint, lp.node])

    return {
        "tv_to_mu_tilde": tv,
        "tv_tol": TV_TOL,
        "tv_ok": bool(tv <= TV_TOL),
        "mass_on_policy": frac_policy,
        "mass_on_nearest_w": nearest_mass,
        "mass_tol": MASS_TOL,
        "policy_mass_ok": bool(frac_policy >= MASS_TOL),
        "w_mass_ok": bool(nearest_mass >= MASS_TOL),
        "all_ok": bool(
            tv <= TV_TOL and frac_policy >= MASS_TOL and nearest_mass >= MASS_TOL
        ),
    }


@dataclass(frozen=True)
class OccupationCheck:
    lam_star: float
    sol: OccupationSolution
    transform: TransformPoint
    structure: dict


def occupation_check(problem, h: float, tol: float = 1e-10) -> OccupationCheck:
    """The whole cross-check on one mesh: solve the program, price the matched
    tilt and compare the optimum with the conditioned chain.

    The tilts come from the MAX optimum ("stay", candidate 0) and, when there
    is more than one action, the MIN optimum ("leave").  The transform point
    and the structure check both refer to candidate 0.
    """
    grid = build_grid(problem, h)
    tr_max = policy_iteration(problem, h, mode="MAX", tol=tol, grid=grid)
    cands = [candidate_from_trace("stay", tr_max)]
    if problem.n_actions > 1:
        tr_min = policy_iteration(problem, h, mode="MIN", tol=tol, grid=grid)
        cands.append(candidate_from_trace("leave", tr_min))
    lp = build_occupation_lp(grid, problem, build_w_grid(grid, cands), cands)
    sol = solve_lp(lp)
    tp = transform_point(lp, 0, tr_max.final_policy)
    gen, pair = tr_max.final_generator, tr_max.final_pair
    mu, _ = stationary_measures(gen, doob_transform(gen, pair), pair)
    structure = verify_minimizer_structure(sol, mu, tr_max.final_policy, candidate=0)
    return OccupationCheck(lam_star=tr_max.lam, sol=sol, transform=tp, structure=structure)


def _mps_field(value: float) -> str:
    """value at the highest precision (at most 10 digits) that fits 12 columns."""
    return next(text for text in (f"{value:.{p}g}" for p in range(10, 0, -1)) if len(text) <= 12)


def export_mps(lp: OccupationLP, path: str) -> None:
    """Fixed-column MPS dump of the LP for external cross-checks."""

    lines = [f"NAME          {MPS_NAME}", "ROWS", " N  COST"] + [f" E  S{y:07d}" for y in range(lp.grid.n)]
    lines += [" E  MASS", "COLUMNS"]
    scaled = lp.rows * lp.row_scale
    for j in range(lp.n_variables):
        col = f"X{j:07d}"
        span = slice(scaled.indptr[j], scaled.indptr[j + 1])
        entries = [("COST", lp.c[j])]
        entries += [(f"S{y:07d}", v) for y, v in zip(scaled.indices[span], scaled.data[span])]
        entries.append(("MASS", 1.0))
        for k in range(0, len(entries), 2):
            pair = entries[k : k + 2]
            line = f"    {col:<10}{pair[0][0]:<10}{_mps_field(pair[0][1]):<12}"
            if len(pair) == 2:
                line += f"   {pair[1][0]:<10}{_mps_field(pair[1][1]):<12}"
            lines.append(line.rstrip())
    lines += ["RHS", f"    RHS       MASS      {_mps_field(1.0)}", "BOUNDS", "ENDATA"]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def export_solution_csv(sol: OccupationSolution, path: str) -> None:
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
    for j in np.flatnonzero(sol.pi > 1e-12):
        x, wp = lp.node[j], lp.w_grid[lp.wpoint[j]]
        rows.append(
            [x]
            + list(lp.grid.nodes[x])
            + [lp.action[j], wp.label, wp.scale]
            + list(lp.nominal_w[j])
            + [lp.c[j], sol.pi[j]]
        )
    write_csv(path, header, rows)
