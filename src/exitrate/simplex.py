"""Dense primal simplex with Bland's rule for small equality-form programs.

Solves min c.x subject to A x = b, x >= 0 by the two-phase tableau method.
Bland's pivoting (lowest eligible index in, lowest basic index out among
minimal ratios) guarantees termination on the degenerate instances the
occupation LPs produce.  Instances here are tiny (hundreds of columns), so
the dense tableau is the simplest trustworthy choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, NoConvergence, Unbounded

_RC_TOL = 1e-9
_PIV_TOL = 1e-11


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray
    value: float
    duals: np.ndarray
    iterations: int
    feasibility_residual: float
    complementary_slackness: float


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    piv_row = tableau[row]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, piv_row)
    tableau[row] = piv_row
    basis[row] = col


def _run(tableau: np.ndarray, basis: np.ndarray, n_cols: int, cap: int, phase: int) -> int:
    """Iterate to optimality over the first n_cols columns; returns iterations.

    Past `cap` pivots it raises NoConvergence with the phase, the pivot
    count, the current objective and the most negative reduced cost.
    """
    m = tableau.shape[0] - 1
    it = 0
    while True:
        reduced = tableau[-1, :n_cols]
        entering = -1
        for j in range(n_cols):
            if reduced[j] < -_RC_TOL:
                entering = j
                break
        if entering < 0:
            return it
        col = tableau[:m, entering]
        rhs = tableau[:m, -1]
        eligible = col > _PIV_TOL
        if not np.any(eligible):
            raise Unbounded("no blocking row; objective unbounded below")
        ratios = np.full(m, np.inf)
        ratios[eligible] = rhs[eligible] / col[eligible]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + 1e-15)
        leaving = ties[np.argmin(basis[ties])]
        _pivot(tableau, basis, int(leaving), entering)
        it += 1
        if it > cap:
            raise NoConvergence(
                f"simplex phase {phase} exceeded {cap} pivots: after {it} pivots the "
                f"objective is {-tableau[-1, -1]:.12g} and the most negative reduced "
                f"cost {tableau[-1, :n_cols].min():.3e}"
            )


def solve_standard_lp(a_eq: np.ndarray, b_eq: np.ndarray, c: np.ndarray) -> SimplexResult:
    a = np.array(a_eq, dtype=float)
    b = np.array(b_eq, dtype=float).copy()
    cost = np.asarray(c, dtype=float)
    m, n = a.shape
    if b.shape != (m,) or cost.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

    cap = max(2000, 200 * (m + n))

    # Phase 1: artificial basis, minimize the artificial mass.
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a
    tab[:m, n : n + m] = np.eye(m)
    tab[:m, -1] = b
    tab[-1, :n] = -a.sum(axis=0)
    tab[-1, -1] = -b.sum()
    basis = np.arange(n, n + m)
    it1 = _run(tab, basis, n, cap, phase=1)
    scale = max(1.0, float(np.abs(b).max()))
    if -tab[-1, -1] > 1e-8 * scale:
        raise Infeasible(f"phase-1 objective {-tab[-1, -1]:.3e} > 0")

    # Drive any artificial variables out of the basis; rows that cannot be
    # pivoted are redundant and get dropped.
    keep_rows = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n:
            pivots = np.flatnonzero(np.abs(tab[i, :n]) > _PIV_TOL)
            if len(pivots):
                _pivot(tab, basis, i, int(pivots[0]))
            else:
                keep_rows[i] = False
    kept_idx = np.flatnonzero(keep_rows)
    if len(kept_idx) < m:
        tab = tab[np.concatenate([kept_idx, [m]])]
        basis = basis[keep_rows]
    m_kept = len(basis)

    # Phase 2 on the original columns.
    tab2 = np.zeros((m_kept + 1, n + 1))
    tab2[:m_kept, :n] = tab[:m_kept, :n]
    tab2[:m_kept, -1] = tab[:m_kept, -1]
    tab2[-1, :n] = cost
    for i, bi in enumerate(basis):
        tab2[-1] -= cost[bi] * tab2[i]
    it2 = _run(tab2, basis, n, cap, phase=2)

    x = np.zeros(n)
    x[basis] = tab2[:m_kept, -1]
    # Refine the basic solution against the (sign-normalized) original data so
    # feasibility residuals reach solver precision, not tableau drift.
    cols = a[kept_idx][:, basis]
    b_kept = b[kept_idx]
    duals_kept = np.zeros(0)
    if m_kept:
        try:
            xb = np.linalg.solve(cols, b_kept)
            if xb.min() >= -1e-9:
                x = np.zeros(n)
                x[basis] = np.maximum(xb, 0.0)
        except np.linalg.LinAlgError:
            pass
        try:
            duals_kept = np.linalg.solve(cols.T, cost[basis])
        except np.linalg.LinAlgError:
            duals_kept = np.full(m_kept, np.nan)
    # Report multipliers against the caller's rows: undo the sign flips and
    # give dropped redundant rows a zero price.
    duals = np.zeros(m)
    duals[kept_idx] = np.where(flip[kept_idx], -duals_kept, duals_kept)

    a_full = np.array(a_eq, dtype=float)
    b_full = np.array(b_eq, dtype=float)
    feas = float(np.abs(a_full @ x - b_full).max()) if m_kept else 0.0
    if np.all(np.isfinite(duals)):
        rc = cost - a_full.T @ duals
        comp = float(np.abs(x * rc).max())
    else:
        comp = float("nan")
    return SimplexResult(
        x=x,
        value=float(cost @ x),
        duals=duals,
        iterations=it1 + it2,
        feasibility_residual=feas,
        complementary_slackness=comp,
    )
