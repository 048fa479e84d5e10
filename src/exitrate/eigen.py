"""Principal eigenpair of a sub-Markov generator, with Collatz-Wielandt bounds.

The principal eigenvalue of G is the (negated) eigenvalue of maximal real
part; its right and left eigenvectors are strictly positive on an irreducible
pattern.  We run shifted inverse power iteration on (sI - G).  The default
shift s = 0 is valid because a killed irreducible generator is nonsingular
(-G is an irreducible M-matrix), and it contracts at the h-independent ratio
lambda/lambda_2; if the iteration runs long, the shift is retargeted near the
current Collatz-Wielandt estimate.

The iteration stops on the Collatz-Wielandt bracket relative to lambda,
hi - lo <= tol * max(1, |lambda|): the bracket is rigorous for the current
vector and, unlike an absolute residual, does not grow with the generator's
h^-2 entries.  The bracket cannot shrink below its own roundoff floor (about
eps * |G|_inf), so an iteration whose bracket has not halved in STALL_STEPS
steps raises NoConvergence at once instead of spinning to max_iter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .errors import NoConvergence, NonPositiveEigenvector
from .grid import Generator

# Steps the CW bracket may go without halving before inverse iteration gives
# up.  Larger than RETARGET_STEPS, so a stall is declared only after
# retargeted shifts have had their turn.
STALL_STEPS = 120
RETARGET_STEPS = 40


@dataclass(frozen=True)
class EigenPair:
    """Principal eigen data: G psi = -lam psi, G^T phi = -lam phi.

    psi is max-normalized, phi sum-normalized (a probability vector).
    cw_interval brackets lam for the final psi.
    """

    lam: float
    psi: np.ndarray
    phi: np.ndarray
    residual: float
    residual_left: float
    cw_interval: tuple[float, float]
    iterations: int


def _as_matrix(g: Generator | sp.spmatrix) -> sp.csr_matrix:
    if isinstance(g, Generator):
        return g.matrix
    return sp.csr_matrix(g)


def cw_bounds(g: Generator | sp.spmatrix, psi: np.ndarray) -> tuple[float, float]:
    """Collatz-Wielandt bracket [min, max] of -(G psi)/psi for positive psi."""
    mat = _as_matrix(g)
    psi = np.asarray(psi, dtype=float)
    if np.any(psi <= 0):
        raise NonPositiveEigenvector("cw_bounds requires a strictly positive test vector")
    ratios = -(mat @ psi) / psi
    return float(ratios.min()), float(ratios.max())


def check_irreducible(mat: sp.csr_matrix, error: type[Exception], what: str) -> None:
    """Raise error unless the off-diagonal pattern of mat is strongly connected.

    Every stored entry counts as an edge; self-loops do not change the
    strongly connected components, so the diagonal needs no special case.
    """
    pattern = sp.csr_matrix((np.ones_like(mat.data), mat.indices, mat.indptr), shape=mat.shape)
    n_comp = connected_components(pattern, directed=True, connection="strong", return_labels=False)
    if n_comp != 1:
        raise error(f"{what} has {n_comp} strongly connected components")


def principal_eigenpair(
    g: Generator | sp.spmatrix, tol: float = 1e-10, max_iter: int = 10000
) -> EigenPair:
    """Positive right/left principal eigenpair by shifted inverse iteration."""
    mat = _as_matrix(g).tocsr()
    n = mat.shape[0]
    if n == 1:
        lam = float(-mat[0, 0])
        one = np.ones(1)
        return EigenPair(lam, one, one.copy(), 0.0, 0.0, (lam, lam), 0)
    check_irreducible(mat, NonPositiveEigenvector, "generator pattern")

    csc = mat.tocsc()
    ident = sp.identity(n, format="csc")

    def factor(shift: float):
        return splu((shift * ident - csc).tocsc())

    try:
        lu = factor(0.0)
        safe_lu = lu
    except RuntimeError:
        # Singular at shift 0 can only happen for a conservative matrix;
        # fall back to the always-nonsingular diagonal-dominant shift.
        safe_shift = 1.0 + float(np.abs(mat.diagonal()).max())
        lu = factor(safe_shift)
        safe_lu = lu

    def solve_step(vec: np.ndarray, transpose: bool) -> np.ndarray:
        y = lu.solve(vec, trans="T") if transpose else lu.solve(vec)
        if not np.all(np.isfinite(y)):
            raise NoConvergence("inverse iteration produced non-finite values")
        if y.sum() < 0:
            y = -y
        return y

    def iterate(transpose: bool, start: np.ndarray) -> tuple[np.ndarray, float, tuple[float, float], int]:
        nonlocal lu
        v = start / np.abs(start).max()
        it, lo, hi = 0, float("nan"), float("nan")
        ref_width, ref_it = float("inf"), 0
        reason = f"max_iter={max_iter} reached"
        while it < max_iter:
            y = solve_step(v, transpose)
            it += 1
            if y.min() <= 0:
                # Retargeted shifts can momentarily lose positivity; one safe
                # step restores it (the safe inverse is entrywise positive).
                lu = safe_lu
                y = solve_step(np.abs(v), transpose)
            v = y / np.abs(y).max()
            r = (mat.T @ v) if transpose else (mat @ v)
            ratios = -r / v
            lo, hi = float(ratios.min()), float(ratios.max())
            lam_est = 0.5 * (lo + hi)
            if hi - lo <= tol * max(1.0, abs(lam_est)):
                return v, lam_est, (lo, hi), it
            if hi - lo <= 0.5 * ref_width:
                ref_width, ref_it = hi - lo, it
            elif it - ref_it >= STALL_STEPS:
                reason = f"CW bracket has not halved in {STALL_STEPS} steps"
                break
            if it % RETARGET_STEPS == 0:
                # Slow contraction: retarget the shift just below -lambda_hi.
                try:
                    lu = factor(-(hi + max(1e-8, hi - lo)))
                except RuntimeError:
                    lu = safe_lu
        resid = float(np.abs(r + lam_est * v).max()) if it else float("nan")
        raise NoConvergence(
            f"{'left' if transpose else 'right'} inverse iteration stopped after {it} iterations ({reason}): "
            f"CW bracket [{lo!r}, {hi!r}] of width {hi - lo:.3e} > tol*max(1,|lambda|) "
            f"with tol={tol}; residual max|Gv + lambda v| = {resid:.3e}"
        )

    psi, lam, interval, it_r = iterate(False, np.ones(n))
    phi, _, _, it_l = iterate(True, np.ones(n))

    if psi.min() <= 0 or phi.min() <= 0:
        raise NonPositiveEigenvector("iteration converged to a sign-changing vector")

    psi = psi / psi.max()
    phi = phi / phi.sum()
    residual = float(np.abs(mat @ psi + lam * psi).max())
    residual_left = float(np.abs(mat.T @ phi + lam * phi).max())
    return EigenPair(
        lam=lam,
        psi=psi,
        phi=phi,
        residual=residual,
        residual_left=residual_left,
        cw_interval=interval,
        iterations=it_r + it_l,
    )


def export_eigen_csv(grid, pair: EigenPair, path: str) -> None:
    from ._util import write_csv

    coords = [f"x{k + 1}" for k in range(grid.d)]
    rows = (
        list(grid.nodes[i]) + [pair.psi[i], pair.phi[i]]
        for i in range(grid.n)
    )
    write_csv(path, coords + ["psi", "phi"], rows)
