"""Principal eigenpair of a sub-Markov generator, with Collatz-Wielandt bounds.

The principal eigenvalue of G is the (negated) eigenvalue of maximal real
part; its right and left eigenvectors are strictly positive on an irreducible
pattern.  We run shifted inverse power iteration on (sI - G).  The default
shift s = 0 is valid because a killed irreducible generator is nonsingular
(-G is an irreducible M-matrix), and it contracts at the h-independent ratio
lambda/lambda_2; if the iteration runs long, the shift is retargeted near the
current Collatz-Wielandt estimate.  InverseIteration solves the right side
(psi, lambda) and the left side (phi) as separate steps, the left on the LU
the right side ended on, so a caller that reads only psi skips the left side.

The iteration stops on the Collatz-Wielandt bracket relative to lambda,
hi - lo <= tol * max(1, |lambda|): the bracket is rigorous for the current
vector and, unlike an absolute residual, does not grow with the generator's
h^-2 entries.  The bracket cannot shrink below its own roundoff floor (about
eps * |G|_inf), so an iteration whose bracket has not halved in STALL_STEPS
steps raises NoConvergence at once instead of spinning to MAX_ITER.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .errors import NoConvergence, NonPositiveEigenvector
from .grid import Generator, as_matrix

# Steps the CW bracket may go without halving before inverse iteration gives
# up.  Larger than RETARGET_STEPS, so a stall is declared only after
# retargeted shifts have had their turn.
STALL_STEPS = 120
RETARGET_STEPS = 40
# A backstop on the steps of one side; the stall rule ends a stuck run first.
MAX_ITER = 10000
# Column ordering of every sparse LU: the stencils' patterns are structurally symmetric.
PERMC_SPEC = "MMD_AT_PLUS_A"


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


def check_irreducible(mat: sp.csr_matrix, error: type[Exception], what: str) -> None:
    """Raise error unless the off-diagonal pattern of mat is strongly connected.

    Every stored entry counts as an edge; self-loops do not change the
    strongly connected components, so the diagonal needs no special case.
    """
    pattern = sp.csr_matrix((np.ones_like(mat.data), mat.indices, mat.indptr), shape=mat.shape)
    n_comp = connected_components(pattern, directed=True, connection="strong", return_labels=False)
    if n_comp != 1:
        raise error(f"{what} has {n_comp} strongly connected components")


class InverseIteration:
    """Shifted inverse iteration on one generator, one side at a time.

    It holds the CSR and CSC matrices, the LU and the retargeted-shift state.
    right() finds psi, lam and cw_interval and returns self; left() then takes
    the transpose, finds phi on the LU the right side ended on and returns the
    whole EigenPair.
    """

    def __init__(self, g: Generator | sp.spmatrix, tol: float = 1e-10) -> None:
        if not (np.isfinite(tol) and tol > 0):
            raise ValueError(f"tol must be finite and positive, got {tol!r}")
        self.mat = as_matrix(g).tocsr()
        self.n, self.tol = self.mat.shape[0], tol
        check_irreducible(self.mat, NonPositiveEigenvector, "generator pattern")
        # Each factor adds its shift to -G at diag_at.  A generator's diagonal
        # is negative; any other matrix first stores its zeros there.
        self.csc = self.mat.tocsc()
        if not self.csc.diagonal().all():
            self.csc.setdiag(self.csc.diagonal())
        self.diag_at = np.flatnonzero(self.csc.indices == np.repeat(np.arange(self.n), np.diff(self.csc.indptr)))
        try:
            self.lu = self._factor(0.0)
        except RuntimeError:
            # Singular at shift 0 can only happen for a conservative matrix;
            # fall back to the always-nonsingular diagonal-dominant shift.
            self.lu = self._factor(1.0 + float(np.abs(self.mat.diagonal()).max()))
        self.safe_lu = self.lu

    def _factor(self, shift: float):
        """LU of shift*I - G, with the bits a sparse identity minus G would give."""
        m = -self.csc
        m.data[self.diag_at] += shift
        return splu(m, permc_spec=PERMC_SPEC)

    def _step(self, vec: np.ndarray, transpose: bool) -> np.ndarray:
        y = self.lu.solve(vec, trans="T") if transpose else self.lu.solve(vec)
        if not np.all(np.isfinite(y)):
            raise NoConvergence("inverse iteration produced non-finite values")
        if y.sum() < 0:
            y = -y
        return y

    def _iterate(self, transpose: bool) -> tuple[np.ndarray, float, tuple[float, float], int]:
        if self.n == 1:
            lam = float(-self.mat[0, 0])
            return np.ones(1), lam, (lam, lam), 0
        mat, tol = (self.mat_t if transpose else self.mat), self.tol
        v = np.ones(self.n)
        it, lo, hi = 0, float("nan"), float("nan")
        ref_width, ref_it = float("inf"), 0
        reason = f"MAX_ITER={MAX_ITER} reached"
        while it < MAX_ITER:
            y = self._step(v, transpose)
            it += 1
            if y.min() <= 0:
                # Retargeted shifts can momentarily lose positivity; one safe
                # step restores it (the safe inverse is entrywise positive).
                self.lu = self.safe_lu
                y = self._step(np.abs(v), transpose)
            v = y / np.abs(y).max()
            r = mat @ v
            ratios = -r / v
            lo, hi = float(ratios.min()), float(ratios.max())
            lam_est = 0.5 * (lo + hi)
            if hi - lo <= tol * max(1.0, abs(lam_est)):
                if v.min() <= 0:
                    raise NonPositiveEigenvector("iteration converged to a sign-changing vector")
                return v, lam_est, (lo, hi), it
            if hi - lo <= 0.5 * ref_width:
                ref_width, ref_it = hi - lo, it
            elif it - ref_it >= STALL_STEPS:
                reason = f"CW bracket has not halved in {STALL_STEPS} steps"
                break
            if it % RETARGET_STEPS == 0:
                # Slow contraction: retarget the shift just below -lambda_hi.
                try:
                    self.lu = self._factor(-(hi + max(1e-8, hi - lo)))
                except RuntimeError:
                    self.lu = self.safe_lu
        resid = float(np.abs(r + lam_est * v).max()) if it else float("nan")
        raise NoConvergence(
            f"{'left' if transpose else 'right'} inverse iteration stopped after {it} iterations ({reason}): "
            f"CW bracket [{lo!r}, {hi!r}] of width {hi - lo:.3e} > tol*max(1,|lambda|) "
            f"with tol={tol}; residual max|Gv + lambda v| = {resid:.3e}"
        )

    def right(self) -> InverseIteration:
        """Solve for psi (max-normalized), lam and cw_interval; returns self."""
        psi, self.lam, self.cw_interval, self.iterations = self._iterate(False)
        self.psi = psi / psi.max()
        return self

    def left(self) -> EigenPair:
        """Solve for phi (sum-normalized) after right(); returns the whole pair."""
        self.mat_t = self.csc.T
        phi, _, _, it_l = self._iterate(True)
        phi = phi / phi.sum()
        psi, lam = self.psi, self.lam
        residual = float(np.abs(self.mat @ psi + lam * psi).max())
        residual_left = float(np.abs(self.mat_t @ phi + lam * phi).max())
        return EigenPair(lam, psi, phi, residual, residual_left, self.cw_interval, self.iterations + it_l)


def principal_eigenpair(g: Generator | sp.spmatrix, tol: float = 1e-10) -> EigenPair:
    """Positive right/left principal eigenpair by shifted inverse iteration."""
    return InverseIteration(g, tol).right().left()
