"""Policy iteration for the semilinear exit-rate eigenproblems.

MAX mode solves the operator that maximizes the drift term pointwise (its
eigenvalue lambda* is the optimal exit rate, the minimum over policies);
MIN mode the pointwise minimizer (eigenvalue lambda_lower-star, the maximum
over policies).  Improvement acts on the gradient of log Psi, which is
scale-free and matches the conditioned-process drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ._util import ordered_map, write_csv
from .eigen import EigenPair, principal_eigenpair
from .errors import NoConvergence, TooLarge
from .grid import Generator, Grid, assemble_generator, build_grid, discrete_gradient

ENUMERATION_CAP = 2**20
ENUMERATION_CHUNK = 4096
# Dense eigenvalues of the enumerated generators (n <= 20 nodes once k >= 2)
# are accurate to a few ulps of the matrix norm, which is at most a few
# hundred times lambda; this relative gap is well above that and is the
# enumeration's tie tolerance.
TIE_RTOL = 1e-12


@dataclass(frozen=True)
class PolicyIterationStep:
    policy: tuple[int, ...]
    lam: float
    cw_interval: tuple[float, float]
    n_changes: int


@dataclass
class PolicyIterationTrace:
    mode: str
    steps: list[PolicyIterationStep] = field(default_factory=list)
    converged: bool = False
    grid: Grid | None = None
    final_policy: np.ndarray | None = None
    final_pair: EigenPair | None = None
    final_generator: Generator | None = None

    @property
    def lam(self) -> float:
        assert self.final_pair is not None
        return self.final_pair.lam

    @property
    def psi_log(self) -> np.ndarray:
        assert self.final_pair is not None
        return np.log(self.final_pair.psi)


def policy_improve(
    grid: Grid,
    problem,
    psi: np.ndarray,
    mode: str = "MAX",
    current: np.ndarray | None = None,
    slack: float = 0.0,
) -> np.ndarray:
    """Pointwise argmax/argmin over actions of <m(x,u), grad log psi>.

    Ties resolve to the lowest action index (argmax/argmin first hit).  When
    `current` is given, a node keeps its action unless the winner beats it by
    more than `slack`; this damps roundoff-level tie flapping near symmetric
    eigenfunctions without hiding genuine improvements.
    """
    if mode not in ("MAX", "MIN"):
        raise ValueError(f"mode must be MAX or MIN, got {mode!r}")
    psi = np.asarray(psi, dtype=float)
    if np.any(psi <= 0):
        raise ValueError("policy_improve requires a strictly positive field")
    g = discrete_gradient(grid, np.log(psi), extension="log-zero")
    scores = np.empty((grid.n, problem.n_actions))
    for k in range(problem.n_actions):
        mk = problem.drift(grid.nodes, k)
        scores[:, k] = np.sum(mk * g, axis=1)
    if mode == "MIN":
        scores = -scores
    winner = np.argmax(scores, axis=1)
    if current is None:
        return winner
    current = np.asarray(current, dtype=int)
    rows = np.arange(grid.n)
    margin = scores[rows, winner] - scores[rows, current]
    keep = margin <= slack * np.maximum(1.0, np.abs(scores[rows, winner]))
    return np.where(keep, current, winner)


def policy_iteration(
    problem,
    h: float,
    mode: str = "MAX",
    tol: float = 1e-10,
    grid: Grid | None = None,
    potential: np.ndarray | None = None,
    max_sweeps: int = 500,
) -> PolicyIterationTrace:
    """Alternate eigensolve and improvement until the policy is a fixed point.

    An optional potential q (per-node, nonnegative) solves the eigenproblem of
    G_v - diag(q) instead; the improvement rule is unchanged since the
    potential does not depend on the action.
    """
    if grid is None:
        grid = build_grid(problem, h)
    trace = PolicyIterationTrace(mode=mode, grid=grid)
    v = np.zeros(grid.n, dtype=int)
    seen: set[tuple[int, ...]] = set()
    prev: tuple[int, ...] | None = None
    for _ in range(max_sweeps):
        key = tuple(int(x) for x in v)
        seen.add(key)
        gen = assemble_generator(grid, problem, v)
        mat = gen.matrix if potential is None else gen.matrix - sp.diags(potential)
        pair = principal_eigenpair(mat, tol=tol)
        changes = 0 if prev is None else int(np.sum(np.asarray(prev) != v))
        trace.steps.append(PolicyIterationStep(key, pair.lam, pair.cw_interval, changes))
        v_new = policy_improve(grid, problem, pair.psi, mode, current=v, slack=100.0 * tol)
        new_key = tuple(int(x) for x in v_new)
        if new_key == key:
            trace.converged = True
            trace.final_policy = v
            trace.final_pair = pair
            trace.final_generator = gen
            return trace
        if new_key in seen:
            raise NoConvergence("policy iteration entered a cycle (tie-break instability)")
        prev = key
        v = v_new
    raise NoConvergence(f"policy iteration did not converge in {max_sweeps} sweeps")


def _policies(first: int, stop: int, k: int, n: int) -> np.ndarray:
    """Policies first..stop-1 of itertools.product(range(k), repeat=n), one per row."""
    place = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return np.arange(first, stop, dtype=np.int64)[:, None] // place % k


def _dense_scores(grid: Grid, problem) -> np.ndarray:
    """Dense-eigensolve lambda of every policy on the grid, in product order.

    Row i of a policy's generator is row i of the constant-action generator
    of the action at node i, so each policy's dense generator is gathered
    from the k constant-action generators, assembled once.  Policies are
    scored ENUMERATION_CHUNK at a time by one batched eigensolve per chunk;
    chunk results are concatenated in order, so the worker count cannot
    change them.
    """
    n, k = grid.n, problem.n_actions
    count = k**n
    tables = np.stack([assemble_generator(grid, problem, a).matrix.toarray() for a in range(k)])
    rows = np.arange(n)

    def score(first: int) -> np.ndarray:
        stack = tables[_policies(first, min(first + ENUMERATION_CHUNK, count), k, n), rows]
        return -np.linalg.eigvals(stack).real.max(axis=1)

    return np.concatenate(ordered_map(score, range(0, count, ENUMERATION_CHUNK)))


def enumerate_policies(problem, h: float, tol: float = 1e-10) -> tuple[float, np.ndarray, int]:
    """Exhaustive oracle: the minimal eigenvalue over every policy.

    Every policy is scored by a dense eigensolve (see _dense_scores).  Scores
    within TIE_RTOL * max(1, |lambda_min|) of the minimum count as tied, and
    the lexicographically smallest tied policy wins, so mirror-symmetric
    problems return a stable representative.  Only the winner is solved again
    by inverse iteration to `tol`, and that eigenvalue is returned.

    Returns (best lambda, best policy, number of policies).
    """
    grid = build_grid(problem, h)
    n, k = grid.n, problem.n_actions
    count = k**n
    if count > ENUMERATION_CAP:
        raise TooLarge(f"{k}^{n} = {count} policies exceed the enumeration cap {ENUMERATION_CAP}")
    if count == 1:
        # Nothing to rank.  With one action n is unbounded, so the dense
        # n x n tables could not be afforded on a fine mesh.
        policy = np.zeros(n, dtype=int)
        return principal_eigenpair(assemble_generator(grid, problem, policy), tol=tol).lam, policy, count

    lams = _dense_scores(grid, problem)
    lam_min = float(lams.min())
    best = int(np.argmax(lams <= lam_min + TIE_RTOL * max(1.0, abs(lam_min))))
    policy = _policies(best, best + 1, k, n)[0]
    pair = principal_eigenpair(assemble_generator(grid, problem, policy), tol=tol)
    # The CW bracket contains the winner's eigenvalue and the dense value is
    # good to TIE_RTOL relative, so the dense value must lie in the bracket
    # widened by that much; outside it, one of the two solvers is wrong.
    lo, hi = pair.cw_interval
    slack = TIE_RTOL * max(1.0, abs(pair.lam))
    if not lo - slack <= lams[best] <= hi + slack:
        raise NoConvergence(
            f"enumeration winner {policy.tolist()}: dense eigenvalue {float(lams[best])!r} "
            f"disagrees with inverse iteration {pair.lam!r} (CW bracket [{lo!r}, {hi!r}])"
        )
    return pair.lam, policy, count


def hjb_residual(problem, h: float, mode: str = "MAX", tol: float = 1e-10, margin_frac: float = 0.125) -> float:
    """Sup-norm defect of the log-eigenfunction identity on an interior core.

    At the optimal policy, (L psi)(x) + 0.5 |sigma^T grad psi|^2 + lambda
    should vanish; it is evaluated on nodes at distance >= margin_frac times
    the smallest side from the boundary, where the full stencil applies and
    the field is smooth.
    """
    trace = policy_iteration(problem, h, mode=mode, tol=tol)
    grid = trace.grid
    assert grid is not None and trace.final_generator is not None
    psi_log = trace.psi_log
    g = discrete_gradient(grid, psi_log, extension="log-zero")
    sig = problem.sigma(grid.nodes)
    quad = 0.5 * np.sum((sig * g) ** 2, axis=1)
    lin = trace.final_generator.matrix @ psi_log
    resid = lin + quad + trace.lam
    margin = margin_frac * float(np.min(problem.hi - problem.lo))
    mask = grid.interior_mask(margin)
    if not np.any(mask):
        raise ValueError("margin leaves no nodes to evaluate the residual on")
    return float(np.abs(resid[mask]).max())


def export_trace_csv(trace: PolicyIterationTrace, path: str) -> None:
    rows = (
        [i, s.lam, s.cw_interval[0], s.cw_interval[1], s.n_changes]
        for i, s in enumerate(trace.steps)
    )
    write_csv(path, ["iteration", "lambda", "lambda_lo", "lambda_hi", "policy_changes"], rows)
