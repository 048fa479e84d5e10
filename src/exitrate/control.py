"""Policy iteration for the semilinear exit-rate eigenproblems.

MAX mode maximizes (G_u Psi)(x) over the actions u at every node, so its
eigenvalue lambda* is the optimal exit rate, the minimum over policies; MIN
mode minimizes it and reaches lambda_lower-star, the maximum over policies.
Improvement scores each action by the rows of its own constant-action
generator, the monotone stencil that evaluation solves, and is scale-free
in Psi.  Each sweep solves only Psi; the left eigenvector phi is solved once,
on the converged sweep's LU, and the trace is returned only then.  Sweep
generators are gathered row by row from the constant-action generators, which
a caller's grid keeps, keyed by the problem, with the start policy's solve.
On a 2-D mesh below the default spacing the sweeps start from the optimum
at twice the spacing, the nested iteration of Howard's algorithm.  An
exhaustive enumeration oracle checks small lattices.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from ._util import ordered_map, write_csv
from .eigen import EigenPair, InverseIteration, principal_eigenpair
from .errors import NoConvergence, TooLarge
from .grid import Generator, Grid, assemble_generator, build_grid, default_spacing, gradient_cost

ENUMERATION_CAP = 2**20
ENUMERATION_CHUNK = 4096
# Dense eigenvalues of the enumerated generators (n <= 20 nodes once k >= 2)
# are accurate to a few ulps of the matrix norm, which is at most a few
# hundred times lambda; this relative gap is well above that and is the
# enumeration's tie tolerance.
TIE_RTOL = 1e-12
MAX_SWEEPS = 500
# hjb_residual's core: nodes farther than this share of the smallest side
# from the boundary.
HJB_MARGIN_FRAC = 0.125


@dataclass(frozen=True)
class PolicyIterationStep:
    policy: tuple[int, ...]
    lam: float
    cw_interval: tuple[float, float]
    n_changes: int


@dataclass(frozen=True)
class PolicyIterationTrace:
    """A converged policy iteration: policy_iteration raises NoConvergence
    rather than return any other."""

    mode: str
    steps: tuple[PolicyIterationStep, ...]
    grid: Grid
    final_policy: np.ndarray
    final_pair: EigenPair
    final_generator: Generator

    @property
    def converged(self) -> bool:
        return True

    @property
    def lam(self) -> float:
        return self.final_pair.lam

    @property
    def psi_log(self) -> np.ndarray:
        return np.log(self.final_pair.psi)


def policy_improve(
    generators: Sequence[sp.spmatrix],
    psi: np.ndarray,
    mode: str = "MAX",
    current: np.ndarray | None = None,
    slack: float = 0.0,
) -> np.ndarray:
    """Pointwise argmax/argmin over actions u of (G_u psi)(x) / psi(x).

    generators[u] is the constant-action generator of action u.  Row x of a
    policy's generator is row x of the generator of its action at x, so the
    scores compare exactly the rows that evaluation solves with.  Ties
    resolve to the lowest action index (argmax/argmin first hit).  When
    `current` is given, a node keeps its action unless the winner beats it by
    more than `slack`; this damps roundoff-level tie flapping near symmetric
    eigenfunctions without hiding genuine improvements.
    """
    if mode not in ("MAX", "MIN"):
        raise ValueError(f"mode must be MAX or MIN, got {mode!r}")
    psi = np.asarray(psi, dtype=float)
    if np.any(psi <= 0):
        raise ValueError("policy_improve requires a strictly positive field")
    scores = np.column_stack([(g @ psi) / psi for g in generators])
    if mode == "MIN":
        scores = -scores
    winner = np.argmax(scores, axis=1)
    if current is None:
        return winner
    current = np.asarray(current, dtype=int)
    rows = np.arange(len(psi))
    margin = scores[rows, winner] - scores[rows, current]
    keep = margin <= slack * np.maximum(1.0, np.abs(scores[rows, winner]))
    return np.where(keep, current, winner)


def action_generators(grid: Grid, problem, keep: bool = True) -> tuple[Generator, ...]:
    """The k constant-action generators, assembled once per (grid, problem).

    With keep, grid.shared holds them under the problem, which hashes by value:
    assembly reads only the problem's fields and the grid."""
    gens = grid.shared.get(problem)
    if gens is None:
        gens = tuple(assemble_generator(grid, problem, u) for u in range(problem.n_actions))
        if keep:
            grid.shared[problem] = gens
    return gens


def _policy_generator(actions: Sequence[Generator], policy: np.ndarray) -> Generator:
    """Row x (and killed[x]) of the constant-action generator of policy[x].

    A stencil row depends only on the action at its node, and every
    constant-action generator has the same pattern, so this equals
    assemble_generator(grid, problem, policy) bit for bit.
    """
    first = actions[0].matrix
    entry_action = np.repeat(policy, np.diff(first.indptr))
    data = np.stack([a.matrix.data for a in actions])[entry_action, np.arange(first.nnz)]
    killed = np.stack([a.killed for a in actions])[policy, np.arange(len(policy))]
    mat = sp.csr_matrix((data, first.indices, first.indptr), shape=first.shape)
    return Generator(matrix=mat, killed=killed)


def policy_iteration(
    problem,
    h: float,
    mode: str = "MAX",
    tol: float = 1e-10,
    grid: Grid | None = None,
    potential: np.ndarray | None = None,
) -> PolicyIterationTrace:
    """Alternate eigensolve and improvement until the policy is a fixed point.

    An optional potential q (per-node, nonnegative) solves the eigenproblem of
    G_v - diag(q) instead; the improvement rule is unchanged since the
    potential adds the same -q(x) to every action's score.

    On a 2-D grid below the default spacing, without a potential, the sweeps
    start from the optimum at 2h carried to the nodes (_nested_start); every
    other grid starts cold, from the constant action 0.  trace.steps holds
    only this grid's sweeps.  A caller's grid, which must have spacing h,
    keeps the generators and, after a cold start without a potential, the
    start policy's right solve for the next trace; a grid built here keeps
    nothing.
    """
    keep = grid is not None
    if grid is None:
        grid = build_grid(problem, h)
    elif grid.h != h:
        raise ValueError(f"policy_iteration at h={h!r} was given a grid of spacing h={grid.h!r}")
    start = None if potential is not None else _nested_start(problem, grid, mode, tol, grid.h)
    steps, policy, solver, gen = _sweeps(problem, grid, mode, tol, keep, potential, start)
    return PolicyIterationTrace(mode, steps, grid, policy, solver.left(), gen)


def _mesh(h: float) -> str:
    return f"1/{round(1.0 / h)}" if 1.0 / h == round(1.0 / h) else f"{h:g}"


def _coarser(problem, grid: Grid) -> Grid | None:
    """The grid at 2h that grid nests on, or None.

    Only a 2-D grid on the problem's own box nests, and only when 2h is at
    most the default spacing and halves every side's cell count.  In 1-D the
    tridiagonal LU leaves no factorisation work for a warm start to save.
    """
    h = 2.0 * grid.h
    if grid.d != 2 or h > default_spacing(problem):
        return None
    if not (np.array_equal(grid.lo, problem.lo) and np.array_equal(grid.hi, problem.hi)):
        return None
    if any((size + 1) % 2 or size < 3 for size in grid.dims):
        return None
    return build_grid(problem, h)


def _nested_start(problem, grid: Grid, mode: str, tol: float, target: float) -> np.ndarray | None:
    """The optimum at 2h, carried to grid's nodes by nearest node; None starts cold.

    The 2h level starts the same way from 4h, down to the first mesh that
    does not nest.  Coarse levels keep nothing and skip the left solve.  A
    coarse failure names its mesh and the mesh `target` it was the start of.
    """
    coarse = _coarser(problem, grid)
    if coarse is None:
        return None
    start = _nested_start(problem, coarse, mode, tol, target)
    try:
        policy = _sweeps(problem, coarse, mode, tol, False, None, start)[1]
    except NoConvergence as exc:
        raise NoConvergence(f"while solving h={_mesh(coarse.h)} as the start of h={_mesh(target)}: {exc}") from exc
    return policy[coarse.nearest_index(grid.nodes)]


def _sweeps(
    problem, grid: Grid, mode: str, tol: float, keep: bool, potential: np.ndarray | None, start: np.ndarray | None
) -> tuple[tuple[PolicyIterationStep, ...], np.ndarray, InverseIteration, Generator]:
    """Sweeps from start, or cold from the constant action 0, to the fixed point.

    Returns the steps, the fixed policy, its solver after right() and its generator.
    """
    actions = action_generators(grid, problem, keep)
    matrices = [a.matrix for a in actions]
    steps: list[PolicyIterationStep] = []
    v = np.zeros(grid.n, dtype=int) if start is None else start
    seen: dict[tuple[int, ...], float] = {}
    prev: tuple[int, ...] | None = None
    for sweep in range(1, MAX_SWEEPS + 1):
        key = tuple(v.tolist())
        cold = prev is None and start is None
        gen = actions[0] if cold else _policy_generator(actions, v)
        if cold and potential is None and keep:
            # Each trace gets a copy, so its left() cannot move the LU of the next.
            if (problem, tol) not in grid.shared:
                grid.shared[problem, tol] = InverseIteration(gen, tol=tol).right()
            solver = copy.copy(grid.shared[problem, tol])
        else:
            mat = gen.matrix if potential is None else gen.matrix - sp.diags(potential)
            solver = InverseIteration(mat, tol=tol).right()
        seen[key] = solver.lam
        changes = 0 if prev is None else int(np.sum(np.asarray(prev) != v))
        steps.append(PolicyIterationStep(key, solver.lam, solver.cw_interval, changes))
        v_new = policy_improve(matrices, solver.psi, mode, current=v, slack=100.0 * tol)
        new_key = tuple(v_new.tolist())
        if new_key == key:
            return tuple(steps), v, solver, gen
        if new_key in seen:
            raise NoConvergence(
                f"policy iteration entered a cycle at sweep {sweep}: the policy at lambda "
                f"{solver.lam!r} flips {int(np.sum(v_new != v))} nodes back to an earlier "
                f"policy at lambda {seen[new_key]!r}"
            )
        prev = key
        v = v_new
    last = steps[-1]
    raise NoConvergence(
        f"policy iteration did not converge in {MAX_SWEEPS} sweeps: last lambda "
        f"{last.lam!r} after {last.n_changes} node changes"
    )


def _policies(first: int, stop: int, k: int, n: int) -> np.ndarray:
    """Policies first..stop-1 of itertools.product(range(k), repeat=n), one per row."""
    place = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return np.arange(first, stop, dtype=np.int64)[:, None] // place % k


def _dense_scores(grid: Grid, problem) -> np.ndarray:
    """Dense-eigensolve lambda of every policy on the grid, in product order.

    Row i of a policy's generator is row i of the constant-action generator
    of the action at node i, so each policy's dense generator is gathered
    from the k constant-action generators (action_generators).  Policies are
    scored ENUMERATION_CHUNK at a time by one batched eigensolve per chunk;
    chunk results are concatenated in order, so the worker count cannot
    change them.
    """
    n, k = grid.n, problem.n_actions
    count = k**n
    tables = np.stack([a.matrix.toarray() for a in action_generators(grid, problem)])
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
        return principal_eigenpair(action_generators(grid, problem)[0], tol=tol).lam, np.zeros(n, dtype=int), count

    lams = _dense_scores(grid, problem)
    lam_min = float(lams.min())
    best = int(np.argmax(lams <= lam_min + TIE_RTOL * max(1.0, abs(lam_min))))
    policy = _policies(best, best + 1, k, n)[0]
    pair = principal_eigenpair(_policy_generator(action_generators(grid, problem), policy), tol=tol)
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


def hjb_residual(problem, h: float, mode: str = "MAX", tol: float = 1e-10) -> float:
    """Sup-norm defect of the log-eigenfunction identity on an interior core.

    At the optimal policy, (L psi)(x) + 0.5 |sigma^T grad psi|^2 + lambda
    should vanish; it is evaluated on nodes farther than HJB_MARGIN_FRAC
    times the smallest side from the boundary, where the full stencil applies
    and the field is smooth.
    """
    trace = policy_iteration(problem, h, mode=mode, tol=tol)
    grid = trace.grid
    psi_log = trace.psi_log
    quad = gradient_cost(grid, problem.sigma(grid.nodes), psi_log)
    resid = trace.final_generator.matrix @ psi_log + quad + trace.lam
    margin = HJB_MARGIN_FRAC * float(np.min(problem.hi - problem.lo))
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
