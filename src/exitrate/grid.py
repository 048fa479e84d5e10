"""Monotone finite-difference approximation of the controlled generator.

The interior lattice of the box is indexed in row-major (axis-0 major) order.
``monotone_stencil`` holds the one rate rule: nonnegative off-diagonal jump
rates to axis neighbors, with drift discretized by central differences
wherever that keeps the scheme monotone (|m_k| h < a_kk, which preserves
second-order accuracy) and by upwind one-sided differences otherwise.
``assemble_generator`` applies it to the whole lattice as a sub-Markov rate
matrix: flux toward the boundary is killed and the diagonal balances the
full outflow.  The conditioned process reuses it on a sub-lattice with the
leaving flux reflected instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import NonconformingSpacing, NonFiniteCoefficient
from .problems import ProblemSpec


@dataclass(frozen=True)
class Grid:
    """Interior lattice of a box with spacing h.

    neighbor_table[i, k, 0] is the node index one step down axis k from node i
    (-1 if that step exits the domain); [..., 1] the step up.  shared holds
    solver set-up kept for the grid's caller (control.action_generators).
    """

    lo: np.ndarray
    hi: np.ndarray
    h: float
    dims: tuple[int, ...]
    n: int
    nodes: np.ndarray
    neighbor_table: np.ndarray
    shared: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def d(self) -> int:
        return len(self.dims)

    def dist_boundary(self) -> np.ndarray:
        """Distance from each node to the box boundary (min over faces)."""
        below = self.nodes - self.lo[None, :]
        above = self.hi[None, :] - self.nodes
        return np.minimum(below.min(axis=1), above.min(axis=1))

    def interior_mask(self, eps: float) -> np.ndarray:
        """Nodes at distance strictly greater than eps from the boundary."""
        return self.dist_boundary() > eps + 1e-12

    def nearest_index(self, points: np.ndarray) -> np.ndarray:
        """Indices of the interior nodes nearest to the given points.

        Per axis the node is rint((x - lo) / h) - 1, clamped to the lattice.
        The Monte Carlo step loops call this once per step, so it works one
        coordinate column at a time, with scalar constants: numpy broadcasts
        a (d,) row over many rows far more slowly.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        flat = None
        for k, size in enumerate(self.dims):
            i = np.rint((pts[:, k] - self.lo[k]) / self.h).astype(np.int64)
            i -= 1
            np.maximum(i, 0, out=i)
            np.minimum(i, size - 1, out=i)
            flat = i if flat is None else flat * size + i
        return flat


def build_grid(problem: ProblemSpec, h: float) -> Grid:
    """Interior lattice with spacing h; h must divide every side of the box."""
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"spacing h must be finite and positive, got {h!r}")
    lo, hi = problem.lo, problem.hi
    dims: list[int] = []
    for k in range(len(lo)):
        side = hi[k] - lo[k]
        steps = side / h
        n_steps = int(round(steps))
        if n_steps < 2 or abs(n_steps * h - side) > 1e-9 * max(1.0, side):
            raise NonconformingSpacing(
                f"spacing h={h} does not divide side {side} of axis {k} "
                f"(needs an integer >= 2 number of cells)"
            )
        dims.append(n_steps - 1)

    axes = [lo[k] + h * np.arange(1, dims[k] + 1) for k in range(len(dims))]
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.column_stack([m.ravel() for m in mesh])

    n = int(np.prod(dims))
    table = np.empty((n, len(dims), 2), dtype=np.int64)
    # Indices framed by -1; the interior window shifted down (up) axis k holds the neighbours.
    framed = np.pad(np.arange(n, dtype=np.int64).reshape(dims), 1, constant_values=-1)
    for k in range(len(dims)):
        for side in (0, 1):
            window = [slice(1, -1)] * len(dims)
            window[k] = slice(2 * side, 2 * side + dims[k])
            table[:, k, side] = framed[tuple(window)].ravel()

    return Grid(lo=lo, hi=hi, h=float(h), dims=tuple(dims), n=n, nodes=nodes, neighbor_table=table)


@dataclass(frozen=True)
class Generator:
    """Sub-Markov rate matrix on the interior lattice.

    killed[i] >= 0 is the total rate dropped toward the boundary at node i,
    so matrix row sums satisfy rowsum + killed = 0 exactly.
    """

    matrix: sp.csr_matrix
    killed: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _policy_array(grid: Grid, problem: ProblemSpec, policy: int | np.ndarray) -> np.ndarray:
    if isinstance(policy, (int, np.integer)):
        arr = np.full(grid.n, int(policy), dtype=int)
    else:
        arr = np.asarray(policy, dtype=int)
    if arr.shape != (grid.n,):
        raise ValueError(f"policy must assign one action per node ({grid.n}), got shape {arr.shape}")
    if arr.min() < 0 or arr.max() >= problem.n_actions:
        raise ValueError("policy contains out-of-range action indices")
    return arr


def drift_at(problem: ProblemSpec, points: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """(len(points), d) drift values m(x_i, actions[i]), one problem.drift call per action used."""
    m = np.empty(points.shape, dtype=float)
    for u in np.unique(actions):
        mask = actions == u
        m[mask] = problem.drift(points[mask], int(u))
    return m


def drift_under_policy(grid: Grid, problem: ProblemSpec, policy: int | np.ndarray) -> np.ndarray:
    """(n, d) drift values m(x, v(x)) at the grid nodes."""
    return drift_at(problem, grid.nodes, _policy_array(grid, problem, policy))


def as_matrix(g: Generator | sp.spmatrix | np.ndarray) -> sp.csr_matrix:
    """The rate matrix of a Generator, or any matrix as CSR."""
    return g.matrix if isinstance(g, Generator) else sp.csr_matrix(g)


def monotone_stencil(
    grid: Grid, drift: np.ndarray, a_diag: np.ndarray, nodes: np.ndarray | None = None, reflect: bool = False
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Central/upwind rate matrix on a node set (default: the whole lattice).

    drift and a_diag are (len(nodes), d) values at the nodes, which index the
    matrix in the order given.  A stencil arm leaving the set is killed: its
    rate goes to the returned per-node killed vector and the diagonal balances
    the full outflow.  With reflect=True the arm is dropped from the diagonal
    too, so rows sum to zero and killed stays zero.
    """
    h = grid.h
    table = grid.neighbor_table
    if nodes is not None:
        # Local index of each grid node in the set; pos[-1] = -1 keeps arms
        # that already exit the box outside the set.
        pos = np.full(grid.n + 1, -1, dtype=np.int64)
        pos[nodes] = np.arange(len(nodes))
        table = pos[table[nodes]]
    n = table.shape[0]
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    diag = np.zeros(n)
    killed = np.zeros(n)
    node_idx = np.arange(n)

    min_rate = 0.0
    for k in range(grid.d):
        diff = a_diag[:, k] / (2.0 * h * h)
        mk = drift[:, k]
        central = np.abs(mk) * h < a_diag[:, k]
        up_rate = np.where(central, diff + mk / (2.0 * h), diff + np.maximum(mk, 0.0) / h)
        dn_rate = np.where(central, diff - mk / (2.0 * h), diff + np.maximum(-mk, 0.0) / h)
        min_rate = min(min_rate, float(up_rate.min()), float(dn_rate.min()))
        for sign, rate in ((0, dn_rate), (1, up_rate)):
            nb = table[:, k, sign]
            inside = nb >= 0
            rows.append(node_idx[inside])
            cols.append(nb[inside])
            vals.append(rate[inside])
            if reflect:
                diag[inside] -= rate[inside]
            else:
                killed[~inside] += rate[~inside]
        if not reflect:
            diag -= up_rate + dn_rate

    rows.append(node_idx)
    cols.append(node_idx)
    vals.append(diag)
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()
    # Monotonicity is structural: both stencil branches produce nonnegative
    # rates, so any negative is an assembly bug.
    assert min_rate >= 0.0, "negative off-diagonal rate; stencil monotonicity broken"
    return mat, killed


def assemble_generator(grid: Grid, problem: ProblemSpec, policy: int | np.ndarray) -> Generator:
    """Assemble the killed rate matrix for the given policy (or single action)."""
    m = drift_under_policy(grid, problem, policy)
    sig = problem.sigma(grid.nodes)
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(sig))):
        raise NonFiniteCoefficient(f"{problem.name}: coefficients not finite on the grid")
    mat, killed = monotone_stencil(grid, m, sig * sig)
    return Generator(matrix=mat, killed=killed)


def discrete_gradient(grid: Grid, field: np.ndarray, extension: str = "log-zero") -> np.ndarray:
    """Per-axis difference quotients of a node field, (n, d).

    Central differences where both neighbors exist.  At boundary-adjacent
    nodes the "log-zero" rule falls back to the one-sided interior difference
    (appropriate for fields that diverge at the boundary, like log Psi);
    the "zero" rule extends the field by 0 and keeps the central stencil.
    """
    if extension not in ("log-zero", "zero"):
        raise ValueError(f"unknown extension rule {extension!r}")
    f = np.asarray(field, dtype=float)
    if f.shape != (grid.n,):
        raise ValueError(f"field must have shape ({grid.n},), got {f.shape}")
    h = grid.h
    out = np.zeros((grid.n, grid.d))
    for k in range(grid.d):
        dn = grid.neighbor_table[:, k, 0]
        up = grid.neighbor_table[:, k, 1]
        has_dn, has_up = dn >= 0, up >= 0
        f_dn = np.where(has_dn, f[np.maximum(dn, 0)], 0.0)
        f_up = np.where(has_up, f[np.maximum(up, 0)], 0.0)
        both = has_dn & has_up
        g = np.zeros(grid.n)
        g[both] = (f_up[both] - f_dn[both]) / (2.0 * h)
        only_dn = has_dn & ~has_up
        only_up = has_up & ~has_dn
        if extension == "log-zero":
            g[only_dn] = (f[only_dn] - f_dn[only_dn]) / h
            g[only_up] = (f_up[only_up] - f[only_up]) / h
        else:
            g[only_dn] = (0.0 - f_dn[only_dn]) / (2.0 * h)
            g[only_up] = (f_up[only_up] - 0.0) / (2.0 * h)
        out[:, k] = g
    return out


def gradient_cost(grid: Grid, sig: np.ndarray, psi_log: np.ndarray) -> np.ndarray:
    """0.5 |sigma^T grad log psi|^2 per node, the integrand of the variational formula
    for the rate; `sig` is the problem's sigma on the grid nodes."""
    return 0.5 * np.sum((sig * discrete_gradient(grid, psi_log, extension="log-zero")) ** 2, axis=1)


def default_spacing(problem: ProblemSpec) -> float:
    """Default grid spacing: 1/64 in d=1, 1/32 in d=2."""
    return 1.0 / 64.0 if problem.dim == 1 else 1.0 / 32.0
