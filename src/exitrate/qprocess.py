"""Conditioned process: Doob transform, stationary measures, and certificates.

The transform G~ = diag(Psi)^-1 (G + lambda I) diag(Psi) is exact matrix
conjugation, so the killed-semigroup identity e^{tG} g = e^{-lambda t} Psi *
e^{tG~}(g / Psi) holds to roundoff regardless of eigenpair quality, while the
row sums of G~ vanish only as well as the eigen residual allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.linalg import spsolve

from ._util import line_fit, stream
from .control import policy_iteration
from .eigen import PERMC_SPEC, EigenPair, InverseIteration, check_irreducible
from .errors import IllConditioned, NoCertificate, NullVectorNotUnique, TooLargeForDense
from .grid import (
    Generator,
    Grid,
    _policy_array,
    as_matrix,
    assemble_generator,
    build_grid,
    discrete_gradient,
    drift_under_policy,
    gradient_cost,
    monotone_stencil,
)
from .problems import with_bounds

DENSE_CAP = 2000
# doob_transform refuses an eigenvector whose max/min ratio exceeds this, and
# survival_asymptotics takes the symmetric path only while sqrt(w_max / w_min)
# of the detailed-balance weights stays below it.
MAX_PSI_RATIO = 1e12
# Detailed balance holds when log(G_ij / G_ji) = log w_j - log w_i to within
# this on every edge.  The worst residual seen on the repo's reversible chains
# is 1.8e-15 (drift-interval c=20, h=1/32); a chain reversible only to a
# relative r would move e^{tG} by about t r |G|, so the bar sits at roundoff.
DETAILED_BALANCE_TOL = 1e-13
# survival_asymptotics fits the TV decay only on values inside this range.
TV_FIT_RANGE = (1e-11, 0.5)
# Certificates enlarge the box by this share of each side (rounded to whole
# cells, at least one) and cut off on a ball of this share of the smallest side.
ENLARGEMENT = 0.25
BALL_RADIUS_FRAC = 0.25
# Cutoff widths tried in turn by the uniform certificate, as shares of the
# smallest side.
EPS_CUT_FRACS = (0.25, 0.375, 0.125)


@dataclass
class QProcessModel:
    """Conservative transformed generator; `stationary_measures` fills in product_residual."""

    g_tilde: sp.csr_matrix
    row_sum_residual: float
    product_residual: float | None = None


def doob_transform(gen: Generator | sp.spmatrix, pair: EigenPair | InverseIteration) -> QProcessModel:
    """Exact discrete h-transform by the principal eigenvector (reads pair.psi and pair.lam)."""
    mat = as_matrix(gen)
    psi = pair.psi
    ratio = float(psi.max() / psi.min())
    if ratio > MAX_PSI_RATIO:
        raise IllConditioned(
            f"max Psi / min Psi = {ratio:.3e} exceeds {MAX_PSI_RATIO:.0e}; "
            "transform would amplify the eigen residual beyond tolerance"
        )
    inv = sp.diags(1.0 / psi)
    dia = sp.diags(psi)
    g_tilde = (inv @ mat @ dia + pair.lam * sp.identity(mat.shape[0])).tocsr()
    row_sums = np.asarray(g_tilde.sum(axis=1)).ravel()
    return QProcessModel(g_tilde=g_tilde, row_sum_residual=float(np.abs(row_sums).max()))


def null_vector(mat: sp.spmatrix | np.ndarray, pin: int) -> np.ndarray:
    """Probability vector mu with mu^T mat = 0, by one sparse solve.

    The n equations mat^T mu = 0 have rank n - 1 when the null space is one
    line, so equation `pin` is dropped for the unit row mu[pin] = 1 and the
    solution is scaled to unit sum afterwards.  Pin the node where mu is
    expected to be largest: the pinned unknown then sets the scale, every
    other entry is at most about 1, and the system keeps the sparsity and
    the row scaling of mat instead of carrying a dense row of ones.

    Raises NullVectorNotUnique if the solve is singular or the solution has
    an entry below -1e-10 times its largest.
    """
    n = mat.shape[0]
    if n == 1:
        return np.ones(1)
    # Equation pin of mat^T mu = 0 is column pin of mat: drop it, transpose
    # by swapping the coordinates, and add the unit entry.
    c = sp.coo_matrix(mat)
    keep = c.col != pin
    system = sp.csr_matrix(
        (np.append(c.data[keep], 1.0), (np.append(c.col[keep], pin), np.append(c.row[keep], pin))),
        shape=(n, n),
    )
    return probability_vector(spsolve(system, np.eye(1, n, pin)[0], permc_spec=PERMC_SPEC))


def probability_vector(mu: np.ndarray) -> np.ndarray:
    """A solved invariant vector clipped at 0 and scaled to unit sum; raises
    NullVectorNotUnique if it is not finite or has an entry below -1e-10 times its largest."""
    if not np.all(np.isfinite(mu)):
        raise NullVectorNotUnique("singular system while solving for the invariant vector")
    if mu.min() < -1e-10 * np.abs(mu).max():
        raise NullVectorNotUnique("invariant vector is not nonnegative")
    mu = np.maximum(mu, 0.0)
    return mu / mu.sum()


def stationary_measures(
    gen: Generator | sp.spmatrix, model: QProcessModel, pair: EigenPair
) -> tuple[np.ndarray, np.ndarray]:
    """Invariant law of the transformed chain and the quasi-stationary law.

    alpha is the left null vector of G + lam*I and mu_tilde the invariant law
    of G~; mu_tilde must equal Psi * alpha / <Psi, alpha>.  The two come from
    independent solves, and the 1-norm gap between them is recorded on the
    model as product_residual.

    Both solves pin the same node, the maximum of Psi * phi.  Equation j of
    G~^T mu = 0 is Psi_j times equation j of (G + lam I)^T (mu / Psi) = 0, so
    with the same equation replaced the two solutions agree up to roundoff
    for any lam: the gap measures the conjugation, not the eigen error that
    separate pins would expose.
    """
    check_irreducible(model.g_tilde, NullVectorNotUnique, "transformed chain")
    pin = int(np.argmax(pair.psi * pair.phi))
    mu = null_vector(model.g_tilde, pin)
    mat = as_matrix(gen)
    try:
        alpha = null_vector(mat + pair.lam * sp.identity(mat.shape[0], format="csr"), pin)
    except NullVectorNotUnique:
        alpha = pair.phi
    product = pair.psi * alpha
    product = product / product.sum()
    model.product_residual = float(np.abs(mu - product).sum())
    return mu, alpha


def rayleigh_identity(
    grid: Grid, problem, psi_log: np.ndarray, mu_tilde: np.ndarray, lam: float
) -> tuple[float, float]:
    """Quadratic-form estimate 0.5 sum |sigma^T grad psi|^2 mu and its relative error."""
    lam_hat = float(np.sum(gradient_cost(grid, problem.sigma(grid.nodes), psi_log) * mu_tilde))
    return lam_hat, abs(lam_hat - lam) / abs(lam)


def check_dense(n: int) -> None:
    """Raise TooLargeForDense beyond DENSE_CAP nodes."""
    if n > DENSE_CAP:
        raise TooLargeForDense(f"dense path capped at n={DENSE_CAP}, got {n}")


def _dense(mat: sp.spmatrix) -> np.ndarray:
    check_dense(mat.shape[0])
    return mat.toarray()


def girsanov_check(
    gen: Generator | sp.spmatrix, pair: EigenPair, t: float, g_field: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Killed-semigroup conjugation at time t: lhs, rhs, and their sup gap.

    `g_field` is one field (n,) or a stack of fields (n, m), one per column;
    either way the call takes the two exponentials e^{tG} and e^{tG~} once, and
    the gap is the sup over every node and field.
    """
    mat = as_matrix(gen)
    model = doob_transform(gen, pair)
    gd = _dense(mat)
    gt = _dense(model.g_tilde)
    g_field = np.asarray(g_field, dtype=float)
    psi = pair.psi if g_field.ndim == 1 else pair.psi[:, None]
    lhs = expm(t * gd) @ g_field
    rhs = np.exp(-pair.lam * t) * psi * (expm(t * gt) @ (g_field / psi))
    return lhs, rhs, float(np.abs(lhs - rhs).max())


def _survival_rows(gd: np.ndarray, t_list: Sequence[float], x0_index: int) -> list[np.ndarray]:
    """Row x0 of e^{tG} for each t, in `t_list` order, by propagating e_x0 in time.

    The increments of the sorted distinct times (from 0) share a step delta when
    each is an integer multiple of the smallest positive one to within
    1e-12 max(1, t_max); then one e^{delta G} reaches every t by row-times-matrix
    products, as long as they number at most n per distinct increment.
    Otherwise each distinct increment gets its own exponential.  Only
    a row is carried, never a product of matrices (Moler & Van Loan, "Nineteen
    dubious ways to compute the exponential of a matrix, twenty-five years
    later", SIAM Review 45(1), 2003).
    """
    times, where = np.unique(np.asarray(t_list, dtype=float), return_inverse=True)
    steps = np.diff(times, prepend=0.0)
    increments = set(steps[steps != 0])
    delta = steps[steps > 0].min(initial=np.inf)
    counts = np.rint(steps / delta)
    slack = 1e-12 * max(1.0, times.max(initial=0.0))
    common = np.all(counts >= 0) and np.all(np.abs(steps - counts * delta) <= slack)
    # At most n row products (about one matrix product) per exponential saved,
    # so a step far below the time scale, as in (1, 1 + 1e-9), cannot run away.
    if common and 0 < counts.sum() <= gd.shape[0] * len(increments):
        one = expm(delta * gd)
        factors = [[one] * int(k) for k in counts]
    else:
        exps = {s: expm(s * gd) for s in increments}
        factors = [[exps[s]] if s else [] for s in steps]
    row = np.zeros(gd.shape[0])
    row[x0_index] = 1.0
    rows = []
    for group in factors:
        for factor in group:
            row = row @ factor
        rows.append(row)
    return [rows[i] for i in where]


def _reversing_weights(mat: sp.csr_matrix) -> np.ndarray | None:
    """log w with w_i G_ij = w_j G_ji on every edge, or None when there is none.

    log w is carried from node 0 down a breadth-first tree of the rate graph,
    log w_j = log w_i + log(G_ij / G_ji) on tree edge (i, j); then every edge,
    on the tree or not, must satisfy detailed balance to DETAILED_BALANCE_TOL
    (Kelly, "Reversibility and Stochastic Networks", 1979, ch. 1).  Rates
    must be positive with a symmetric, connected pattern, and weights with
    sqrt(w_max / w_min) above MAX_PSI_RATIO are refused.
    """
    n = mat.shape[0]
    off = (mat - sp.diags(mat.diagonal())).tocsr()
    off.eliminate_zeros()
    off.sort_indices()
    back = off.T.tocsr()
    back.sort_indices()
    if not (
        np.array_equal(off.indptr, back.indptr)
        and np.array_equal(off.indices, back.indices)
        and np.all(off.data > 0)
    ):
        return None
    order, pred = breadth_first_order(off, 0)
    if len(order) < n:
        return None
    # Edge (i, j) sits at the same CSR position in off and in back = off^T.
    heads = np.repeat(np.arange(n), np.diff(off.indptr))
    ratio = np.log(off.data) - np.log(back.data)
    on_tree = pred[off.indices] == heads
    step = np.zeros(n)
    step[off.indices[on_tree]] = ratio[on_tree]
    log_w = np.zeros(n)
    for j in order[1:]:
        log_w[j] = log_w[pred[j]] + step[j]
    residual = np.abs(ratio - (log_w[off.indices] - log_w[heads])).max(initial=0.0)
    if residual > DETAILED_BALANCE_TOL or 0.5 * np.ptp(log_w) > np.log(MAX_PSI_RATIO):
        return None
    return log_w


def _symmetric_survival(
    mat: sp.csr_matrix, log_w: np.ndarray, times: np.ndarray, x0_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row x0 of e^{tG} for each t (one per row) and the spectrum of G, by one eigh.

    With detailed-balance weights w, S = W^(1/2) G W^(-1/2) is symmetric, and
    S = U diag(Lambda) U^T gives e^{tG} = W^(-1/2) U e^{t Lambda} U^T W^(1/2):
    row x0 is w_x0^(-1/2) (U[x0] e^{t Lambda}) U^T W^(1/2).  U is orthonormal,
    so the only amplification is the diagonal scaling, sqrt(w_max / w_min).
    """
    root = np.exp(0.5 * (log_w - log_w.max()))
    s = _dense(sp.diags(root) @ mat @ sp.diags(1.0 / root))
    lam, u = np.linalg.eigh(0.5 * (s + s.T))
    rows = (u[x0_index] * np.exp(np.outer(times, lam))) @ u.T * (root / root[x0_index])
    return rows, lam


@dataclass(frozen=True)
class SurvivalReport:
    rows: tuple[tuple[float, float, float], ...]  # (t, e^{lam t} P(tau > t), TV to alpha)
    limit_value: float
    tv_fit_rate: float | None
    tv_fit_r2: float | None
    spectral_gap: float | None


def survival_asymptotics(
    gen: Generator | sp.spmatrix,
    pair: EigenPair,
    t_list: Sequence[float],
    x0_index: int,
) -> SurvivalReport:
    """Scaled survival table, conditioned-law TV decay, and the t -> inf limit.

    The law of X_t on {tau > t} from x0 is row x0 of e^{tG}.  When the chain
    satisfies detailed balance (`_reversing_weights`), one symmetric
    eigendecomposition gives every row and the spectral gap
    (`_symmetric_survival`).  Otherwise `_survival_rows` propagates the row
    through the times, one dense exponential when the times share a step (as
    (1, 5, 10) and linspace(0.2, 1, 17) do) and one per distinct increment
    otherwise, with t = 0 giving e_x0, and the gap comes from a dense
    `eigvals` when n <= 1000.  The limit of e^{lam t} P_x0(tau > t) is
    Psi(x0) sum(phi) / <phi, Psi>.  The TV decay rate is fitted log-linearly
    and compared (by the caller) against the spectral gap.

    Raises ValueError for a negative or non-finite time or an x0_index outside
    [0, n), and TooLargeForDense beyond DENSE_CAP nodes.
    """
    mat = as_matrix(gen)
    n = mat.shape[0]
    times = np.asarray(t_list, dtype=float)
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise ValueError(f"survival times must be finite and >= 0, got {times.tolist()}")
    if not 0 <= x0_index < n:
        raise ValueError(f"x0_index {x0_index} outside [0, {n})")
    log_w = _reversing_weights(mat)
    gap = None
    if log_w is not None:
        law_rows, lam = _symmetric_survival(mat, log_w, times, x0_index)
        if n >= 2:
            gap = float(lam[-1] - lam[-2])
    else:
        gd = _dense(mat)
        law_rows = _survival_rows(gd, t_list, x0_index)
        if n <= 1000:
            decay = np.sort(-np.real(np.linalg.eigvals(gd)))
            if len(decay) >= 2:
                gap = float(decay[1] - decay[0])

    alpha = pair.phi
    rows = []
    tv_points = []
    for t, row in zip(t_list, law_rows):
        survival = float(row.sum())
        scaled = float(np.exp(pair.lam * t) * survival)
        conditioned = row / survival
        tv = 0.5 * float(np.abs(conditioned - alpha).sum())
        rows.append((float(t), scaled, tv))
        if TV_FIT_RANGE[0] < tv < TV_FIT_RANGE[1] and t > 0:
            tv_points.append((float(t), tv))

    limit = float(pair.psi[x0_index] * alpha.sum() / np.dot(alpha, pair.psi))

    rate = r2 = None
    if len(tv_points) >= 3:
        slope, r2 = line_fit(np.array([p[0] for p in tv_points]), np.log([p[1] for p in tv_points]))
        rate = -slope

    return SurvivalReport(
        rows=tuple(rows),
        limit_value=limit,
        tv_fit_rate=rate,
        tv_fit_r2=r2,
        spectral_gap=gap,
    )


@dataclass(frozen=True)
class LyapunovCertificate:
    """Drift certificate (G~ V)(x) <= C 1_K(x) - rho V(x) on the interior nodes."""

    V: np.ndarray
    C: float
    rho: float
    K_mask: np.ndarray
    eps: float
    ring_dominated: bool

    def check(self, g_tilde: sp.spmatrix) -> bool:
        lhs = g_tilde @ self.V
        rhs = self.C * self.K_mask.astype(float) - self.rho * self.V
        return bool(np.all(lhs <= rhs + 1e-9 * max(1.0, float(np.abs(lhs).max()))))


def _enlarged_grid(problem, h: float) -> Grid:
    ext = np.maximum(1.0, np.round(ENLARGEMENT * (problem.hi - problem.lo) / h)) * h
    return build_grid(with_bounds(problem, zip(problem.lo - ext, problem.hi + ext)), h)


def _scan_certificate(
    q: np.ndarray, v: np.ndarray, dist: np.ndarray, h: float, min_eps_steps: int = 1
) -> tuple[float, float, np.ndarray, float]:
    """Best (C, rho, K=dist>eps) with rho > 0; raises NoCertificate if none.

    rho is shaved by a relative 1e-9 so the stored inequality holds with a
    margin under independent re-evaluation.
    """
    best = None
    max_steps = int(np.floor(dist.max() / h)) + 1
    for j in range(min_eps_steps, max_steps + 1):
        eps = j * h
        k_mask = dist > eps + 1e-12
        outside = ~k_mask
        if not np.any(k_mask) or not np.any(outside):
            continue
        rho = float(np.min(-q[outside] / v[outside]))
        if rho <= 0:
            continue
        rho *= 1.0 - 1e-9
        c = max(0.0, float(np.max(q[k_mask] + rho * v[k_mask])))
        if best is None or rho > best[1]:
            best = (c, rho, k_mask, eps)
    if best is None:
        raise NoCertificate("no sub-level set K yields a positive decay rate rho")
    return best


def lyapunov_certificate(
    problem,
    h: float,
    policy,
    tol: float = 1e-10,
) -> LyapunovCertificate:
    """Constructive drift certificate for the conditioned chain of a policy.

    Recipe: enlarge the box, solve the principal eigenproblem of the policy
    generator minus the indicator of a centered ball B on the enlarged grid,
    restrict that eigenfunction Phi to the original nodes, and take
    V = Phi / Psi.  A scan over shrinking cores K = {dist > eps} picks the
    largest decay rate rho with its constant C.
    """
    grid = build_grid(problem, h)
    gen = assemble_generator(grid, problem, policy)
    # Both solves read only psi and lam, so neither runs the left side.
    pair = InverseIteration(gen, tol=tol).right()
    model = doob_transform(gen, pair)

    grid2 = _enlarged_grid(problem, h)
    # Each enlarged-box node takes the action of its nearest node in the box.
    pol2 = _policy_array(grid, problem, policy)[grid.nearest_index(grid2.nodes)]
    gen2 = assemble_generator(grid2, problem, pol2)

    center = 0.5 * (problem.lo + problem.hi)
    radius = BALL_RADIUS_FRAC * float(np.min(problem.hi - problem.lo))
    b_mask2 = np.linalg.norm(grid2.nodes - center[None, :], axis=1) < radius
    if not np.any(b_mask2):
        raise NoCertificate(f"ball of radius {radius} contains no grid node")
    mat2 = gen2.matrix - sp.diags(b_mask2.astype(float))
    pair2 = InverseIteration(mat2, tol=tol).right()

    phi_on_d = pair2.psi[grid2.nearest_index(grid.nodes)]
    v_field = phi_on_d / pair.psi
    q = model.g_tilde @ v_field
    c, rho, k_mask, eps = _scan_certificate(q, v_field, grid.dist_boundary(), h)

    return LyapunovCertificate(
        V=v_field,
        C=c,
        rho=rho,
        K_mask=k_mask,
        eps=eps,
        ring_dominated=bool(eps <= h + 1e-12),
    )


def verify_uniform_ergodicity(
    problem,
    h: float,
    n_policies: int = 10,
    seed: int = 20260814,
    tol: float = 1e-10,
) -> dict:
    """Uniform-in-policy ergodicity checks for the conditioned dynamics.

    Builds the outward-optimal log-eigenfunction psi_* (MIN mode), the
    reflected sub-lattice chains with drift m_v + a grad psi_*, and
    (a) a single Lyapunov pair valid for every action simultaneously,
    constructed from the cutoff-potential eigenfunction on the enlarged box;
    (b) the bound lam_* >= 0.5 sum |sigma^T grad psi_*|^2 d(mu_v) - slack for
    seeded random policies, reporting the slack each policy needs.
    """
    grid = build_grid(problem, h)
    trace_min = policy_iteration(problem, h, mode="MIN", tol=tol, grid=grid)
    lam_star_min = trace_min.lam
    psi_log = trace_min.psi_log
    sig = problem.sigma(grid.nodes)
    a_diag = sig * sig

    dist = grid.dist_boundary()
    sub_mask = dist > 2.0 * h + 1e-12
    if not np.any(sub_mask):
        raise NoCertificate("no nodes at distance > 2h; grid too coarse")
    sub_idx = np.flatnonzero(sub_mask)
    # The conditioned drift a grad(log psi_*) points toward the maximum of
    # psi_*, so the reflected chains' invariant laws are pinned there.
    pin = int(np.argmax(psi_log[sub_idx]))
    quad = gradient_cost(grid, sig, psi_log)
    pull = a_diag * discrete_gradient(grid, psi_log, extension="log-zero")

    def y_generator(action_or_policy) -> sp.csr_matrix:
        b = drift_under_policy(grid, problem, action_or_policy) + pull
        return monotone_stencil(grid, b[sub_idx], a_diag[sub_idx], nodes=sub_idx, reflect=True)[0]

    # Uniform certificate from the cutoff construction on the enlarged box.
    certificate = None
    cert_err: Exception | None = None
    min_side = float(np.min(problem.hi - problem.lo))
    grid2 = _enlarged_grid(problem, h)
    inner = grid2.nearest_index(grid.nodes)
    d2 = np.minimum(
        (grid2.nodes - problem.lo[None, :]).min(axis=1),
        (problem.hi[None, :] - grid2.nodes).min(axis=1),
    )
    for frac in EPS_CUT_FRACS:
        eps_cut = frac * min_side
        if eps_cut <= 2.0 * h:
            continue
        # d2 <= 0 off the original box, so the cutoff is zero there too.
        cut = np.clip((d2 - 2.0 * h) / (eps_cut - 2.0 * h), 0.0, 1.0)
        try:
            trace_pot = policy_iteration(
                problem, h, mode="MAX", tol=tol, grid=grid2, potential=2.0 * lam_star_min * cut
            )
            phi_hat = trace_pot.final_pair.psi[inner]
            v_hat = (phi_hat / trace_min.final_pair.psi)[sub_idx]
            q = None
            for u in range(problem.n_actions):
                qu = y_generator(u) @ v_hat
                q = qu if q is None else np.maximum(q, qu)
            c, rho, _, _ = _scan_certificate(q, v_hat, dist[sub_idx], h, min_eps_steps=3)
            certificate = {"C": c, "rho": rho, "eps_cut": eps_cut}
            break
        except NoCertificate as exc:
            cert_err = exc
    if certificate is None:
        raise NoCertificate(f"uniform certificate not found for any cutoff width: {cert_err}")

    rng = stream(seed, 0x3E2)
    per_policy = []
    slack_scale = certificate["C"] * h
    for _ in range(int(n_policies)):
        v = rng.integers(0, problem.n_actions, size=grid.n)
        mu_breve = null_vector(y_generator(v), pin)
        rhs = float(np.sum(quad[sub_idx] * mu_breve))
        slack_needed = max(0.0, rhs - lam_star_min)
        per_policy.append(
            {
                "slack_needed": slack_needed,
                "holds_with_ch": bool(rhs <= lam_star_min + slack_scale + 1e-12),
            }
        )

    return {
        "certificate": certificate,
        "per_policy": per_policy,
        "slack_bound_ch": slack_scale,
        "all_policies_hold": bool(all(p["holds_with_ch"] for p in per_policy)),
    }
