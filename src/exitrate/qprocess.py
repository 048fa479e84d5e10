"""Conditioned process: Doob transform, stationary measures, and certificates.

The transform G~ = diag(Psi)^-1 (G + lambda I) diag(Psi) is exact matrix
conjugation, so the killed-semigroup identity e^{tG} g = e^{-lambda t} Psi *
e^{tG~}(g / Psi) holds to roundoff regardless of eigenpair quality, while the
row sums of G~ vanish only as well as the eigen residual allows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import spsolve

from .control import policy_iteration
from .eigen import EigenPair, check_irreducible, principal_eigenpair
from .errors import IllConditioned, NoCertificate, NullVectorNotUnique, TooLargeForDense
from .grid import Generator, Grid, assemble_generator, build_grid, discrete_gradient, drift_under_policy
from .problems import with_bounds

DENSE_CAP = 2000


@dataclass
class QProcessModel:
    """Conservative transformed generator plus the measures attached to it."""

    g_tilde: sp.csr_matrix
    lam: float
    psi: np.ndarray
    psi_log: np.ndarray
    row_sum_residual: float
    mu_tilde: np.ndarray | None = None
    alpha: np.ndarray | None = None
    product_residual: float | None = None


def doob_transform(gen: Generator | sp.spmatrix, pair: EigenPair, max_ratio: float = 1e12) -> QProcessModel:
    """Exact discrete h-transform by the principal eigenvector."""
    mat = gen.matrix if isinstance(gen, Generator) else sp.csr_matrix(gen)
    psi = pair.psi
    ratio = float(psi.max() / psi.min())
    if ratio > max_ratio:
        raise IllConditioned(
            f"max Psi / min Psi = {ratio:.3e} exceeds {max_ratio:.0e}; "
            "transform would amplify the eigen residual beyond tolerance"
        )
    inv = sp.diags(1.0 / psi)
    dia = sp.diags(psi)
    g_tilde = (inv @ mat @ dia + pair.lam * sp.identity(mat.shape[0])).tocsr()
    row_sums = np.asarray(g_tilde.sum(axis=1)).ravel()
    return QProcessModel(
        g_tilde=g_tilde,
        lam=pair.lam,
        psi=psi,
        psi_log=np.log(psi),
        row_sum_residual=float(np.abs(row_sums).max()),
    )


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
    rhs = np.zeros(n)
    rhs[pin] = 1.0
    mu = spsolve(system, rhs)
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
    mat = gen.matrix if isinstance(gen, Generator) else sp.csr_matrix(gen)
    try:
        alpha = null_vector(mat + pair.lam * sp.identity(mat.shape[0], format="csr"), pin)
    except NullVectorNotUnique:
        alpha = pair.phi
    product = model.psi * alpha
    product = product / product.sum()
    model.mu_tilde = mu
    model.alpha = alpha
    model.product_residual = float(np.abs(mu - product).sum())
    return mu, alpha


def qprocess_drift(problem, grid: Grid, psi_log: np.ndarray, policy) -> np.ndarray:
    """Conditioned drift m_v + a grad(log Psi) on the nodes (one-sided at the edge)."""
    m = drift_under_policy(grid, problem, policy)
    sig = problem.sigma(grid.nodes)
    g = discrete_gradient(grid, psi_log, extension="log-zero")
    return m + (sig * sig) * g


def rayleigh_identity(
    grid: Grid, problem, psi_log: np.ndarray, mu_tilde: np.ndarray, lam: float
) -> tuple[float, float]:
    """Quadratic-form estimate 0.5 sum |sigma^T grad psi|^2 mu and its relative error."""
    g = discrete_gradient(grid, psi_log, extension="log-zero")
    sig = problem.sigma(grid.nodes)
    lam_hat = 0.5 * float(np.sum(np.sum((sig * g) ** 2, axis=1) * mu_tilde))
    return lam_hat, abs(lam_hat - lam) / abs(lam)


def _dense(mat: sp.spmatrix) -> np.ndarray:
    n = mat.shape[0]
    if n > DENSE_CAP:
        raise TooLargeForDense(f"dense path capped at n={DENSE_CAP}, got {n}")
    return mat.toarray()


def girsanov_check(
    gen: Generator | sp.spmatrix, pair: EigenPair, t: float, g_field: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Killed-semigroup conjugation at time t: lhs, rhs, and their sup gap."""
    mat = gen.matrix if isinstance(gen, Generator) else sp.csr_matrix(gen)
    model = doob_transform(gen, pair)
    gd = _dense(mat)
    gt = _dense(model.g_tilde)
    g_field = np.asarray(g_field, dtype=float)
    lhs = expm(t * gd) @ g_field
    rhs = np.exp(-pair.lam * t) * pair.psi * (expm(t * gt) @ (g_field / pair.psi))
    return lhs, rhs, float(np.abs(lhs - rhs).max())


@dataclass(frozen=True)
class SurvivalReport:
    rows: tuple[tuple[float, float, float], ...]  # (t, e^{lam t} P(tau > t), TV to alpha)
    limit_value: float
    x0_index: int
    tv_fit_rate: float | None
    tv_fit_r2: float | None
    spectral_gap: float | None


def survival_asymptotics(
    gen: Generator | sp.spmatrix,
    pair: EigenPair,
    t_list: Sequence[float],
    x0_index: int,
    fit_tv_range: tuple[float, float] = (1e-11, 0.5),
) -> SurvivalReport:
    """Scaled survival table, conditioned-law TV decay, and the t -> inf limit.

    The limit of e^{lam t} P_x0(tau > t) is Psi(x0) sum(phi) / <phi, Psi>.
    The TV decay rate is fitted log-linearly and compared (by the caller)
    against the dense spectral gap, which is also computed here when the
    matrix is small enough.
    """
    mat = gen.matrix if isinstance(gen, Generator) else sp.csr_matrix(gen)
    gd = _dense(mat)
    alpha = pair.phi
    rows = []
    tv_points = []
    for t in t_list:
        row = expm(t * gd)[x0_index, :]
        survival = float(row.sum())
        scaled = float(np.exp(pair.lam * t) * survival)
        conditioned = row / survival
        tv = 0.5 * float(np.abs(conditioned - alpha).sum())
        rows.append((float(t), scaled, tv))
        if fit_tv_range[0] < tv < fit_tv_range[1] and t > 0:
            tv_points.append((float(t), tv))

    limit = float(pair.psi[x0_index] * alpha.sum() / np.dot(alpha, pair.psi))

    rate = r2 = None
    if len(tv_points) >= 3:
        ts = np.array([p[0] for p in tv_points])
        ys = np.log([p[1] for p in tv_points])
        slope, intercept = np.polyfit(ts, ys, 1)
        fit = slope * ts + intercept
        ss_res = float(np.sum((ys - fit) ** 2))
        ss_tot = float(np.sum((ys - ys.mean()) ** 2))
        rate = float(-slope)
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0

    gap = None
    if mat.shape[0] <= 1000:
        decay = np.sort(-np.real(np.linalg.eigvals(gd)))
        if len(decay) >= 2:
            gap = float(decay[1] - decay[0])

    return SurvivalReport(
        rows=tuple(rows),
        limit_value=limit,
        x0_index=x0_index,
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
    lam_prime: float
    floor: float
    details: dict = field(default=None)  # type: ignore[assignment]

    def check(self, g_tilde: sp.spmatrix, slack: float = 1e-9) -> bool:
        lhs = g_tilde @ self.V
        rhs = self.C * self.K_mask.astype(float) - self.rho * self.V
        return bool(np.all(lhs <= rhs + slack * max(1.0, float(np.abs(lhs).max()))))


def _enlarged_grid(problem, h: float, enlargement: float) -> tuple[Grid, object]:
    lo, hi = problem.lo, problem.hi
    new_bounds = []
    for k in range(len(lo)):
        ext = max(1, int(round(enlargement * (hi[k] - lo[k]) / h))) * h
        new_bounds.append((lo[k] - ext, hi[k] + ext))
    spec2 = with_bounds(problem, new_bounds)
    return build_grid(spec2, h), spec2


def _embed_indices(inner: Grid, outer: Grid, h: float) -> np.ndarray:
    """Outer-grid indices of the inner grid's nodes (lattices must align)."""
    offsets = [int(round((inner.lo[k] - outer.lo[k]) / h)) for k in range(inner.d)]
    multis = np.unravel_index(np.arange(inner.n), inner.dims)
    outer_multis = tuple(multis[k] + offsets[k] for k in range(inner.d))
    return np.ravel_multi_index(outer_multis, outer.dims)


def _extend_policy(inner: Grid, outer: Grid, policy: np.ndarray) -> np.ndarray:
    """Nearest-interior-node extension of a policy to the enlarged grid."""
    clipped = np.clip(outer.nodes, inner.lo + inner.h, inner.hi - inner.h)
    return policy[inner.nearest_index(clipped)]


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
    B_radius: float | None = None,
    enlargement: float = 0.25,
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
    pair = principal_eigenpair(gen, tol=tol)
    model = doob_transform(gen, pair)

    grid2, spec2 = _enlarged_grid(problem, h, enlargement)
    from .grid import _policy_array  # local import to reuse coercion

    pol_arr = _policy_array(grid, problem, policy)
    pol2 = _extend_policy(grid, grid2, pol_arr)
    gen2 = assemble_generator(grid2, spec2, pol2)

    center = 0.5 * (problem.lo + problem.hi)
    radius = B_radius if B_radius is not None else 0.25 * float(np.min(problem.hi - problem.lo))
    b_mask2 = np.linalg.norm(grid2.nodes - center[None, :], axis=1) < radius
    if not np.any(b_mask2):
        raise NoCertificate(f"ball of radius {radius} contains no grid node")
    mat2 = gen2.matrix - sp.diags(b_mask2.astype(float))
    pair2 = principal_eigenpair(mat2, tol=tol)

    phi_on_d = pair2.psi[_embed_indices(grid, grid2, h)]
    v_field = phi_on_d / pair.psi
    q = model.g_tilde @ v_field
    c, rho, k_mask, eps = _scan_certificate(q, v_field, grid.dist_boundary(), h)

    return LyapunovCertificate(
        V=v_field,
        C=c,
        rho=rho,
        K_mask=k_mask,
        eps=eps,
        lam_prime=pair2.lam,
        floor=float((v_field * pair.psi).min()),
        details={
            "lam": pair.lam,
            "B_radius": radius,
            "enlargement": enlargement,
            "min_phi_on_D": float(phi_on_d.min()),
            "ring_dominated": bool(eps <= h + 1e-12),
        },
    )


def _reflected_generator(
    grid: Grid, sub_idx: np.ndarray, drift: np.ndarray, a_diag: np.ndarray
) -> sp.csr_matrix:
    """Conservative chain on a sub-lattice: flux leaving the set is dropped whole.

    drift and a_diag are (n_sub, d) arrays at the sub-lattice nodes.
    """
    h = grid.h
    n_sub = len(sub_idx)
    sub_pos = -np.ones(grid.n, dtype=np.int64)
    sub_pos[sub_idx] = np.arange(n_sub)
    rows, cols, vals = [], [], []
    diag = np.zeros(n_sub)
    local = np.arange(n_sub)
    for k in range(grid.d):
        diff = a_diag[:, k] / (2.0 * h * h)
        mk = drift[:, k]
        central = np.abs(mk) * h < a_diag[:, k]
        up_rate = np.where(central, diff + mk / (2.0 * h), diff + np.maximum(mk, 0.0) / h)
        dn_rate = np.where(central, diff - mk / (2.0 * h), diff + np.maximum(-mk, 0.0) / h)
        for sign, rate in ((0, dn_rate), (1, up_rate)):
            nb_global = grid.neighbor_table[sub_idx, k, sign]
            nb_local = np.where(nb_global >= 0, sub_pos[np.maximum(nb_global, 0)], -1)
            keep = nb_local >= 0
            rows.append(local[keep])
            cols.append(nb_local[keep])
            vals.append(rate[keep])
            diag[keep] -= rate[keep]  # reflection: dropped flux leaves the diagonal too
    rows.append(local)
    cols.append(local)
    vals.append(diag)
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n_sub, n_sub)
    ).tocsr()


def verify_uniform_ergodicity(
    problem,
    h: float,
    n_policies: int = 10,
    seed: int = 20260814,
    tol: float = 1e-10,
    eps_cut_fracs: Sequence[float] = (0.25, 0.375, 0.125),
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
    trace_max = policy_iteration(problem, h, mode="MAX", tol=tol, grid=grid)
    lam_star_min = trace_min.lam
    psi_log = trace_min.psi_log
    g_hat = discrete_gradient(grid, psi_log, extension="log-zero")
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
    quad = 0.5 * np.sum((sig * g_hat) ** 2, axis=1)

    def y_generator(action_or_policy) -> sp.csr_matrix:
        m = drift_under_policy(grid, problem, action_or_policy)
        b = m + a_diag * g_hat
        return _reflected_generator(grid, sub_idx, b[sub_idx], a_diag[sub_idx])

    # Uniform certificate from the cutoff construction on the enlarged box.
    certificate = None
    cert_err: Exception | None = None
    min_side = float(np.min(problem.hi - problem.lo))
    for frac in eps_cut_fracs:
        eps_cut = frac * min_side
        if eps_cut <= 2.0 * h:
            continue
        grid2, _ = _enlarged_grid(problem, h, 0.25)
        d2 = np.minimum(
            (grid2.nodes - problem.lo[None, :]).min(axis=1),
            (problem.hi[None, :] - grid2.nodes).min(axis=1),
        )
        inside_d = np.all(
            (grid2.nodes > problem.lo[None, :]) & (grid2.nodes < problem.hi[None, :]), axis=1
        )
        cut = np.clip((d2 - 2.0 * h) / (eps_cut - 2.0 * h), 0.0, 1.0)
        cut[~inside_d] = 0.0
        try:
            trace_pot = policy_iteration(
                problem, h, mode="MAX", tol=tol, grid=grid2, potential=2.0 * lam_star_min * cut
            )
            phi_hat = trace_pot.final_pair.psi[_embed_indices(grid, grid2, h)]
            v_hat = (phi_hat / trace_min.final_pair.psi)[sub_idx]
            q = None
            for u in range(problem.n_actions):
                qu = y_generator(u) @ v_hat
                q = qu if q is None else np.maximum(q, qu)
            c, rho, k_mask, eps = _scan_certificate(q, v_hat, dist[sub_idx], h, min_eps_steps=3)
            certificate = {
                "C": c,
                "rho": rho,
                "eps": eps,
                "eps_cut": eps_cut,
                "lam_prime": trace_pot.lam,
                "V_hat": v_hat,
                "K_mask": k_mask,
            }
            break
        except NoCertificate as exc:
            cert_err = exc
    if certificate is None:
        raise NoCertificate(f"uniform certificate not found for any cutoff width: {cert_err}")

    rng = np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, 0x3E2], dtype=np.uint64)))
    per_policy = []
    slack_scale = certificate["C"] * h
    for _ in range(int(n_policies)):
        v = rng.integers(0, problem.n_actions, size=grid.n)
        mu_breve = null_vector(y_generator(v), pin)
        rhs = float(np.sum(quad[sub_idx] * mu_breve))
        slack_needed = max(0.0, rhs - lam_star_min)
        per_policy.append(
            {
                "rhs": rhs,
                "slack_needed": slack_needed,
                "holds_with_ch": bool(rhs <= lam_star_min + slack_scale + 1e-12),
            }
        )

    return {
        "lam_star_max_mode": trace_max.lam,
        "lam_star_min_mode": lam_star_min,
        "n_actions": problem.n_actions,
        "sub_nodes": int(len(sub_idx)),
        "certificate": certificate,
        "per_policy": per_policy,
        "slack_bound_ch": slack_scale,
        "all_policies_hold": bool(all(p["holds_with_ch"] for p in per_policy)),
    }


def export_measures_csv(grid: Grid, model: QProcessModel, pair: EigenPair, path: str, V: np.ndarray | None = None) -> None:
    from ._util import write_csv

    coords = [f"x{k + 1}" for k in range(grid.d)]
    header = coords + ["mu_tilde", "alpha", "psi", "phi"] + (["V"] if V is not None else [])
    mu = model.mu_tilde if model.mu_tilde is not None else np.full(grid.n, np.nan)
    al = model.alpha if model.alpha is not None else np.full(grid.n, np.nan)
    rows = (
        list(grid.nodes[i]) + [mu[i], al[i], pair.psi[i], pair.phi[i]] + ([V[i]] if V is not None else [])
        for i in range(grid.n)
    )
    write_csv(path, header, rows)
