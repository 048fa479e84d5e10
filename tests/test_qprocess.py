"""Conditioned-process construction: transform algebra, measures, certificates."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from exitrate import qprocess
from exitrate.control import policy_iteration
from exitrate.eigen import EigenPair, principal_eigenpair
from exitrate.errors import IllConditioned, NoCertificate, NullVectorNotUnique, TooLargeForDense
from exitrate.grid import assemble_generator, build_grid
from exitrate.problems import drift_interval as drift_interval_spec
from exitrate.problems import ProblemSpec, validate_problem
from exitrate.qprocess import (
    DENSE_CAP,
    QProcessModel,
    doob_transform,
    girsanov_check,
    lyapunov_certificate,
    null_vector,
    rayleigh_identity,
    stationary_measures,
    survival_asymptotics,
    _reversing_weights,
    _survival_rows,
    _symmetric_survival,
    verify_uniform_ergodicity,
)

SQRT2 = np.sqrt(2.0)


@pytest.fixture(scope="module")
def three_node(bm_interval):
    gen = assemble_generator(build_grid(bm_interval, 0.25), bm_interval, 0)
    pair = principal_eigenpair(gen, tol=1e-12)
    return gen, pair


def _fake_pair(lam, psi):
    psi = np.asarray(psi, dtype=float)
    phi = np.full(len(psi), 1.0 / len(psi))
    return EigenPair(float(lam), psi, phi, np.nan, np.nan, (np.nan, np.nan), 0)


def test_three_node_transform_has_closed_form_rates(three_node):
    # psi = (1/sqrt2, 1, 1/sqrt2) turns the rate-8 chain into jump rates
    # 8 sqrt2 toward the center and 4 sqrt2 outward, diagonal -8 sqrt2.
    gen, pair = three_node
    model = doob_transform(gen, pair)
    gt = model.g_tilde.toarray()
    expected = np.array(
        [
            [-8 * SQRT2, 8 * SQRT2, 0.0],
            [4 * SQRT2, -8 * SQRT2, 4 * SQRT2],
            [0.0, 8 * SQRT2, -8 * SQRT2],
        ]
    )
    np.testing.assert_allclose(gt, expected, atol=1e-9)
    assert model.row_sum_residual <= 1e-9
    assert abs(pair.lam - (16.0 - 8.0 * SQRT2)) < 1e-10


def test_three_node_invariant_law_is_quarter_half_quarter(three_node):
    gen, pair = three_node
    model = doob_transform(gen, pair)
    mu, alpha = stationary_measures(gen, model, pair)
    np.testing.assert_allclose(mu, [0.25, 0.5, 0.25], atol=1e-12)
    # Exit law: psi renormalized to unit sum, (1, sqrt2, 1) / (2 + sqrt2).
    np.testing.assert_allclose(alpha, np.array([1, SQRT2, 1]) / (2 + SQRT2), atol=1e-12)
    assert model.product_residual <= 1e-13
    assert mu.shape == alpha.shape == (3,)
    assert mu.sum() == pytest.approx(1.0, abs=1e-15) and alpha.sum() == pytest.approx(1.0, abs=1e-15)


@given(st.integers(0, 2 ** 32 - 1))
def test_conjugation_identity_holds_for_any_positive_vector(seed):
    # The semigroup identity is matrix conjugation, so it must hold to
    # roundoff for arbitrary (rate, vector), not just the eigenpair.
    rng = np.random.default_rng(seed)
    prob = __import__("exitrate").problem_by_name("drift-interval")
    gen = assemble_generator(build_grid(prob, 1 / 16), prob, 0)
    psi = np.exp(rng.normal(0.0, 1.0, gen.n))
    pair = _fake_pair(rng.uniform(-2.0, 8.0), psi / psi.max())
    g_field = rng.uniform(-1.0, 1.0, gen.n)
    _, _, gap = girsanov_check(gen, pair, t=0.7, g_field=g_field)
    assert gap <= 1e-8


def test_conjugation_gap_is_tiny_at_the_computed_pair(drift_interval):
    gen = assemble_generator(build_grid(drift_interval, 1 / 16), drift_interval, 0)
    pair = principal_eigenpair(gen, tol=1e-12)
    g_field = np.ones(gen.n)
    lhs, rhs, gap = girsanov_check(gen, pair, t=1.0, g_field=g_field)
    assert gap <= 1e-10
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_transform_rejects_extreme_eigenvector_ranges(three_node):
    gen, _ = three_node
    spiked = _fake_pair(1.0, np.array([1e-13, 1.0, 1.0]))
    with pytest.raises(IllConditioned):
        doob_transform(gen, spiked)


def test_scaled_survival_reaches_the_closed_form_limit(three_node):
    gen, pair = three_node
    rep = survival_asymptotics(gen, pair, (1.0, 5.0, 10.0), x0_index=1)
    assert abs(rep.limit_value - (1 + SQRT2) / 2) < 1e-10
    scaled = [row[1] for row in rep.rows]
    assert abs(scaled[-1] - rep.limit_value) < 1e-10
    tvs = [row[2] for row in rep.rows]
    assert tvs[0] > tvs[1]
    # By t=5 the conditioned law has reached the exact quasi-stationary law
    # to roundoff, so TV sits at the floor set by the computed phi: its
    # distance to the closed form (1/sqrt2, 1, 1/sqrt2) / (1 + sqrt2).
    exact = np.array([1 / SQRT2, 1.0, 1 / SQRT2]) / (1 + SQRT2)
    floor = 0.5 * float(np.abs(pair.phi - exact).sum())
    assert abs(tvs[1] - floor) <= 1e-15
    assert abs(tvs[2] - floor) <= 1e-15
    assert rep.spectral_gap is not None
    assert abs(rep.spectral_gap - 8 * SQRT2) < 1e-9


SURVIVAL_TIMES = [(1.0, 5.0, 10.0), tuple(np.linspace(0.2, 1.0, 17)), (0.3, 0.7, 2.0)]
REVERSIBLE = [
    "bm-interval",
    "drift-interval",
    "drift-interval-c0.5",
    "drift-interval-c2",
    "bang-bang-max",
    "rect-2d-h16",
    "rect-2d-h32",
]


@pytest.fixture(scope="module")
def survival_meshes(bm_interval, drift_interval, rect_2d, bang_bang):
    meshes = {
        name: assemble_generator(build_grid(prob, 1 / 32), prob, 0)
        for name, prob in (
            ("bm-interval", bm_interval),
            ("drift-interval", drift_interval),
            ("drift-interval-c0.5", validate_problem(drift_interval_spec(0.5))),
            ("drift-interval-c2", validate_problem(drift_interval_spec(2.0))),
        )
    }
    meshes["bang-bang-max"] = policy_iteration(bang_bang, 1 / 32, mode="MAX").final_generator
    for k in (16, 32):
        meshes[f"rect-2d-h{k}"] = policy_iteration(rect_2d, 1 / k, mode="MAX").final_generator
    # Drift on x1 chosen by the x2 row: the rates around a cell no longer
    # balance, so this chain is not reversible.
    grid = build_grid(rect_2d, 1 / 16)
    rows_x2 = np.rint(grid.nodes[:, 1] * 16).astype(int)
    meshes["rect-2d-x2-policy"] = assemble_generator(grid, rect_2d, rows_x2 % 3)
    return meshes


@pytest.fixture(scope="module")
def dense_rows(survival_meshes):
    """Reference rows x0 = n // 3 of a separate dense expm(t G) per t, cached."""
    cache = {}

    def rows(mesh, ts):
        if (mesh, ts) not in cache:
            gd = survival_meshes[mesh].matrix.toarray()
            cache[mesh, ts] = [expm(t * gd)[gd.shape[0] // 3] for t in ts]
        return cache[mesh, ts]

    return rows


def _assert_rows_match(rows, refs, mesh):
    # Relative to the largest entry of the reference row, in max-norm.
    for k, (row, ref) in enumerate(zip(rows, refs)):
        assert np.abs(row - ref).max() <= 1e-11 * np.abs(ref).max(), (mesh, k)


@pytest.mark.parametrize("mesh", ["bm-interval", "drift-interval", "rect-2d-h16", "rect-2d-h32"])
def test_propagated_rows_match_dense_exponential_rows(survival_meshes, dense_rows, mesh):
    # The worst relative gap seen is 3.9e-12 (drift-interval, t=10); on
    # bm-interval a symmetric eigh reference puts both methods at
    # 0.6-1.3e-12 there, so 1e-11 is roundoff headroom, not slack for a
    # wrong row.
    gd = survival_meshes[mesh].matrix.toarray()
    for ts in SURVIVAL_TIMES:
        _assert_rows_match(_survival_rows(gd, ts, gd.shape[0] // 3), dense_rows(mesh, ts), mesh)


@pytest.mark.parametrize("mesh", REVERSIBLE)
def test_reversible_chains_take_one_symmetric_eigendecomposition(
    survival_meshes, dense_rows, monkeypatch, mesh
):
    # Every chain here satisfies detailed balance: the 1-D ones are
    # birth-death chains and the rect-2d MAX optimum's policy depends on x1
    # only.  The largest sqrt(w_max / w_min) among them is 6.54
    # (drift-interval c=2).  Rows agree with per-t dense expm to 5.7e-12
    # relative at worst (drift-interval c=0.5).
    gen = survival_meshes[mesh]
    mat = gen.matrix
    x0 = gen.n // 3
    log_w = _reversing_weights(mat)
    assert log_w is not None
    for ts in SURVIVAL_TIMES:
        rows, _ = _symmetric_survival(mat, log_w, np.array(ts), x0)
        _assert_rows_match(rows, dense_rows(mesh, ts), mesh)

    seen = _count_exponentials(monkeypatch)
    rep = survival_asymptotics(gen, principal_eigenpair(gen), SURVIVAL_TIMES[0], x0_index=x0)
    assert seen == []
    decay = np.sort(-np.real(np.linalg.eigvals(mat.toarray())))
    assert rep.spectral_gap == pytest.approx(decay[1] - decay[0], rel=1e-11)


def test_detailed_balance_check_rejects_one_rate_off_by_1e_9(survival_meshes):
    mat = survival_meshes["rect-2d-h16"].matrix.tocsr(copy=True)
    assert _reversing_weights(mat) is not None
    i = mat.shape[0] // 2
    j = mat.indices[mat.indptr[i]:mat.indptr[i + 1]][0]
    assert i != j
    mat[i, j] *= 1.0 + 1e-9
    assert _reversing_weights(mat) is None
    assert _reversing_weights(survival_meshes["rect-2d-x2-policy"].matrix) is None


@pytest.mark.parametrize("t_list, x0", [((1.0, -1.0), 3), ((np.nan,), 3), ((np.inf,), 3), ((1.0,), -1), ((1.0,), 7)])
def test_survival_rejects_bad_times_and_start_nodes(bm_interval, t_list, x0):
    gen = assemble_generator(build_grid(bm_interval, 1 / 8), bm_interval, 0)
    with pytest.raises(ValueError):
        survival_asymptotics(gen, principal_eigenpair(gen), t_list, x0_index=x0)


def test_survival_rows_keep_the_given_order_and_start_at_e_x0(three_node):
    gen, _ = three_node
    gd = gen.matrix.toarray()
    rows = _survival_rows(gd, (2.0, 0.0, 1.0, 2.0), 1)
    np.testing.assert_array_equal(rows[1], [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(rows[0], rows[3])
    np.testing.assert_allclose(rows[2], expm(gd)[1], rtol=0, atol=1e-15)
    np.testing.assert_allclose(rows[0], expm(2 * gd)[1], rtol=0, atol=1e-15)


def _count_exponentials(monkeypatch) -> list:
    seen = []

    def counted(a):
        seen.append(a.shape)
        return expm(a)

    monkeypatch.setattr(qprocess, "expm", counted)
    return seen


@pytest.mark.parametrize(
    "ts, calls",
    [(SURVIVAL_TIMES[0], 1), (SURVIVAL_TIMES[1], 1), (SURVIVAL_TIMES[2], 3), ((1.0, 1.0 + 1e-9), 2)],
)
def test_survival_takes_one_exponential_per_distinct_step(survival_meshes, monkeypatch, ts, calls):
    # A chain that fails detailed balance, so the rows are propagated.  The
    # last list has a common step of 1e-9, which would take 1e9 row
    # products; it gets one exponential per increment instead.
    gen = survival_meshes["rect-2d-x2-policy"]
    pair = principal_eigenpair(gen)
    seen = _count_exponentials(monkeypatch)
    survival_asymptotics(gen, pair, ts, x0_index=gen.n // 3)
    assert len(seen) == calls


def test_stacked_conjugation_check_takes_two_exponentials(three_node, monkeypatch):
    gen, pair = three_node
    fields = np.random.default_rng(7).random((3, 5))
    seen = _count_exponentials(monkeypatch)
    lhs, rhs, gap = girsanov_check(gen, pair, 1.0, fields)
    assert len(seen) == 2
    assert lhs.shape == rhs.shape == (3, 5)
    singles = [girsanov_check(gen, pair, 1.0, fields[:, j]) for j in range(5)]
    assert gap == pytest.approx(max(s[2] for s in singles), rel=0, abs=1e-14)
    np.testing.assert_allclose(lhs, np.stack([s[0] for s in singles], axis=1), rtol=1e-14)


def test_conditioned_tv_decay_rate_matches_the_modes(three_node):
    gen, pair = three_node
    ts = (0.05, 0.1, 0.15, 0.2, 0.3)
    # Starting at the center, symmetry cancels the odd mode, so the total
    # variation decays at the second gap 16 sqrt2 rather than 8 sqrt2.
    center = survival_asymptotics(gen, pair, ts, x0_index=1)
    assert center.tv_fit_rate == pytest.approx(16 * SQRT2, rel=0.05)
    edge = survival_asymptotics(gen, pair, ts, x0_index=0)
    assert edge.tv_fit_rate == pytest.approx(8 * SQRT2, rel=0.10)
    assert edge.tv_fit_r2 > 0.99


def test_conditioned_drift_pushes_away_from_the_boundary(bm_interval, monkeypatch):
    # bm-interval has no drift of its own, so the reflected chains'
    # conditioned drift is the pull a grad(log psi_*) on the sub-lattice.
    drifts = []
    real = qprocess.monotone_stencil

    def recorded(grid, drift, *args, **kwargs):
        drifts.append(drift)
        return real(grid, drift, *args, **kwargs)

    monkeypatch.setattr(qprocess, "monotone_stencil", recorded)
    verify_uniform_ergodicity(bm_interval, 1 / 32, n_policies=1)
    pull = drifts[0][:, 0]
    assert pull[0] > 1.0
    assert pull[-1] < -1.0
    assert abs(pull[len(pull) // 2]) < 1e-8


def test_quadratic_form_identity_converges_with_the_mesh(bm_interval):
    rels = []
    for h in (1 / 32, 1 / 64):
        grid = build_grid(bm_interval, h)
        gen = assemble_generator(grid, bm_interval, 0)
        pair = principal_eigenpair(gen, tol=1e-12)
        model = doob_transform(gen, pair)
        mu, _ = stationary_measures(gen, model, pair)
        _, rel = rayleigh_identity(grid, bm_interval, np.log(pair.psi), mu, pair.lam)
        rels.append(rel)
    assert rels[1] < rels[0]
    assert rels[1] < 0.05


def test_drift_certificate_validates_on_the_transformed_chain(bm_interval):
    cert = lyapunov_certificate(bm_interval, 1 / 32, 0)
    assert cert.rho > 0.0
    assert cert.C > 0.0
    assert (cert.V >= 1.0 - 1e-12).all()
    gen = assemble_generator(build_grid(bm_interval, 1 / 32), bm_interval, 0)
    pair = principal_eigenpair(gen, tol=1e-12)
    model = doob_transform(gen, pair)
    assert cert.check(model.g_tilde)
    # A wildly optimistic decay rate must fail the same inequality.
    import dataclasses

    greedy = dataclasses.replace(cert, rho=100.0 * cert.rho, C=cert.C)
    assert not greedy.check(model.g_tilde)


def test_uniform_ergodicity_certificates_hold_for_sampled_policies(bang_bang):
    res = verify_uniform_ergodicity(bang_bang, 1 / 16, n_policies=3, seed=7)
    assert res["all_policies_hold"]
    assert res["certificate"]["rho"] > 0.0
    assert res["slack_bound_ch"] > 0.0
    assert len(res["per_policy"]) == 3


def test_uniform_ergodicity_needs_nodes_beyond_2h(bang_bang):
    # At h=1/2 the three nodes lie within 2h of the boundary.
    with pytest.raises(NoCertificate, match="no nodes at distance > 2h"):
        verify_uniform_ergodicity(bang_bang, 1 / 2, n_policies=1)


def test_drift_certificate_needs_a_node_in_the_centre_ball():
    # On a 1 x 1.5 box at h=1/2 the centre lies h/2 = 0.25 from its nearest nodes,
    # on the ball's radius 0.25 * 1 and so outside it.
    spec = ProblemSpec("oblong", 2, ((0.0, 1.0), (0.0, 1.5)), ("0",), (("0", "0"),), ("1", "1"))
    with pytest.raises(NoCertificate, match="ball of radius 0.25 contains no grid node"):
        lyapunov_certificate(spec, 1 / 2, 0)


def test_conjugation_check_refuses_a_chain_beyond_the_dense_cap(bm_interval):
    gen = assemble_generator(build_grid(bm_interval, 1 / 2048), bm_interval, 0)
    n = gen.matrix.shape[0]
    assert n > DENSE_CAP
    with pytest.raises(TooLargeForDense, match=f"capped at n={DENSE_CAP}, got {n}"):
        girsanov_check(gen, _fake_pair(np.pi**2 / 2, np.ones(n)), 0.1, np.ones(n))


def _dense_row_null_vector(mat):
    # Reference: replace the first equation of mat^T mu = 0 by sum(mu) = 1.
    m = mat.T.toarray()
    m[0, :] = 1.0
    rhs = np.zeros(mat.shape[0])
    rhs[0] = 1.0
    mu = np.linalg.solve(m, rhs)
    return mu / mu.sum()


@pytest.mark.parametrize("name,h", [("bm-interval", 1 / 32), ("rect-2d", 1 / 16)])
def test_pinned_null_solve_matches_the_dense_row_solve(name, h):
    prob = __import__("exitrate").problem_by_name(name)
    gen = assemble_generator(build_grid(prob, h), prob, 0)
    # Both systems are singular only up to the eigen error, and the choice
    # of dropped equation moves the solution by about that much, so the
    # comparison uses a tight pair and sees only roundoff.
    pair = principal_eigenpair(gen, tol=1e-12)
    model = doob_transform(gen, pair)
    shifted = (gen.matrix + pair.lam * sp.identity(gen.n)).tocsr()
    pin = int(np.argmax(pair.psi * pair.phi))
    for mat in (model.g_tilde, shifted):
        mu = null_vector(mat, pin)
        assert abs(mu.sum() - 1.0) <= 1e-14
        assert np.abs(mu - _dense_row_null_vector(mat)).sum() <= 1e-12
    stationary_measures(gen, model, pair)
    assert model.product_residual <= 1e-12


@pytest.mark.filterwarnings("ignore:Matrix is exactly singular")
def test_null_solve_rejects_a_split_chain():
    block = sp.block_diag([np.array([[-1.0, 1.0], [1.0, -1.0]])] * 2).tocsr()
    with pytest.raises(NullVectorNotUnique):
        null_vector(block, 0)


def test_disconnected_transformed_chain_is_rejected():
    block = sp.block_diag(
        [np.array([[-1.0, 1.0], [1.0, -1.0]]), np.array([[-2.0, 2.0], [2.0, -2.0]])]
    ).tocsr()
    model = QProcessModel(g_tilde=block, row_sum_residual=0.0)
    gen_matrix = (block - sp.identity(4)).tocsr()
    with pytest.raises(NullVectorNotUnique):
        stationary_measures(gen_matrix, model, _fake_pair(1.0, np.ones(4)))
