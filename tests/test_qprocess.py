"""Conditioned-process construction: transform algebra, measures, certificates."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from exitrate.eigen import EigenPair, principal_eigenpair
from exitrate.errors import IllConditioned, NullVectorNotUnique
from exitrate.grid import assemble_generator, build_grid
from exitrate.qprocess import (
    QProcessModel,
    doob_transform,
    export_measures_csv,
    girsanov_check,
    lyapunov_certificate,
    null_vector,
    qprocess_drift,
    rayleigh_identity,
    stationary_measures,
    survival_asymptotics,
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
    assert abs(model.lam - (16.0 - 8.0 * SQRT2)) < 1e-10


def test_three_node_invariant_law_is_quarter_half_quarter(three_node):
    gen, pair = three_node
    model = doob_transform(gen, pair)
    mu, alpha = stationary_measures(gen, model, pair)
    np.testing.assert_allclose(mu, [0.25, 0.5, 0.25], atol=1e-12)
    # Exit law: psi renormalized to unit sum, (1, sqrt2, 1) / (2 + sqrt2).
    np.testing.assert_allclose(alpha, np.array([1, SQRT2, 1]) / (2 + SQRT2), atol=1e-12)
    assert model.product_residual <= 1e-13
    assert model.mu_tilde is not None and model.alpha is not None


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
    assert tvs[0] > tvs[1] > tvs[2] >= 0.0
    assert rep.spectral_gap is not None
    assert abs(rep.spectral_gap - 8 * SQRT2) < 1e-9


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


def test_conditioned_drift_pushes_away_from_the_boundary(bm_interval):
    grid = build_grid(bm_interval, 1 / 32)
    gen = assemble_generator(grid, bm_interval, 0)
    pair = principal_eigenpair(gen)
    m = qprocess_drift(bm_interval, grid, np.log(pair.psi), 0)
    assert m[0, 0] > 1.0
    assert m[-1, 0] < -1.0
    assert abs(m[grid.n // 2, 0]) < 1e-8


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
    model = QProcessModel(
        g_tilde=block,
        lam=1.0,
        psi=np.ones(4),
        psi_log=np.zeros(4),
        row_sum_residual=0.0,
    )
    gen_matrix = (block - sp.identity(4)).tocsr()
    with pytest.raises(NullVectorNotUnique):
        stationary_measures(gen_matrix, model, _fake_pair(1.0, np.ones(4)))


def test_measures_csv_export(tmp_path, three_node):
    gen, pair = three_node
    model = doob_transform(gen, pair)
    stationary_measures(gen, model, pair)
    path = tmp_path / "measures.csv"
    export_measures_csv(gen.grid, model, pair, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,mu_tilde,alpha,psi,phi"
    assert len(lines) == gen.grid.n + 1
