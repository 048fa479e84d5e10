"""Principal eigenpair solver against dense and closed-form oracles."""

import re

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from hypothesis import given
from hypothesis import strategies as st

from exitrate import eigen
from exitrate.eigen import PERMC_SPEC, InverseIteration, cw_bounds, principal_eigenpair
from exitrate.errors import NoConvergence, NonPositiveEigenvector
from exitrate.grid import assemble_generator, build_grid
from exitrate.problems import problem_by_name, with_bounds


def _generator(name, h, action=0, **params):
    prob = problem_by_name(name, **params)
    return assemble_generator(build_grid(prob, h), prob, action)


def test_three_node_chain_against_dense_oracle(bm_interval):
    gen = assemble_generator(build_grid(bm_interval, 0.25), bm_interval, 0)
    dense = gen.matrix.toarray()

    # Oracle: unrestricted dense eigensolve, smallest decay rate.
    vals, vecs = np.linalg.eig(dense)
    k = np.argmin(-vals.real)
    lam_oracle = float(-vals[k].real)
    psi_oracle = np.abs(vecs[:, k].real)
    psi_oracle /= psi_oracle.max()

    # The 3-node chain with rate 8 per arm has minimal decay 16 - 8 sqrt(2)
    # (characteristic root of the tridiagonal [-16, 8] Toeplitz matrix).
    assert abs(lam_oracle - (16.0 - 8.0 * np.sqrt(2.0))) < 1e-12

    pair = principal_eigenpair(gen, tol=1e-12)
    assert abs(pair.lam - lam_oracle) < 1e-10
    np.testing.assert_allclose(pair.psi, psi_oracle, atol=1e-10)
    # Eigenvector of the symmetric chain: (1/sqrt(2), 1, 1/sqrt(2)).
    np.testing.assert_allclose(pair.psi, [np.sqrt(0.5), 1.0, np.sqrt(0.5)], atol=1e-10)


@pytest.mark.parametrize("h", [1 / 8, 1 / 32])
def test_lattice_eigenvalue_closed_form(bm_interval, h):
    # The discrete sine mode diagonalizes the constant-coefficient chain:
    # lambda_h = (2/h^2) sin^2(pi h / 2).
    grid = build_grid(bm_interval, h)
    gen = assemble_generator(grid, bm_interval, 0)
    pair = principal_eigenpair(gen, tol=1e-12)
    expected = 2.0 / (h * h) * np.sin(np.pi * h / 2.0) ** 2
    assert abs(pair.lam - expected) < 1e-9
    x = grid.nodes[:, 0]
    mode = np.sin(np.pi * x) / np.sin(np.pi * x).max()
    np.testing.assert_allclose(pair.psi, mode, atol=1e-9)


def test_product_lattice_eigenvalue_adds_per_axis(rect_2d, bm_interval):
    # Zero-drift action on the square: the 5-point scheme separates, so the
    # principal eigenvalue is exactly twice the 1-d chain's.
    h = 1 / 8
    gen2 = _generator("rect-2d", h, action=1)
    gen1 = assemble_generator(build_grid(bm_interval, h), bm_interval, 0)
    lam2 = principal_eigenpair(gen2, tol=1e-12).lam
    lam1 = principal_eigenpair(gen1, tol=1e-12).lam
    assert abs(lam2 - 2.0 * lam1) < 1e-9


def test_normalization_and_positivity(drift_interval):
    gen = _generator("drift-interval", 1 / 32)
    pair = principal_eigenpair(gen)
    assert pair.psi.max() == 1.0
    assert (pair.psi > 0).all()
    assert abs(pair.phi.sum() - 1.0) < 1e-12
    assert (pair.phi > 0).all()
    assert pair.residual <= 1e-8
    assert pair.residual_left <= 1e-8


def test_interval_bracket_contains_the_eigenvalue(drift_interval):
    gen = _generator("drift-interval", 1 / 32)
    pair = principal_eigenpair(gen, tol=1e-11)
    lo, hi = pair.cw_interval
    assert lo - 1e-9 <= pair.lam <= hi + 1e-9
    assert hi - lo <= 1e-6


def test_flat_test_vector_bracket_is_the_kill_range(bm_interval):
    gen = assemble_generator(build_grid(bm_interval, 0.25), bm_interval, 0)
    assert cw_bounds(gen, np.ones(3)) == (0.0, 8.0)


@given(st.integers(0, 2 ** 32 - 1))
def test_any_positive_vector_brackets_the_eigenvalue(seed):
    gen = _generator("drift-interval", 1 / 16)
    pair = principal_eigenpair(gen, tol=1e-12)
    psi = np.exp(np.random.default_rng(seed).normal(0.0, 1.0, gen.n))
    lo, hi = cw_bounds(gen, psi)
    assert lo - 1e-9 <= pair.lam <= hi + 1e-9


def test_nonpositive_test_vector_is_rejected(bm_interval):
    gen = assemble_generator(build_grid(bm_interval, 0.25), bm_interval, 0)
    with pytest.raises(NonPositiveEigenvector):
        cw_bounds(gen, np.array([1.0, 0.0, 1.0]))


def test_disconnected_pattern_is_rejected():
    with pytest.raises(NonPositiveEigenvector):
        principal_eigenpair(sp.csr_matrix(np.diag([-1.0, -2.0])))


def test_solver_is_deterministic(bang_bang):
    gen = _generator("bang-bang", 1 / 32)
    a = principal_eigenpair(gen)
    b = principal_eigenpair(gen)
    assert a.lam == b.lam
    np.testing.assert_array_equal(a.psi, b.psi)
    np.testing.assert_array_equal(a.phi, b.phi)


def test_wider_domain_drains_slower(bm_interval):
    h = 1 / 32
    lam_narrow = principal_eigenpair(
        assemble_generator(build_grid(bm_interval, h), bm_interval, 0)
    ).lam
    wide = with_bounds(problem_by_name("bm-interval"), [(0.0, 1.25)])
    lam_wide = principal_eigenpair(
        assemble_generator(build_grid(wide, h), wide, 0)
    ).lam
    assert lam_wide < lam_narrow - 1e-10


def test_single_node_shortcut():
    pair = principal_eigenpair(sp.csr_matrix(np.array([[-3.0]])))
    assert pair.lam == 3.0
    assert pair.psi[0] == 1.0
    assert pair.iterations == 0


def test_roundoff_floor_stall_fails_fast_with_a_diagnosis(bm_interval):
    # At h=1/2048 the right iteration's bracket stalls at its roundoff floor,
    # about 2.3e-9, above tol * lambda = 4.9e-10: the solver must say so
    # within a few hundred steps instead of spinning to max_iter.
    gen = assemble_generator(build_grid(bm_interval, 1 / 2048), bm_interval, 0)
    with pytest.raises(NoConvergence) as err:
        principal_eigenpair(gen)
    msg = str(err.value)
    assert int(re.search(r"after (\d+) iterations", msg).group(1)) <= 300
    assert "has not halved" in msg
    assert re.search(r"CW bracket \[4\.93\d*, 4\.93\d*\]", msg)
    assert re.search(r"residual .* = \d\.\d+e-\d+", msg)


def test_bm_interval_h1024_converges_at_the_default_tolerance(bm_interval):
    # Under the minimum-degree ordering both brackets get below tol * lambda.
    gen = assemble_generator(build_grid(bm_interval, 1 / 1024), bm_interval, 0)
    pair = principal_eigenpair(gen)
    lo, hi = pair.cw_interval
    assert hi - lo <= 1e-10 * pair.lam
    assert lo <= pair.lam <= hi
    assert abs(pair.lam - np.pi**2 / 2) <= 1e-3
    # The margin under tol is thin (about 6%); the factors keep their bits.
    assert pair.lam.hex() == "0x1.3bd3bc5fc54f3p+2"


def test_minimum_degree_ordering_roughly_halves_the_lu_fill():
    # rect-2d's 5-point stencil at h=1/128 (n=16,129): minimum degree on
    # A+A^T gives about 0.55 of the fill of scipy's default COLAMD.
    mat = (-_generator("rect-2d", 1 / 128).matrix).tocsc()
    default, ordered = splu(mat), splu(mat, permc_spec=PERMC_SPEC)
    assert ordered.L.nnz + ordered.U.nnz <= 0.6 * (default.L.nnz + default.U.nnz)


@pytest.mark.parametrize("action", [0, 1])
def test_fine_square_converges_at_the_default_tolerance(action):
    gen = _generator("rect-2d", 1 / 256, action=action)
    pair = principal_eigenpair(gen)
    lo, hi = pair.cw_interval
    assert lo <= pair.lam <= hi
    assert hi - lo <= 1e-10 * pair.lam
    if action == 1:
        # Zero drift: twice the 1-d lattice eigenvalue (2/h^2) sin^2(pi h/2).
        h = 1 / 256
        assert abs(pair.lam - 4.0 / (h * h) * np.sin(np.pi * h / 2.0) ** 2) <= hi - lo


def test_fine_interval_converges_at_a_relative_tolerance(bm_interval):
    gen = assemble_generator(build_grid(bm_interval, 1 / 4096), bm_interval, 0)
    pair = principal_eigenpair(gen, tol=1e-8)
    assert abs(pair.lam - np.pi**2 / 2) <= 1e-3
    lo, hi = pair.cw_interval
    assert lo <= pair.lam <= hi


def test_iteration_cap_is_a_backstop(bm_interval, monkeypatch):
    gen = assemble_generator(build_grid(bm_interval, 1 / 64), bm_interval, 0)
    monkeypatch.setattr(eigen, "MAX_ITER", 3)
    with pytest.raises(NoConvergence, match="after 3 iterations .*MAX_ITER=3"):
        principal_eigenpair(gen)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_tol_must_be_finite_and_positive(bm_interval, tol, monkeypatch):
    # Rejected before any factorisation, not after a run that cannot stop.
    gen = assemble_generator(build_grid(bm_interval, 1 / 4), bm_interval, 0)
    monkeypatch.setattr(eigen, "splu", None)
    with pytest.raises(ValueError, match=re.escape(f"tol must be finite and positive, got {tol!r}")):
        InverseIteration(gen, tol)


@pytest.mark.parametrize("name, h", [("bm-interval", 1 / 1024), ("rect-2d", 1 / 128), ("bang-bang", 1 / 1024)])
def test_factored_matrix_is_shift_minus_the_generator_bit_for_bit(name, h, monkeypatch):
    # Each factor adds its shift to the stored diagonal of -G; the LU must
    # see the matrix that shift*I - G built from a sparse identity has.
    gen = _generator(name, h)
    factored = []
    monkeypatch.setattr(eigen, "splu", lambda a, **kw: factored.append(a.copy()) or splu(a, **kw))
    solver = InverseIteration(gen)
    grid = build_grid(problem_by_name(name), h)
    smooth = np.prod(np.sin(np.pi * (grid.nodes - grid.lo) / (grid.hi - grid.lo)), axis=1)
    lo, hi = cw_bounds(gen, smooth)
    retarget = -(hi + max(1e-8, hi - lo))
    fallback = 1.0 + float(np.abs(gen.matrix.diagonal()).max())
    for shift in (retarget, fallback):
        solver._factor(shift)
    csc = gen.matrix.tocsc()
    for shift, mat in zip((0.0, retarget, fallback), factored, strict=True):
        want = (shift * sp.identity(grid.n, format="csc") - csc).tocsc()
        for field in ("data", "indices", "indptr"):
            assert getattr(mat, field).tobytes() == getattr(want, field).tobytes(), (shift, field)


def test_a_matrix_without_a_stored_diagonal_is_factored_too():
    # Not a generator: the missing diagonal entry of the middle row is
    # stored as an explicit zero before the first factor.
    mat = sp.csr_matrix(np.array([[-3.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, -3.0]]))
    pair = principal_eigenpair(mat, tol=1e-12)
    vals, vecs = np.linalg.eigh(mat.toarray())
    assert pair.lam == pytest.approx(-vals.max(), rel=1e-12)
    np.testing.assert_allclose(pair.psi, np.abs(vecs[:, -1]) / np.abs(vecs[:, -1]).max(), rtol=1e-10)
    rhs = np.array([1.0, 2.0, 3.0])
    solved = InverseIteration(mat)._factor(2.0).solve(rhs)
    np.testing.assert_allclose(solved, np.linalg.solve(2.0 * np.eye(3) - mat.toarray(), rhs), rtol=1e-12)
