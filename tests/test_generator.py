"""Assembled rate matrices: frozen stencil rows, balance, monotonicity."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from exitrate.eigen import principal_eigenpair
from exitrate.grid import (
    assemble_generator,
    build_grid,
    discrete_gradient,
    drift_under_policy,
    monotone_stencil,
)
from exitrate.problems import ProblemSpec, problem_by_name


def _interval_problem(drift: str, sigma: str = "1") -> ProblemSpec:
    return ProblemSpec("t", 1, ((0.0, 1.0),), ("0",), ((drift,),), (sigma,))


def test_central_stencil_row_frozen_values():
    # Unit diffusion, drift +1, h = 1/4: diffusion rate a/(2h^2) = 8 per side,
    # drift correction m/(2h) = 2, so up = 10, down = 6, diagonal = -16.
    prob = problem_by_name("drift-interval", c=1.0)
    gen = assemble_generator(build_grid(prob, 0.25), prob, 0)
    mat = gen.matrix.toarray()
    assert mat[1, 2] == 10.0
    assert mat[1, 0] == 6.0
    assert mat[1, 1] == -16.0
    assert gen.killed[1] == 0.0
    # Edge rows drop the outside arm into the kill channel.
    assert mat[0, 1] == 10.0
    assert gen.killed[0] == 6.0
    assert mat[2, 2] == -16.0
    assert gen.killed[2] == 10.0


def test_upwind_stencil_engages_for_steep_drift():
    # m h = 4 >= a = 1 breaks the central monotonicity bound, so the scheme
    # switches to one-sided differences: up = 8 + m/h = 72, down = 8.
    prob = _interval_problem("16")
    gen = assemble_generator(build_grid(prob, 0.25), prob, 0)
    mat = gen.matrix.toarray()
    assert mat[1, 2] == 72.0
    assert mat[1, 0] == 8.0
    assert mat[1, 1] == -80.0


def test_square_center_and_corner_rows():
    prob = problem_by_name("rect-2d")
    gen = assemble_generator(build_grid(prob, 0.25), prob, 1)
    mat = gen.matrix.toarray()
    center = 4  # (0.5, 0.5) in the 3 x 3 row-major lattice
    neighbors = [1, 3, 5, 7]
    assert all(mat[center, j] == 8.0 for j in neighbors)
    assert mat[center, center] == -32.0
    assert gen.killed[center] == 0.0
    corner = 0
    assert gen.killed[corner] == 16.0
    assert mat[corner, corner] == -32.0


def test_row_balance_is_exact_on_the_catalog():
    for name, h in [("bm-interval", 1 / 16), ("drift-interval", 1 / 16),
                    ("bang-bang", 1 / 16), ("rect-2d", 1 / 8)]:
        prob = problem_by_name(name)
        grid = build_grid(prob, h)
        for u in range(prob.n_actions):
            gen = assemble_generator(grid, prob, u)
            rows = np.asarray(gen.matrix.sum(axis=1)).ravel()
            assert np.abs(rows + gen.killed).max() == 0.0
            assert (gen.killed >= 0.0).all()


@given(c=st.floats(-40.0, 40.0), scale=st.floats(0.5, 3.0))
def test_off_diagonals_stay_nonnegative(c, scale):
    prob = _interval_problem(f"{c!r} * sin(6*x1)", sigma=f"{scale!r}")
    grid = build_grid(prob, 1 / 16)
    gen = assemble_generator(grid, prob, 0)
    coo = gen.matrix.tocoo()
    off = coo.row != coo.col
    assert (coo.data[off] >= 0.0).all()
    rows = np.asarray(gen.matrix.sum(axis=1)).ravel()
    scale_ref = np.abs(gen.matrix.diagonal()).max()
    assert np.abs(rows + gen.killed).max() <= 1e-14 * scale_ref


@given(c=st.floats(-100.0, 100.0))
def test_net_drift_flux_is_preserved_in_both_regimes(c):
    # Either stencil satisfies (up - down) = m/h, so first moments agree.
    prob = _interval_problem(f"{c!r}")
    grid = build_grid(prob, 1 / 8)
    gen = assemble_generator(grid, prob, 0)
    mat = gen.matrix.toarray()
    mid = grid.n // 2
    # atol floor: the difference cancels against the O(a/h^2) diffusive rate.
    np.testing.assert_allclose(
        mat[mid, mid + 1] - mat[mid, mid - 1], c / grid.h, rtol=1e-9, atol=1e-11
    )


def test_generator_is_exact_on_quadratics(bm_interval):
    # For f = x^2 the central second difference equals f'' with no error,
    # so G f = a f'' / 2 = 1 wherever the full stencil applies.
    grid = build_grid(bm_interval, 1 / 32)
    gen = assemble_generator(grid, bm_interval, 0)
    f = grid.nodes[:, 0] ** 2
    full = ~(grid.neighbor_table < 0).any(axis=(1, 2))
    np.testing.assert_allclose((gen.matrix @ f)[full], 1.0, atol=1e-9)


@pytest.mark.parametrize("h", [1 / 8, 1 / 16, 1 / 32])
def test_quartic_defect_equals_the_taylor_term(bm_interval, h):
    # On f = x^4 the only surviving Taylor term is (h^2/12) f'''' = 2 h^2.
    grid = build_grid(bm_interval, h)
    gen = assemble_generator(grid, bm_interval, 0)
    f = grid.nodes[:, 0] ** 4
    full = ~(grid.neighbor_table < 0).any(axis=(1, 2))
    defect = (gen.matrix @ f)[full] - 6.0 * grid.nodes[full, 0] ** 2
    np.testing.assert_allclose(defect, h * h, rtol=1e-7)


def test_policy_assignment_selects_per_node_drift(bang_bang):
    grid = build_grid(bang_bang, 0.25)
    policy = np.array([0, 1, 0, 1, 0, 1, 0])
    m = drift_under_policy(grid, bang_bang, policy)
    np.testing.assert_allclose(m[:, 0], np.where(policy == 1, 1.0, -1.0))


def test_policy_validation(bang_bang):
    grid = build_grid(bang_bang, 0.25)
    with pytest.raises(ValueError):
        assemble_generator(grid, bang_bang, np.zeros(grid.n - 1, dtype=int))
    with pytest.raises(ValueError):
        assemble_generator(grid, bang_bang, np.full(grid.n, 5))


@pytest.mark.parametrize(
    "name, h",
    [("bm-interval", 1 / 16), ("drift-interval", 1 / 16), ("bang-bang", 1 / 64), ("rect-2d", 1 / 16)],
)
def test_kill_stencil_on_all_nodes_is_the_generator(name, h):
    prob = problem_by_name(name)
    grid = build_grid(prob, h)
    a = prob.sigma(grid.nodes) ** 2
    for u in range(prob.n_actions):
        gen = assemble_generator(grid, prob, u)
        mat, killed = monotone_stencil(grid, drift_under_policy(grid, prob, u), a)
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(mat, part), getattr(gen.matrix, part))
        np.testing.assert_array_equal(killed, gen.killed)


@pytest.mark.parametrize("name, h", [("bang-bang", 1 / 64), ("rect-2d", 1 / 16)])
def test_reflected_sub_lattice_chain(name, h):
    # The sub-lattice of the uniform-ergodicity check (nodes more than 2h
    # inside the box), with each action's drift alone and plus the
    # conditioned drift a grad(log psi) of that action's eigenfunction.
    prob = problem_by_name(name)
    grid = build_grid(prob, h)
    sub = np.flatnonzero(grid.dist_boundary() > 2.0 * h + 1e-12)
    a = prob.sigma(grid.nodes) ** 2
    for u in range(prob.n_actions):
        gen = assemble_generator(grid, prob, u)
        m = drift_under_policy(grid, prob, u)
        psi_log = np.log(principal_eigenpair(gen).psi)
        for drift in (m, m + a * discrete_gradient(grid, psi_log)):
            mat, killed = monotone_stencil(grid, drift[sub], a[sub], nodes=sub, reflect=True)
            rows = np.asarray(mat.sum(axis=1)).ravel()
            assert np.abs(rows).max() <= 1e-12 * np.abs(mat.diagonal()).max()
            assert not killed.any()
            killed_chain = monotone_stencil(grid, drift, a)[0].toarray()[np.ix_(sub, sub)]
            off = ~np.eye(len(sub), dtype=bool)
            np.testing.assert_array_equal(mat.toarray()[off], killed_chain[off])
