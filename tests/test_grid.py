"""Interior lattice construction and the difference-quotient helpers."""

import numpy as np
import pytest

from exitrate.errors import NonconformingSpacing
from exitrate.control import policy_iteration
from exitrate.grid import build_grid, default_spacing, discrete_gradient, gradient_cost
from exitrate.qprocess import doob_transform, rayleigh_identity, stationary_measures


def test_interval_node_count_and_coordinates(bm_interval):
    grid = build_grid(bm_interval, 0.25)
    assert grid.dims == (3,)
    assert grid.n == 3
    np.testing.assert_allclose(grid.nodes[:, 0], [0.25, 0.5, 0.75])


def test_symmetric_interval_node_count(bang_bang):
    grid = build_grid(bang_bang, 0.25)
    assert grid.n == 7
    np.testing.assert_allclose(grid.nodes[:, 0], np.arange(-0.75, 0.76, 0.25))


def test_square_node_count(rect_2d):
    grid = build_grid(rect_2d, 0.25)
    assert grid.dims == (3, 3)
    assert grid.n == 9


@pytest.mark.parametrize("h", [0.3, 1.0, 0.7])
def test_spacing_must_divide_every_side(bm_interval, h):
    with pytest.raises(NonconformingSpacing):
        build_grid(bm_interval, h)


def test_neighbor_table_chain_structure(bm_interval):
    grid = build_grid(bm_interval, 0.25)
    down = grid.neighbor_table[:, 0, 0]
    up = grid.neighbor_table[:, 0, 1]
    np.testing.assert_array_equal(down, [-1, 0, 1])
    np.testing.assert_array_equal(up, [1, 2, -1])


def test_neighbor_steps_move_one_spacing(rect_2d):
    grid = build_grid(rect_2d, 0.125)
    for k in range(grid.d):
        for sign, direction in ((0, -1.0), (1, 1.0)):
            nb = grid.neighbor_table[:, k, sign]
            has = nb >= 0
            delta = grid.nodes[nb[has]] - grid.nodes[has]
            np.testing.assert_allclose(delta[:, k], direction * grid.h)
            other = [j for j in range(grid.d) if j != k]
            np.testing.assert_allclose(delta[:, other], 0.0)


def test_boundary_adjacency_matches_distance(rect_2d):
    grid = build_grid(rect_2d, 0.125)
    touches = (grid.neighbor_table < 0).any(axis=(1, 2))
    np.testing.assert_array_equal(touches, grid.dist_boundary() <= grid.h + 1e-12)


def test_interior_mask_keeps_only_the_core(bm_interval):
    grid = build_grid(bm_interval, 0.25)
    np.testing.assert_array_equal(grid.interior_mask(0.3), [False, True, False])
    assert grid.interior_mask(0.0).all()


def test_nearest_index_round_trips_the_nodes(rect_2d):
    grid = build_grid(rect_2d, 0.125)
    np.testing.assert_array_equal(grid.nearest_index(grid.nodes), np.arange(grid.n))


def test_nearest_index_clamps_outside_points(bm_interval):
    grid = build_grid(bm_interval, 0.25)
    idx = grid.nearest_index(np.array([[-5.0], [0.26], [5.0]]))
    np.testing.assert_array_equal(idx, [0, 0, 2])


def test_gradient_of_linear_field_is_exact_everywhere(bang_bang):
    # One-sided quotients at the edge are exact for affine data, so the
    # log-zero rule reproduces the slope at every node.
    grid = build_grid(bang_bang, 0.125)
    f = 2.0 * grid.nodes[:, 0] + 1.0
    g = discrete_gradient(grid, f, extension="log-zero")
    np.testing.assert_allclose(g[:, 0], 2.0, atol=1e-12)


def test_gradient_zero_extension_pads_the_edge_stencil(bm_interval):
    grid = build_grid(bm_interval, 0.25)
    f = grid.nodes[:, 0].copy()
    g = discrete_gradient(grid, f, extension="zero")
    # Central at the middle node; (f_up - 0) / 2h at the lower edge and
    # (0 - f_dn) / 2h at the upper edge.
    np.testing.assert_allclose(g[:, 0], [1.0, 1.0, -1.0])


def test_gradient_separates_axes(rect_2d):
    grid = build_grid(rect_2d, 0.0625)
    f = 3.0 * grid.nodes[:, 0] + 5.0 * grid.nodes[:, 1]
    g = discrete_gradient(grid, f, extension="log-zero")
    full = ~(grid.neighbor_table < 0).any(axis=(1, 2))
    np.testing.assert_allclose(g[full, 0], 3.0, atol=1e-12)
    np.testing.assert_allclose(g[full, 1], 5.0, atol=1e-12)


def test_gradient_rejects_bad_input(bm_interval):
    grid = build_grid(bm_interval, 0.25)
    with pytest.raises(ValueError):
        discrete_gradient(grid, np.zeros(grid.n + 1))
    with pytest.raises(ValueError):
        discrete_gradient(grid, np.zeros(grid.n), extension="mirror")


def test_gradient_cost_matches_the_inline_expression(rect_2d, rng):
    trace = policy_iteration(rect_2d, 0.125, mode="MAX")
    grid, gen, pair = trace.grid, trace.final_generator, trace.final_pair
    sig = rect_2d.sigma(grid.nodes)
    for psi_log in (trace.psi_log, np.log(rng.random(grid.n) + 0.1)):
        g = discrete_gradient(grid, psi_log, extension="log-zero")
        assert np.array_equal(gradient_cost(grid, sig, psi_log), 0.5 * np.sum((sig * g) ** 2, axis=1))
    # Halving is exact, so the Rayleigh quotient keeps the bits of halving the sum.
    mu, _ = stationary_measures(gen, doob_transform(gen, pair), pair)
    g = discrete_gradient(grid, trace.psi_log, extension="log-zero")
    inline = 0.5 * float(np.sum(np.sum((sig * g) ** 2, axis=1) * mu))
    assert rayleigh_identity(grid, rect_2d, trace.psi_log, mu, pair.lam)[0] == inline


def test_default_spacing_by_dimension(bm_interval, rect_2d):
    assert default_spacing(bm_interval) == 1.0 / 64.0
    assert default_spacing(rect_2d) == 1.0 / 32.0
