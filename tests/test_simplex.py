"""Occupation-LP solver against scipy's LP solver and classic corner cases.

The file keeps the name of the dense simplex it first tested; its cases now
drive `variational.solve_lp`, Howard's policy iteration, on small random
occupation programs: one stationarity row per node, a mass row, and per
node a few generator rows with costs, some of them leaking to the boundary.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from exitrate.errors import Infeasible
from exitrate.grid import build_grid
from exitrate.variational import OccupationLP, WPoint, solve_lp


def _program(grid, node, c, rows):
    """An OccupationLP over grid whose variable j is (node[j], rows[:, j], c[j])."""
    node = np.asarray(node, dtype=np.int64)
    n_var = node.size
    return OccupationLP(
        grid=grid,
        w_grid=(WPoint(label="0", candidate=None, scale=0.0),),
        candidates=(),
        node=node,
        action=np.zeros(n_var, dtype=np.int64),
        wpoint=np.zeros(n_var, dtype=np.int64),
        c=np.asarray(c, dtype=float),
        nominal_w=np.zeros((n_var, grid.d)),
        rows=sp.csc_matrix(rows, shape=(grid.n, n_var)),
    )


def _random_program(bm_interval, seed, m=6, k=2):
    # m nodes with k generator rows each.  Every row jumps to both ring
    # neighbours, so any choice of one conservative row per node is an
    # irreducible chain; a leaking row also loses flux to the boundary.
    # Each node's first row is conservative, so the program is feasible.
    rng = np.random.default_rng(seed)
    grid = build_grid(bm_interval, 1.0 / (m + 1))
    assert grid.n == m
    node = np.repeat(np.arange(m), k)
    rows = np.zeros((m, m * k))
    for j, x in enumerate(node):
        rows[(x - 1) % m, j] += rng.uniform(0.5, 2.0)
        rows[(x + 1) % m, j] += rng.uniform(0.5, 2.0)
        extra = (rng.random(m) < 0.3) & (np.arange(m) != x)
        rows[extra, j] += rng.uniform(0.0, 1.0, int(extra.sum()))
        rows[x, j] = -rows[:, j].sum()
        if j % k and rng.random() < 0.3:
            rows[x, j] -= rng.uniform(0.1, 1.0)
    return _program(grid, node, rng.uniform(0.0, 3.0, m * k), rows)


@pytest.mark.parametrize("seed", range(20))
def test_random_instances_match_scipy(bm_interval, seed):
    lp = _random_program(bm_interval, seed)
    a, b = lp.a_eq.toarray(), lp.b_eq
    ref = linprog(lp.c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    assert ref.status == 0
    res = solve_lp(lp)
    assert res.value == pytest.approx(ref.fun, abs=1e-7)
    assert (res.pi >= 0.0).all()
    assert np.abs(a @ res.pi - b).max() <= 1e-12
    assert res.feasibility_residual <= 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_optimality_certificates(bm_interval, seed):
    lp = _random_program(bm_interval, seed, m=3, k=3)
    res = solve_lp(lp)
    # Strong duality and complementary slackness at the reported solution,
    # with the leaking rows priced too.
    assert float(lp.b_eq @ res.duals) == pytest.approx(res.value, rel=1e-12)
    reduced = lp.c - lp.a_eq.T @ res.duals
    assert reduced.min() >= -1e-9 * max(1.0, np.abs(lp.c).max())
    assert abs(float(res.pi @ reduced)) <= 1e-10


def test_degenerate_cycling_instance_terminates(bm_interval):
    # Every row appears twice with the same cost, so every node ties at
    # every sweep; the iteration must stop and keep the first copy.
    base = _random_program(bm_interval, 3)
    twice = np.repeat(np.arange(base.n_variables), 2)
    lp = _program(base.grid, base.node[twice], base.c[twice], base.rows[:, twice])
    res = solve_lp(lp)
    assert res.value == pytest.approx(solve_lp(base).value, rel=1e-12)
    assert res.iterations < 100
    assert np.all(res.pi[1::2] == 0.0)


def test_contradictory_rows_are_infeasible(bm_interval):
    # Stationarity needs every row's flux back, the mass row needs a unit
    # of mass: at node 2 every row leaks, so no point meets both.
    lp = _random_program(bm_interval, 0)
    rows = lp.rows.toarray()
    rows[2, lp.node == 2] -= 1.0
    with pytest.raises(Infeasible, match=r"^1 of 6 nodes have only rows that leak$"):
        solve_lp(_program(lp.grid, lp.node, lp.c, rows))


def test_zero_variable_problem_rejected_or_solved_cleanly(bm_interval):
    grid = build_grid(bm_interval, 0.25)
    lp = _program(grid, [], [], np.zeros((grid.n, 0)))
    with pytest.raises(Infeasible, match=r"^3 of 3 nodes have only rows that leak$"):
        solve_lp(lp)
