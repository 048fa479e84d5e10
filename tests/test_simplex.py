"""Two-phase simplex against scipy's LP solver and classic corner cases."""

import numpy as np
import pytest
from scipy.optimize import linprog

from exitrate.errors import Infeasible, NoConvergence, Unbounded
from exitrate.simplex import _run, solve_standard_lp


def _random_lp(seed, m=6, n=12):
    # b = A x0 with x0 >= 0 guarantees feasibility; c >= 0 guarantees a
    # finite minimum over the nonnegative orthant.
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, (m, n))
    x0 = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.7)
    b = a @ x0
    c = rng.uniform(0.0, 3.0, n)
    return a, b, c


@pytest.mark.parametrize("seed", range(20))
def test_random_instances_match_scipy(seed):
    a, b, c = _random_lp(seed)
    ref = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    assert ref.status == 0
    res = solve_standard_lp(a, b, c)
    assert res.value == pytest.approx(ref.fun, abs=1e-7)
    assert (res.x >= -1e-9).all()
    assert np.abs(a @ res.x - b).max() <= 1e-7
    assert res.feasibility_residual <= 1e-7


@pytest.mark.parametrize("seed", range(8))
def test_optimality_certificates(seed):
    a, b, c = _random_lp(seed, m=4, n=9)
    res = solve_standard_lp(a, b, c)
    # Strong duality and complementary slackness at the reported solution.
    assert float(b @ res.duals) == pytest.approx(res.value, abs=1e-8)
    reduced = c - a.T @ res.duals
    assert reduced.min() >= -1e-8
    assert res.complementary_slackness <= 1e-8
    assert abs(float(res.x @ reduced)) <= 1e-8


def test_degenerate_cycling_instance_terminates():
    # Beale's example: the textbook tableau on which the largest-coefficient
    # rule cycles forever; anti-cycling pivoting must reach -1/20.
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    a = np.array(
        [
            [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
            [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0])
    res = solve_standard_lp(a, b, c)
    assert res.value == pytest.approx(-0.05, abs=1e-10)
    assert res.iterations < 100


def test_pivot_cap_error_reports_where_the_simplex_stood():
    # The phase-1 tableau of solve_standard_lp, run with a cap of one pivot.
    a, b, _ = _random_lp(3)
    a[b < 0] *= -1.0
    b = np.abs(b)
    m, n = a.shape
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a
    tab[:m, n : n + m] = np.eye(m)
    tab[:m, -1] = b
    tab[-1, :n] = -a.sum(axis=0)
    tab[-1, -1] = -b.sum()
    with pytest.raises(NoConvergence) as err:
        _run(tab, np.arange(n, n + m), n, cap=1, phase=1)
    # The tableau is left where the simplex stopped, not yet optimal.
    reduced = tab[-1, :n].min()
    assert reduced < 0
    assert str(err.value) == (
        f"simplex phase 1 exceeded 1 pivots: after 2 pivots the objective is "
        f"{-tab[-1, -1]:.12g} and the most negative reduced cost {reduced:.3e}"
    )


def test_contradictory_rows_are_infeasible():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    with pytest.raises(Infeasible):
        solve_standard_lp(a, b, np.zeros(2))


def test_unbounded_ray_is_detected():
    a = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    with pytest.raises(Unbounded):
        solve_standard_lp(a, b, np.array([-1.0, 0.0]))


def test_redundant_row_with_negative_rhs():
    # The flipped duplicate of the first row forces phase-1 sign handling.
    a = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    b = np.array([1.0, -1.0, 0.0])
    res = solve_standard_lp(a, b, np.array([1.0, 0.0]))
    np.testing.assert_allclose(res.x, [0.5, 0.5], atol=1e-10)
    assert res.value == pytest.approx(0.5, abs=1e-10)


def test_zero_variable_problem_rejected_or_solved_cleanly():
    a = np.zeros((1, 3))
    b = np.array([0.0])
    res = solve_standard_lp(a, b, np.array([1.0, 2.0, 3.0]))
    assert res.value == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(res.x, 0.0, atol=1e-12)
