"""Policy improvement and iteration against the exhaustive oracle."""

import dataclasses
import itertools

import numpy as np
import pytest

from exitrate import control
from exitrate.control import (
    _dense_scores,
    enumerate_policies,
    export_trace_csv,
    hjb_residual,
    policy_improve,
    policy_iteration,
)
from exitrate.eigen import principal_eigenpair
from exitrate.errors import NoConvergence, TooLarge
from exitrate.grid import assemble_generator, build_grid


def test_improvement_ignores_eigenvector_scaling(bang_bang):
    grid = build_grid(bang_bang, 1 / 8)
    psi = principal_eigenpair(assemble_generator(grid, bang_bang, 0)).psi
    base = policy_improve(grid, bang_bang, psi, mode="MAX")
    for c in (1e-6, 1e6):
        np.testing.assert_array_equal(policy_improve(grid, bang_bang, c * psi, mode="MAX"), base)


def test_improvement_keeps_current_action_on_ties(bang_bang):
    grid = build_grid(bang_bang, 1 / 4)
    flat = np.ones(grid.n)  # zero gradient: every action scores 0
    fresh = policy_improve(grid, bang_bang, flat, mode="MAX")
    np.testing.assert_array_equal(fresh, 0)
    held = policy_improve(grid, bang_bang, flat, mode="MAX", current=np.ones(grid.n, dtype=int), slack=1e-9)
    np.testing.assert_array_equal(held, 1)


def test_iteration_matches_exhaustive_enumeration(bang_bang):
    h = 2 / 9  # 8 interior nodes, 256 policies
    best_lam, best_policy, count = enumerate_policies(bang_bang, h)
    assert count == 256
    trace = policy_iteration(bang_bang, h, mode="MAX")
    assert trace.converged
    assert abs(trace.lam - best_lam) <= 1e-10
    np.testing.assert_array_equal(trace.final_policy, best_policy)


def test_iteration_values_decrease_monotonically(bang_bang):
    trace = policy_iteration(bang_bang, 1 / 16, mode="MAX")
    lams = [s.lam for s in trace.steps]
    assert all(b <= a + 1e-12 for a, b in zip(lams, lams[1:]))
    # Every recorded sweep after the first was reached by an actual change;
    # the terminating no-change sweep is not appended.
    assert all(s.n_changes > 0 for s in trace.steps[1:])


def test_min_mode_exceeds_max_mode(bang_bang):
    lam_max = policy_iteration(bang_bang, 1 / 8, mode="MAX").lam
    lam_min = policy_iteration(bang_bang, 1 / 8, mode="MIN").lam
    assert lam_min > lam_max + 1e-10


def test_converged_policy_is_an_improvement_fixed_point(bang_bang):
    trace = policy_iteration(bang_bang, 1 / 16, mode="MAX", tol=1e-11)
    grid = trace.grid
    pair = trace.final_pair
    again = policy_improve(
        grid, bang_bang, pair.psi, mode="MAX", current=trace.final_policy, slack=1e-9
    )
    np.testing.assert_array_equal(again, trace.final_policy)


def test_single_action_problem_converges_immediately(bm_interval):
    trace = policy_iteration(bm_interval, 1 / 16)
    assert trace.converged
    assert len(trace.steps) <= 2
    direct = principal_eigenpair(
        assemble_generator(build_grid(bm_interval, 1 / 16), bm_interval, 0)
    )
    assert abs(trace.lam - direct.lam) < 1e-12
    lam, policy, count = enumerate_policies(bm_interval, 1 / 16)
    assert (lam, count) == (direct.lam, 1)
    np.testing.assert_array_equal(policy, 0)


def test_constant_potential_shifts_the_value(bm_interval):
    grid = build_grid(bm_interval, 1 / 16)
    plain = policy_iteration(bm_interval, 1 / 16)
    shifted = policy_iteration(bm_interval, 1 / 16, grid=grid, potential=np.full(grid.n, 2.0))
    assert abs(shifted.lam - plain.lam - 2.0) < 1e-9


def test_optimality_defect_shrinks_with_the_mesh(bang_bang):
    coarse = hjb_residual(bang_bang, 1 / 8, mode="MAX")
    fine = hjb_residual(bang_bang, 1 / 16, mode="MAX")
    assert fine < coarse


def test_enumeration_is_capped(bang_bang, rect_2d, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the cap check")

    # The cap is checked before any generator table or policy is built.
    monkeypatch.setattr(control, "assemble_generator", forbidden)
    monkeypatch.setattr(control, "ordered_map", forbidden)
    with pytest.raises(TooLarge):
        enumerate_policies(bang_bang, 1 / 32)
    with pytest.raises(TooLarge):
        enumerate_policies(rect_2d, 1 / 64)


@pytest.mark.parametrize("name, h", [("bang_bang", 1 / 4), ("rect_2d", 1 / 3)])
def test_dense_scores_match_inverse_iteration_for_every_policy(name, h, request):
    problem = request.getfixturevalue(name)
    grid = build_grid(problem, h)
    scores = _dense_scores(grid, problem)
    policies = list(itertools.product(range(problem.n_actions), repeat=grid.n))
    assert len(scores) == len(policies)
    for score, policy in zip(scores, policies):
        gen = assemble_generator(grid, problem, np.array(policy))
        assert abs(score - principal_eigenpair(gen).lam) <= 1e-10


def test_enumeration_is_worker_count_invariant_across_chunks(rect_2d, monkeypatch):
    outs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("EXITRATE_THREADS", workers)
        lam, policy, count = enumerate_policies(rect_2d, 1 / 4)
        outs.append((np.float64(lam).tobytes(), policy.tobytes(), count))
    assert outs[0][2] == 3**9 > control.ENUMERATION_CHUNK
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "name, h, expected",
    [
        # The middle node is the centre: [1, 0, 0] ties with its mirror [1, 1, 0].
        ("bang_bang", 1 / 2, [1, 0, 0]),
        # No action on the middle column x1 = 1/2 changes lambda: 27 policies tie.
        ("rect_2d", 1 / 4, [2, 2, 2, 0, 0, 0, 0, 0, 0]),
    ],
)
def test_near_ties_resolve_to_the_lexicographically_smallest_policy(name, h, expected, request):
    problem = request.getfixturevalue(name)
    scores = _dense_scores(build_grid(problem, h), problem)
    lam, policy, _ = enumerate_policies(problem, h)
    np.testing.assert_array_equal(policy, expected)
    assert abs(lam - scores.min()) <= 1e-10


def test_enumeration_rejects_a_winner_the_solvers_disagree_on(bang_bang, monkeypatch):
    real = control.principal_eigenpair

    def shifted(gen, tol):
        # A wrong answer that is consistent with itself: eigenvalue and
        # bracket move together.
        pair = real(gen, tol=tol)
        lo, hi = pair.cw_interval
        return dataclasses.replace(pair, lam=pair.lam + 1e-6, cw_interval=(lo + 1e-6, hi + 1e-6))

    monkeypatch.setattr(control, "principal_eigenpair", shifted)
    with pytest.raises(NoConvergence, match="dense eigenvalue .* inverse iteration"):
        enumerate_policies(bang_bang, 1 / 4)


def test_trace_csv_export(tmp_path, bang_bang):
    trace = policy_iteration(bang_bang, 1 / 8, mode="MAX")
    path = tmp_path / "trace.csv"
    export_trace_csv(trace, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,lambda,lambda_lo,lambda_hi,policy_changes"
    assert len(lines) == len(trace.steps) + 1
