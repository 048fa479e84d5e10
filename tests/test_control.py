"""Policy improvement and iteration against the exhaustive oracle."""

import collections
import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest

from exitrate import control, eigen, grid as grid_module
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
from exitrate.problems import problem_by_name, validate_problem


def _action_generators(grid, problem):
    return [assemble_generator(grid, problem, u).matrix for u in range(problem.n_actions)]


def test_improvement_ignores_eigenvector_scaling(bang_bang):
    grid = build_grid(bang_bang, 1 / 8)
    gens = _action_generators(grid, bang_bang)
    psi = principal_eigenpair(gens[0]).psi
    base = policy_improve(gens, psi, mode="MAX")
    for c in (1e-6, 1e6):
        np.testing.assert_array_equal(policy_improve(gens, c * psi, mode="MAX"), base)


def test_improvement_keeps_current_action_on_ties(bang_bang):
    grid = build_grid(bang_bang, 1 / 4)
    same = _action_generators(grid, bang_bang)[:1] * 2  # two actions with equal rows
    psi = np.ones(grid.n)
    fresh = policy_improve(same, psi, mode="MAX")
    np.testing.assert_array_equal(fresh, 0)
    held = policy_improve(same, psi, mode="MAX", current=np.ones(grid.n, dtype=int), slack=1e-9)
    np.testing.assert_array_equal(held, 1)


def test_improvement_scores_the_generator_rows(bang_bang):
    # Each node takes the action whose generator row gives the largest
    # (MAX) or smallest (MIN) value of (G_u psi)(x) / psi(x).
    grid = build_grid(bang_bang, 1 / 8)
    gens = _action_generators(grid, bang_bang)
    psi = principal_eigenpair(gens[0]).psi
    scores = np.column_stack([(g @ psi) / psi for g in gens])
    np.testing.assert_array_equal(policy_improve(gens, psi, mode="MAX"), scores.argmax(axis=1))
    np.testing.assert_array_equal(policy_improve(gens, psi, mode="MIN"), scores.argmin(axis=1))


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
        _action_generators(grid, bang_bang), pair.psi, mode="MAX", current=trace.final_policy, slack=1e-9
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


@pytest.mark.parametrize(
    "name, h", [("bang_bang", 2 / 3), ("bang_bang", 1 / 2), ("rect_2d", 1 / 3)]
)
def test_iteration_reaches_both_extremes_on_coarse_meshes(name, h, request):
    # Two to four nodes: MAX must reach the smallest eigenvalue over all
    # policies and MIN the largest, with no cycle on the way.
    problem = request.getfixturevalue(name)
    scores = _dense_scores(build_grid(problem, h), problem)
    best, _, _ = enumerate_policies(problem, h)
    lam_max = policy_iteration(problem, h, mode="MAX")
    lam_min = policy_iteration(problem, h, mode="MIN")
    assert lam_max.converged and lam_min.converged
    assert abs(lam_max.lam - best) <= 1e-10
    assert abs(lam_min.lam - scores.max()) <= 1e-10


def test_cycle_error_reports_where_the_iteration_stood(bang_bang, monkeypatch):
    # An improvement step that alternates between the two constant policies.
    def flip(generators, psi, mode, current, slack):
        return 1 - current

    monkeypatch.setattr(control, "policy_improve", flip)
    grid = build_grid(bang_bang, 1 / 8)
    lams = [principal_eigenpair(assemble_generator(grid, bang_bang, u)).lam for u in (1, 0)]
    with pytest.raises(NoConvergence) as err:
        policy_iteration(bang_bang, 1 / 8, mode="MAX")
    msg = str(err.value)
    assert "cycle at sweep 2" in msg
    assert f"lambda {lams[0]!r} flips {grid.n} nodes" in msg
    assert msg.endswith(f"earlier policy at lambda {lams[1]!r}")


def test_sweep_cap_error_reports_the_last_value(bang_bang, monkeypatch):
    monkeypatch.setattr(control, "MAX_SWEEPS", 1)
    with pytest.raises(NoConvergence, match=r"in 1 sweeps: last lambda \S+ after 0 node changes"):
        policy_iteration(bang_bang, 1 / 8, mode="MAX")


def test_optimality_defect_shrinks_with_the_mesh(bang_bang):
    coarse = hjb_residual(bang_bang, 1 / 8, mode="MAX")
    fine = hjb_residual(bang_bang, 1 / 16, mode="MAX")
    assert fine < coarse


def test_enumeration_is_capped(bang_bang, rect_2d, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the cap check")

    # The cap is checked before any generator table or policy is built,
    # whether assembled directly or through the grid's shared generators.
    monkeypatch.setattr(control, "assemble_generator", forbidden)
    monkeypatch.setattr(control, "action_generators", forbidden)
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


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "name, h, mode",
    [("bang_bang", 1 / 64, "MAX"), ("bang_bang", 1 / 64, "MIN"), ("rect_2d", 1 / 16, "MAX"), ("bm_interval", 1 / 64, "MAX")],
)
def test_deferred_left_side_matches_a_full_eigensolve(name, h, mode, request):
    # Sweeps solve only psi; phi comes once, from the converged sweep's LU.
    problem = request.getfixturevalue(name)
    tol = 1e-10
    trace = policy_iteration(problem, h, mode=mode, tol=tol)
    final, full = trace.final_pair, principal_eigenpair(trace.final_generator, tol)
    for field in ("lam", "psi", "phi", "cw_interval", "residual", "residual_left"):
        assert _same_bits(getattr(final, field), getattr(full, field)), field
    assert final.iterations == full.iterations


def _count_lu(monkeypatch) -> dict:
    """Count eigen's factorisations and the transposed solves on them."""
    counts = {"factor": 0, "left": 0}
    real = eigen.splu

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs, trans="N"):
            counts["left"] += trans == "T"
            return self.lu.solve(rhs, trans=trans)

    def counted(*args, **kwargs):
        counts["factor"] += 1
        return Counted(real(*args, **kwargs))

    monkeypatch.setattr(eigen, "splu", counted)
    return counts


def test_policy_iteration_solves_the_left_side_once(bang_bang, monkeypatch):
    counts = _count_lu(monkeypatch)
    trace = policy_iteration(bang_bang, 1 / 64, mode="MAX")
    sweeps, in_iteration = len(trace.steps), dict(counts)
    assert sweeps >= 3
    # Every sweep still factors its generator at least once.
    assert in_iteration["factor"] >= sweeps
    counts.update(factor=0, left=0)
    principal_eigenpair(trace.final_generator)
    assert in_iteration["left"] == counts["left"] > 0


@pytest.mark.parametrize("name, h", [("bang_bang", 1 / 32), ("rect_2d", 1 / 8)])
def test_sweep_generators_match_assembly(name, h, request):
    # Gathering rows from the constant-action generators must give the
    # generator assemble_generator builds for the policy, bit for bit.
    problem = request.getfixturevalue(name)
    grid = build_grid(problem, h)
    actions = [assemble_generator(grid, problem, u) for u in range(problem.n_actions)]
    rng = np.random.default_rng(18)
    for _ in range(5):
        policy = rng.integers(problem.n_actions, size=grid.n)
        gathered = control._policy_generator(actions, policy)
        direct = assemble_generator(grid, problem, policy)
        for field in ("data", "indices", "indptr"):
            assert _same_bits(getattr(gathered.matrix, field), getattr(direct.matrix, field)), field
        assert _same_bits(gathered.killed, direct.killed)


def test_trace_csv_export(tmp_path, bang_bang):
    trace = policy_iteration(bang_bang, 1 / 8, mode="MAX")
    path = tmp_path / "trace.csv"
    export_trace_csv(trace, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,lambda,lambda_lo,lambda_hi,policy_changes"
    assert len(lines) == len(trace.steps) + 1


def count_assembly(monkeypatch) -> collections.Counter:
    """Count assemble_generator calls by action, in every module that calls it."""
    calls: collections.Counter = collections.Counter()
    real = grid_module.assemble_generator

    def counted(grid, problem, policy):
        calls[policy if isinstance(policy, int) else "policy"] += 1
        return real(grid, problem, policy)

    for module in (grid_module, control):
        monkeypatch.setattr(module, "assemble_generator", counted)
    return calls


def _same_trace(a, b) -> bool:
    pairs = [(a.final_policy, b.final_policy)] + [
        (getattr(a.final_pair, f), getattr(b.final_pair, f))
        for f in ("lam", "psi", "phi", "cw_interval", "residual", "residual_left", "iterations")
    ]
    return a.steps == b.steps and all(_same_bits(x, y) for x, y in pairs)


@pytest.mark.parametrize(
    "name, h, twin",
    [("bang_bang", 1 / 32, False), ("rect_2d", 1 / 8, False), ("bang_bang", 1 / 32, True)],
    ids=["bang_bang-0.03125", "rect_2d-0.125", "bang_bang-0.03125-twin"],
)
def test_traces_on_a_caller_grid_assemble_each_action_once(name, h, twin, request, monkeypatch):
    problem = request.getfixturevalue(name)
    fresh = {mode: policy_iteration(problem, h, mode=mode) for mode in ("MAX", "MIN")}
    # With twin, MIN runs on a second problem object equal to the first.
    problems = {"MAX": problem, "MIN": validate_problem(problem_by_name(problem.name)) if twin else problem}
    assert problems["MIN"] == problem and (problems["MIN"] is not problem) == twin
    calls = count_assembly(monkeypatch)
    grid = build_grid(problem, h)
    shared = {mode: policy_iteration(problems[mode], h, mode=mode, grid=grid) for mode in ("MAX", "MIN")}
    assert calls == {u: 1 for u in range(problem.n_actions)}
    assert set(grid.shared) == {problem, (problem, 1e-10)}
    for mode in ("MAX", "MIN"):
        assert _same_trace(shared[mode], fresh[mode]), mode


def test_a_grid_built_by_policy_iteration_keeps_nothing(bang_bang):
    trace = policy_iteration(bang_bang, 1 / 16, mode="MAX")
    assert trace.grid.shared == {}
    grid = build_grid(bang_bang, 1 / 16)
    policy_iteration(bang_bang, 1 / 16, mode="MAX", grid=grid)
    assert set(grid.shared) == {bang_bang, (bang_bang, 1e-10)}


def test_a_caller_grid_of_another_spacing_is_rejected(bang_bang):
    grid = build_grid(bang_bang, 1 / 8)
    with pytest.raises(ValueError, match=r"at h=0\.0625 was given a grid of spacing h=0\.125"):
        policy_iteration(bang_bang, 1 / 16, grid=grid)
    assert grid.shared == {}


def test_dropping_the_grid_and_traces_frees_the_shared_setup(bang_bang):
    # What the grid keeps holds no reference back to it, so plain reference
    # counting frees it: no cycle is left for the garbage collector.
    gc.disable()
    try:
        grid = build_grid(bang_bang, 1 / 16)
        traces = [policy_iteration(bang_bang, 1 / 16, mode=mode, grid=grid) for mode in ("MAX", "MIN")]
        refs = [weakref.ref(g) for g in grid.shared[bang_bang]] + [weakref.ref(grid.shared[bang_bang, 1e-10])]
        del grid, traces
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_max_and_min_share_the_start_solve(bm_interval, monkeypatch):
    # With one action both traces converge on the start policy: one right
    # solve serves both, and each final pair keeps principal_eigenpair's bits.
    h, tol = 1 / 64, 1e-10
    direct = principal_eigenpair(assemble_generator(build_grid(bm_interval, h), bm_interval, 0), tol)
    solvers = {"right": [], "left": []}
    for side, real in (("right", eigen.InverseIteration.right), ("left", eigen.InverseIteration.left)):
        monkeypatch.setattr(eigen.InverseIteration, side, lambda self, s=side, f=real: solvers[s].append(self) or f(self))
    grid = build_grid(bm_interval, h)
    traces = [policy_iteration(bm_interval, h, mode=mode, tol=tol, grid=grid) for mode in ("MAX", "MIN")]
    assert len(solvers["right"]) == 1
    for trace in traces:
        for f in ("lam", "psi", "phi", "cw_interval", "residual", "residual_left", "iterations"):
            assert _same_bits(getattr(trace.final_pair, f), getattr(direct, f)), f
    # Each trace ran left() on its own copy; the kept solver stays as right() left it.
    kept = grid.shared[bm_interval, tol]
    assert len(solvers["left"]) == 2 and kept not in solvers["left"]
    assert solvers["left"][0] is not solvers["left"][1]
    assert not hasattr(kept, "mat_t")


def _cold_plain_loop(problem, h, mode, tol=1e-10):
    """Policy iteration written out from the constant action 0, with no nesting
    and no shared set-up: (policy, lambda, psi, constant-action matrices)."""
    grid = build_grid(problem, h)
    gens = _action_generators(grid, problem)
    v = np.zeros(grid.n, dtype=int)
    while True:
        solver = eigen.InverseIteration(assemble_generator(grid, problem, v), tol).right()
        new = policy_improve(gens, solver.psi, mode, current=v, slack=100.0 * tol)
        if np.array_equal(new, v):
            return v, solver.lam, solver.psi, gens
        v = new


@pytest.mark.parametrize("k", [64, 128])
@pytest.mark.parametrize("mode", ["MAX", "MIN"])
def test_nested_meshes_reach_the_cold_optimum(rect_2d, k, mode):
    tol = 1e-10
    trace = policy_iteration(rect_2d, 1 / k, mode=mode, tol=tol)
    policy, lam, psi, gens = _cold_plain_loop(rect_2d, 1 / k, mode, tol)
    assert abs(trace.lam - lam) <= tol * max(1.0, lam)
    # Nesting may end at another tied optimum: the policies may differ only
    # where the cold psi scores both actions within the improvement slack.
    scores = np.column_stack([(g @ psi) / psi for g in gens])
    rows = np.flatnonzero(trace.final_policy != policy)
    ours, cold = scores[rows, trace.final_policy[rows]], scores[rows, policy[rows]]
    assert np.all(np.abs(ours - cold) <= 100.0 * tol * np.maximum(1.0, np.abs(cold)))
    # One monotone run from the 2h optimum, carried by nearest node.
    lams = [s.lam for s in trace.steps]
    sign = 1.0 if mode == "MAX" else -1.0
    assert all(sign * (b - a) <= 1e-12 for a, b in zip(lams, lams[1:]))
    coarse = policy_iteration(rect_2d, 2 / k, mode=mode, tol=tol)
    carried = coarse.final_policy[coarse.grid.nearest_index(trace.grid.nodes)]
    assert trace.steps[0].policy == tuple(carried.tolist())
    assert len(trace.steps) < 4


def test_a_nested_trace_keeps_no_start_solve_on_a_caller_grid(rect_2d):
    grid = build_grid(rect_2d, 1 / 64)
    shared = policy_iteration(rect_2d, 1 / 64, mode="MAX", grid=grid)
    assert set(grid.shared) == {rect_2d}
    assert len(grid.shared[rect_2d]) == rect_2d.n_actions
    assert _same_trace(shared, policy_iteration(rect_2d, 1 / 64, mode="MAX"))


@pytest.mark.parametrize(
    "mode, lam_hex", [("MAX", "0x1.000040002570cp-1"), ("MIN", "0x1.4768f4f8b462cp+1")]
)
def test_one_dimensional_traces_below_the_default_spacing_start_cold(bang_bang, mode, lam_hex):
    trace = policy_iteration(bang_bang, 1 / 256, mode=mode)
    assert trace.lam.hex() == lam_hex
    assert not any(trace.steps[0].policy)


def test_a_mesh_whose_double_does_not_divide_the_box_starts_cold(rect_2d):
    # 65 cells a side: 2h = 2/65 is below the default spacing but leaves half cells.
    grid = build_grid(rect_2d, 1 / 65)
    trace = policy_iteration(rect_2d, 1 / 65, mode="MAX", grid=grid)
    assert not any(trace.steps[0].policy)
    assert set(grid.shared) == {rect_2d, (rect_2d, 1e-10)}


def test_a_coarse_failure_names_its_mesh_and_the_mesh_it_starts(rect_2d, bang_bang, monkeypatch):
    monkeypatch.setattr(eigen, "MAX_ITER", 3)
    with pytest.raises(NoConvergence) as err:
        policy_iteration(rect_2d, 1 / 128, mode="MAX")
    cause = err.value.__cause__
    assert isinstance(cause, NoConvergence)
    assert str(err.value) == f"while solving h=1/32 as the start of h=1/128: {cause}"
    assert str(cause).startswith("right inverse iteration stopped after 3 iterations (MAX_ITER=3 reached)")
    # A 1-D mesh has no coarse level: its failure is the solver's own.
    with pytest.raises(NoConvergence, match=r"^right inverse iteration stopped after 3 iterations"):
        policy_iteration(bang_bang, 1 / 256, mode="MAX")
