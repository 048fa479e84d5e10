"""Occupation-measure program: feasibility structure, values, dual certificates."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from exitrate import control, grid as grid_module, variational
from exitrate.control import policy_iteration
from exitrate.eigen import principal_eigenpair
from exitrate.errors import Infeasible, NoConvergence, NullVectorNotUnique, TooLarge
from exitrate.grid import assemble_generator, build_grid
from exitrate.problems import ProblemSpec
from exitrate.qprocess import doob_transform, null_vector, stationary_measures
from exitrate.variational import (
    build_occupation_lp,
    build_w_grid,
    candidate_from_trace,
    export_mps,
    export_solution_csv,
    occupation_check,
    solve_lp,
    transform_point,
    verify_minimizer_structure,
)


def assert_certificate(a_eq, b_eq, c, sol):
    """sol.pi is feasible, and sol.duals prices every column and the value."""
    a_eq = sp.csc_matrix(a_eq)
    assert sol.pi.min() >= 0.0
    assert np.abs(a_eq @ sol.pi - b_eq).max() <= 1e-12
    reduced = c - a_eq.T @ sol.duals
    assert np.all(reduced >= -1e-9 * np.maximum(1.0, np.abs(c)))
    assert b_eq @ sol.duals == pytest.approx(sol.value, rel=1e-12)


@pytest.fixture(scope="module")
def bang_bang_traces(bang_bang):
    """The MAX and MIN traces at h=1/4, on one grid."""
    h = 0.25
    grid = build_grid(bang_bang, h)
    return [policy_iteration(bang_bang, h, mode=mode, grid=grid) for mode in ("MAX", "MIN")]


@pytest.fixture(scope="module")
def bang_bang_lp(bang_bang, bang_bang_traces):
    grid = bang_bang_traces[0].grid
    cands = [candidate_from_trace(name, tr) for name, tr in zip(("max", "min"), bang_bang_traces)]
    w_grid = build_w_grid(grid, cands)
    lp = build_occupation_lp(grid, bang_bang, w_grid, cands)
    return grid, cands, lp, solve_lp(lp)


def test_untilted_rows_alone_are_infeasible(bm_interval):
    # Every plain row leaks mass to the boundary, so no stationary
    # combination of them exists.
    grid = build_grid(bm_interval, 0.25)
    w_grid = build_w_grid(grid, [])
    assert len(w_grid) == 1
    lp = build_occupation_lp(grid, bm_interval, w_grid, [])
    with pytest.raises(Infeasible):
        solve_lp(lp)


def test_single_node_value_is_the_kill_rate(bm_interval):
    # One interior node at h = 1/2: both stencil arms hit the boundary, so
    # every tilt yields the empty conservative row and prices the dropped
    # flux 2 * a/(2h^2) = 4 in full.
    grid = build_grid(bm_interval, 0.5)
    assert grid.n == 1
    cand = candidate_from_trace("c", policy_iteration(bm_interval, 0.5, grid=grid))
    lp = build_occupation_lp(grid, bm_interval, build_w_grid(grid, [cand]), [cand])
    sol = solve_lp(lp)
    assert sol.value == pytest.approx(4.0, abs=1e-12)


def test_occupation_value_matches_the_optimal_rate(bang_bang_traces, bang_bang_lp):
    grid, cands, lp, sol = bang_bang_lp
    lam_star = bang_bang_traces[0].lam
    assert abs(sol.value - lam_star) / lam_star <= 1e-6


@pytest.mark.parametrize(
    "name, k",
    [("bang_bang", 8), ("bang_bang", 16), ("bang_bang", 32), ("bang_bang", 64), ("rect_2d", 4), ("rect_2d", 8)],
)
def test_solution_is_certified_optimal(request, name, k):
    # The lp-enum meshes and rect-2d h=1/8: the value reaches lambda* and
    # the duals certify it against the full program, leaking rows included.
    check = occupation_check(request.getfixturevalue(name), 1.0 / k)
    sol, lp = check.sol, check.sol.lp
    assert abs(sol.value - check.lam_star) <= 1e-10 * check.lam_star
    assert_certificate(lp.a_eq, lp.b_eq, lp.c, sol)
    assert sol.feasibility_residual <= 1e-12


def test_criterion_10_mesh_returns_the_conditioned_minimizer(bang_bang):
    # The minimizer is not unique at h=1/8: the centre node ties between the
    # two actions, and only the lowest-index tie puts the mass on the
    # conditioned chain.
    check = occupation_check(bang_bang, 1.0 / 8)
    assert check.structure["all_ok"]
    assert check.structure["tv_to_mu_tilde"] <= 1e-12


def test_sweep_cap_reports_where_the_iteration_stood(bang_bang_lp, monkeypatch):
    grid, cands, lp, sol = bang_bang_lp
    monkeypatch.setattr(variational, "MAX_SWEEPS", 1)
    with pytest.raises(NoConvergence, match=r"at sweep 1 the gain is g = \S+ and \d+ nodes still change"):
        solve_lp(lp)


def test_transform_point_weak_duality(bang_bang_traces, bang_bang_lp):
    grid, cands, lp, sol = bang_bang_lp
    tp = transform_point(lp, candidate=0, policy=bang_bang_traces[0].final_policy)
    assert tp.stationarity_residual <= 1e-8
    assert tp.objective >= sol.value - 1e-9
    assert tp.objective == pytest.approx(sol.value, abs=1e-8)


def test_wrong_mode_candidate_prices_strictly_higher(bang_bang_traces, bang_bang_lp):
    grid, cands, lp, sol = bang_bang_lp
    tr_max, tr_min = bang_bang_traces
    best = transform_point(lp, candidate=0, policy=tr_max.final_policy)
    worst = transform_point(lp, candidate=1, policy=tr_min.final_policy)
    # The other fixed point prices its own (larger) rate.
    assert worst.objective > best.objective + 0.5 * (tr_min.lam - tr_max.lam) - 1e-9
    assert worst.objective == pytest.approx(tr_min.lam, rel=1e-6)


def test_minimizer_structure_checks_pass_at_the_solution(bang_bang_traces, bang_bang_lp):
    grid, cands, lp, sol = bang_bang_lp
    trace = bang_bang_traces[0]
    gen = trace.final_generator
    pair = principal_eigenpair(gen, tol=1e-12)
    model = doob_transform(gen, pair)
    mu, _ = stationary_measures(gen, model, pair)
    report = verify_minimizer_structure(sol, mu, trace.final_policy, candidate=0)
    assert report["all_ok"]
    assert report["tv_to_mu_tilde"] <= 0.05
    assert report["mass_on_policy"] >= 0.95
    assert report["mass_on_nearest_w"] >= 0.95


def test_spread_out_measure_fails_the_structure_checks(bang_bang_traces, bang_bang_lp):
    grid, cands, lp, sol = bang_bang_lp
    trace = bang_bang_traces[0]
    gen = trace.final_generator
    pair = principal_eigenpair(gen, tol=1e-12)
    model = doob_transform(gen, pair)
    mu, _ = stationary_measures(gen, model, pair)
    import copy

    smeared = copy.copy(sol)
    smeared.pi = np.full(lp.n_variables, 1.0 / lp.n_variables)
    report = verify_minimizer_structure(smeared, mu, trace.final_policy, candidate=0)
    assert not report["all_ok"]
    assert report["mass_on_policy"] < 0.95


def test_fixed_policy_program_prices_that_policy(bang_bang):
    h = 0.25
    grid = build_grid(bang_bang, h)
    policy = np.ones(grid.n, dtype=int)  # constant drift +1, not optimal
    gen = assemble_generator(grid, bang_bang, policy)
    pair = principal_eigenpair(gen, tol=1e-12)
    trace = policy_iteration(bang_bang, h, mode="MAX", grid=grid)
    from exitrate.variational import Candidate
    from exitrate.grid import discrete_gradient

    own = Candidate(
        name="own",
        psi_log=np.log(pair.psi),
        grad=discrete_gradient(grid, np.log(pair.psi), extension="log-zero"),
    )
    lp = build_occupation_lp(grid, bang_bang, build_w_grid(grid, [own]), [own], policy=policy)
    sol = solve_lp(lp)
    assert sol.value == pytest.approx(pair.lam, rel=1e-6)
    # The fixed-policy value cannot undercut the optimum over all policies.
    assert sol.value > policy_iteration(bang_bang, h, mode="MAX", grid=grid).lam


def test_fixed_policy_program_rejects_an_unknown_action(bang_bang):
    grid = build_grid(bang_bang, 0.25)
    w_grid = build_w_grid(grid, [])
    for bad in (2, -1):
        with pytest.raises(ValueError, match="out-of-range"):
            build_occupation_lp(grid, bang_bang, w_grid, [], policy=np.full(grid.n, bad))


def test_doubling_sigma_quadruples_every_cost():
    flat1 = ProblemSpec("flat1", 1, ((0.0, 1.0),), ("0",), (("0",),), ("1",))
    flat2 = ProblemSpec("flat2", 1, ((0.0, 1.0),), ("0",), (("0",),), ("2",))
    lps = []
    for prob in (flat1, flat2):
        grid = build_grid(prob, 0.25)
        cand = candidate_from_trace("c", policy_iteration(prob, 0.25, grid=grid))
        lps.append(build_occupation_lp(grid, prob, build_w_grid(grid, [cand]), [cand]))
    # Identical variable ordering; a = sigma^2 scales every rate and cost by 4.
    np.testing.assert_array_equal(lps[0].wpoint, lps[1].wpoint)
    np.testing.assert_allclose(lps[1].c, 4.0 * lps[0].c, rtol=1e-8, atol=1e-12)


def test_generator_pairing_vanishes_at_stationarity(bang_bang_lp, rng):
    grid, cands, lp, sol = bang_bang_lp
    for _ in range(5):
        f = rng.uniform(-1.0, 1.0, grid.n)
        # Stationarity of pi is the pairing of pi with the generator rows
        # applied to f vanishing for every f.
        assert abs(sol.pi @ (lp.rows.T @ f)) <= 1e-6


def test_w_grid_size_is_capped(bang_bang):
    grid = build_grid(bang_bang, 0.25)
    cand = candidate_from_trace("c", policy_iteration(bang_bang, 0.25, grid=grid))
    with pytest.raises(TooLarge):
        build_w_grid(grid, [cand] * 6)


def test_lp_exports(tmp_path, bang_bang_lp):
    grid, cands, lp, sol = bang_bang_lp
    # Costs whose 10-digit form overflows the 12-column field, one way or another.
    extremes = (1.2345678901e-5, -1.2345678901e-5, 6.02e23)
    c = lp.c.copy()
    c[: len(extremes)] = extremes
    lp = dataclasses.replace(lp, c=c)
    mps = tmp_path / "occ.mps"
    export_mps(lp, str(mps))
    text = mps.read_text()
    for section in ("NAME", "ROWS", "COLUMNS", "RHS", "ENDATA"):
        assert section in text
    # Every (column, row) value of the fixed-column COLUMNS section parses
    # back to the LP's coefficient.
    expected = {}
    rows = lp.rows
    for j in range(lp.n_variables):
        col = f"X{j:07d}"
        expected[col, "COST"] = lp.c[j]
        span = slice(rows.indptr[j], rows.indptr[j + 1])
        for y, v in zip(rows.indices[span], rows.data[span]):
            expected[col, f"S{int(y):07d}"] = float(v) * lp.row_scale
        expected[col, "MASS"] = 1.0
    lines = text.splitlines()
    body = lines[lines.index("COLUMNS") + 1 : lines.index("RHS")]
    parsed = {}
    for line in body:
        assert len(line) <= 36 or line[36:39] == "   "
        for start in (14, 39):
            if len(line) > start:
                parsed[line[4:14].strip(), line[start : start + 10].strip()] = float(line[start + 10 : start + 22])
    assert parsed.keys() == expected.keys()
    for key, value in parsed.items():
        assert abs(value - expected[key]) <= 1e-5 * abs(expected[key]), key
    assert [parsed[f"X{j:07d}", "COST"] for j in range(3)] == pytest.approx(extremes, rel=1e-5)
    csv = tmp_path / "occ.csv"
    export_solution_csv(sol, str(csv))
    lines = csv.read_text().splitlines()
    assert len(lines) >= 2
    assert lines[0].startswith("node")


# Reference: the per-variable layout the array program replaced.  Each
# variable carries its own tilted generator row, and every consumer loops over
# the variables.  The array program must reproduce it bit for bit, and the
# solver's point and certificate must hold against the reference program.


@dataclasses.dataclass(frozen=True)
class _RefVariable:
    node: int
    action: int
    wpoint: int
    cost: float
    nominal_w: np.ndarray
    row_cols: np.ndarray
    row_vals: np.ndarray


@dataclasses.dataclass
class _RefLP:
    grid: object
    w_grid: tuple
    candidates: tuple
    variables: list
    index: dict
    a_eq: np.ndarray
    b_eq: np.ndarray
    c: np.ndarray


def _ref_tilted_row(off_cols, off_vals, killed, node, psi_log, scale):
    z = scale * (psi_log[off_cols] - psi_log[node])
    q = off_vals * np.exp(z)
    cost = float(np.sum(q * z - q + off_vals) + killed)
    cols = np.concatenate([off_cols, [node]])
    vals = np.concatenate([q, [-q.sum()]])
    return cols, vals, max(cost, 0.0)


def _ref_build(grid, problem, w_grid, candidates, policy=None):
    n = grid.n
    rows_by_action = []
    for u in range(problem.n_actions):
        gen = assemble_generator(grid, problem, u)
        mat = gen.matrix
        idx = np.split(mat.indices, mat.indptr[1:-1])
        val = np.split(mat.data, mat.indptr[1:-1])
        rows_by_action.append((idx, val, gen.killed))
    variables, index = [], {}
    for x in range(n):
        actions = (int(policy[x]),) if policy is not None else range(problem.n_actions)
        for u in actions:
            idx, val, killed_vec = rows_by_action[u]
            cols_u, vals_u = idx[x], val[x]
            off = cols_u != x
            for wi, wp in enumerate(w_grid):
                if wp.candidate is None:
                    cols, vals, cost = cols_u, vals_u, 0.0
                    nominal = np.zeros(grid.d)
                else:
                    cand = candidates[wp.candidate]
                    cols, vals, cost = _ref_tilted_row(
                        cols_u[off], vals_u[off], float(killed_vec[x]), x, cand.psi_log, wp.scale
                    )
                    nominal = wp.scale * cand.grad[x]
                index[(x, u, wi)] = len(variables)
                variables.append(
                    _RefVariable(x, u, wi, cost, nominal, np.asarray(cols, dtype=np.int64), np.asarray(vals, dtype=float))
                )
    a_eq = np.zeros((n + 1, len(variables)))
    for j, var in enumerate(variables):
        a_eq[var.row_cols, j] = var.row_vals * grid.h**2
    a_eq[n, :] = 1.0
    b_eq = np.zeros(n + 1)
    b_eq[n] = 1.0
    c = np.array([var.cost for var in variables])
    return _RefLP(grid, tuple(w_grid), tuple(candidates), variables, index, a_eq, b_eq, c)


def _ref_node_marginal(ref, pi):
    marg = np.zeros(ref.grid.n)
    for j, var in enumerate(ref.variables):
        marg[var.node] += pi[j]
    return marg


def _ref_mass_on_policy(ref, pi, policy):
    total = 0.0
    for j, var in enumerate(ref.variables):
        if var.action == policy[var.node]:
            total += pi[j]
    return float(total)


def _ref_transform_point(ref, candidate, policy):
    n = ref.grid.n
    wi = next(i for i, wp in enumerate(ref.w_grid) if wp.candidate == candidate and wp.scale == 1.0)
    picks = [ref.index[(x, int(policy[x]), wi)] for x in range(n)]
    q = np.zeros((n, n))
    for x, j in enumerate(picks):
        var = ref.variables[j]
        q[x, var.row_cols] = var.row_vals
    mu = null_vector(q, int(np.argmax(ref.candidates[candidate].psi_log)))
    pi = np.zeros(len(ref.variables))
    pi[picks] = mu
    resid = float(np.abs(ref.a_eq @ pi - ref.b_eq).max())
    return pi, float(ref.c @ pi), resid


def _ref_structure(ref, pi, mu_tilde, policy, candidate, tv_tol=0.05, mass_tol=0.95):
    marg = _ref_node_marginal(ref, pi)
    tv = 0.5 * float(np.abs(marg - mu_tilde).sum())
    frac_policy = _ref_mass_on_policy(ref, pi, policy)
    grad_star = ref.candidates[candidate].grad
    nearest_mass = 0.0
    for j, var in enumerate(ref.variables):
        if pi[j] == 0.0:
            continue
        target = grad_star[var.node]
        best, best_dist = None, np.inf
        for wi, wp in enumerate(ref.w_grid):
            if wp.candidate is None:
                w_vec = np.zeros(ref.grid.d)
            else:
                w_vec = wp.scale * ref.candidates[wp.candidate].grad[var.node]
            dist = float(np.linalg.norm(w_vec - target))
            if dist < best_dist - 1e-15:
                best_dist, best = dist, {wi}
            elif dist <= best_dist + 1e-15:
                best.add(wi)
        if var.wpoint in best:
            nearest_mass += pi[j]
    return {
        "tv_to_mu_tilde": tv,
        "tv_tol": tv_tol,
        "tv_ok": bool(tv <= tv_tol),
        "mass_on_policy": frac_policy,
        "mass_on_nearest_w": float(nearest_mass),
        "mass_tol": mass_tol,
        "policy_mass_ok": bool(frac_policy >= mass_tol),
        "w_mass_ok": bool(nearest_mass >= mass_tol),
        "all_ok": bool(tv <= tv_tol and frac_policy >= mass_tol and nearest_mass >= mass_tol),
    }


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "name, h",
    [
        ("bang_bang", 1 / 8),
        ("bang_bang", 1 / 16),
        ("bang_bang", 2 / 11),
        ("bang_bang", 1 / 64),
        ("rect_2d", 1 / 4),
        ("bm_interval", 1 / 2),
    ],
)
@pytest.mark.parametrize("fixed", [False, True], ids=["full", "fixed-policy"])
def test_array_program_matches_the_per_variable_reference(request, name, h, fixed):
    prob = request.getfixturevalue(name)
    grid = build_grid(prob, h)
    tr_max = policy_iteration(prob, h, mode="MAX", grid=grid)
    tr_min = policy_iteration(prob, h, mode="MIN", grid=grid)
    cands = [candidate_from_trace("stay", tr_max), candidate_from_trace("leave", tr_min)]
    w_grid = build_w_grid(grid, cands)
    policy = tr_max.final_policy
    lp = build_occupation_lp(grid, prob, w_grid, cands, policy=policy if fixed else None)
    ref = _ref_build(grid, prob, w_grid, cands, policy=policy if fixed else None)

    # toarray() adds each entry into a zero, so a stored -0.0 reads as 0.0.
    np.testing.assert_array_equal(lp.a_eq.toarray(), ref.a_eq)
    assert _same_bits(lp.b_eq, ref.b_eq)
    assert _same_bits(lp.c, ref.c)
    for field in ("node", "action", "wpoint"):
        assert _same_bits(getattr(lp, field), np.array([getattr(v, field) for v in ref.variables], dtype=np.int64))
    assert _same_bits(lp.nominal_w, np.array([v.nominal_w for v in ref.variables]))
    # Each column holds its row's entries in the reference order (the MPS
    # export writes them in that order).
    for j, var in enumerate(ref.variables):
        span = slice(lp.rows.indptr[j], lp.rows.indptr[j + 1])
        np.testing.assert_array_equal(lp.rows.indices[span], var.row_cols)
        assert _same_bits(lp.rows.data[span], var.row_vals)

    indices, data = lp.rows.indices.copy(), lp.rows.data.copy()
    sol = solve_lp(lp)
    assert_certificate(ref.a_eq, ref.b_eq, ref.c, sol)
    # Solving leaves the program's entry order alone.
    assert _same_bits(lp.rows.indices, indices) and _same_bits(lp.rows.data, data)

    tp = transform_point(lp, 0, policy)
    ref_pi, ref_objective, ref_resid = _ref_transform_point(ref, 0, policy)
    assert _same_bits(tp.pi, ref_pi)
    assert tp.objective == ref_objective
    # The residual now sums each row's nonzeros in column order, where the
    # dense product summed whole rows, so only its last bits may move.
    assert tp.stationarity_residual == pytest.approx(ref_resid, abs=1e-14)

    assert _same_bits(sol.node_marginal(), _ref_node_marginal(ref, sol.pi))
    for pol in (policy, tr_min.final_policy):
        assert sol.mass_on_policy(pol) == _ref_mass_on_policy(ref, sol.pi, pol)
    model = doob_transform(tr_max.final_generator, tr_max.final_pair)
    mu, _ = stationary_measures(tr_max.final_generator, model, tr_max.final_pair)
    for pi in (sol.pi, tp.pi):
        got = verify_minimizer_structure(dataclasses.replace(sol, pi=pi), mu, policy, candidate=0)
        assert got == _ref_structure(ref, pi, mu, policy, 0)


@pytest.mark.parametrize("name, h", [("bang_bang", 1 / 16), ("rect_2d", 1 / 4)])
def test_lp_on_a_caller_grid_assembles_each_action_once(name, h, request, monkeypatch):
    # MAX, MIN and the program share the grid's generators, and the program
    # has the bits of one built on a fresh grid.
    prob = request.getfixturevalue(name)
    calls = []
    real = grid_module.assemble_generator

    def counted(grid, problem, policy):
        calls.append(policy)
        return real(grid, problem, policy)

    monkeypatch.setattr(control, "assemble_generator", counted)
    grid = build_grid(prob, h)
    cands = [
        candidate_from_trace(mode, policy_iteration(prob, h, mode=mode, grid=grid)) for mode in ("MAX", "MIN")
    ]
    w_grid = build_w_grid(grid, cands)
    lp = build_occupation_lp(grid, prob, w_grid, cands)
    assert sorted(calls) == list(range(prob.n_actions))
    fresh = build_occupation_lp(build_grid(prob, h), prob, w_grid, cands)
    assert len(calls) == 2 * prob.n_actions
    for field in ("c", "nominal_w", "node", "action", "wpoint"):
        assert _same_bits(getattr(lp, field), getattr(fresh, field)), field
    for field in ("data", "indices", "indptr"):
        assert _same_bits(getattr(lp.rows, field), getattr(fresh.rows, field)), field


def _tilted_chain(prob, h, wpoint):
    """A conservative chain of the program: the MAX optimum under one tilt."""
    grid = build_grid(prob, h)
    trace = policy_iteration(prob, h, mode="MAX", grid=grid)
    cands = [candidate_from_trace("stay", trace)]
    lp = build_occupation_lp(grid, prob, build_w_grid(grid, cands), cands)
    picks = np.flatnonzero((lp.action == trace.final_policy[lp.node]) & (lp.wpoint == wpoint))
    return lp.rows[:, picks].T.tocsr(), lp.c[picks]


@pytest.mark.parametrize("name, h", [("bang_bang", 1 / 64), ("bang_bang", 1 / 8), ("rect_2d", 1 / 8)])
@pytest.mark.parametrize("wpoint", [1, 2, 3])
def test_one_lu_evaluation_matches_the_null_vector_and_the_bias_equation(name, h, wpoint, request):
    q, c_pol = _tilted_chain(request.getfixturevalue(name), h, wpoint)
    n = q.shape[0]
    for pin in (0, n // 2, n - 1):
        mu, g, bias = variational._evaluate(q, c_pol, pin)
        ref = null_vector(q, pin)
        assert np.abs(mu - ref).max() <= 1e-13 * ref.max()
        assert abs(mu.sum() - 1.0) <= 1e-14
        assert g == float(mu @ c_pol)
        scale = abs(q).max() * np.abs(bias).max()
        assert np.abs(c_pol + q @ bias - g).max() <= 1e-14 * scale
        assert abs(bias[pin]) <= 1e-13 * max(1.0, np.abs(bias).max())


def test_one_lu_evaluation_keeps_the_nonnegativity_rule():
    # q = 1 mu^T - I has zero row sums and the left null vector mu, whose
    # last entry is negative; the chain is no Markov chain.
    mu = np.array([0.6, 0.6, -0.2])
    q = sp.csr_matrix(np.outer(np.ones(3), mu) - np.eye(3))
    with pytest.raises(NullVectorNotUnique, match="not nonnegative"):
        variational._evaluate(q, np.zeros(3), 0)
