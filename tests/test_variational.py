"""Occupation-measure program: feasibility structure, values, dual pricing."""

import dataclasses

import numpy as np
import pytest

from exitrate.control import policy_iteration
from exitrate.eigen import principal_eigenpair
from exitrate.errors import Infeasible, TooLarge
from exitrate.grid import assemble_generator, build_grid
from exitrate.problems import ProblemSpec
from exitrate.qprocess import doob_transform, stationary_measures
from exitrate.variational import (
    build_occupation_lp,
    build_w_grid,
    candidate_from_trace,
    export_mps,
    export_solution_csv,
    fixed_policy_lp,
    generator_pairing,
    solve_lp,
    transform_point,
    verify_minimizer_structure,
)


@pytest.fixture(scope="module")
def bang_bang_lp(bang_bang):
    h = 0.25
    grid = build_grid(bang_bang, h)
    cands = [
        candidate_from_trace("max", policy_iteration(bang_bang, h, mode="MAX", grid=grid)),
        candidate_from_trace("min", policy_iteration(bang_bang, h, mode="MIN", grid=grid)),
    ]
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
    var = lp.variables[int(np.argmax(sol.pi))]
    sig = bm_interval.sigma(grid.nodes)[0]
    assert 0.5 * float(np.sum((sig * var.effective_w) ** 2)) == pytest.approx(var.cost, abs=1e-12)


def test_occupation_value_matches_the_optimal_rate(bang_bang, bang_bang_lp):
    grid, cands, lp, sol = bang_bang_lp
    lam_star = cands[0].lam
    assert abs(sol.value - lam_star) / lam_star <= 1e-6


def test_transform_point_weak_duality(bang_bang_lp):
    grid, cands, lp, sol = bang_bang_lp
    tp = transform_point(lp, candidate=0, policy=cands[0].policy)
    assert tp.stationarity_residual <= 1e-8
    assert tp.objective >= sol.value - 1e-9
    assert tp.objective == pytest.approx(sol.value, abs=1e-8)


def test_wrong_mode_candidate_prices_strictly_higher(bang_bang_lp):
    grid, cands, lp, sol = bang_bang_lp
    best = transform_point(lp, candidate=0, policy=cands[0].policy)
    worst = transform_point(lp, candidate=1, policy=cands[1].policy)
    # The other fixed point prices its own (larger) rate.
    assert worst.objective > best.objective + 0.5 * (cands[1].lam - cands[0].lam) - 1e-9
    assert worst.objective == pytest.approx(cands[1].lam, rel=1e-6)


def test_minimizer_structure_checks_pass_at_the_solution(bang_bang, bang_bang_lp):
    grid, cands, lp, sol = bang_bang_lp
    gen = cands[0].generator
    pair = principal_eigenpair(gen, tol=1e-12)
    model = doob_transform(gen, pair)
    mu, _ = stationary_measures(gen, model, pair)
    report = verify_minimizer_structure(sol, mu, cands[0].policy, candidate=0)
    assert report["all_ok"]
    assert report["tv_to_mu_tilde"] <= 0.05
    assert report["mass_on_policy"] >= 0.95
    assert report["mass_on_nearest_w"] >= 0.95


def test_spread_out_measure_fails_the_structure_checks(bang_bang, bang_bang_lp):
    grid, cands, lp, sol = bang_bang_lp
    gen = cands[0].generator
    pair = principal_eigenpair(gen, tol=1e-12)
    model = doob_transform(gen, pair)
    mu, _ = stationary_measures(gen, model, pair)
    import copy

    smeared = copy.copy(sol)
    smeared.pi = np.full(lp.n_variables, 1.0 / lp.n_variables)
    report = verify_minimizer_structure(smeared, mu, cands[0].policy, candidate=0)
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
        policy=policy,
        psi_log=np.log(pair.psi),
        lam=pair.lam,
        generator=gen,
        grad=discrete_gradient(grid, np.log(pair.psi), extension="log-zero"),
    )
    lp, sol = fixed_policy_lp(grid, bang_bang, policy, [own])
    assert sol.value == pytest.approx(pair.lam, rel=1e-6)
    # The fixed-policy value cannot undercut the optimum over all policies.
    assert sol.value > policy_iteration(bang_bang, h, mode="MAX", grid=grid).lam


def test_doubling_sigma_quadruples_every_cost():
    flat1 = ProblemSpec("flat1", 1, ((0.0, 1.0),), ("0",), (("0",),), ("1",))
    flat2 = ProblemSpec("flat2", 1, ((0.0, 1.0),), ("0",), (("0",),), ("2",))
    lps = []
    for prob in (flat1, flat2):
        grid = build_grid(prob, 0.25)
        cand = candidate_from_trace("c", policy_iteration(prob, 0.25, grid=grid))
        lps.append(build_occupation_lp(grid, prob, build_w_grid(grid, [cand]), [cand]))
    # Identical variable ordering; a = sigma^2 scales every rate and cost by 4.
    assert [v.wpoint for v in lps[0].variables] == [v.wpoint for v in lps[1].variables]
    np.testing.assert_allclose(lps[1].c, 4.0 * lps[0].c, rtol=1e-8, atol=1e-12)


def test_generator_pairing_vanishes_at_stationarity(bang_bang_lp, rng):
    grid, cands, lp, sol = bang_bang_lp
    for _ in range(5):
        f = rng.uniform(-1.0, 1.0, grid.n)
        assert abs(generator_pairing(lp, f, sol.pi)) <= 1e-6


def test_w_grid_size_is_capped(bang_bang):
    grid = build_grid(bang_bang, 0.25)
    cand = candidate_from_trace("c", policy_iteration(bang_bang, 0.25, grid=grid))
    with pytest.raises(TooLarge):
        build_w_grid(grid, [cand] * 6, scales=(1.0, 0.5, 2.0))


def test_lp_exports(tmp_path, bang_bang_lp):
    grid, cands, lp, sol = bang_bang_lp
    # Costs whose 10-digit form overflows the 12-column field, one way or another.
    extremes = (1.2345678901e-5, -1.2345678901e-5, 6.02e23)
    variables = [dataclasses.replace(v, cost=c) for v, c in zip(lp.variables, extremes)]
    lp = dataclasses.replace(lp, variables=variables + lp.variables[len(extremes) :])
    mps = tmp_path / "occ.mps"
    export_mps(lp, str(mps))
    text = mps.read_text()
    for section in ("NAME", "ROWS", "COLUMNS", "RHS", "ENDATA"):
        assert section in text
    # Every (column, row) value of the fixed-column COLUMNS section parses
    # back to the LP's coefficient.
    expected = {}
    for j, var in enumerate(lp.variables):
        col = f"X{j:07d}"
        expected[col, "COST"] = var.cost
        for y, v in zip(var.row_cols, var.row_vals):
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
