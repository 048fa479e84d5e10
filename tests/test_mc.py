"""Monte Carlo engines against exact-simulation and closed-form oracles."""

import os

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from exitrate._util import THREADS_ENV
from exitrate.eigen import principal_eigenpair
from exitrate.errors import TooFewSurvivors
from exitrate.grid import assemble_generator, build_grid
from exitrate.mc import (
    SHARD,
    TrajectoryEnsemble,
    estimate_exit_rate,
    export_ensemble_csv,
    export_histogram_csv,
    interpolate_field,
    mc_girsanov_check,
    simulate_ctmc,
    simulate_killed,
    simulate_qprocess,
    survival,
)
from exitrate.problems import ProblemSpec
from exitrate.qprocess import doob_transform

SEED = 20260814


@pytest.fixture(scope="module")
def three_node(bm_interval):
    gen = assemble_generator(build_grid(bm_interval, 0.25), bm_interval, 0)
    pair = principal_eigenpair(gen, tol=1e-12)
    return gen, pair


def test_exponential_holding_time_has_the_right_mean():
    gen = sp.csr_matrix(np.array([[-3.0]]))  # pure killing at rate 3
    ens = simulate_ctmc(gen, 0, T=50.0, seed=SEED, n_paths=200_000)
    assert not ens.censored.any()
    mean = ens.exit_times.mean()
    stderr = ens.exit_times.std(ddof=1) / np.sqrt(len(ens.exit_times))
    assert abs(mean - 1.0 / 3.0) <= 3.0 * stderr


def test_ctmc_occupancy_matches_the_invariant_law(three_node):
    gen, pair = three_node
    model = doob_transform(gen, pair)
    T, n_paths = 5.0, 400
    ens = simulate_ctmc(model.g_tilde, 1, T=T, seed=SEED, n_paths=n_paths)
    assert ens.censored.all()  # conservative chain never exits
    occ = ens.occupancy / (T * n_paths)
    tv = 0.5 * np.abs(occ - np.array([0.25, 0.5, 0.25])).sum()
    assert tv <= 0.02


def test_ctmc_survival_matches_the_dense_semigroup(three_node):
    gen, pair = three_node
    t = 0.3
    oracle = float(expm(t * gen.matrix.toarray())[1].sum())
    ens = simulate_ctmc(gen, 1, T=t, seed=SEED, n_paths=100_000)
    p_hat = ens.censored.mean()
    stderr = np.sqrt(p_hat * (1 - p_hat) / ens.censored.size)
    assert abs(p_hat - oracle) <= 3.0 * stderr


def test_rate_estimator_recovers_a_synthetic_exponential():
    rng = np.random.default_rng(11)
    n, horizon, rate = 50_000, 2.0, 3.0
    times = rng.exponential(1.0 / rate, n)
    censored = times > horizon
    ens = TrajectoryEnsemble(
        n_paths=n,
        dt=1e-3,
        horizon=horizon,
        exit_times=np.where(censored, horizon, times),
        censored=censored,
        terminal_states=np.zeros((n, 1)),
        seed=SEED,
        x0=np.array([0.5]),
    )
    est = estimate_exit_rate(ens, fit_window=(0.2, 1.2))
    assert abs(est.rate - rate) <= 3.0 * est.stderr
    assert est.r_squared > 0.99
    assert est.survivors_at_start > 100


def test_killed_paths_estimate_the_spectral_rate(bm_interval):
    lam = np.pi ** 2 / 2
    ens = simulate_killed(bm_interval, 0, [0.5], dt=5e-4, T=1.4, n_paths=30_000, seed=SEED)
    est = estimate_exit_rate(ens, fit_window=(0.4, 1.2))
    assert abs(est.rate - lam) <= max(3.0 * est.stderr, 0.10 * lam)


def test_finer_steps_reduce_the_exit_bias(bm_interval):
    # The first-exit rule misses crossings between steps, so it
    # under-estimates the rate by O(sqrt(dt)).
    lam = np.pi ** 2 / 2
    errs, ses = [], []
    for dt in (1e-3, 2.5e-4):
        ens = simulate_killed(bm_interval, 0, [0.5], dt=dt, T=1.4, n_paths=30_000, seed=SEED)
        est = estimate_exit_rate(ens, fit_window=(0.4, 1.2))
        errs.append(abs(est.rate - lam))
        ses.append(est.stderr)
    assert errs[1] <= errs[0] + ses[0] + ses[1]


def test_survival_is_monotone_and_respects_the_horizon(bm_interval):
    ens = simulate_killed(bm_interval, 0, [0.5], dt=1e-3, T=0.5, n_paths=4_000, seed=SEED)
    s = [survival(ens, t) for t in (0.0, 0.1, 0.3, 0.5)]
    assert s[0] == 1.0
    assert all(b <= a for a, b in zip(s, s[1:]))
    with pytest.raises(ValueError):
        survival(ens, 0.6)


def test_zero_diffusion_zero_drift_never_exits():
    frozen = ProblemSpec("still", 1, ((0.0, 1.0),), ("0",), (("0",),), ("0",))
    ens = simulate_killed(frozen, 0, [0.4], dt=1e-3, T=0.05, n_paths=64, seed=SEED)
    assert ens.censored.all()
    np.testing.assert_allclose(ens.terminal_states, 0.4)


def test_worker_count_cannot_change_the_sample(bm_interval):
    n = SHARD + 7  # force two shards
    saved = os.environ.get(THREADS_ENV)
    try:
        os.environ[THREADS_ENV] = "1"
        a = simulate_killed(bm_interval, 0, [0.5], dt=1e-3, T=0.2, n_paths=n, seed=SEED)
        os.environ[THREADS_ENV] = "3"
        b = simulate_killed(bm_interval, 0, [0.5], dt=1e-3, T=0.2, n_paths=n, seed=SEED)
    finally:
        if saved is None:
            os.environ.pop(THREADS_ENV, None)
        else:
            os.environ[THREADS_ENV] = saved
    np.testing.assert_array_equal(a.exit_times, b.exit_times)
    np.testing.assert_array_equal(a.censored, b.censored)
    np.testing.assert_array_equal(a.terminal_states, b.terminal_states)


def test_seed_controls_the_sample(bm_interval):
    a = simulate_killed(bm_interval, 0, [0.5], dt=1e-3, T=0.1, n_paths=256, seed=1)
    b = simulate_killed(bm_interval, 0, [0.5], dt=1e-3, T=0.1, n_paths=256, seed=1)
    c = simulate_killed(bm_interval, 0, [0.5], dt=1e-3, T=0.1, n_paths=256, seed=2)
    np.testing.assert_array_equal(a.exit_times, b.exit_times)
    assert not np.array_equal(a.exit_times, c.exit_times)


def test_confined_paths_stay_inside_and_are_never_killed(bm_interval):
    grid = build_grid(bm_interval, 0.125)
    pair = principal_eigenpair(assemble_generator(grid, bm_interval, 0), tol=1e-12)
    occ = simulate_qprocess(
        bm_interval, grid, 0, np.log(pair.psi), [0.5], dt=1e-3, T=0.004, n_paths=500, seed=SEED
    )
    assert occ.killed == 0
    assert (occ.terminal_states > 0.0).all() and (occ.terminal_states < 1.0).all()
    assert occ.histogram.sum() == pytest.approx(1.0, abs=1e-9)
    # Four small steps from the center cannot reach past the adjacent cells.
    center = grid.nearest_index(np.array([[0.5]]))[0]
    assert occ.histogram[center] > 0.8
    assert occ.histogram[center - 1 : center + 2].sum() > 0.999


def test_start_point_preconditions(bm_interval):
    grid = build_grid(bm_interval, 0.25)
    with pytest.raises(ValueError):
        simulate_killed(bm_interval, 0, [1.0], dt=1e-3, T=0.1, n_paths=8, seed=SEED)
    with pytest.raises(ValueError):
        simulate_qprocess(
            bm_interval, grid, 0, np.zeros(grid.n), [0.3], dt=1e-3, T=0.01, n_paths=8, seed=SEED
        )


def test_rate_estimator_demands_survivors():
    n = 200
    ens = TrajectoryEnsemble(
        n_paths=n,
        dt=1e-3,
        horizon=2.0,
        exit_times=np.full(n, 0.05),
        censored=np.zeros(n, dtype=bool),
        terminal_states=np.zeros((n, 1)),
        seed=SEED,
        x0=np.array([0.5]),
    )
    with pytest.raises(TooFewSurvivors):
        estimate_exit_rate(ens, fit_window=(0.5, 1.0))
    with pytest.raises(ValueError):
        estimate_exit_rate(ens, fit_window=(0.5, 3.0))


def test_interpolation_is_exact_on_nodes_and_linear_fields(bm_interval, rng):
    grid = build_grid(bm_interval, 0.125)
    f = 2.0 * grid.nodes[:, 0] - 0.3
    np.testing.assert_allclose(interpolate_field(grid, f, grid.nodes), f, atol=1e-14)
    pts = rng.uniform(grid.lo[0] + grid.h, grid.hi[0] - grid.h, (50, 1))
    np.testing.assert_allclose(
        interpolate_field(grid, f, pts), 2.0 * pts[:, 0] - 0.3, atol=1e-12
    )
    # Outside the node hull the value clamps to the edge node's.
    edge = interpolate_field(grid, f, np.array([[grid.lo[0]]]))
    assert edge[0] == pytest.approx(f[0])


def test_reweighted_identity_is_exact_at_time_zero(bm_interval):
    grid = build_grid(bm_interval, 0.125)
    pair = principal_eigenpair(assemble_generator(grid, bm_interval, 0), tol=1e-12)

    def g(points):
        return (np.abs(points[:, 0] - 0.5) < 0.2).astype(float)

    res = mc_girsanov_check(
        bm_interval, grid, 0, pair, g, t=0.0, x0=[0.5], n_killed=64, n_qpaths=16, seed=SEED
    )
    assert res["lhs"] == 1.0
    assert res["rhs"] == pytest.approx(1.0, abs=1e-12)
    assert res["overlap"]


def test_reweighted_identity_zero_function(bm_interval):
    grid = build_grid(bm_interval, 0.125)
    pair = principal_eigenpair(assemble_generator(grid, bm_interval, 0), tol=1e-12)
    res = mc_girsanov_check(
        bm_interval,
        grid,
        0,
        pair,
        lambda pts: np.zeros(len(pts)),
        t=0.05,
        x0=[0.5],
        n_killed=256,
        n_qpaths=64,
        seed=SEED,
        dt=1e-3,
    )
    assert res["lhs"] == 0.0
    assert res["rhs"] == 0.0
    assert res["overlap"]


def test_csv_exports(tmp_path, bm_interval):
    ens = simulate_killed(bm_interval, 0, [0.5], dt=1e-3, T=0.05, n_paths=32, seed=SEED)
    p1 = tmp_path / "ens.csv"
    export_ensemble_csv(ens, str(p1))
    lines = p1.read_text().splitlines()
    assert lines[0] == "path,exit_time,censored,x1"
    assert len(lines) == 33
    grid = build_grid(bm_interval, 0.25)
    p2 = tmp_path / "hist.csv"
    export_histogram_csv(grid, np.array([0.25, 0.5, 0.25]), str(p2))
    assert p2.read_text().splitlines()[0] == "x1,mass"
