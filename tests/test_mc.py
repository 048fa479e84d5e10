"""Monte Carlo engines against exact-simulation and closed-form oracles."""

import hashlib
import itertools
import os
import sys
import threading
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from exitrate import mc
from exitrate._util import THREADS_ENV, line_fit, philox
from exitrate.eigen import principal_eigenpair
from exitrate.errors import TooFewSurvivors, TooLargeForDense
from exitrate.expressions import ExpressionError
from exitrate.control import policy_iteration
from exitrate.grid import assemble_generator, build_grid, discrete_gradient
from exitrate.mc import (
    _STREAM_BOOTSTRAP,
    _STREAM_CTMC,
    _STREAM_QPROCESS,
    SHARD,
    TrajectoryEnsemble,
    estimate_exit_rate,
    export_ensemble_csv,
    interpolate_field,
    mc_girsanov_check,
    monte_carlo_check,
    simulate_ctmc,
    simulate_killed,
    simulate_qprocess,
)
from exitrate.problems import ProblemSpec
from exitrate.qprocess import DENSE_CAP, doob_transform, stationary_measures

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


def test_ctmc_refuses_a_chain_beyond_the_dense_cap(bm_interval):
    gen = assemble_generator(build_grid(bm_interval, 1 / 2048), bm_interval, 0)
    assert gen.matrix.shape[0] > DENSE_CAP
    with pytest.raises(TooLargeForDense, match=f"cap {DENSE_CAP}"):
        simulate_ctmc(gen, 0, T=1.0, seed=SEED)


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


# SHA-256 of exit times, censored flags and terminal states of the rect-2d
# killed ensemble below, recorded before its normals were drawn ahead.
RECT_ONE_SHARD_SHA256 = "181a26982291ee8fed600592ad0e533687dbc2b588a44fc54094731aba62a535"


@pytest.fixture(scope="module")
def rect_policy(rect_2d):
    return policy_iteration(rect_2d, 1.0 / 32, mode="MAX")


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_one_shard_ensemble_keeps_its_pinned_bits(threads, rect_2d, rect_policy, monkeypatch):
    # One shard and more than one worker: the shard's normals are drawn
    # ahead on a helper thread, which must not move a bit.
    monkeypatch.setenv(THREADS_ENV, threads)
    tr = rect_policy
    ens = simulate_killed(rect_2d, tr.final_policy, [0.5, 0.5], 1e-3, 0.7, SHARD, SEED, grid=tr.grid)
    blob = hashlib.sha256()
    for arr in (ens.exit_times, ens.censored, ens.terminal_states):
        blob.update(arr.tobytes())
    assert blob.hexdigest() == RECT_ONE_SHARD_SHA256


def test_reweighting_sides_at_once_keep_every_bit(bm_interval, monkeypatch):
    grid = build_grid(bm_interval, 1.0 / 32)
    pair = principal_eigenpair(assemble_generator(grid, bm_interval, 0))

    def middle(points):
        return ((points[:, 0] > 0.25) & (points[:, 0] < 0.75)).astype(float)

    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv(THREADS_ENV, threads)
        reports.append(mc_girsanov_check(
            bm_interval, grid, 0, pair, middle, t=0.3, x0=[0.5], n_killed=4_000, n_qpaths=256,
            seed=SEED, dt=1e-3, dt_q=1e-3,
        ))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("counts", [[1000], [1, 999], [300, 1, 699], [7] * 142 + [6]])
def test_normals_do_not_depend_on_how_the_draws_are_split(counts):
    whole = philox(SEED, 3).standard_normal(sum(counts))
    rng = philox(SEED, 3)
    np.testing.assert_array_equal(np.concatenate([rng.standard_normal(c) for c in counts]), whole)


def test_drawn_ahead_normals_are_the_generator_s_own():
    # Four feeds at once, more than the cores, with frequent thread switches:
    # each must still hand out its own stream's values in order.
    counts = [5, mc.DRAW_BLOCK - 5, 3 * mc.DRAW_BLOCK + 11, 1, 2 * mc.DRAW_BLOCK]
    drawn = {}

    def consume(stream):
        with mc._normals(philox(SEED, stream), ahead=True) as draw:
            drawn[stream] = np.concatenate([draw(c) for c in counts])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        consumers = [threading.Thread(target=consume, args=(stream,)) for stream in range(4)]
        for t in consumers:
            t.start()
        for t in consumers:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for stream in range(4):
        np.testing.assert_array_equal(drawn[stream], philox(SEED, stream).standard_normal(sum(counts)))


def test_a_failed_draw_ahead_raises_in_the_step_loop():
    class Failing:
        def standard_normal(self, size):
            raise MemoryError("no room for the block")

    before = threading.enumerate()
    with pytest.raises(MemoryError, match="no room"):
        with mc._normals(Failing(), ahead=True) as draw:
            draw(10)
    assert threading.enumerate() == before


def _counting_thread_starts(monkeypatch) -> list:
    started = []
    start = threading.Thread.start

    def counted(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


@pytest.mark.parametrize("threads, helpers", [("1", 0), ("2", 1)])
def test_no_helper_thread_outlives_a_run(threads, helpers, rect_2d, rect_policy, monkeypatch):
    monkeypatch.setenv(THREADS_ENV, threads)
    tr = rect_policy
    args = (rect_2d, tr.final_policy, [0.5, 0.5], 1e-3, 0.05, 2_000, SEED)
    before = threading.enumerate()
    started = _counting_thread_starts(monkeypatch)
    simulate_killed(*args, grid=tr.grid)
    assert len(started) == helpers
    assert threading.enumerate() == before

    # A drift that fails at step 5 stops the loop; the helper is still joined.
    coefficients = mc._coefficients

    def failing(problem, policy, grid):
        drift, sigma = coefficients(problem, policy, grid)
        steps = itertools.count(1)

        def drift_until_step_5(x, near=None):
            if next(steps) == 5:
                raise RuntimeError("drift fails at step 5")
            return drift(x, near)

        return drift_until_step_5, sigma

    monkeypatch.setattr(mc, "_coefficients", failing)
    with pytest.raises(RuntimeError, match="step 5"):
        simulate_killed(*args, grid=tr.grid)
    assert len(started) == 2 * helpers
    assert threading.enumerate() == before


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
        bm_interval, grid, 0, pair, g, t=0.0, x0=[0.5], n_killed=64, n_qpaths=16, seed=SEED, dt=1e-3, dt_q=1e-3
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
        dt_q=1e-3,
    )
    assert res["lhs"] == 0.0
    assert res["rhs"] == 0.0
    assert res["overlap"]


@pytest.mark.parametrize("case", ["bm-interval", "rect-2d per-node"])
def test_monte_carlo_check_returns_what_the_kernels_return(case, bm_interval, rect_2d):
    if case == "bm-interval":
        prob, x0, killed, window = bm_interval, [0.5], (1e-3, 1.6, 4_000), (0.5, 1.5)
        trace = policy_iteration(prob, 1.0 / 16, mode="MAX")
        policy = 0

        def middle(points):
            return ((points[:, 0] > 0.25) & (points[:, 0] < 0.75)).astype(float)

    else:
        prob, x0, killed, window = rect_2d, [0.5, 0.5], (1e-3, 0.7, 4_000), (0.1, 0.3)
        trace = policy_iteration(prob, 1.0 / 8, mode="MAX")
        policy = trace.final_policy
        assert len(np.unique(policy)) > 1

        def middle(points):
            mid = np.array([0.5 * (lo + hi) for lo, hi in zip(prob.lo, prob.hi)])
            width = np.array([0.25 * (hi - lo) for lo, hi in zip(prob.lo, prob.hi)])
            return (np.abs(points - mid) < width).all(axis=1).astype(float)

    grid, gen, pair = trace.grid, trace.final_generator, trace.final_pair
    mu, _ = stationary_measures(gen, doob_transform(gen, pair), pair)
    confined, reweight = (2e-3, 0.5, 8), (0.3, 2_000, 500, 1e-3, 2e-3)
    ens, est, occ, tv, gir = monte_carlo_check(
        prob, grid, policy, pair, mu, x0, SEED,
        killed=killed, fit_window=window, confined=confined, reweight=reweight,
    )

    ref_ens = simulate_killed(prob, policy, x0, *killed, SEED, grid=grid)
    for field in ("exit_times", "censored", "terminal_states"):
        assert np.array_equal(getattr(ens, field), getattr(ref_ens, field))
    assert est == estimate_exit_rate(ref_ens, fit_window=window)
    ref_occ = simulate_qprocess(prob, grid, policy, trace.psi_log, x0, *confined, SEED)
    assert np.array_equal(occ.histogram, ref_occ.histogram)
    assert occ.projections == ref_occ.projections and occ.killed == ref_occ.killed == 0
    assert tv == 0.5 * float(np.abs(ref_occ.histogram - mu).sum())
    t, n_killed, n_qpaths, dt, dt_q = reweight
    assert gir == mc_girsanov_check(
        prob, grid, policy, pair, middle, t=t, x0=x0, n_killed=n_killed, n_qpaths=n_qpaths,
        seed=SEED, dt=dt, dt_q=dt_q,
    )


def test_monte_carlo_check_rejects_a_start_near_the_wall_before_simulating(bm_interval, monkeypatch):
    trace = policy_iteration(bm_interval, 0.125, mode="MAX")
    pair = trace.final_pair
    calls = []
    monkeypatch.setattr(mc, "simulate_killed", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match=r"two cells inside the box at h=0.125, in \(0.25, 0.75\)"):
        monte_carlo_check(
            bm_interval, trace.grid, 0, pair, np.full(trace.grid.n, 1.0 / trace.grid.n), [0.2], SEED,
            killed=(1e-3, 0.5, 100), fit_window=(0.1, 0.4), confined=(1e-3, 0.5, 4),
            reweight=(0.3, 100, 20, 1e-3, 1e-3),
        )
    assert calls == []


def test_line_fit_matches_the_inline_formulas(rng):
    x = np.linspace(0.5, 1.5, 41)
    for y in (-4.9 * x + 0.01 * rng.standard_normal(41), np.log(rng.random(41)), np.full(41, -2.0)):
        slope, intercept = np.polyfit(x, y, 1)
        ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        assert line_fit(x, y) == (float(slope), 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0)
    assert line_fit(x, np.full(41, -2.0))[1] == 1.0


def test_csv_exports(tmp_path, bm_interval):
    ens = simulate_killed(bm_interval, 0, [0.5], dt=1e-3, T=0.05, n_paths=32, seed=SEED)
    p1 = tmp_path / "ens.csv"
    export_ensemble_csv(ens, str(p1))
    lines = p1.read_text().splitlines()
    assert lines[0] == "path,exit_time,censored,x1"
    assert len(lines) == 33


# ---------------------------------------------------------------- oracles
# Plain step loops that evaluate every coefficient at every point.  The
# engines hoist constant coefficients, share one cell lookup per attempt and
# bin instead of sort; each must reproduce these loops bit for bit.


def _ref_policy_drift(problem, policy, grid, points):
    if isinstance(policy, (int, np.integer)):
        return problem.drift(points, int(policy))
    actions = np.asarray(policy, dtype=np.int64)[grid.nearest_index(points)]
    out = np.empty_like(points)
    for u in np.unique(actions):
        mask = actions == u
        out[mask] = problem.drift(points[mask], int(u))
    return out


def _ref_killed(problem, policy, x0, dt, T, n_paths, seed, grid=None):
    """One shard (n_paths <= SHARD) of the killed Euler-Maruyama loop."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    lo, hi = problem.lo, problem.hi
    n_steps = int(round(T / dt))
    rng = philox(seed, 0)
    x = np.tile(x0, (n_paths, 1))
    alive = np.arange(n_paths)
    exit_times = np.full(n_paths, n_steps * dt)
    censored = np.ones(n_paths, dtype=bool)
    terminal = np.zeros((n_paths, len(x0)))
    for k in range(n_steps):
        if not len(alive):
            break
        m = _ref_policy_drift(problem, policy, grid, x)
        s = problem.sigma(x)
        x = x + m * dt + s * rng.standard_normal(x.shape) * np.sqrt(dt)
        out = np.any((x <= lo) | (x >= hi), axis=1)
        gone = alive[out]
        exit_times[gone] = (k + 1) * dt
        censored[gone] = False
        terminal[gone] = x[out]
        x, alive = x[~out], alive[~out]
    terminal[alive] = x
    return exit_times, censored, terminal


def _ref_interpolate(grid, field, points):
    field = np.asarray(field, dtype=float)
    squeeze = field.ndim == 1
    if squeeze:
        field = field[:, None]
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d, dims = grid.d, grid.dims
    base = np.empty((len(points), d), dtype=np.int64)
    frac = np.empty((len(points), d))
    for k in range(d):
        t = (points[:, k] - (grid.lo[k] + grid.h)) / grid.h
        if dims[k] == 1:
            base[:, k] = 0
            frac[:, k] = 0.0
        else:
            cell = np.clip(np.floor(t), 0, dims[k] - 2)
            base[:, k] = cell.astype(np.int64)
            frac[:, k] = np.clip(t - cell, 0.0, 1.0)
    out = np.zeros((len(points), field.shape[1]))
    for corner in product((0, 1), repeat=d):
        idx = [np.minimum(base[:, k] + corner[k], dims[k] - 1) for k in range(d)]
        w = np.ones(len(points))
        for k in range(d):
            w *= frac[:, k] if corner[k] else 1.0 - frac[:, k]
        out += w[:, None] * field[np.ravel_multi_index(idx, dims)]
    return out[:, 0] if squeeze else out


def _ref_qprocess(problem, grid, policy, psi_log, x0, dt, T, n_paths, seed, max_halvings):
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    lo, hi, h = grid.lo, grid.hi, grid.h
    grad = discrete_gradient(grid, psi_log, extension="log-zero")
    n_steps = int(round(T / dt))
    rng = philox(seed, _STREAM_QPROCESS)
    x = np.tile(x0, (n_paths, 1))
    occupancy = np.zeros(grid.n)
    projections = 0
    for _ in range(n_steps):
        remaining = np.full(n_paths, dt)
        trial = np.full(n_paths, dt)
        halvings = np.zeros(n_paths, dtype=np.int64)
        while True:
            idx = np.flatnonzero(remaining > 1e-18)
            if not len(idx):
                break
            xs = x[idx]
            step = np.minimum(trial[idx], remaining[idx])
            s = problem.sigma(xs)
            w = _ref_interpolate(grid, grad, xs)
            m = _ref_policy_drift(problem, policy, grid, xs) + s * s * w
            prop = xs + m * step[:, None] + s * rng.standard_normal(xs.shape) * np.sqrt(step)[:, None]
            inside = np.all((prop > lo) & (prop < hi), axis=1)
            stuck = ~inside & (halvings[idx] >= max_halvings)
            prop[stuck] = np.clip(prop[stuck], lo + 2 * h, hi - 2 * h)
            projections += int(stuck.sum())
            commit = inside | stuck
            ci = idx[commit]
            dt_c = step[commit]
            occupancy += np.bincount(grid.nearest_index(xs[commit]), weights=dt_c, minlength=grid.n)
            x[ci] = prop[commit]
            remaining[ci] -= dt_c
            trial[ci] = np.maximum(remaining[ci], 0.0)
            retry = idx[~commit]
            halvings[retry] += 1
            trial[retry] *= 0.5
    return occupancy / (n_paths * n_steps * dt), x, projections


def _ref_rate(ens, fit_window, n_points=41, n_boot=200):
    n = ens.n_paths
    times = np.linspace(*fit_window, n_points)

    def log_survival(sorted_tau):
        alive = n - np.searchsorted(sorted_tau, times, side="right")
        return np.log(np.maximum(alive, 1) / n)

    tau = np.sort(ens.exit_times[~ens.censored])
    slope = np.polyfit(times, log_survival(tau), 1)[0]
    rng = philox(ens.seed, _STREAM_BOOTSTRAP)
    slopes = np.empty(n_boot)
    for b in range(n_boot):
        pick = rng.integers(0, n, n)
        slopes[b] = np.polyfit(times, log_survival(np.sort(ens.exit_times[pick][~ens.censored[pick]])), 1)[0]
    return -slope, slopes.std(ddof=1), n - int(np.searchsorted(tau, fit_window[0], side="right"))


def _ref_ctmc(matrix, x0_index, T, seed, n_paths):
    mat = matrix.toarray()
    n = mat.shape[0]
    rates = -np.diag(mat)
    deficit = -mat.sum(axis=1)
    deficit[np.abs(deficit) < 1e-13] = 0.0
    jump = np.maximum(mat, 0.0)
    np.fill_diagonal(jump, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        probs = np.where(rates[:, None] > 0, jump / rates[:, None], 0.0)
        kill = np.where(rates > 0, deficit / rates, 0.0)
    cum = np.cumsum(np.hstack([probs, kill[:, None]]), axis=1)
    rng = philox(seed, _STREAM_CTMC)
    state = np.full(n_paths, x0_index, dtype=np.int64)
    t = np.zeros(n_paths)
    alive = np.ones(n_paths, dtype=bool)
    censored = np.ones(n_paths, dtype=bool)
    exit_times = np.full(n_paths, float(T))
    occupancy = np.zeros(n)
    while alive.any():
        idx = np.flatnonzero(alive)
        r = rates[state[idx]]
        hold = np.where(r > 0, rng.exponential(1.0, len(idx)) / np.maximum(r, 1e-300), np.inf)
        np.add.at(occupancy, state[idx], np.minimum(hold, T - t[idx]))
        t_next = t[idx] + hold
        done = t_next >= T
        alive[idx[done]] = False
        movers, t_move = idx[~done], t_next[~done]
        if not len(movers):
            continue
        sel = np.sum(cum[state[movers]] < rng.random(len(movers))[:, None], axis=1)
        killed = sel >= n
        exit_times[movers[killed]] = t_move[killed]
        censored[movers[killed]] = False
        alive[movers[killed]] = False
        state[movers[~killed]] = sel[~killed]
        t[movers[~killed]] = t_move[~killed]
    return occupancy, exit_times, censored


# A problem whose drift and sigma both depend on the point, so the engines
# take their evaluated branch; its second action has constant drift.
XDEP = ProblemSpec(
    "xdep",
    2,
    ((0.0, 1.0), (0.0, 1.0)),
    ("a", "b"),
    (("0.5-x1", "0.3*sin(pi*x2)"), ("1", "-0.5")),
    ("1+0.25*x1", "1.2-0.2*x2*x2"),
)


def _assert_killed_matches(ens, ref):
    np.testing.assert_array_equal(ens.exit_times, ref[0])
    np.testing.assert_array_equal(ens.censored, ref[1])
    np.testing.assert_array_equal(ens.terminal_states, ref[2])


def test_killed_bm_interval_matches_the_plain_loop(bm_interval):
    args = (bm_interval, 0, [0.5], 1e-3, 0.3, 2_000, SEED)
    _assert_killed_matches(simulate_killed(*args), _ref_killed(*args))


def test_killed_per_node_policy_matches_the_plain_loop(rect_2d):
    grid = build_grid(rect_2d, 0.125)
    policy = np.arange(grid.n) % 3
    args = (rect_2d, policy, [0.4, 0.6], 1e-3, 0.2, 2_000, SEED)
    _assert_killed_matches(simulate_killed(*args, grid=grid), _ref_killed(*args, grid=grid))


@pytest.mark.parametrize("policy", ["per-node", 0, 1])
def test_killed_x_dependent_coefficients_match_the_plain_loop(policy):
    grid = build_grid(XDEP, 0.125)
    pol = np.arange(grid.n) % 2 if policy == "per-node" else policy
    args = (XDEP, pol, [0.5, 0.5], 1e-3, 0.2, 1_000, SEED)
    _assert_killed_matches(simulate_killed(*args, grid=grid), _ref_killed(*args, grid=grid))


def _assert_confined_matches(problem, grid, policy, psi_log, x0, dt, T, n_paths):
    occ = simulate_qprocess(problem, grid, policy, psi_log, x0, dt, T, n_paths, SEED)
    hist, terminal, projections = _ref_qprocess(
        problem, grid, policy, psi_log, x0, dt, T, n_paths, SEED, mc.MAX_HALVINGS
    )
    np.testing.assert_array_equal(occ.histogram, hist)
    np.testing.assert_array_equal(occ.terminal_states, terminal)
    assert occ.projections == projections
    return occ


def test_confined_bm_interval_matches_the_plain_loop(bm_interval):
    grid = build_grid(bm_interval, 1.0 / 32)
    pair = principal_eigenpair(assemble_generator(grid, bm_interval, 0))
    _assert_confined_matches(bm_interval, grid, 0, np.log(pair.psi), [0.5], 1e-3, 0.5, 32)


def test_confined_x_dependent_coefficients_match_the_plain_loop():
    tr = policy_iteration(XDEP, 0.125, mode="MAX")
    _assert_confined_matches(XDEP, tr.grid, tr.final_policy, tr.psi_log, [0.5, 0.5], 2e-3, 0.3, 16)
    _assert_confined_matches(XDEP, tr.grid, 0, tr.psi_log, [0.4, 0.6], 2e-3, 0.3, 16)


@pytest.mark.parametrize(
    "name, h, x0, dt, max_halvings",
    [
        ("bang-bang", 1.0 / 16, [0.8], 0.5, 1),
        ("bang-bang", 1.0 / 16, [0.8], 0.05, 0),
        ("rect-2d", 1.0 / 16, [0.2, 0.8], 0.1, 2),
        ("rect-2d", 1.0 / 16, [0.2, 0.8], 0.02, 0),
    ],
)
def test_confined_halving_and_projection_match_the_plain_loop(
    name, h, x0, dt, max_halvings, bang_bang, rect_2d, monkeypatch
):
    # Steps this large near the wall leave the box, so the retry loop halves
    # them and, after max_halvings, projects.
    prob = bang_bang if name == "bang-bang" else rect_2d
    tr = policy_iteration(prob, h, mode="MAX")
    monkeypatch.setattr(mc, "MAX_HALVINGS", max_halvings)
    occ = _assert_confined_matches(prob, tr.grid, tr.final_policy, tr.psi_log, x0, dt, 1.0, 64)
    assert occ.projections > 0


def test_rate_estimate_matches_sorting(bm_interval):
    ens = simulate_killed(bm_interval, 0, [0.5], 1e-3, 1.6, 4_000, SEED)
    est = estimate_exit_rate(ens, fit_window=(0.5, 1.5))
    assert (est.rate, est.stderr, est.survivors_at_start) == _ref_rate(ens, (0.5, 1.5))
    # Exit times on the fit grid itself pin which side of a tie counts.
    rng = np.random.default_rng(5)
    n = 3_000
    times = np.linspace(0.2, 1.2, 41)
    exits = np.where(rng.random(n) < 0.5, rng.choice(times, n), rng.exponential(0.5, n))
    censored = exits > 1.5
    ties = TrajectoryEnsemble(
        n_paths=n, dt=0.0, horizon=1.5, exit_times=np.where(censored, 1.5, exits), censored=censored,
        terminal_states=np.zeros((n, 1)), seed=SEED, x0=np.zeros(1),
    )
    est = estimate_exit_rate(ties, fit_window=(0.2, 1.2))
    assert (est.rate, est.stderr, est.survivors_at_start) == _ref_rate(ties, (0.2, 1.2))


def test_ctmc_matches_the_full_row_pick(bang_bang):
    tr = policy_iteration(bang_bang, 1.0 / 16, mode="MAX")
    x0 = int(tr.grid.nearest_index(np.array([[0.0]]))[0])
    ens = simulate_ctmc(tr.final_generator, x0, 2.0, SEED, 2_000)
    occupancy, exit_times, censored = _ref_ctmc(tr.final_generator.matrix, x0, 2.0, SEED, 2_000)
    np.testing.assert_array_equal(ens.occupancy, occupancy)
    np.testing.assert_array_equal(ens.exit_times, exit_times)
    np.testing.assert_array_equal(ens.censored, censored)


def test_ctmc_zero_uniform_picks_a_neighbour(monkeypatch):
    # From state 2 the only move is to state 1.  A uniform draw of exactly 0
    # must still pick a column with positive probability.
    class Zeros:
        def exponential(self, scale, size):
            return np.full(size, 0.5)

        def random(self, size):
            return np.zeros(size)

    monkeypatch.setattr("exitrate.mc.philox", lambda seed, stream: Zeros())
    gen = np.array([[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [0.0, 1.0, -1.0]])
    ens = simulate_ctmc(gen, 2, T=0.75, seed=SEED)
    np.testing.assert_array_equal(ens.occupancy, [0.0, 0.25, 0.5])


def test_second_coordinate_still_raises_on_an_interval():
    prob = ProblemSpec("bad", 1, ((0.0, 1.0),), ("0",), (("x2",),), ("1",))
    with pytest.raises(ExpressionError):
        simulate_killed(prob, 0, [0.5], dt=1e-3, T=0.01, n_paths=8, seed=SEED)


@pytest.mark.parametrize("seed", [0, SEED, 2**63, 2**64 - 1])
def test_philox_keys_are_the_seed_and_stream(seed):
    direct = np.random.Generator(np.random.Philox(key=np.array([seed, 0xC4], dtype=np.uint64)))
    np.testing.assert_array_equal(philox(seed, 0xC4).random(8), direct.random(8))
    np.testing.assert_array_equal(philox(seed - 2**64, 0xC4 + 2**64).random(8), philox(seed, 0xC4).random(8))
