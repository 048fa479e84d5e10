"""Monte Carlo engine: killed Euler-Maruyama paths, the conditioned process,
exact continuous-time chain simulation, and exit-rate estimation.
``monte_carlo_check`` runs the three checks of a policy's rate (killed-path
rate, confined occupancy against mu_tilde, reweighting identity) for both
``exitrate simulate`` and acceptance criterion 12.

Paths are advanced in shards of fixed size, one counter-based substream per
shard (Philox keyed by master seed and shard ordinal), and shard results are
concatenated in shard order.  Worker count therefore cannot change any output
bit.  Exits use the plain first-step-outside rule with no bridge correction;
the O(sqrt(dt)) bias this leaves is covered by the dt-refinement test.

Threads: killed shards are ``ordered_map`` tasks on up to EXITRATE_THREADS
pool threads.  With fewer shards than workers, a helper thread per shard
draws the shard's normals ahead from the shard's own generator
(``_DrawAhead``); Philox normals are the same values however the draws are
split, so the step loop gets the bits it would have drawn itself.  The
reweighting check runs its killed and confined sides, which use independent
streams, as two ``ordered_map`` tasks.  EXITRATE_THREADS=1 starts no thread.

The step loops are kept to a handful of numpy calls per step.  A coefficient
whose expressions name no coordinate is one constant row, broadcast rather
than evaluated; a per-node policy with constant action drifts is a per-node
table gathered by the nearest node.  The confined process finds each point's
nearest node and blended drift correction in one ``_Interpolant`` call per
attempt, and only paths whose full step leaves the box enter the halving
loop.  Every shortcut does the float operations of the plain evaluation in
the same order, so no output bit depends on which path a step takes.
"""

from __future__ import annotations

import queue
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable, Iterator, Optional, Union

import numpy as np
import scipy.sparse as sp

from .errors import TooFewSurvivors, TooLargeForDense
from .grid import Generator, Grid, discrete_gradient, drift_at
from .problems import _compiled
from .qprocess import DENSE_CAP
from ._util import line_fit, ordered_map, philox, worker_count, write_csv

SHARD = 32768
_STREAM_QPROCESS = 0x900000000
_STREAM_BOOTSTRAP = 0xB00000000
_STREAM_CTMC = 0xC00000000
# estimate_exit_rate: survival is fitted at this many evenly spaced times,
# and its stderr comes from this many bootstrap resamples of the paths.
RATE_FIT_POINTS = 41
BOOTSTRAP_RESAMPLES = 200
# simulate_qprocess: halvings of a step leaving the box before it is projected.
MAX_HALVINGS = 20
# A lone killed shard's normals are drawn ahead in blocks of this many values,
# at most this many blocks ahead of the step loop.
DRAW_BLOCK = 2**15
DRAW_DEPTH = 2


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Killed-SDE sample: exit or censor time and terminal state per path."""

    n_paths: int
    dt: float
    horizon: float
    exit_times: np.ndarray
    censored: np.ndarray
    terminal_states: np.ndarray
    seed: int
    x0: np.ndarray


def _coefficients(problem, policy: Union[int, np.ndarray], grid: Optional[Grid]):
    """Drift and sigma accessors for the step loops: drift(x, near) and sigma(x).

    An accessor whose expressions name no coordinate returns one constant (d,)
    row; broadcast, it gives the same floats as evaluating at every point.  A
    per-node policy whose action drifts are all constant gathers rows of a
    per-node table by the nearest node of each point (``near`` when given).
    Anything else is evaluated at the points.
    """

    def constants(exprs) -> Optional[np.ndarray]:
        values = [_compiled(e).constant for e in exprs]
        return None if None in values else np.array(values)

    sigma_row = constants(problem.sigma_exprs)
    sigma = problem.sigma if sigma_row is None else (lambda x: sigma_row)
    rows = [constants(exprs) for exprs in problem.drift_exprs]

    if isinstance(policy, (int, np.integer)):
        u = int(policy)
        row = rows[u]
        if row is None:
            return (lambda x, near=None: problem.drift(x, u)), sigma
        return (lambda x, near=None: row), sigma
    if grid is None:
        raise ValueError("a per-node policy needs the grid it lives on")
    actions = np.asarray(policy, dtype=np.int64)

    def nodes(x: np.ndarray, near: Optional[np.ndarray]) -> np.ndarray:
        return grid.nearest_index(x) if near is None else near

    if all(row is not None for row in rows):
        table = np.array(rows)[actions]
        return (lambda x, near=None: table.take(nodes(x, near), axis=0)), sigma

    def drift(x: np.ndarray, near: Optional[np.ndarray] = None) -> np.ndarray:
        return drift_at(problem, x, actions[nodes(x, near)])

    return drift, sigma


def _start_point(x0, d: int, what: str = "start point") -> np.ndarray:
    """x0 as an array of d coordinates; otherwise a ValueError naming ``what``."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (d,):
        raise ValueError(f"{what} needs {d} coordinates, got {x0.size}")
    return x0


def _check_run(dt: float, T: float, n_paths: int) -> None:
    """Reject what no run can use; T = 0 is allowed and leaves every path at x0."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if not (np.isfinite(T) and T >= 0):
        raise ValueError(f"T must be finite and nonnegative, got {T!r}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths!r}")


def _in_place(ufunc: np.ufunc, a: np.ndarray, b: np.ndarray) -> None:
    """a = ufunc(a, b) in place, for an (n, d) array a and b either (n, d) or
    one (d,) row.  A row is applied one column at a time: the same values,
    as numpy broadcasts a short row over many rows far more slowly."""
    if b.ndim == 1:
        for axis in range(len(b)):
            ufunc(a[:, axis], b[axis], out=a[:, axis])
    else:
        ufunc(a, b, out=a)


class _DrawAhead:
    """A generator's standard normals, drawn on a helper thread in DRAW_BLOCK
    blocks into a queue at most DRAW_DEPTH blocks deep.

    ``take(count)`` hands out the next count values in draw order.  A Philox
    stream's normals do not depend on how the draws are split, so the values
    are the bits ``rng.standard_normal(count)`` would give in the same order.
    """

    def __init__(self, rng: np.random.Generator):
        self._queue: queue.Queue = queue.Queue(maxsize=DRAW_DEPTH)
        self._stop = threading.Event()
        self._block = np.empty(0)
        self._pos = 0
        self._thread = threading.Thread(target=self._fill, args=(rng,), daemon=True)
        self._thread.start()

    def _fill(self, rng: np.random.Generator) -> None:
        try:
            while not self._stop.is_set():
                self._queue.put(rng.standard_normal(DRAW_BLOCK))
        except Exception as exc:  # raised in the step loop by take()
            self._queue.put(exc)

    def take(self, count: int) -> np.ndarray:
        pieces = []
        while count:
            if self._pos == len(self._block):
                block = self._queue.get()
                if isinstance(block, Exception):
                    raise block
                self._block, self._pos = block, 0
            piece = self._block[self._pos : self._pos + count]
            self._pos += len(piece)
            count -= len(piece)
            pieces.append(piece)
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    def close(self) -> None:
        # After the stop flag the helper puts at most one more block; with
        # the queue emptied, that put cannot block, so the join returns.
        self._stop.set()
        try:
            while True:
                self._queue.get_nowait()
        except queue.Empty:
            pass
        self._thread.join()


@contextmanager
def _normals(rng: np.random.Generator, ahead: bool) -> Iterator[Callable[[int], np.ndarray]]:
    """draw(count): the next count standard normals of rng, drawn ahead on a
    helper thread when ``ahead`` holds; the helper is joined on exit."""
    if not ahead:
        yield rng.standard_normal
        return
    feed = _DrawAhead(rng)
    try:
        yield feed.take
    finally:
        feed.close()


def simulate_killed(
    problem,
    policy: Union[int, np.ndarray],
    x0,
    dt: float,
    T: float,
    n_paths: int,
    seed: int,
    grid: Optional[Grid] = None,
) -> TrajectoryEnsemble:
    """Euler-Maruyama until the first step that lands outside the open box.

    With fewer shards than workers, each shard's normals are drawn ahead on a
    helper thread (``_DrawAhead``) while the shard steps its paths.
    """

    _check_run(dt, T, n_paths)
    x0 = _start_point(x0, problem.dim)
    lo, hi = problem.lo, problem.hi
    if np.any(x0 <= lo) or np.any(x0 >= hi):
        raise ValueError("start point is not inside the domain")
    n_steps = int(round(T / dt))
    horizon = n_steps * dt
    d = len(x0)
    sq = np.sqrt(dt)
    drift, sigma = _coefficients(problem, policy, grid)

    n_shards = (n_paths + SHARD - 1) // SHARD
    ahead = n_shards < worker_count()

    def run_shard(shard: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        count = min(SHARD, n_paths - shard * SHARD)
        x = np.tile(x0, (count, 1))
        alive = np.arange(count)
        exit_times = np.full(count, horizon)
        censored = np.ones(count, dtype=bool)
        terminal = np.zeros((count, d))
        with _normals(philox(seed, shard), ahead) as draw:
            for k in range(n_steps):
                if not len(alive):
                    break
                # x + m * dt + (s * z) * sq, in place but in that order, so the
                # bits match the out-of-place expression; x is this shard's own
                # copy.  m and s are constant rows or (count, d) arrays.
                m = drift(x)
                s = sigma(x)
                _in_place(np.add, x, m * dt)
                z = draw(x.size).reshape(x.shape)
                _in_place(np.multiply, z, s)
                z *= sq
                x += z
                out = (x[:, 0] <= lo[0]) | (x[:, 0] >= hi[0])
                for axis in range(1, d):
                    out |= (x[:, axis] <= lo[axis]) | (x[:, axis] >= hi[axis])
                if out.any():
                    rows = np.flatnonzero(out)
                    gone = alive[rows]
                    exit_times[gone] = (k + 1) * dt
                    censored[gone] = False
                    terminal[gone] = x[rows]
                    keep = np.flatnonzero(~out)
                    x = x.take(keep, axis=0)
                    alive = alive[keep]
        terminal[alive] = x
        return exit_times, censored, terminal

    parts = ordered_map(run_shard, list(range(n_shards)))
    return TrajectoryEnsemble(
        n_paths=n_paths,
        dt=dt,
        horizon=horizon,
        exit_times=np.concatenate([p[0] for p in parts]),
        censored=np.concatenate([p[1] for p in parts]),
        terminal_states=np.concatenate([p[2] for p in parts]),
        seed=seed,
        x0=x0,
    )


@dataclass(frozen=True)
class RateEstimate:
    rate: float
    stderr: float
    r_squared: float
    survivors_at_start: int


def estimate_exit_rate(
    ensemble: TrajectoryEnsemble,
    fit_window: tuple[float, float] = (0.5, 1.5),
) -> RateEstimate:
    """Least-squares slope of log survival; bootstrap over paths for stderr."""

    t0, t1 = fit_window
    if not 0.0 <= t0 < t1 <= ensemble.horizon + 1e-12:
        raise ValueError("fit window must sit inside [0, horizon]")
    n = ensemble.n_paths
    times = np.linspace(t0, t1, RATE_FIT_POINTS)
    # A path in bin b exits in (times[b-1], times[b]]; censored paths sit
    # past the last time.  Survivors at times[j] are then n minus the
    # running count of bins 0..j, for the sample and for every resample.
    bins = np.where(
        ensemble.censored, RATE_FIT_POINTS, np.searchsorted(times, ensemble.exit_times, side="left")
    )

    def alive(picked: np.ndarray) -> np.ndarray:
        return n - np.cumsum(np.bincount(picked, minlength=RATE_FIT_POINTS + 1)[:RATE_FIT_POINTS])

    def log_survival(counts: np.ndarray) -> np.ndarray:
        return np.log(np.maximum(counts, 1) / n)

    counts = alive(bins)
    survivors = int(counts[0])
    if survivors < 100:
        raise TooFewSurvivors(f"only {survivors} paths survive past t={t0:g}")

    slope, r2 = line_fit(times, log_survival(counts))
    rng = philox(ensemble.seed, _STREAM_BOOTSTRAP)
    slopes = np.empty(BOOTSTRAP_RESAMPLES)
    for b in range(BOOTSTRAP_RESAMPLES):
        pick = rng.integers(0, n, n)
        slopes[b] = np.polyfit(times, log_survival(alive(bins[pick])), 1)[0]
    return RateEstimate(
        rate=-slope,
        stderr=float(slopes.std(ddof=1)),
        r_squared=r2,
        survivors_at_start=survivors,
    )


class _Interpolant:
    """Multilinear interpolation of one (n, m) node field, clamped at the node
    hull, with each point's nearest node.

    Built once per (grid, field): the field at each node's cell corners, one
    (n, m) column per corner in ``product((0, 1), repeat=d)`` order, and the
    per-axis constants of the cell lookup.  A corner's weight is the product
    over axes, in axis order, of frac or 1 - frac, and the weighted corners
    are added into zeros in ``product`` order: the float operations of a
    plain per-corner loop.
    """

    def __init__(self, grid: Grid, field: np.ndarray):
        dims = np.array(grid.dims)
        self.grid = grid
        self.base = grid.lo + grid.h
        self.last_cell = np.maximum(dims - 2, 0)
        self.single = [k for k, size in enumerate(grid.dims) if size == 1]
        self.strides = np.array([int(np.prod(dims[k + 1 :])) for k in range(grid.d)])
        lower = np.unravel_index(np.arange(grid.n), grid.dims)
        self.corners = list(product((0, 1), repeat=grid.d))
        self.columns = [
            field[np.ravel_multi_index([np.minimum(lower[k] + c[k], dims[k] - 1) for k in range(grid.d)], grid.dims)]
            for c in self.corners
        ]

    def __call__(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(nearest node, (len(points), m) blended field) of (n, d) points."""
        grid = self.grid
        near = grid.nearest_index(points)
        t = (points - self.base) / grid.h
        cell = np.floor(t)
        np.maximum(cell, 0.0, out=cell)
        np.minimum(cell, self.last_cell, out=cell)
        t -= cell
        frac = np.minimum(np.maximum(t, 0.0, out=t), 1.0, out=t)
        if self.single:
            frac[:, self.single] = 0.0
        at = cell.astype(np.int64) @ self.strides
        factors = ((1.0 - frac).T, frac.T)
        out = np.zeros((len(points), self.columns[0].shape[1]))
        for corner, column in zip(self.corners, self.columns):
            w = factors[corner[0]][0]
            for axis in range(1, grid.d):
                w = w * factors[corner[axis]][axis]
            out += w[:, None] * column.take(at, axis=0)
        return near, out


def interpolate_field(grid: Grid, field: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of node values, clamped at the node hull.

    Each call builds the corner columns of the whole grid, so it costs O(grid
    size) as well as O(points); a loop that blends one field many times
    builds one ``_Interpolant`` instead.
    """

    field = np.asarray(field, dtype=float)
    squeeze = field.ndim == 1
    if squeeze:
        field = field[:, None]
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = _Interpolant(grid, field)(points)[1]
    return out[:, 0] if squeeze else out


@dataclass(frozen=True)
class QOccupancy:
    """Occupancy histogram and terminal states of the conditioned process."""

    histogram: np.ndarray
    terminal_states: np.ndarray
    projections: int
    killed: int
    n_paths: int
    dt: float
    horizon: float


def check_confined_start(grid: Grid, x0, what: str = "start point") -> np.ndarray:
    """x0 as an array, if it lies at least two cells inside every wall, as the
    conditioned process needs; otherwise a ValueError naming ``what``."""
    x0 = _start_point(x0, grid.d, what)
    lo, hi = grid.lo + 2 * grid.h, grid.hi - 2 * grid.h
    if np.any(x0 <= lo) or np.any(x0 >= hi):
        box = " x ".join(f"({a:g}, {b:g})" for a, b in zip(lo, hi))
        raise ValueError(f"{what} must sit two cells inside the box at h={grid.h:g}, in {box}")
    return x0


def simulate_qprocess(
    problem,
    grid: Grid,
    policy: Union[int, np.ndarray],
    psi_log: np.ndarray,
    x0,
    dt: float,
    T: float,
    n_paths: int,
    seed: int,
) -> QOccupancy:
    """Conditioned-process SDE with boundary rejection.

    The drift adds a * (interpolated gradient of psi_log) to the policy drift.
    A proposal leaving the box is retried with half the step; after
    MAX_HALVINGS failures the proposal is projected onto the layer two cells
    inside the boundary and the projection counter is incremented.  Paths are
    never killed.
    """

    _check_run(dt, T, n_paths)
    x0 = check_confined_start(grid, x0)
    lo, hi, h = grid.lo, grid.hi, grid.h
    correction = _Interpolant(grid, discrete_gradient(grid, psi_log, extension="log-zero"))
    drift, sigma = _coefficients(problem, policy, grid)
    n_steps = int(round(T / dt))
    horizon = n_steps * dt
    rng = philox(seed, _STREAM_QPROCESS)

    def propose(xs: np.ndarray, step, sq) -> tuple[np.ndarray, np.ndarray]:
        """The nearest node of each point and its proposal."""
        near, grad = correction(xs)
        s = sigma(xs)
        m = drift(xs, near) + s * s * grad
        return near, xs + m * step + s * rng.standard_normal(xs.shape) * sq

    x = np.tile(x0, (n_paths, 1))
    occupancy = np.zeros(grid.n)
    projections = 0
    full = np.full(n_paths, dt)
    sq = np.sqrt(dt)
    for _ in range(n_steps):
        # Every path first tries the full step.
        near, prop = propose(x, dt, sq)
        if (prop > lo).all() and (prop < hi).all():
            occupancy += np.bincount(near, weights=full, minlength=grid.n)
            x = prop
            continue
        inside = ((prop > lo) & (prop < hi)).all(axis=1)
        idx = np.arange(n_paths)
        step = full
        remaining = full.copy()
        trial = full.copy()
        halvings = np.zeros(n_paths, dtype=np.int64)
        while True:
            stuck = ~inside & (halvings[idx] >= MAX_HALVINGS)
            if stuck.any():
                prop[stuck] = np.clip(prop[stuck], lo + 2 * h, hi - 2 * h)
                projections += int(stuck.sum())
            commit = inside | stuck
            ci = idx[commit]
            dt_c = step[commit]
            occupancy += np.bincount(near[commit], weights=dt_c, minlength=grid.n)
            x[ci] = prop[commit]
            remaining[ci] -= dt_c
            # Retry the whole leftover next time; without the reset a path
            # that halved k times would need 2^k micro-steps to finish.
            trial[ci] = np.maximum(remaining[ci], 0.0)
            retry = idx[~commit]
            halvings[retry] += 1
            trial[retry] *= 0.5
            idx = np.flatnonzero(remaining > 1e-18)
            if not len(idx):
                break
            xs = x[idx]
            step = np.minimum(trial[idx], remaining[idx])
            near, prop = propose(xs, step[:, None], np.sqrt(step)[:, None])
            inside = ((prop > lo) & (prop < hi)).all(axis=1)
    total = n_paths * horizon if horizon > 0 else 1.0
    return QOccupancy(
        histogram=occupancy / total,
        terminal_states=x,
        projections=projections,
        killed=0,
        n_paths=n_paths,
        dt=dt,
        horizon=horizon,
    )


@dataclass(frozen=True)
class CTMCEnsemble:
    occupancy: np.ndarray
    exit_times: np.ndarray
    censored: np.ndarray
    horizon: float
    seed: int


def _dense_rates(generator) -> tuple[np.ndarray, np.ndarray]:
    """Extract (dense matrix, kill deficit per state) from a generator."""

    if isinstance(generator, Generator):
        mat = generator.matrix.toarray()
        deficit = generator.killed.copy()
    else:
        mat = generator.toarray() if sp.issparse(generator) else np.array(generator, dtype=float)
        deficit = -mat.sum(axis=1)
        deficit[np.abs(deficit) < 1e-13] = 0.0
    if mat.shape[0] > DENSE_CAP:
        raise TooLargeForDense(f"{mat.shape[0]} states exceeds the CTMC cap {DENSE_CAP}")
    return mat, deficit


def simulate_ctmc(
    generator,
    x0_index: int,
    T: float,
    seed: int,
    n_paths: int = 1,
) -> CTMCEnsemble:
    """Exact event-driven simulation; sub-conservative rows kill the path."""

    mat, deficit = _dense_rates(generator)
    n = mat.shape[0]
    rates = -np.diag(mat)
    if np.any(rates < 0):
        raise ValueError("generator diagonal must be nonpositive")
    jump = np.maximum(mat, 0.0)
    np.fill_diagonal(jump, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        probs = np.where(rates[:, None] > 0, jump / rates[:, None], 0.0)
        kill = np.where(rates > 0, deficit / rates, 0.0)
    cum = np.cumsum(np.hstack([probs, kill[:, None]]), axis=1)
    # Per state, only the columns where cum rises: their cum values padded
    # with +inf, and the column each stands for (padding stands for the kill
    # column).  The first rising column with cum >= u is the first of all
    # columns with cum >= u, so any u > 0 picks what the full row would; at
    # u == 0 this picks the first column with positive probability.
    rising = np.diff(cum, axis=1, prepend=0.0) > 0
    rank = np.cumsum(rising, axis=1) - 1
    rows, cols = np.nonzero(rising)
    width = int(rising.sum(axis=1).max()) + 1
    rise_cum = np.full((n, width), np.inf)
    rise_col = np.full((n, width), n, dtype=np.int64)
    rise_cum[rows, rank[rows, cols]] = cum[rows, cols]
    rise_col[rows, rank[rows, cols]] = cols

    rng = philox(seed, _STREAM_CTMC)
    state = np.full(n_paths, int(x0_index), dtype=np.int64)
    t = np.zeros(n_paths)
    alive = np.ones(n_paths, dtype=bool)
    censored = np.ones(n_paths, dtype=bool)
    exit_times = np.full(n_paths, float(T))
    occupancy = np.zeros(n)
    while alive.any():
        idx = np.flatnonzero(alive)
        r = rates[state[idx]]
        hold = np.where(r > 0, rng.exponential(1.0, len(idx)) / np.maximum(r, 1e-300), np.inf)
        commit = np.minimum(hold, T - t[idx])
        np.add.at(occupancy, state[idx], commit)
        t_next = t[idx] + hold
        done = t_next >= T
        alive[idx[done]] = False
        movers = idx[~done]
        if not len(movers):
            continue
        u = rng.random(len(movers))
        at = state[movers]
        sel = rise_col[at, np.sum(rise_cum[at] < u[:, None], axis=1)]
        killed = sel >= n
        dead = movers[killed]
        exit_times[dead] = t_next[~done][killed]
        censored[dead] = False
        alive[dead] = False
        live = movers[~killed]
        state[live] = sel[~killed]
        t[live] = t_next[~done][~killed]
    return CTMCEnsemble(
        occupancy=occupancy,
        exit_times=exit_times,
        censored=censored,
        horizon=float(T),
        seed=seed,
    )


def mc_girsanov_check(
    problem,
    grid: Grid,
    policy: Union[int, np.ndarray],
    pair,
    g: Callable[[np.ndarray], np.ndarray],
    t: float,
    x0,
    n_killed: int,
    n_qpaths: int,
    seed: int,
    dt: float,
    dt_q: float,
) -> dict:
    """Two independent estimates of the killed expectation of g at time t.

    The direct side averages g over surviving killed paths; the conditioned
    side reweights the confined process by the eigenfunction and its rate.
    The sides draw from independent streams and run as two ``ordered_map``
    tasks, at once when there are two workers.
    The killed side carries the O(sqrt(dt)) exit bias and usually needs a
    finer dt than the confined side, whose paths stay off the boundary.
    """

    x0 = check_confined_start(grid, x0)
    psi_log = np.log(pair.psi)
    ens, occ = ordered_map(
        lambda side: side(),
        [
            partial(simulate_killed, problem, policy, x0, dt, t, n_killed, seed, grid=grid),
            partial(simulate_qprocess, problem, grid, policy, psi_log, x0, dt_q, t, n_qpaths, seed),
        ],
    )
    lhs_samples = np.where(ens.censored, g(ens.terminal_states), 0.0)
    lhs = float(lhs_samples.mean())
    lhs_half = 1.96 * float(lhs_samples.std(ddof=1)) / np.sqrt(n_killed)

    # One interpolation of the terminal states with x0 last; each row blends alone.
    psi_end = interpolate_field(grid, psi_log, np.vstack([occ.terminal_states, x0]))
    psi_end, psi0 = psi_end[:-1], float(psi_end[-1])
    weight = np.exp(-pair.lam * t + psi0)
    rhs_samples = weight * g(occ.terminal_states) * np.exp(-psi_end)
    rhs = float(rhs_samples.mean())
    rhs_half = 1.96 * float(rhs_samples.std(ddof=1)) / np.sqrt(n_qpaths)

    overlap = (lhs - lhs_half) <= (rhs + rhs_half) and (rhs - rhs_half) <= (lhs + lhs_half)
    return {
        "lhs": lhs,
        "lhs_ci": (lhs - lhs_half, lhs + lhs_half),
        "rhs": rhs,
        "rhs_ci": (rhs - rhs_half, rhs + rhs_half),
        "overlap": bool(overlap),
    }


def monte_carlo_check(
    problem, grid: Grid, policy: Union[int, np.ndarray], pair, mu: np.ndarray, x0, seed: int,
    killed: tuple[float, float, int], fit_window: tuple[float, float],
    confined: tuple[float, float, int], reweight: tuple[float, int, int, float, float],
) -> tuple[TrajectoryEnsemble, RateEstimate, QOccupancy, float, dict]:
    """The three Monte Carlo checks of one policy's exit rate, from x0 with one seed.

    killed = (dt, T, n_paths): killed paths, whose survival is fitted over
    fit_window.  confined = (dt, T, n_paths): the conditioned process, whose
    occupancy is compared in total variation with mu, the invariant law of the
    transformed chain.  reweight = (t, n_killed, n_qpaths, dt, dt_q):
    `mc_girsanov_check` on the middle half of the box, |x - mid| < (hi - lo) / 4.
    Returns the killed ensemble, the rate estimate, the occupancy, its TV to mu
    and the reweighting dict.
    """
    check_confined_start(grid, x0)
    ens = simulate_killed(problem, policy, x0, *killed, seed, grid=grid)
    est = estimate_exit_rate(ens, fit_window=fit_window)
    occ = simulate_qprocess(problem, grid, policy, np.log(pair.psi), x0, *confined, seed)
    tv = 0.5 * float(np.abs(occ.histogram - mu).sum())
    mid, width = 0.5 * (problem.lo + problem.hi), 0.25 * (problem.hi - problem.lo)

    def middle(points: np.ndarray) -> np.ndarray:
        return (np.abs(points - mid) < width).all(axis=1).astype(float)

    t, n_killed, n_qpaths, dt, dt_q = reweight
    gir = mc_girsanov_check(problem, grid, policy, pair, middle, t, x0, n_killed, n_qpaths, seed, dt, dt_q)
    return ens, est, occ, tv, gir


def export_ensemble_csv(ensemble: TrajectoryEnsemble, path: str) -> None:
    d = ensemble.terminal_states.shape[1]
    header = ["path", "exit_time", "censored"] + [f"x{k + 1}" for k in range(d)]
    rows = [
        [i, ensemble.exit_times[i], int(ensemble.censored[i])]
        + list(ensemble.terminal_states[i])
        for i in range(ensemble.n_paths)
    ]
    write_csv(path, header, rows)
