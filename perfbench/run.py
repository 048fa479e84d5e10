"""exitrate benchmark: one closed-loop process driving exitrate's public API.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload solve-ladder --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run measures set-up in fresh interpreters, then runs
passes over the workload's operations (each starts when the previous one
returns) until another pass would end after ``--seconds``, and prints the
end-to-end metrics: set-up and operation times as medians, peak memory as
measured.  With ``--trace 1`` it runs an
untraced, a traced and another untraced pass in the same order, plus a
determinism probe, and prints the per-layer metrics.  The last line of standard output is the JSON
result; failed operations and notes go to standard error.

The program is imported from ``src/`` of the current directory, with
EXITRATE_THREADS=2.  Known failures and recorded outcomes are in
``manifest.json`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
THREADS = "2"
SETUP_REPEATS = 7
OUT_DIR = ".bench_out"

# (name, unit, better).  BENCHMARK.json lists the same metrics.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Phase totals of the untraced pass of a traced run.  They are per-layer, not
# end-to-end, because most are zero on the workloads that skip that phase.
PHASE_METRICS = [
    ("optimize_s", "s", "lower"),
    ("conditioned_s", "s", "lower"),
    ("lp_s", "s", "lower"),
    ("enumerate_s", "s", "lower"),
    ("killed_path_steps_per_s", "steps/s", "higher"),
    ("confined_path_steps_per_s", "steps/s", "higher"),
    ("reweight_s", "s", "lower"),
    ("ops_failed_frac", "ratio", "lower"),
]

_S, _N = "s", "count"
LAYER_METRICS = [
    ("problems.drift.calls", _N), ("problems.drift.points", _N), ("problems.drift.self_s", _S),
    ("problems.sigma.calls", _N), ("problems.sigma.self_s", _S),
    ("grid.assemble_generator.calls", _N), ("grid.assemble_generator.self_s", _S),
    ("grid.assemble_generator.nnz", _N), ("grid.nearest_index.calls", _N),
    ("grid.nearest_index.self_s", _S), ("grid.discrete_gradient.self_s", _S),
    ("eigen.principal_eigenpair.calls", _N), ("eigen.principal_eigenpair.failed", _N),
    ("eigen.principal_eigenpair.self_s", _S), ("eigen.principal_eigenpair.iterations", _N),
    ("eigen.splu.calls", _N), ("eigen.splu.self_s", _S), ("eigen.splu_per_solve", "ratio"),
    ("control.policy_iteration.calls", _N), ("control.policy_iteration.sweeps", _N),
    ("control.policy_iteration.self_s", _S), ("control.policy_improve.self_s", _S),
    ("control.enumerate_policies.policies", _N), ("control.enumerate_policies.self_s", _S),
    ("qprocess.doob_transform.self_s", _S), ("qprocess.stationary_measures.self_s", _S),
    ("qprocess.spsolve.calls", _N), ("qprocess.spsolve.self_s", _S),
    ("qprocess.lyapunov_certificate.self_s", _S), ("qprocess.verify_uniform_ergodicity.self_s", _S),
    ("qprocess.survival_asymptotics.self_s", _S),
    ("variational.build_occupation_lp.self_s", _S), ("variational.build_occupation_lp.n_variables", _N),
    ("variational.solve_lp.self_s", _S), ("variational.solve_lp.pivots", _N),
    ("simplex.tableau_bytes", "bytes-computed"),
    ("mc.simulate_killed.self_s", _S), ("mc.simulate_killed.path_steps", _N),
    ("mc.simulate_killed.shards", _N), ("mc.simulate_qprocess.self_s", _S),
    ("mc.simulate_qprocess.path_steps", _N), ("mc.simulate_qprocess.projections", _N),
    ("mc.interpolate_field.calls", _N), ("mc.interpolate_field.self_s", _S),
    ("mc.mc_girsanov_check.self_s", _S), ("mc.estimate_exit_rate.self_s", _S),
    ("mc.simulate_ctmc.self_s", _S),
    ("util.ordered_map.calls", _N), ("util.ordered_map.tasks", _N), ("util.ordered_map.speedup", "ratio"),
    ("trace.overhead_s", _S),
]
PER_LAYER = PHASE_METRICS + [
    (name, unit, "higher" if name.endswith(".speedup") else "lower") for name, unit in LAYER_METRICS
]

# Counters that must repeat exactly for the same seed.
EXACT_UNITS = ("count", "bytes-computed")

# Per-layer names whose traced value has another name.
RENAMED = {"simplex.tableau_bytes": "variational.solve_lp.tableau_bytes"}

SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import workloads\n"
    "workloads.catalog()\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _load_program() -> str:
    """Put the checkout's src/ first on the path and check exitrate comes from it."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "exitrate", "__init__.py")):
        _fail(f"no exitrate sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    os.environ["EXITRATE_THREADS"] = THREADS
    import exitrate

    if not os.path.abspath(exitrate.__file__).startswith(src + os.sep):
        _fail(f"exitrate was imported from {exitrate.__file__}, not from {src}")
    return src


def _setup_once(src: str) -> float:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, HERE]))
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=env, capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        _fail(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


class PassResult:
    def __init__(self) -> None:
        self.wall = 0.0
        self.op_times: dict[str, float] = {}
        self.phases: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.attempted = 0
        self.failed: list[str] = []
        self.unexpected: list[str] = []


def run_pass(ops, order, known: dict) -> PassResult:
    import workloads

    res = PassResult()
    start = time.perf_counter()
    for i in order:
        op = ops[i]
        ctx = workloads.Context(op.seed)
        res.attempted += 1
        op_start = time.perf_counter()
        try:
            op.run(ctx)
        except Exception as exc:  # an operation's failure is a result, not a crash
            kind = type(exc).__name__
            res.failed.append(f"{op.id}: {kind}: {exc}")
            if known.get(op.id, {}).get("raises") != kind:
                res.unexpected.append(f"{op.id}: {kind}")
                traceback.print_exc(file=sys.stderr)
        else:
            if ctx.failures:
                res.failed.append(f"{op.id}: " + "; ".join(ctx.failures))
            if ctx.wrong:
                res.unexpected.append(f"{op.id}: " + "; ".join(ctx.wrong))
        res.op_times[op.id] = time.perf_counter() - op_start
        for key, value in ctx.phases.items():
            res.phases[key] += value
        for key, value in ctx.counts.items():
            res.counts[key] += value
        for note in ctx.notes:
            print(f"  note {op.id}: {note}", file=sys.stderr)
    res.wall = time.perf_counter() - start
    return res


def _order(n_ops: int, seed: int, index: int) -> list[int]:
    import numpy as np

    return [int(i) for i in np.random.default_rng([seed, index]).permutation(n_ops)]


def _phase_metrics(p: PassResult) -> dict[str, float]:
    def rate(steps: str, phase: str) -> float:
        return p.counts[steps] / p.phases[phase] if p.phases[phase] > 0 else 0.0

    return {
        "optimize_s": p.phases["optimize"],
        "conditioned_s": p.phases["conditioned"],
        "lp_s": p.phases["lp"],
        "enumerate_s": p.phases["enumerate"],
        "killed_path_steps_per_s": rate("killed_path_steps", "killed"),
        "confined_path_steps_per_s": rate("confined_path_steps", "confined"),
        "reweight_s": p.phases["reweight"],
        "ops_failed_frac": len(p.failed) / p.attempted,
    }


def measure(workload: str, seed: int, seconds: float, src: str, known: dict):
    import workloads

    # Half the set-up probes run before the passes and half after, so that
    # their median spans the same stretch of machine time as the passes.
    setups = [_setup_once(src) for _ in range((SETUP_REPEATS + 1) // 2)]
    ops = workloads.WORKLOADS[workload](workloads.catalog(), seed)
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, _order(len(ops), seed, len(passes)), known))
        typical = statistics.median(p.wall for p in passes)
        if time.perf_counter() - start + typical > seconds:
            break
    setups += [_setup_once(src) for _ in range(SETUP_REPEATS // 2)]
    # One pass's time is the sum of each operation's median over passes,
    # which a slow spell during one operation moves less than a pass median.
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(statistics.median(p.op_times[op.id] for p in passes) for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"  {len(passes)} passes, walls {[round(p.wall, 3) for p in passes]}", file=sys.stderr)
    return passes, {name: (values[name], unit) for name, unit, _ in END_TO_END}, True


def traced_pass(ops, order, known: dict):
    """One pass with every layer wrapped; returns the pass and its tracer."""
    import tracer

    tr = tracer.Tracer()
    tr.install()
    try:
        return run_pass(ops, order, known), tr
    finally:
        tr.remove()


def trace_run(workload: str, seed: int, known: dict, dump: str | None = None):
    import tracer
    import workloads

    probs = workloads.catalog()
    ops = workloads.WORKLOADS[workload](probs, seed)
    order = _order(len(ops), seed, 0)
    # Untraced passes in the same order run before and after the traced one;
    # the overhead is taken against their mean, which cancels a steady drift
    # of machine speed, and the phase metrics come from the later, warm one.
    warm = run_pass(ops, order, known)
    traced, tr = traced_pass(ops, order, known)
    plain = run_pass(ops, order, known)
    layer = tracer.aggregate(tr.spans)
    correct = layer["trace.self_s_total"] <= traced.wall
    if not correct:
        print(f"  self times sum to {layer['trace.self_s_total']} > traced wall {traced.wall}", file=sys.stderr)

    speedup = 0.0
    probe = workloads.DETERMINISM.get(workload)
    if probe is not None:
        digests, times = {}, {}
        for threads in ("1", THREADS):
            os.environ["EXITRATE_THREADS"] = threads
            t0 = time.perf_counter()
            digests[threads] = probe(probs, ops)
            times[threads] = time.perf_counter() - t0
        os.environ["EXITRATE_THREADS"] = THREADS
        speedup = times["1"] / times[THREADS]
        if digests["1"] != digests[THREADS]:
            correct = False
            print(f"  determinism: digests differ across worker counts: {digests}", file=sys.stderr)

    layer["util.ordered_map.speedup"] = speedup
    layer["trace.overhead_s"] = traced.wall - (warm.wall + plain.wall) / 2.0
    calls = layer.get("eigen.principal_eigenpair.calls", 0.0)
    layer["eigen.splu_per_solve"] = layer.get("eigen.splu.calls", 0.0) / calls if calls else 0.0
    layer.update(_phase_metrics(plain))
    if dump:
        tr.dump(dump)
    metrics = {name: (float(layer.get(RENAMED.get(name, name), 0.0)), unit) for name, unit, _ in PER_LAYER}
    return [warm, traced, plain], metrics, correct


def load_known(workload: str) -> dict:
    with open(os.path.join(HERE, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)["known_failures"].get(workload, {})


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["solve-ladder", "mc-ensemble", "lp-enum"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    src = _load_program()
    known = load_known(args.workload)
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        dump = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        passes, metrics, correct = trace_run(args.workload, args.seed, known, dump)
    else:
        passes, metrics, correct = measure(args.workload, args.seed, args.seconds, src, known)

    failed = [f for p in passes for f in p.failed]
    unexpected = [u for p in passes for u in p.unexpected]
    for line in failed:
        print(f"  failed {line}", file=sys.stderr)
    for line in unexpected:
        print(f"  UNEXPECTED {line}", file=sys.stderr)
    result = {
        "correct": bool(correct and not unexpected),
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
