"""Spans around exitrate's layer functions, recorded from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
exitrate module that holds a reference to it, so calls are caught where they
are looked up (``exitrate.control.principal_eigenpair`` as well as
``exitrate.eigen.principal_eigenpair``).  Methods are wrapped on their class.
``Tracer.remove`` puts the originals back.

A span is ``(id, name, start, end, parent, thread, counters)`` and stays in
memory until the run ends.  The parent is the innermost open span of the same
thread; a task that ``ordered_map`` hands to a worker thread gets the map's
span as its parent.

Self time is wall-clock time: a span owns the part of its interval that none
of its child spans covers, and an instant owned by spans of k threads at once
is split k ways.  On one thread this is the span's duration minus the time its
children cover; across threads it keeps the sum of all self times within the
wall time of the traced region.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np

Counter = Callable[[tuple, Any], dict]


def _points(args: tuple, out: Any) -> dict:
    return {"points": int(np.shape(out)[0])}


def _nnz(args: tuple, out: Any) -> dict:
    return {"nnz": int(out.matrix.nnz)}


def _iterations(args: tuple, out: Any) -> dict:
    return {"iterations": int(out.iterations)}


def _sweeps(args: tuple, out: Any) -> dict:
    return {"sweeps": len(out.steps)}


def _policies(args: tuple, out: Any) -> dict:
    return {"policies": int(out[2])}


def _n_variables(args: tuple, out: Any) -> dict:
    return {"n_variables": int(out.n_variables)}


def _pivots(args: tuple, out: Any) -> dict:
    # Computed, not measured: the phase-1 tableau of simplex.solve_standard_lp
    # is (m + 1) x (n + m + 1) float64 for an m x n equality matrix.
    m, n = out.lp.a_eq.shape
    return {"pivots": int(out.iterations), "tableau_bytes": 8 * (m + 1) * (n + m + 1)}


def _killed(args: tuple, out: Any) -> dict:
    from exitrate import mc

    return {
        "path_steps": int(np.rint(out.exit_times / out.dt).sum()),
        "shards": math.ceil(out.n_paths / mc.SHARD),
    }


def _confined(args: tuple, out: Any) -> dict:
    return {
        "path_steps": int(out.n_paths * round(out.horizon / out.dt)),
        "projections": int(out.projections),
    }


# (module, attribute, span name, counter).  A dotted attribute is a method.
TARGETS: list[tuple[str, str, str, Counter | None]] = [
    ("exitrate.problems", "ProblemSpec.drift", "problems.drift", _points),
    ("exitrate.problems", "ProblemSpec.sigma", "problems.sigma", None),
    ("exitrate.grid", "assemble_generator", "grid.assemble_generator", _nnz),
    ("exitrate.grid", "Grid.nearest_index", "grid.nearest_index", None),
    ("exitrate.grid", "discrete_gradient", "grid.discrete_gradient", None),
    ("exitrate.eigen", "principal_eigenpair", "eigen.principal_eigenpair", _iterations),
    ("exitrate.eigen", "splu", "eigen.splu", None),
    ("exitrate.control", "policy_iteration", "control.policy_iteration", _sweeps),
    ("exitrate.control", "policy_improve", "control.policy_improve", None),
    ("exitrate.control", "enumerate_policies", "control.enumerate_policies", _policies),
    ("exitrate.qprocess", "doob_transform", "qprocess.doob_transform", None),
    ("exitrate.qprocess", "stationary_measures", "qprocess.stationary_measures", None),
    ("exitrate.qprocess", "spsolve", "qprocess.spsolve", None),
    ("exitrate.qprocess", "lyapunov_certificate", "qprocess.lyapunov_certificate", None),
    ("exitrate.qprocess", "verify_uniform_ergodicity", "qprocess.verify_uniform_ergodicity", None),
    ("exitrate.qprocess", "survival_asymptotics", "qprocess.survival_asymptotics", None),
    ("exitrate.variational", "build_occupation_lp", "variational.build_occupation_lp", _n_variables),
    ("exitrate.variational", "solve_lp", "variational.solve_lp", _pivots),
    ("exitrate.mc", "simulate_killed", "mc.simulate_killed", _killed),
    ("exitrate.mc", "simulate_qprocess", "mc.simulate_qprocess", _confined),
    ("exitrate.mc", "interpolate_field", "mc.interpolate_field", None),
    ("exitrate.mc", "mc_girsanov_check", "mc.mc_girsanov_check", None),
    ("exitrate.mc", "estimate_exit_rate", "mc.estimate_exit_rate", None),
    ("exitrate.mc", "simulate_ctmc", "mc.simulate_ctmc", None),
]

# ordered_map is wrapped per calling module: the tasks it runs are that
# module's work, so their spans are named after the caller ("X/task") and
# their self time is reported as part of X.
MAP_SITES = {
    "exitrate.mc": "mc.simulate_killed/task",
    "exitrate.control": "control.enumerate_policies/task",
}
MAP_SPAN = "util.ordered_map"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, counter: Counter | None = None) -> Callable:
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, threading.get_ident(), {"failed": 1}))
                raise
            end = time.perf_counter()
            stack.pop()
            counts = counter(args, out) if counter is not None else None
            spans.append((sid, name, start, end, parent, threading.get_ident(), counts))
            return out

        return traced

    def wrap_map(self, fn: Callable, task_name: str) -> Callable:
        spans, ids, stack_of = self.spans, self._ids, self._stack
        run_task = self.wrap(task_name, lambda work, item: work(item))

        @functools.wraps(fn)
        def traced(work, items):
            items = list(items)
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)

            def task(item):
                own = stack_of()
                adopt = not own  # a pool thread: the map span is the parent
                if adopt:
                    own.append(sid)
                try:
                    return run_task(work, item)
                finally:
                    if adopt:
                        own.pop()

            start = time.perf_counter()
            try:
                return fn(task, items)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, MAP_SPAN, start, end, parent, threading.get_ident(), {"tasks": len(items)}))

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded exitrate module that refers to it."""
        modules = [m for k, m in sys.modules.items() if k == "exitrate" or k.startswith("exitrate.")]
        for home, attr, name, counter in TARGETS:
            owner = sys.modules[home]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._replace(cls, meth, self.wrap(name, cls.__dict__[meth], counter))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)
        util = sys.modules["exitrate._util"]
        for site, task_name in MAP_SITES.items():
            mod = sys.modules[site]
            self._replace(mod, "ordered_map", self.wrap_map(util.ordered_map, task_name))

    def _replace(self, owner: object, key: str, value: object) -> None:
        self._saved.append((owner, key, owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)))
        setattr(owner, key, value)

    def remove(self) -> None:
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)

    def dump(self, path: str) -> None:
        threads: dict[int, int] = {}
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, thread, counts in self.spans:
                rec = {
                    "id": sid,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "thread": threads.setdefault(thread, len(threads)),
                }
                if counts:
                    rec["counters"] = counts
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Wall-clock self time per span id (see the module docstring)."""
    covered: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent].append((start, end))
    events: list[tuple[float, int, int]] = []
    for sid, _, start, end, _, _, _ in spans:
        t = start
        for c0, c1 in sorted(covered.get(sid, ())):
            if c0 > t:
                events.append((t, 1, sid))
                events.append((min(c0, end), -1, sid))
            t = max(t, c1)
        if end > t:
            events.append((t, 1, sid))
            events.append((end, -1, sid))
    events.sort(key=lambda e: (e[0], e[1]))
    share: dict[int, float] = defaultdict(float)
    active: set[int] = set()
    last = 0.0
    for t, kind, sid in events:
        if active and t > last:
            part = (t - last) / len(active)
            for a in active:
                share[a] += part
        last = t
        if kind > 0:
            active.add(sid)
        else:
            active.discard(sid)
    return share


def aggregate(spans: list[tuple]) -> dict[str, float]:
    """Per-name totals: ``N.calls``, ``N.self_s`` and every counter ``N.<key>``.

    A span named ``N/part`` adds its self time to ``N.self_s`` only.
    ``tableau_bytes`` is a size, so it takes the largest value, not the sum.
    """
    share = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for sid, name, _, _, _, _, counts in spans:
        base, _, part = name.partition("/")
        out[f"{base}.self_s"] += share.get(sid, 0.0)
        if part:
            continue
        out[f"{base}.calls"] += 1
        for key, value in (counts or {}).items():
            metric = f"{base}.{key}"
            out[metric] = max(out[metric], value) if key == "tableau_bytes" else out[metric] + value
    out["trace.self_s_total"] = float(sum(share.values()))
    return dict(out)
