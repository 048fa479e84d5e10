"""Every function the benchmark tracer wraps must still exist under its name.

perfbench/tracer.py wraps layer functions by (module, attribute) and raises
on a missing one, but only inside the slow traced benchmark run.  These checks
catch a rename in well under a second, and check that a wrapped method
still sees the calls made through a subclass.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest

from exitrate import _util, mc, variational
from exitrate.control import policy_iteration
from exitrate.eigen import principal_eigenpair
from exitrate.grid import assemble_generator, build_grid
from exitrate.problems import ProblemSpec, problem_by_name, validate_problem

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("home, attr", [(t[0], t[1]) for t in tracer.TARGETS])
def test_trace_target_resolves(home, attr):
    module = importlib.import_module(home)
    if "." in attr:
        # Methods are wrapped on the class that defines them.
        cls_name, meth = attr.split(".")
        target = vars(getattr(module, cls_name))[meth]
    else:
        target = getattr(module, attr)
    assert callable(target)


@pytest.mark.parametrize("site", sorted(tracer.MAP_SITES))
def test_map_site_calls_the_shared_ordered_map(site):
    assert importlib.import_module(site).ordered_map is _util.ordered_map


def test_drift_through_a_validated_problem_is_traced():
    # ValidatedProblem inherits drift from ProblemSpec, so the wrapper the
    # tracer installs on ProblemSpec.drift sees calls made through it too.
    prob = validate_problem(problem_by_name("rect-2d"))
    tr = tracer.Tracer()
    tr.install()
    try:
        prob.drift(np.array([[0.5, 0.5]]), 0)
    finally:
        tr.remove()
    assert [s[1] for s in tr.spans] == ["problems.drift"]
    assert tracer.aggregate(tr.spans)["problems.drift.points"] == 1


def _confined_sigma_spans(prob, h, x0):
    grid = build_grid(prob, h)
    pair = principal_eigenpair(assemble_generator(grid, prob, 0))
    tr = tracer.Tracer()
    tr.install()
    try:
        mc.simulate_qprocess(prob, grid, 0, np.log(pair.psi), x0, 1e-3, 0.01, 4, 1)
    finally:
        tr.remove()
    return [s for s in tr.spans if s[1] == "problems.sigma"]


def test_confined_process_evaluates_only_point_dependent_sigma():
    # A constant sigma is one broadcast row, so the problems.sigma counters
    # count evaluations of coefficients that depend on the point.
    bm = validate_problem(problem_by_name("bm-interval"))
    assert _confined_sigma_spans(bm, 1.0 / 16, [0.5]) == []
    varying = ProblemSpec("varying", 1, ((0.0, 1.0),), ("0",), (("0",),), ("1+0.5*x1",))
    assert len(_confined_sigma_spans(varying, 1.0 / 16, [0.5])) >= 10


def test_occupation_lp_counters_are_pinned(bang_bang):
    # The lp-enum counters read the LP's size and the solver's iteration
    # count, which perfbench names "pivots" and which now counts policy
    # sweeps; tableau_bytes is computed from a_eq's shape alone.  The program
    # at bang-bang h=1/8 (criterion 10's instance) keeps these exact values
    # whatever its storage layout.
    h = 1.0 / 8
    grid = build_grid(bang_bang, h)
    cands = [
        variational.candidate_from_trace(name, policy_iteration(bang_bang, h, mode=mode, grid=grid))
        for name, mode in (("stay", "MAX"), ("leave", "MIN"))
    ]
    w_grid = variational.build_w_grid(grid, cands)
    tr = tracer.Tracer()
    tr.install()
    try:
        variational.solve_lp(variational.build_occupation_lp(grid, bang_bang, w_grid, cands))
    finally:
        tr.remove()
    counters = tracer.aggregate(tr.spans)
    assert counters["variational.build_occupation_lp.n_variables"] == 210
    assert counters["variational.solve_lp.pivots"] == 6
    assert counters["variational.solve_lp.tableau_bytes"] == 8 * 17 * 227
