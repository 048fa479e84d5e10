"""Problem catalog, validation screens, and (de)serialization."""

import json

import numpy as np
import pytest

from exitrate.errors import EllipticityViolation, NonFiniteCoefficient, TooLarge
from exitrate.expressions import ExpressionError
from exitrate.problems import (
    ProblemSpec,
    builtin_catalog,
    load_problem,
    problem_by_name,
    save_problem,
    validate_problem,
    with_bounds,
)


def test_catalog_contents():
    names = sorted(p.name for p in builtin_catalog())
    assert names == ["bang-bang", "bm-interval", "drift-interval", "rect-2d"]
    for spec in builtin_catalog():
        v = validate_problem(spec)
        assert v.ellipticity_floor_sampled >= spec.c0 - 1e-12


def test_unknown_name_lists_choices():
    with pytest.raises(KeyError, match="bang-bang"):
        problem_by_name("no-such-problem")


def test_catalog_parameters_reach_the_coefficients():
    prob = problem_by_name("drift-interval", c=2.0)
    pts = np.array([[0.3], [0.7]])
    np.testing.assert_allclose(prob.drift(pts, 0)[:, 0], 2.0)
    np.testing.assert_allclose(prob.sigma(pts)[:, 0], 1.0)


def test_action_labels_match_drift_rows():
    prob = problem_by_name("bang-bang")
    assert prob.n_actions == 2
    pts = np.array([[0.0], [0.5]])
    np.testing.assert_allclose(prob.drift(pts, 0)[:, 0], -1.0)
    np.testing.assert_allclose(prob.drift(pts, 1)[:, 0], 1.0)


def test_validation_is_repeatable():
    spec = problem_by_name("rect-2d")
    a = validate_problem(spec)
    b = validate_problem(spec)
    # Equal and equally hashed: grid caches are keyed by the problem.
    assert a == b and hash(a) == hash(b)
    assert a.ellipticity_floor_sampled == b.ellipticity_floor_sampled


def test_degenerate_diffusion_is_rejected():
    spec = ProblemSpec("thin", 1, ((0.0, 1.0),), ("0",), (("0",),), ("0.5*x1",))
    with pytest.raises(EllipticityViolation):
        validate_problem(spec)


def test_non_finite_drift_is_rejected():
    spec = ProblemSpec("bad", 1, ((0.0, 1.0),), ("0",), (("log(-1)",),), ("1",))
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteCoefficient):
        validate_problem(spec)


def test_complex_coefficient_is_rejected():
    spec = ProblemSpec("complex", 1, ((0.0, 1.0),), ("0",), (("x1*(-1)^0.5",),), ("1",))
    with pytest.raises(ExpressionError, match="complex"):
        validate_problem(spec)


def test_action_set_size_is_capped():
    k = 65
    with pytest.raises(TooLarge):
        ProblemSpec(
            "many",
            1,
            ((0.0, 1.0),),
            tuple(str(i) for i in range(k)),
            tuple(("0",) for _ in range(k)),
            ("1",),
        )


@pytest.mark.parametrize(
    "bad_kwargs",
    [
        {"dim": 3},
        {"bounds": ((1.0, 0.0),)},
        {"bounds": ((0.0, 1.0), (0.0, 1.0))},
        {"sigma_exprs": ("1", "1")},
        {"c0": 0.0},
    ],
)
def test_inconsistent_spec_fields_are_rejected(bad_kwargs):
    base = dict(
        name="x",
        dim=1,
        bounds=((0.0, 1.0),),
        actions=("0",),
        drift_exprs=(("0",),),
        sigma_exprs=("1",),
        c0=1.0,
    )
    base.update(bad_kwargs)
    with pytest.raises((ValueError, TooLarge)):
        ProblemSpec(**base)


def test_save_load_round_trip(tmp_path):
    spec = problem_by_name("bang-bang")
    path = tmp_path / "prob.json"
    save_problem(spec, str(path))
    back = load_problem(str(path))
    assert back.name == spec.name
    assert back.dim == spec.dim
    assert back.bounds == spec.bounds
    assert back.actions == spec.actions
    assert back.drift_exprs == spec.drift_exprs
    assert back.sigma_exprs == spec.sigma_exprs
    assert back.c0 == spec.c0
    validate_problem(back)


def test_with_bounds_changes_only_the_box():
    spec = problem_by_name("bm-interval")
    wide = with_bounds(spec, [(0.0, 1.25)])
    assert wide.bounds == ((0.0, 1.25),)
    pts = np.array([[0.6], [1.1]])
    np.testing.assert_allclose(wide.sigma(pts), spec.sigma(pts))


_BM_FILE = {"name": "bm", "dim": 1, "bounds": [[0.0, 1.0]], "actions": ["0"], "drift": [["0"]], "sigma": ["1"]}


@pytest.mark.parametrize(
    "doc, field",
    [
        (_BM_FILE | {"bounds": 5}, "bounds"),
        (_BM_FILE | {"bounds": [[0.0, "one"]]}, "bounds"),
        (_BM_FILE | {"c0": None}, "c0"),
        (_BM_FILE | {"dim": "one"}, "dim"),
        (_BM_FILE | {"sigma": "1"}, "sigma"),
        (_BM_FILE | {"actions": "0"}, "actions"),
        (_BM_FILE | {"drift": ["0"]}, "drift"),
        ({k: v for k, v in _BM_FILE.items() if k != "drift"}, "missing field 'drift'"),
        ([_BM_FILE], "JSON list, not an object"),
        (_BM_FILE | {"bounds": [[0, 1, 2]]}, "bounds"),
        (_BM_FILE | {"dim": 1.7}, "dim"),
    ],
)
def test_malformed_problem_file_names_file_and_field(tmp_path, doc, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=field) as info:
        load_problem(str(path))
    assert str(path) in str(info.value)


def test_problem_file_defaults_c0_and_reads_numbers_as_text(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(_BM_FILE | {"drift": [[0]], "sigma": [1]}))
    spec = load_problem(str(path))
    assert spec.c0 == 1.0
    assert (spec.drift_exprs, spec.sigma_exprs) == ((("0",),), ("1",))
