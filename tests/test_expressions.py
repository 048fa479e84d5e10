"""Coefficient-expression parser: agreement with direct numpy, error paths."""

import numpy as np
import pytest

from exitrate.expressions import Expression, ExpressionError, parse_expression


def _pts(n=200, d=2, seed=7):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.05, 0.95, size=(n, d))


@pytest.mark.parametrize(
    "text,fn",
    [
        ("1", lambda p: np.ones(len(p))),
        ("-x1", lambda p: -p[:, 0]),
        ("2*sin(pi*x1)", lambda p: 2 * np.sin(np.pi * p[:, 0])),
        ("x1*x2 - 0.5", lambda p: p[:, 0] * p[:, 1] - 0.5),
        ("exp(-x1^2)", lambda p: np.exp(-p[:, 0] ** 2)),
        ("cos(x1) + log(x2)", lambda p: np.cos(p[:, 0]) + np.log(p[:, 1])),
        ("x1^2^3", lambda p: p[:, 0] ** 8),  # right-associative power
        ("2 + 3 * 4 ^ 2", lambda p: np.full(len(p), 50.0)),
        ("(x1 + x2) / (1 + x1)", lambda p: (p[:, 0] + p[:, 1]) / (1 + p[:, 0])),
        ("e^x1", lambda p: np.exp(p[:, 0])),
    ],
)
def test_parsed_matches_direct_numpy(text, fn):
    pts = _pts()
    expr = parse_expression(text)
    assert isinstance(expr, Expression)
    np.testing.assert_allclose(expr(pts), fn(pts), rtol=1e-14, atol=1e-14)


def test_unary_minus_binds_tighter_than_subtraction():
    pts = _pts()
    np.testing.assert_allclose(
        parse_expression("-x1^2")(pts), -(pts[:, 0] ** 2), rtol=1e-14
    )


def test_output_shape_is_one_value_per_point():
    pts = _pts(n=17)
    assert parse_expression("3.5")(pts).shape == (17,)


@pytest.mark.parametrize(
    "bad",
    ["", "x1 +", "2 ** 3", "foo(x1)", "x3", "sin()", "1 2", "(x1", "x1 @ x2", "sin"],
)
def test_malformed_text_raises(bad):
    with pytest.raises(ExpressionError):
        parse_expression(bad)


def test_second_coordinate_rejected_on_1d_points():
    expr = parse_expression("x2")
    with pytest.raises(ExpressionError):
        expr(np.zeros((4, 1)))


@pytest.mark.parametrize("text, value", [("2*pi", 2 * np.pi), ("-1", -1.0), ("sin(1)", np.sin(1.0))])
def test_coordinate_free_expressions_carry_their_value(text, value):
    expr = parse_expression(text)
    assert expr.constant == value
    np.testing.assert_array_equal(expr(_pts(n=5)), np.full(5, value))


@pytest.mark.parametrize("text", ["x1", "0*x1", "x2", "1/0", "log(0)", "exp(1000)"])
def test_other_expressions_have_no_constant(text):
    # 1/0, log(0) and exp(1000) name no coordinate but fail or warn when
    # evaluated; they still do so where they always did, at evaluation.
    assert parse_expression(text).constant is None


def test_failing_constant_still_raises_at_evaluation():
    with pytest.raises(ZeroDivisionError):
        parse_expression("1/0")(_pts(n=3))


@pytest.mark.parametrize("text, value", [("log(0)", -np.inf), ("exp(1000)", np.inf)])
def test_warning_constant_still_warns_at_evaluation(text, value):
    with pytest.warns(RuntimeWarning):
        out = parse_expression(text)(_pts(n=3))
    np.testing.assert_array_equal(out, np.full(3, value))
