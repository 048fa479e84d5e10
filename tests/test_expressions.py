"""Coefficient-expression parser: agreement with direct numpy, error paths."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ["", "x1 +", "2 ** 3", "foo(x1)", "x3", "sin()", "1 2", "(x1", "x1 @ x2", "sin"]
    # Python reads these; the grammar does not.
    + ["0x10", "1_0", "1j", "True", "+x1", "x1 // 2", "x1 % 2", "sin(x1,)", "sin(x=1)", "x1 if x2 else 1"]
    + ["x1 < 2", "x1.real", "not x1", "x1[0]", "'a'", "__import__('os')", "2^^3", "(sin)(x1)", "1if x1 else 2"]
    + [
        pytest.param("(" * 300 + "x1" + ")" * 300, id="300-nested-parentheses"),
        pytest.param("-" * 5000 + "x1", id="5000-nested-minuses"),
    ],
)
def test_malformed_text_raises(bad):
    with pytest.raises(ExpressionError):
        parse_expression(bad)


def test_number_run_into_a_name_raises_without_a_syntax_warning():
    # Python warns about "1if" and "0x1for" before it fails or reads them.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for text in ["1if x1 else 2", "0x1for", "1.5not x1"]:
            with pytest.raises(ExpressionError):
                parse_expression(text)
    assert caught == []


@pytest.mark.parametrize(
    "text, fn",
    [
        ("01", lambda p: np.ones(len(p))),
        ("1.e5", lambda p: np.full(len(p), 1e5)),
        ("  x1 ", lambda p: p[:, 0]),
        ("x1 +\n x2", lambda p: p[:, 0] + p[:, 1]),
        ("2^-1", lambda p: np.full(len(p), 0.5)),
    ],
)
def test_accepted_quirks_of_the_grammar(text, fn):
    pts = _pts()
    np.testing.assert_array_equal(parse_expression(text)(pts), fn(pts))


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


@pytest.mark.parametrize("text", ["sin((-1)^0.5)", "(-8)^(1/3)"])
def test_complex_constant_is_rejected_naming_the_source(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ExpressionError, match=re.escape(repr(text))):
            parse_expression(text)


def test_complex_value_is_rejected_at_evaluation():
    expr = parse_expression("x1 * (-1)^0.5")
    with pytest.raises(ExpressionError, match=re.escape("'x1 * (-1)^0.5'")):
        expr(_pts(n=3))


def test_failing_constant_still_raises_at_evaluation():
    with pytest.raises(ZeroDivisionError):
        parse_expression("1/0")(_pts(n=3))


@pytest.mark.parametrize("text, value", [("log(0)", -np.inf), ("exp(1000)", np.inf)])
def test_warning_constant_still_warns_at_evaluation(text, value):
    with pytest.warns(RuntimeWarning):
        out = parse_expression(text)(_pts(n=3))
    np.testing.assert_array_equal(out, np.full(3, value))


# Random grammar trees.  A leaf is ("num", text, value) or ("name", one of x1
# x2 pi e); inner nodes are ("neg", t), ("call", fn, t) and ("bin", op, l, r).
# Binding strength, loosest first: + -, * /, unary -, ^, atom.
_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
# (left, right) strength each operand needs: + - * / associate to the left,
# ^ to the right and takes an atom as its base.
_OPERANDS = {"+": (1, 2), "-": (1, 2), "*": (2, 3), "/": (2, 3), "^": (5, 3)}
_NUMPY = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log}
_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "^": lambda a, b: a**b,
}


@st.composite
def _numbers(draw):
    digits = draw(st.from_regex(r"[0-9]{1,3}(\.[0-9]{0,3})?([eE][+-]?[0-9]{1,2})?|\.[0-9]{1,3}", fullmatch=True))
    return ("num", "0" * draw(st.integers(0, 2)) + digits, float(digits))


_leaves = _numbers() | st.sampled_from([("name", "x1"), ("name", "x2"), ("name", "pi"), ("name", "e")])
_trees = st.recursive(
    _leaves,
    lambda sub: st.tuples(st.just("neg"), sub)
    | st.tuples(st.just("call"), st.sampled_from(sorted(_NUMPY)), sub)
    | st.tuples(st.just("bin"), st.sampled_from(sorted(_LEVEL)), sub, sub),
    max_leaves=12,
)


def _render(tree, draw_space, draw_paren) -> tuple[str, int]:
    """tree as text and its binding strength; parentheses where the grammar
    needs them, and sometimes where it does not."""

    def operand(sub, need):
        text, level = _render(sub, draw_space, draw_paren)
        return f"({draw_space()}{text}{draw_space()})" if level < need or draw_paren() else text

    kind = tree[0]
    if kind in ("num", "name"):
        return tree[1], 5
    if kind == "neg":
        return "-" + draw_space() + operand(tree[1], 3), 3
    if kind == "call":
        return f"{tree[1]}{draw_space()}({draw_space()}{operand(tree[2], 1)}{draw_space()})", 5
    op, left, right = tree[1:]
    need_left, need_right = _OPERANDS[op]
    text = operand(left, need_left) + draw_space() + op + draw_space() + operand(right, need_right)
    return text, _LEVEL[op]


def _direct(tree, pts):
    """tree evaluated with numpy, one operation per node, as the grammar reads it."""
    kind = tree[0]
    if kind == "num":
        return tree[2]
    if kind == "name":
        return {"x1": pts[:, 0], "x2": pts[:, 1], "pi": np.pi, "e": np.e}[tree[1]]
    if kind == "neg":
        return -_direct(tree[1], pts)
    if kind == "call":
        return _NUMPY[tree[1]](_direct(tree[2], pts))
    return _ARITHMETIC[tree[1]](_direct(tree[2], pts), _direct(tree[3], pts))


def _outcome(fn, pts):
    """fn(pts) as one float per point, or the type of the error it raised;
    a complex value counts as an ExpressionError."""
    try:
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = fn(pts)
            if np.iscomplexobj(out):
                return ExpressionError
            return np.full(len(pts), float(out)) if np.ndim(out) == 0 else np.asarray(out, dtype=float)
    except Exception as exc:  # the type is what is compared
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(tree=_trees, data=st.data())
def test_random_trees_match_direct_numpy_bit_for_bit(tree, data):
    spaces = st.sampled_from(["", "", " ", "  ", "\t", "\n "])
    text, _ = _render(tree, lambda: data.draw(spaces), lambda: data.draw(st.booleans()) and data.draw(st.booleans()))
    pts = _pts(n=16)
    # A coordinate-free complex value is rejected by the parse itself.
    got = _outcome(lambda p: parse_expression(text)(p), pts)
    want = _outcome(lambda p: _direct(tree, p), pts)
    if isinstance(want, type):
        assert got is want, text
    else:
        np.testing.assert_array_equal(got, want, err_msg=text)
