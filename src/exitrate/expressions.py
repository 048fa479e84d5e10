"""Tiny arithmetic expression language for drift/diffusion coefficients.

Problems loaded from JSON carry their coefficients as strings such as
``"2*sin(pi*x1)"``.  The grammar is deliberately small:

    expr   := term (("+"|"-") term)*
    term   := unary (("*"|"/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?          right-associative
    atom   := NUMBER | "pi" | "e" | "x1" | "x2"
            | ("sin"|"cos"|"exp"|"log") "(" expr ")"
            | "(" expr ")"

Python's ``ast`` parses it ("^" read as "**"); only the forms above compile, never through eval.

Compiled expressions evaluate vectorized over an (n, d) array of points.  An
expression that names neither coordinate also carries its value as
``constant``, so callers can broadcast it instead of evaluating it.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# A number as the grammar spells it; Python's literals also cover 0x10, 1j, True and "...".
_NUMBER_RE = re.compile(r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?")
# Outside the grammar: other characters, "**", and a number run into a name ("0x10", "1if").
_DISALLOWED_RE = re.compile(r"[^A-Za-z0-9_\s.+\-*/^()]|\*\*|[0-9.](?![eE][+-]?[0-9])[A-Za-z_]")
_LEADING_ZEROS_RE = re.compile(r"(?<![\w.])0+(?=\d)")

_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv, ast.Pow: operator.pow}

_FUNCTIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}
_COORDINATES = ("x1", "x2")


class ExpressionError(ValueError):
    """Malformed coefficient expression."""


@dataclass(frozen=True)
class Expression:
    """A parsed scalar field over the spatial coordinates."""

    source: str
    _fn: Callable[[np.ndarray], np.ndarray]
    # The value when the source names no coordinate and evaluates without
    # an error or a floating-point warning; None otherwise.
    constant: Optional[float] = None

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at points of shape (n, d); returns shape (n,)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        out = self._fn(pts)
        if np.iscomplexobj(out):
            raise ExpressionError(f"{self.source!r} takes a complex value")
        if np.ndim(out) == 0:
            out = np.full(pts.shape[0], float(out))
        return np.asarray(out, dtype=float)


def _compile(node: ast.AST, source: str) -> Callable:
    """The closure for a whitelisted node of source's tree; any other node is an ExpressionError."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        op, a, b = _BINARY[type(node.op)], _compile(node.left, source), _compile(node.right, source)
        return lambda p: op(a(p), b(p))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _compile(node.operand, source)
        return lambda p: -inner(p)
    segment = source[node.col_offset : node.end_col_offset]  # one line of ASCII: offsets are indices
    if isinstance(node, ast.Constant) and _NUMBER_RE.fullmatch(segment):
        value = float(segment)
        return lambda p: value
    if isinstance(node, ast.Name) and node.id in _CONSTANTS:
        value = _CONSTANTS[node.id]
        return lambda p: value
    if isinstance(node, ast.Name) and node.id in _COORDINATES:
        axis = _COORDINATES.index(node.id)
        def coord(p: np.ndarray) -> np.ndarray:
            if axis >= p.shape[1]:
                raise ExpressionError(f"coordinate x{axis + 1} used on a {p.shape[1]}-dimensional domain")
            return p[:, axis]
        return coord
    # A call starts at its function's name: "(sin)(x1)" parses to the same tree as "sin(x1)".
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in _FUNCTIONS and (
        node.func.col_offset == node.col_offset and len(node.args) == 1 and not node.keywords
    ):
        func = _FUNCTIONS[node.func.id]
        inner = _compile(node.args[0], source)
        return lambda p: func(inner(p))
    raise ExpressionError(f"{segment!r} is not allowed in {source!r}".replace("**", "^"))


def parse_expression(text: str) -> Expression:
    """Parse a coefficient string into a vectorized callable field."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError(f"empty coefficient expression: {text!r}")
    bad = _DISALLOWED_RE.search(text)
    if bad is not None:
        raise ExpressionError(f"unexpected {bad.group()!r} in {text!r}")
    # "^" is the power; Python reads neither "01" nor an indented start.
    source = _LEADING_ZEROS_RE.sub("", " ".join(text.split()).replace("^", "**"))
    try:
        tree = ast.parse(source, mode="eval")
        fn = _compile(tree.body, source)
    except (SyntaxError, RecursionError) as exc:
        raise ExpressionError(f"malformed expression {text!r}: {exc}") from None
    uses_coordinates = any(isinstance(n, ast.Name) and n.id in _COORDINATES for n in ast.walk(tree))
    return Expression(source=text, _fn=fn, constant=None if uses_coordinates else _constant_value(fn, text))


def _constant_value(fn: Callable, source: str) -> Optional[float]:
    """The value of a coordinate-free expression, or None if evaluating it
    fails or warns; a complex value, as of (-1)^0.5, is an ExpressionError.

    A failure (1/0) or a warning (log(0), exp(1000)) is left to happen where
    it always did, at evaluation.
    """
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            value = fn(None)
    except (ArithmeticError, TypeError, ValueError):
        return None
    if np.iscomplexobj(value):
        raise ExpressionError(f"{source!r} takes a complex value")
    return float(value)
