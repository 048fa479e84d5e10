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

Compiled expressions evaluate vectorized over an (n, d) array of points.  An
expression that names neither coordinate also carries its value as
``constant``, so callers can broadcast it instead of evaluating it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}


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
        if np.ndim(out) == 0:
            out = np.full(pts.shape[0], float(out))
        return np.asarray(out, dtype=float)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ExpressionError(f"unexpected character {text[pos:].strip()[0]!r} at position {pos} in {text!r}")
            break
        pos = m.end()
        if m.group("num") is not None:
            tokens.append(("num", m.group("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source
        self.uses_coordinates = False

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ExpressionError(f"unexpected end of expression in {self.source!r}")
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok != ("op", op):
            raise ExpressionError(f"expected {op!r} at token {self.pos} in {self.source!r}")

    def parse(self) -> Callable:
        fn = self.expr()
        if self.peek() is not None:
            raise ExpressionError(f"trailing input after position {self.pos} in {self.source!r}")
        return fn

    def expr(self) -> Callable:
        fn = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.next()[1]
            rhs = self.term()
            fn = (lambda a, b: lambda p: a(p) + b(p))(fn, rhs) if op == "+" else (lambda a, b: lambda p: a(p) - b(p))(fn, rhs)
        return fn

    def term(self) -> Callable:
        fn = self.unary()
        while self.peek() in (("op", "*"), ("op", "/")):
            op = self.next()[1]
            rhs = self.unary()
            fn = (lambda a, b: lambda p: a(p) * b(p))(fn, rhs) if op == "*" else (lambda a, b: lambda p: a(p) / b(p))(fn, rhs)
        return fn

    def unary(self) -> Callable:
        if self.peek() == ("op", "-"):
            self.next()
            inner = self.unary()
            return lambda p: -inner(p)
        return self.power()

    def power(self) -> Callable:
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.next()
            exponent = self.unary()
            return lambda p: base(p) ** exponent(p)
        return base

    def atom(self) -> Callable:
        kind, text = self.next()
        if kind == "num":
            value = float(text)
            return lambda p: value
        if kind == "name":
            if text in _CONSTANTS:
                value = _CONSTANTS[text]
                return lambda p: value
            if text in _FUNCTIONS:
                func = _FUNCTIONS[text]
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return lambda p: func(inner(p))
            if text in ("x1", "x2"):
                self.uses_coordinates = True
                axis = int(text[1]) - 1
                def coord(p: np.ndarray, axis: int = axis) -> np.ndarray:
                    if axis >= p.shape[1]:
                        raise ExpressionError(f"coordinate x{axis + 1} used on a {p.shape[1]}-dimensional domain")
                    return p[:, axis]
                return coord
            raise ExpressionError(f"unknown name {text!r} in {self.source!r}")
        if (kind, text) == ("op", "("):
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExpressionError(f"unexpected token {text!r} in {self.source!r}")


def parse_expression(text: str) -> Expression:
    """Parse a coefficient string into a vectorized callable field."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError(f"empty coefficient expression: {text!r}")
    parser = _Parser(_tokenize(text), text)
    fn = parser.parse()
    return Expression(source=text, _fn=fn, constant=None if parser.uses_coordinates else _constant_value(fn))


def _constant_value(fn: Callable) -> Optional[float]:
    """The value of a coordinate-free expression, or None if evaluating it
    fails or warns.

    A failure (1/0, a complex power) or a warning (log(0), exp(1000)) is
    left to happen where it always did, at evaluation.
    """
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return float(fn(None))
    except (ArithmeticError, TypeError, ValueError):
        return None
