"""Problem instances: controlled diffusions on axis-aligned boxes.

A problem is a box domain in dimension 1 or 2, a diagonal diffusion field
sigma(x), a finite action set, and a drift field m(x, u).  Coefficients are
closed-form expression strings (see :mod:`exitrate.expressions`) so problem
files round-trip through JSON without code changes.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EllipticityViolation, NonFiniteCoefficient, TooLarge
from .expressions import Expression, parse_expression

MAX_ACTIONS = 64
VALIDATION_POINTS = 33


@functools.lru_cache(maxsize=4096)
def _compiled(source: str) -> Expression:
    return parse_expression(source)


def _evaluate(exprs: tuple[str, ...], points: np.ndarray) -> np.ndarray:
    """One column per expression, as a new (n, len(exprs)) array."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty((pts.shape[0], len(exprs)))
    for j, e in enumerate(exprs):
        out[:, j] = _compiled(e)(pts)
    return out


@dataclass(frozen=True)
class ProblemSpec:
    """Continuous model: box domain, finite actions, drift and diffusion fields.

    drift_exprs[k][j] is the j-th drift coordinate under action k; sigma_exprs[j]
    is the j-th diagonal entry of sigma.  c0 is the declared ellipticity floor
    for |sigma(x)^T y|^2 >= c0 |y|^2.
    """

    name: str
    dim: int
    bounds: tuple[tuple[float, float], ...]
    actions: tuple[str, ...]
    drift_exprs: tuple[tuple[str, ...], ...]
    sigma_exprs: tuple[str, ...]
    c0: float = 1.0

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if len(self.bounds) != self.dim or any(len(b) != 2 for b in self.bounds):
            raise ValueError("bounds must have one (lo, hi) pair per axis")
        for lo, hi in self.bounds:
            if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
                raise ValueError(f"invalid axis bounds ({lo}, {hi})")
        if not 1 <= len(self.actions) <= MAX_ACTIONS:
            raise TooLarge(f"action set size {len(self.actions)} outside 1..{MAX_ACTIONS}")
        if len(self.drift_exprs) != len(self.actions):
            raise ValueError("one drift expression row per action required")
        for row in self.drift_exprs:
            if len(row) != self.dim:
                raise ValueError("each drift row needs one expression per coordinate")
        if len(self.sigma_exprs) != self.dim:
            raise ValueError("one sigma expression per coordinate required")
        if not (np.isfinite(self.c0) and self.c0 > 0):
            raise ValueError(f"c0 must be positive, got {self.c0}")

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @property
    def lo(self) -> np.ndarray:
        return np.array([b[0] for b in self.bounds], dtype=float)

    @property
    def hi(self) -> np.ndarray:
        return np.array([b[1] for b in self.bounds], dtype=float)

    def drift(self, points: np.ndarray, action: int) -> np.ndarray:
        """Drift vectors m(x, u_action) at points of shape (n, d)."""
        return _evaluate(self.drift_exprs[action], points)

    def sigma(self, points: np.ndarray) -> np.ndarray:
        """Diagonal entries of sigma(x) at points of shape (n, d)."""
        return _evaluate(self.sigma_exprs, points)


@dataclass(frozen=True, kw_only=True)
class ValidatedProblem(ProblemSpec):
    """A ProblemSpec together with its sampled validation annotations."""

    ellipticity_floor_sampled: float


def _spec_fields(spec: ProblemSpec) -> dict:
    """The ProblemSpec fields of spec, without any validation annotations."""
    return {f.name: getattr(spec, f.name) for f in dataclasses.fields(ProblemSpec)}


def validate_problem(spec: ProblemSpec) -> ValidatedProblem:
    """Check ellipticity and coefficient finiteness on a closed-box lattice.

    Idempotent: validating a ValidatedProblem re-derives the same annotation.
    """
    axes = [np.linspace(lo, hi, VALIDATION_POINTS) for lo, hi in spec.bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])

    sig = spec.sigma(pts)
    if not np.all(np.isfinite(sig)):
        raise NonFiniteCoefficient(f"{spec.name}: sigma is not finite on the validation lattice")
    floor = float(np.min(sig * sig))
    if floor < spec.c0 - 1e-12 * max(1.0, spec.c0):
        raise EllipticityViolation(
            f"{spec.name}: sampled |sigma^T y|^2 floor {floor:.6g} < c0 = {spec.c0:.6g}"
        )
    for k in range(spec.n_actions):
        if not np.all(np.isfinite(spec.drift(pts, k))):
            raise NonFiniteCoefficient(f"{spec.name}: drift under action {k} is not finite")
    return ValidatedProblem(**_spec_fields(spec), ellipticity_floor_sampled=floor)


def bm_interval() -> ProblemSpec:
    """Driftless unit diffusion on (0, 1); the basic closed-form benchmark."""
    return ProblemSpec(
        name="bm-interval",
        dim=1,
        bounds=((0.0, 1.0),),
        actions=("0",),
        drift_exprs=(("0",),),
        sigma_exprs=("1",),
    )


def drift_interval(c: float = 1.0) -> ProblemSpec:
    """Constant drift c on (0, 1) with unit diffusion, single action."""
    return ProblemSpec(
        name="drift-interval",
        dim=1,
        bounds=((0.0, 1.0),),
        actions=(f"{c:g}",),
        drift_exprs=((repr(float(c)),),),
        sigma_exprs=("1",),
    )


def bang_bang() -> ProblemSpec:
    """Two-action problem on (-1, 1): the control picks the drift sign."""
    return ProblemSpec(
        name="bang-bang",
        dim=1,
        bounds=((-1.0, 1.0),),
        actions=("-1", "+1"),
        drift_exprs=(("-1",), ("1",)),
        sigma_exprs=("1",),
    )


def rect_2d(b: float = 1.0) -> ProblemSpec:
    """Unit square with drift {-b, 0, +b} on the first coordinate."""
    return ProblemSpec(
        name="rect-2d",
        dim=2,
        bounds=((0.0, 1.0), (0.0, 1.0)),
        actions=(f"{-b:g}", "0", f"{b:g}"),
        drift_exprs=(
            (repr(float(-b)), "0"),
            ("0", "0"),
            (repr(float(b)), "0"),
        ),
        sigma_exprs=("1", "1"),
    )


def builtin_catalog() -> list[ProblemSpec]:
    """The benchmark problems with known answers, at default parameters."""
    return [bm_interval(), drift_interval(1.0), bang_bang(), rect_2d(1.0)]


CATALOG = {"bm-interval": bm_interval, "drift-interval": drift_interval, "bang-bang": bang_bang, "rect-2d": rect_2d}


def problem_by_name(name: str, **params: float) -> ProblemSpec:
    """Look up a catalog problem, optionally overriding its parameters."""
    if name not in CATALOG:
        raise KeyError(f"unknown catalog problem {name!r}; choices: {sorted(CATALOG)}")
    return CATALOG[name](**params)  # type: ignore[arg-type]


# The problem-file keys in ProblemSpec field order, each with its list depth and entry
# conversion; operator.index takes an integer and rejects 1.7 instead of truncating it.
_FILE_FIELDS = (("name", 0, str), ("dim", 0, operator.index), ("bounds", 2, float), ("actions", 1, str),
                ("drift", 2, str), ("sigma", 1, str), ("c0", 0, float))


def save_problem(spec: ProblemSpec, path: str) -> None:
    doc = dict(zip((key for key, _, _ in _FILE_FIELDS), _spec_fields(spec).values()))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _nested(value, depth: int, entry: Callable):
    """value as tuples nested depth lists deep; a string is not a list of its characters."""
    if depth == 0:
        return entry(value)
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return tuple(_nested(v, depth - 1, entry) for v in value)


def load_problem(path: str) -> ProblemSpec:
    """The problem in a save_problem file; a missing or malformed field is a ValueError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"problem file {path} holds a JSON {type(doc).__name__}, not an object")
    fields = []
    for key, depth, entry in _FILE_FIELDS:
        if key not in doc and key != "c0":
            raise ValueError(f"problem file {path} is missing field {key!r}")
        try:
            fields.append(_nested(doc.get(key, 1.0), depth, entry))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"problem file {path}: field {key!r} is malformed: {exc}") from None
    try:
        return ProblemSpec(*fields)
    except ValueError as exc:
        raise ValueError(f"problem file {path}: {exc}") from None


def with_bounds(spec: ProblemSpec, bounds: Sequence[Sequence[float]]) -> ProblemSpec:
    """Same problem on a different box, as a plain ProblemSpec (for enlarged domains)."""
    box = tuple((float(lo), float(hi)) for lo, hi in bounds)
    return ProblemSpec(**(_spec_fields(spec) | {"bounds": box}))
