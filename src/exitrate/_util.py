"""Small shared helpers: thread pool sizing, random streams, deterministic maps, line fits, stable IO."""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Sequence

import numpy as np

THREADS_ENV = "EXITRATE_THREADS"
_MASK = (1 << 64) - 1


def worker_count() -> int:
    """Worker cap for parallel sections, from EXITRATE_THREADS or cpu count."""
    raw = os.environ.get(THREADS_ENV, "").strip()
    if raw:
        try:
            n = int(raw)
        except ValueError as exc:
            raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}") from exc
        if n < 1:
            raise ValueError(f"{THREADS_ENV} must be >= 1, got {n}")
        return n
    return os.cpu_count() or 1


def philox(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream), each taken modulo 2^64."""
    key = np.array([seed & _MASK, stream & _MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def ordered_map(fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
    """Apply fn to items, possibly in parallel, returning results in input order.

    Results are collected by index, so the output (and anything folded over it
    in order) is independent of the worker count.
    """
    items = list(items)
    workers = min(worker_count(), len(items)) or 1
    if workers == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    out: list[Any] = [None] * len(items)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(fn, it): k for k, it in enumerate(items)}
        for fut, k in futures.items():
            out[k] = fut.result()
    return out


def line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares line through (x, y): its slope and R^2 (1 when y is constant)."""
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return float(slope), 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def dump_json(obj: Any, path: str) -> None:
    """Write a report deterministically: sorted keys, no timestamps."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def jsonable(obj: Any) -> Any:
    """Recursively convert numpy scalars/arrays for json.dump."""
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Plain CSV writer with repr-stable float formatting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v: Any) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)
