"""Thread-pool helpers with a deterministic result order.

CHRONOMESH_THREADS caps the pool size. Work items must carry their own RNG
substreams (see rng.py); the helpers here only schedule and reassemble, so
results are identical for any cap, including 1.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

from .errors import ConfigurationError

T = TypeVar("T")

_ENV_VAR = "CHRONOMESH_THREADS"


def thread_cap() -> int:
    """Effective worker count: CHRONOMESH_THREADS if set, else cpu count."""
    raw = os.environ.get(_ENV_VAR)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            raise ConfigurationError(f"{_ENV_VAR} must be an integer, got {raw!r}") from None
        if value < 1:
            raise ConfigurationError(f"{_ENV_VAR} must be >= 1, got {value}")
        return value
    return os.cpu_count() or 1


def run_indexed(fn: Callable[[int], T], count: int, threads: int | None = None) -> list[T]:
    """Evaluate fn(0..count-1), possibly in parallel, results in index order."""
    if count < 0:
        raise ValueError("count must be non-negative")
    workers = min(threads if threads is not None else thread_cap(), max(count, 1))
    if workers <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))

