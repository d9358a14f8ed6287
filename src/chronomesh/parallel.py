"""Indexed sweeps with a deterministic result order.

Sweeps run serially, in index order. Both call sites, the pco census and the
ε-sweep's child networks, ran slower on a two-worker thread pool than in a
plain loop: a census trial is pure-Python event stepping under the GIL, so a
second worker added only dispatch and contention. Work items carry their own
RNG substreams (see rng.py), so results never depend on scheduling.
CHRONOMESH_THREADS and an explicit ``threads`` are still validated as a
worker cap, so a malformed value is reported rather than ignored.
"""

from __future__ import annotations

import os
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
    """Evaluate fn(0..count-1) in index order after validating the worker cap."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if threads is None:
        thread_cap()
    elif threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")
    return [fn(i) for i in range(count)]
