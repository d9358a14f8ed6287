"""Timing of one call: wall time and process CPU time.

On a shared virtual machine the host takes CPU time from busy vCPUs
("steal"), and wall time then follows the host's load, not the program.
Process CPU time counts only the time the program's threads ran, so the
benchmark gates on it: set-up steps and operations alike. This module
imports nothing from chronomesh, so fresh interpreters can use it to time
the package import.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Timing:
    wall: float
    cpu: float      # process CPU time, all threads


def timed(fn, *args, **kwargs):
    """Result of fn(*args, **kwargs) and the Timing of the call."""
    wall, cpu = time.perf_counter(), time.process_time()
    result = fn(*args, **kwargs)
    return result, Timing(time.perf_counter() - wall, time.process_time() - cpu)
