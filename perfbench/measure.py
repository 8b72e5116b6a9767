"""Shared measurement helpers: percentiles, the failure tally, results."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from typing import Any

# Tails need this many samples beyond the reported percentile.
TAIL_BEYOND = 10


def p50(values: list[float]) -> float:
    if not values:
        raise ValueError("no samples")
    return statistics.median(values)


def tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile with at least
    :data:`TAIL_BEYOND` samples beyond it, i.e. the 11th-largest sample."""
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    ordered = sorted(values)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def mean(values: list[float]) -> float:
    return math.fsum(values) / len(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set size of another process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


@dataclass
class Tally:
    """Ops attempted and failed; a failure is a wrong value, a
    ``ServiceError`` (``BUSY`` included) or a transport error."""

    attempted: int = 0
    failed: int = 0
    examples: list[str] = field(default_factory=list)

    def check(self, got: str, expected: str, what: str) -> bool:
        """Count one checked value; a mismatch is a failure."""
        self.attempted += 1
        if got == expected:
            return True
        self._failed(f"{what}: got {got}, expected {expected}")
        return False

    def fail(self, message: str) -> None:
        """Count one op that failed without producing a value."""
        self.attempted += 1
        self._failed(message)

    def _failed(self, message: str) -> None:
        self.failed += 1
        if len(self.examples) < 5:
            self.examples.append(message)


@dataclass
class Outcome:
    """What one workload run reports."""

    tally: Tally
    metrics: dict[str, tuple[float, str]]
    samples: dict[str, int]
    meta: dict[str, Any]

    def result(self) -> dict[str, Any]:
        return {
            "correct": self.tally.failed == 0,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def run_metadata(seed: int) -> dict[str, Any]:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "nproc": os.cpu_count(),
    }
