"""Verification outcome record shared by the check modules and the CLI."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable


def timed_call(fn: Callable[[], Any]) -> tuple[Any, int]:
    """Run fn(); return its result and its wall time in whole milliseconds."""
    start = time.perf_counter()
    result = fn()
    return result, int(1000 * (time.perf_counter() - start))


@dataclass
class ReportRecord:
    """One verification outcome; ``passed`` is always residual <= tolerance.

    ``runtime_ms`` is the measured wall time of this record's own check.
    """

    identity: str
    params: dict = field(default_factory=dict)
    residual: float = 0.0
    tolerance: float = 0.0
    passed: bool = False
    runtime_ms: int = 0

    @classmethod
    def from_residual(cls, identity: str, params: dict, residual: float,
                      tolerance: float, runtime_ms: int = 0) -> "ReportRecord":
        return cls(identity=identity, params=params, residual=float(residual),
                   tolerance=float(tolerance),
                   passed=bool(residual <= tolerance),
                   runtime_ms=int(runtime_ms))

    @classmethod
    def timed(cls, identity: str, params: dict, tolerance: float,
              residual_fn: Callable[[], float]) -> "ReportRecord":
        """Record the residual that residual_fn() returns, timed."""
        residual, ms = timed_call(residual_fn)
        return cls.from_residual(identity, params, residual, tolerance, ms)

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "params": {k: repr(v) if isinstance(v, complex) else v
                       for k, v in self.params.items()},
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "runtime_ms": self.runtime_ms,
        }
