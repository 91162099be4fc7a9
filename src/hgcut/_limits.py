"""Limits shared by the solvers: cooperative time limits and the vertex cap
of the brute-force oracle.  Every solver takes a ``Deadline`` and, when it
expires, raises ``SolveTimeout`` with its best cut.  Nothing here imports
numpy, so the command line can read these without loading it."""

from __future__ import annotations

import time
from typing import Optional

# Largest vertex count the brute-force oracle enumerates by default.
DEFAULT_MAX_VERTICES = 20


class SolveTimeout(Exception):
    """A cooperative time limit expired.

    ``best`` is the solver's best cut so far, a ``CutResult`` of its input
    that re-scores to its value, or None when it has none to offer.
    ``state`` is the ``PipelineState`` of a pipeline run that timed out,
    None for the other solvers.
    """

    def __init__(self, best=None) -> None:
        super().__init__("time limit exceeded")
        self.best = best
        self.state = None


class Deadline:
    """Wall-clock deadline; a ``None`` limit never expires."""

    __slots__ = ("_until",)

    def __init__(self, seconds: Optional[float] = None) -> None:
        self._until = None if seconds is None else time.perf_counter() + seconds

    def expired(self) -> bool:
        return self._until is not None and time.perf_counter() >= self._until
