"""What a workload hands to the runner: a fixed list of operations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass
class Op:
    """One timed operation.

    `run` is timed and may raise: an exception counts the operation as
    failed.  `check` is not timed; it receives run's result and returns
    the problems found in it, an empty list when the answer is right.
    Operations of one job (a saturation with its oracle) share state
    through their closures; the first operation of a job resets it, so
    every pass repeats exactly the same work.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
