"""Operation timing corrected for the speed of the machine.

The sandbox this benchmark was written on changes speed by tens of
percent within seconds, and process CPU time drifts with wall time, so a
raw wall-clock median does not repeat from one run to the next.  Each
timed operation is therefore bracketed by a fixed reference routine that
does the same kind of work as the formula core: it builds, hashes,
compares and walks small frozen dataclass trees.  The operation's time is
scaled by NOMINAL_REF_NS divided by the mean of the two reference times
measured right before and right after it, which gives its time at a fixed
reference speed.

The reference frees everything it allocates by reference counting (its
trees hold no cycles) and runs with the cyclic collector paused, so it
leaves no garbage for the next operation and never pays for a collection
that the program's own allocations made due.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

# Median time of one reference_work() call on the machine the benchmark
# was calibrated on (Python 3.11.7, 2 cores).  Corrected times are times at
# that speed; the constant only scales them and never changes between runs.
NOMINAL_REF_NS = 500_000


@dataclass(frozen=True)
class _Leaf:
    index: int


@dataclass(frozen=True)
class _Node:
    tag: int
    lhs: object
    rhs: object


def _size(node) -> int:
    if isinstance(node, _Leaf):
        return 1
    return 1 + _size(node.lhs) + _size(node.rhs)


_ROUNDS = 2


def reference_work() -> int:
    """A fixed amount of formula-core-like work; returns a checksum."""
    total = 0
    for r in range(_ROUNDS):
        leaves = [_Leaf(i) for i in range(4)]
        inner = [_Node(t, a, b) for t in (1, 2) for a in leaves for b in leaves]
        outer = [_Node(3, inner[i], inner[-1 - i]) for i in range(len(inner))]
        seen = set(inner)
        seen.update(outer)
        for node in outer:
            total += _size(node)
            if node.lhs in seen and node == _Node(3, node.lhs, node.rhs):
                total += 1
        total += len(seen)
    return total


def reference_ns() -> int:
    """Wall time of one reference_work() call, collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        reference_work()
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


_inner: list = []


def add_inner_refs(*ns) -> None:
    """Reference times measured inside the operation being timed, by a
    child process the operation ran.  timed() removes their duration from
    the operation and adds them to the speed estimate, which then samples
    the machine during a long operation too, not only at its ends."""
    _inner.extend(ns)


def timed(fn, *args):
    """Run fn(*args) between two reference calls.

    Returns (result, raw_ns, corrected_ns)."""
    _inner.clear()
    before = reference_ns()
    t0 = time.perf_counter_ns()
    out = fn(*args)
    raw = time.perf_counter_ns() - t0
    after = reference_ns()
    refs = [before, after, *_inner]
    raw -= sum(_inner)
    return out, raw, raw * len(refs) * NOMINAL_REF_NS / sum(refs)
