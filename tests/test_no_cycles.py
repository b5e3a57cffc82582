"""A query leaves no reference cycles: its proof scaffolding is freed by
reference counting as soon as it returns.

Every test runs with the cyclic collector off, so whatever only the
collector could free stays behind, and then asserts that it is gone:
that gc.collect() finds nothing, that no replay context is left, or
that a dropped witness is freed.  The first test runs its queries once
with the collector on, to settle what first use makes once per process."""

import gc
import weakref

import pytest

from iplkit.formula import parse
from iplkit.lindenbaum import build_quotient
from iplkit.prover import _OR_L, Prover, _Context
from iplkit.theories import (Oracle, Provable, Refuted, add_formula_to_pair,
                             canonical_universe, make_pair)

NESTED = "((p0 & p1) & p2 -> p3) -> p0 -> p1 -> p2 -> p3"
SPLIT = "(p0 | p1) & (p0 -> p2) & (p1 -> p2) -> p2 & (p1 | p0)"


@pytest.fixture
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _live_contexts() -> int:
    return sum(type(o) is _Context for o in gc.get_objects())


def _queries() -> None:
    """Proved, failed and classically refuted queries, pair steps and a
    quotient; nothing is kept."""
    oracle = Oracle()
    assert isinstance(oracle.provable([], parse(NESTED)), Provable)
    assert isinstance(oracle.provable([], parse(SPLIT)), Provable)
    # intuitionistically unprovable, classically valid: the countermodel
    # is read off the failed search
    assert isinstance(oracle.provable([], parse("p0 | ~p0")), Refuted)
    # refuted by the truth-table scan
    assert isinstance(oracle.provable([], parse("p0 -> p1")), Refuted)
    universe = canonical_universe(1, 2)
    pair = make_pair([], [])
    for i in range(40):
        pair = add_formula_to_pair(pair, universe.enumeration(i), oracle)
    build_quotient([], canonical_universe(2, 1), Oracle())


def test_queries_leave_nothing_for_the_collector(no_collector):
    gc.enable()
    _queries()
    gc.collect()
    gc.disable()
    _queries()
    assert gc.collect() == 0


def test_a_witness_is_freed_with_its_verdict(no_collector):
    verdict = Oracle().provable([], parse(NESTED))
    witness = weakref.ref(verdict.witness)
    del verdict
    assert witness() is None
    assert _live_contexts() == 0


def test_a_reused_prover_keeps_nothing_of_its_earlier_calls(no_collector):
    prover = Prover()
    first = prover.prove([], parse(NESTED))
    assert first is not None
    assert _live_contexts() == 0
    first = weakref.ref(first)
    assert first() is None
    second = prover.prove([], parse(SPLIT))
    assert second is not None
    # the second query's replay splits a disjunction under a hypothesis
    assert any(e is not None and e[0] == _OR_L
               for e in prover._memo.values())
    assert first() is None
    assert _live_contexts() == 0
    del second
    assert gc.collect() == 0
