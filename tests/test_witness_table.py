"""The prover's per-query witness table against a full-walk reference.

The reference prover builds every witness the way the table replaced:
each deduction folds the whole sub-proof afresh and walks it once more
for the uses of the discharged premise, and each premise substitution
walks the whole proof.  Both provers search in the same order, so their
witnesses must agree node for node, sharing included.
"""

import hashlib

import pytest

from iplkit.formula import BOT, And, Implies, Or, neg, render, var
from iplkit.proof import (Premise, _children, _conclusion_map, _deduce,
                          _node_formulas, check, subst_premise)
from iplkit.prover import Prover, SearchBudgetExceeded
from iplkit.theories import canonical_universe

p0, p1, p2, p3 = var(0), var(1), var(2), var(3)


def uses_premise(phi, proof) -> dict:
    """id(node) -> whether the subtree contains Premise(phi)."""
    out: dict = {}
    stack = [(proof, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in out:
            continue
        kids = _children(node)
        if not expanded:
            stack.append((node, True))
            stack.extend((k, False) for k in kids)
            continue
        if isinstance(node, Premise):
            out[id(node)] = node.formula == phi
        else:
            out[id(node)] = any(out[id(k)] for k in kids)
    return out


class FullWalkProver(Prover):
    def _deduction(self, phi, proof):
        uses = uses_premise(phi, proof)
        table = {key: (node, concl, frozenset([phi] if uses[key] else []))
                 for key, (node, concl, _) in
                 _conclusion_map(proof, None).items()}
        return _deduce(phi, proof, table)

    def _subst(self, proof, target, replacement):
        return subst_premise(proof, target, replacement)


def digest(proof) -> str:
    """Hash of the witness DAG: node kinds, formulas and child positions
    in post-order, with every shared node listed once."""
    index: dict = {}
    rows = []
    stack = [(proof, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in index:
            continue
        kids = _children(node)
        if not expanded:
            stack.append((node, True))
            stack.extend((k, False) for k in kids)
            continue
        index[id(node)] = len(rows)
        rows.append((type(node).__name__,
                     tuple(render(f) for f in _node_formulas(node)),
                     tuple(index[id(k)] for k in kids)))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def provable_family():
    """(premises, goal) theorems whose witnesses discharge, substitute
    and split premises of every shape."""
    schwicht = p0
    for i in range(4):
        schwicht = And(schwicht, Implies(var(i), var(i + 1)))
    yield [], Implies(schwicht, var(4))
    yield [p0] + [Implies(var(i), var(i + 1)) for i in range(4)], var(4)
    yield [], neg(neg(Or(p0, neg(p0))))
    yield [], Implies(And(p0, Or(p1, p2)), Or(And(p0, p1), And(p0, p2)))
    yield [], Implies(Implies(And(p0, p1), p2), Implies(p0, Implies(p1, p2)))
    yield [], Implies(Implies(p0, Implies(p1, p2)), Implies(And(p0, p1), p2))
    yield [], Implies(Implies(p0, p1), Implies(neg(p1), neg(p0)))
    yield [], Implies(neg(neg(neg(p0))), neg(p0))
    yield [], Implies(neg(Or(p0, p1)), And(neg(p0), neg(p1)))
    yield [Implies(Or(p0, p1), p2), Implies(Implies(p3, p0), p1)], \
        Implies(p1, p2)
    yield [Implies(Implies(p0, p1), p2), Implies(p1, p0)], Implies(p1, p2)
    yield [BOT], Implies(p0, p1)


def test_witnesses_match_full_walk_reference():
    family = list(provable_family())
    universe = canonical_universe(2, 1).items
    queries = family + [([gamma], phi) for gamma in universe
                        for phi in universe]
    fast, reference = Prover(), FullWalkProver()
    proved = 0
    for i, (gamma, phi) in enumerate(queries):
        got = fast.prove(gamma, phi)
        want = reference.prove(gamma, phi)
        assert (got is None) == (want is None), (gamma, render(phi))
        if got is None:
            assert i >= len(family), render(phi)
            continue
        assert digest(got) == digest(want), (gamma, render(phi))
        assert check(gamma, got) == phi
        assert check(gamma, want) == phi
        proved += 1
    assert proved > 300


class TableSizes(Prover):
    def __init__(self, *args):
        super().__init__(*args)
        self.sizes = []

    def _deduction(self, phi, proof):
        out = super()._deduction(phi, proof)
        self.sizes.append(len(self._table))
        return out


def test_table_is_dropped_after_each_query():
    prover = TableSizes()
    assert prover.prove([], Implies(And(p0, p1), Or(p1, p0))) is not None
    assert prover.sizes and min(prover.sizes) > 0
    assert prover._table == {}
    deep = p0
    for _ in range(20):
        deep = Implies(p1, deep)
    shallow = TableSizes(5)
    with pytest.raises(SearchBudgetExceeded):
        shallow.prove([], And(Implies(p0, p0), deep))
    assert shallow.sizes and shallow._table == {}
