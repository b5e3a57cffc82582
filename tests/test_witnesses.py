"""Oracle witnesses, replayed relative to a context, against the
premise-based reference builder in reference_prover.py.

Both decide G4ip, so they must agree on every verdict; their
witnesses differ in shape, and each must pass the kernel.  Witnesses
must also be reproducible byte for byte and stay small.
"""

import json
import os
import random
import subprocess
import sys
import time

import pytest
from reference_prover import ReferenceProver
from test_countermodel_family import KREISEL_PUTNAM, bd

import iplkit
from iplkit.formula import BOT, And, Implies, Or, neg, postorder, render, var
from iplkit.proof import (ContractionConj, Expansion, ModusPonens, Premise,
                          Syllogism, _children, check, identity,
                          proof_to_json)
from iplkit.theories import Oracle, Provable, canonical_universe

p0, p1, p2, p3 = var(0), var(1), var(2), var(3)


def schwicht_p(n):
    body = p0
    for i in range(n):
        body = And(body, Implies(var(i), var(i + 1)))
    return Implies(body, var(n))


def con_p(n):
    body = None
    for i in range(n):
        lem = Or(var(i), neg(var(i)))
        body = lem if body is None else And(body, lem)
    return neg(neg(body))


CURRYING_3 = Implies(Implies(And(And(p0, p1), p2), p3),
                     Implies(p0, Implies(p1, Implies(p2, p3))))


def named_laws():
    """(premises, goal) theorems whose derivations use every rule."""
    yield [], schwicht_p(4)
    yield [p0] + [Implies(var(i), var(i + 1)) for i in range(4)], var(4)
    yield [], con_p(2)
    yield [], CURRYING_3
    yield [], neg(neg(Or(p0, neg(p0))))
    yield [], Implies(And(p0, Or(p1, p2)), Or(And(p0, p1), And(p0, p2)))
    yield [], Implies(Or(And(p0, p1), And(p0, p2)), And(p0, Or(p1, p2)))
    yield [], Implies(Implies(And(p0, p1), p2), Implies(p0, Implies(p1, p2)))
    yield [], Implies(Implies(p0, Implies(p1, p2)), Implies(And(p0, p1), p2))
    yield [], Implies(Implies(p0, p1), Implies(neg(p1), neg(p0)))
    yield [], Implies(neg(neg(neg(p0))), neg(p0))
    yield [], Implies(neg(Or(p0, p1)), And(neg(p0), neg(p1)))
    yield [], Implies(Or(neg(p0), neg(p1)), neg(And(p0, p1)))
    yield [], Implies(Or(Or(p0, p1), p2), Or(p0, Or(p1, p2)))
    yield [], Implies(neg(neg(Implies(p0, p1))),
                      Implies(neg(neg(p0)), neg(neg(p1))))
    yield [Implies(Or(p0, p1), p2), Implies(Implies(p3, p0), p1)], \
        Implies(p1, p2)
    yield [Implies(Implies(p0, p1), p2), Implies(p1, p0)], Implies(p1, p2)
    yield [BOT], Implies(p0, p1)
    yield [BOT], BOT


def multi_world_refutations():
    """(premises, goal) queries whose countermodels need two or more
    worlds: Peirce, Dummett, weak excluded middle, Kreisel-Putnam and
    the bounded-depth axioms bd_3..bd_5."""
    yield [], Implies(Implies(Implies(p0, p1), p0), p0)
    yield [], Or(Implies(p0, p1), Implies(p1, p0))
    yield [], Or(neg(p0), neg(neg(p0)))
    yield [], KREISEL_PUTNAM
    for n in (3, 4, 5):
        yield [], bd(n)


def seeded_queries() -> list:
    """60 (premises, goal) queries with 2-3 premises over
    canonical_universe(3, 1), the same in every run."""
    rng = random.Random(10)
    universe = canonical_universe(3, 1).items
    return [(rng.sample(universe, rng.choice((2, 3))), rng.choice(universe))
            for _ in range(60)]


def dag_size(proof) -> int:
    seen, stack = set(), [proof]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(_children(node))
    return len(seen)


def wire(proof) -> str:
    return json.dumps(proof_to_json(proof), sort_keys=True)


def agree_with_reference(queries, shared: Oracle) -> int:
    reference = ReferenceProver()
    proved = 0
    for gamma, phi in queries:
        verdict = shared.provable(gamma, phi)
        want = reference.prove(gamma, phi)
        got = isinstance(verdict, Provable)
        assert got == (want is not None), (gamma, render(phi))
        if not got:
            continue
        assert check(gamma, verdict.witness) == phi
        assert check(gamma, want) == phi
        text = wire(verdict.witness)
        assert wire(Oracle().provable(gamma, phi).witness) == text
        assert wire(Oracle().provable(gamma, phi).witness) == text
        proved += 1
    return proved


def test_universe_pairs_match_reference():
    universe = canonical_universe(2, 1).items
    queries = [([gamma], phi) for gamma in universe for phi in universe]
    assert agree_with_reference(queries, Oracle()) > 300


def test_named_laws_match_reference():
    queries = list(named_laws())
    assert agree_with_reference(queries, Oracle()) == len(queries)


def test_witnesses_stay_small():
    start = time.perf_counter()
    verdict = Oracle().provable([], con_p(5))
    assert time.perf_counter() - start < 1.0
    assert isinstance(verdict, Provable)
    assert dag_size(verdict.witness) < 10_000
    assert dag_size(Oracle().provable([], CURRYING_3).witness) < 1_000


@pytest.mark.parametrize("n", range(1, 9))
def test_chain_witness_is_closed(n):
    # at the root the replay builds closed proofs from the premises: the
    # chain's witness is n modus ponens steps over its n + 1 premises
    gamma = [p0] + [Implies(var(i), var(i + 1)) for i in range(n)]
    witness = Oracle().provable(gamma, var(n)).witness
    assert dag_size(witness) == 2 * n + 1
    node = witness
    for i in range(n, 0, -1):
        assert isinstance(node, ModusPonens)
        assert node.major == Premise(Implies(var(i - 1), var(i)))
        node = node.minor
    assert node == Premise(p0)


def test_premise_goal_is_its_own_witness():
    assert Oracle().provable([p0], p0).witness == Premise(p0)
    assert Oracle().provable([p1, p0], p0).witness == Premise(p0)


# The total witness DAG size of named_laws(): a change that grows the
# witnesses fails here.
NAMED_LAWS_NODES = 920


def test_named_law_witnesses_do_not_grow():
    total = sum(dag_size(Oracle().provable(gamma, phi).witness)
                for gamma, phi in named_laws())
    assert total <= NAMED_LAWS_NODES


def composes_with_identity(proof) -> bool:
    """Some Syllogism of proof has identity(x) as either operand."""
    def is_identity(t):
        return type(t) is Syllogism and type(t.first) is ContractionConj \
            and t == identity(t.first.formula)
    return any(type(node) is Syllogism and (is_identity(node.first)
                                            or is_identity(node.second))
               for node in postorder([proof], _children))


def test_replay_never_composes_with_identity():
    # a depth-1 context proves its hypothesis c by identity(c); where the
    # replay would compose with it, the other operand stands alone, and
    # modus ponens on c itself contracts c & c
    universe = canonical_universe(2, 1).items
    queries = list(named_laws()) + [([gamma], phi) for gamma in universe
                                    for phi in universe]
    oracle = Oracle()
    proved = 0
    for gamma, phi in queries:
        verdict = oracle.provable(gamma, phi)
        if isinstance(verdict, Provable):
            assert not composes_with_identity(verdict.witness), \
                (gamma, render(phi))
            proved += 1
    assert proved > 300


def test_unused_disjunct_is_not_split():
    # Both branches of the disjunctive premise prove the goal from p2
    # alone, so the witness needs no case split (no Expansion node).
    gamma, phi = [Or(p0, p1), p2], Or(p3, p2)
    verdict = Oracle().provable(gamma, phi)
    assert check(gamma, verdict.witness) == phi
    stack, kinds = [verdict.witness], set()
    while stack:
        node = stack.pop()
        kinds.add(type(node))
        stack.extend(_children(node))
    assert Expansion not in kinds


# Reads (premises, goal) texts from stdin and prints, for each query, the
# proof JSON of its witness from a fresh oracle, or the model JSON and
# world of its countermodel.
WITNESS_CHILD = """
import json, sys
from iplkit.formula import parse
from iplkit.kripke import model_to_json
from iplkit.proof import proof_to_json
from iplkit.theories import Oracle, Provable
out = []
for gamma, phi in json.load(sys.stdin):
    v = Oracle().provable([parse(t) for t in gamma], parse(phi))
    out.append(proof_to_json(v.witness) if isinstance(v, Provable)
               else [model_to_json(v.model), v.world])
print(json.dumps(out))
"""


def test_witnesses_do_not_depend_on_hash_seed():
    # the prover orders each sequent's premises; that order, and so the
    # witness or the countermodel read off a failed search, must be the
    # same in every process
    queries = [q for q in named_laws() if len(q[0]) >= 2] + \
        seeded_queries() + list(multi_world_refutations())
    text = json.dumps([([render(f) for f in gamma], render(phi))
                       for gamma, phi in queries])
    root = os.path.dirname(os.path.dirname(os.path.abspath(iplkit.__file__)))
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [root, os.environ.get("PYTHONPATH")])))
        child = subprocess.run([sys.executable, "-c", WITNESS_CHILD],
                               input=text, capture_output=True, text=True,
                               env=env, check=True)
        outputs.append(child.stdout)
    assert outputs[0] == outputs[1]
    certificates = json.loads(outputs[0])
    assert sum(isinstance(c, dict) for c in certificates) >= 20
    assert sum(isinstance(c, list) and c[0]["worlds"] > 1
               for c in certificates) >= len(list(multi_world_refutations()))
