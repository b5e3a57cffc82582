"""Oracle witnesses, replayed relative to a context, against the
premise-based reference builder in reference_prover.py.

Both run the same search, so they must agree on every verdict; their
witnesses differ in shape, and each must pass the kernel.  Witnesses
must also be reproducible byte for byte and stay small.
"""

import json
import os
import random
import subprocess
import sys
import time

from reference_prover import ReferenceProver

import iplkit
from iplkit.formula import BOT, And, Implies, Or, neg, render, var
from iplkit.proof import Expansion, _children, check, proof_to_json
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


# Reads (premises, goal) texts from stdin and prints the proof JSON of
# each query's witness from a fresh oracle, or null.
WITNESS_CHILD = """
import json, sys
from iplkit.formula import parse
from iplkit.proof import proof_to_json
from iplkit.theories import Oracle, Provable
out = []
for gamma, phi in json.load(sys.stdin):
    v = Oracle().provable([parse(t) for t in gamma], parse(phi))
    out.append(proof_to_json(v.witness) if isinstance(v, Provable) else None)
print(json.dumps(out))
"""


def test_witnesses_do_not_depend_on_hash_seed():
    # the prover orders each sequent's premises; that order, and so the
    # witness, must be the same in every process
    queries = [q for q in named_laws() if len(q[0]) >= 2] + seeded_queries()
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
    assert sum(w is not None for w in json.loads(outputs[0])) >= 20
