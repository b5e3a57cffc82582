"""The one-visit kernel in iplkit.proof against the two-pass kernel kept
in reference_kernel.py.

On oracle witnesses, and on copies of them with swapped subproofs,
premises outside gamma, wrong-shape majors, foreign objects as children
and extra shared subterms, both kernels must give the same conclusion or
raise the same error with the same message and path, and the deduction
theorem must build the same proof.  The kernel looks its conclusions up
in the formula table, so every axiom and rule is also checked over
variables the process has never interned, where each lookup misses.
"""

import itertools
import json

import pytest

from hypothesis import given, settings, strategies as st

import reference_kernel
from test_witnesses import named_laws, seeded_queries

from iplkit import formula
from iplkit.formula import BOT, And, Implies, Or, Variable, postorder, var
from iplkit.proof import (NODE_KINDS, ContractionConj, ContractionDisj,
                          Exfalso, Expansion, Exportation, Importation,
                          ModusPonens, PermutationConj, PermutationDisj,
                          Premise, RuleShapeMismatch, Syllogism,
                          WeakeningConj, WeakeningDisj, _children, check,
                          deduction_theorem, infer_conclusion, proof_to_json)
from iplkit.theories import Oracle, Provable

p0, p1, p9 = var(0), var(1), var(9)

_WITNESSES: list = []


def witnesses() -> list:
    """(gamma, witness) for every provable named law and seeded query,
    built once."""
    if not _WITNESSES:
        oracle = Oracle()
        for gamma, phi in [*named_laws(), *seeded_queries()]:
            verdict = oracle.provable(gamma, phi)
            if isinstance(verdict, Provable):
                _WITNESSES.append((frozenset(gamma), verdict.witness))
    return _WITNESSES


def replaced(proof, target, new):
    """proof with every occurrence of the node target replaced by new,
    each node above it rebuilt and every other node shared."""
    memo = {}
    for node in postorder([proof], _children):
        if node is target:
            memo[id(node)] = new
            continue
        kind = NODE_KINDS.get(type(node))
        kids = kind.children(node) if kind else ()
        new_kids = tuple(memo[id(k)] for k in kids)
        if all(a is b for a, b in zip(new_kids, kids)):
            memo[id(node)] = node
        else:
            memo[id(node)] = type(node)(*kind.formula_values(node), *new_kids)
    return memo[id(proof)]


def corrupt(proof, how: str, i: int, j: int):
    """proof with its i-th distinct node (mod their number) changed by
    one of the corruptions; j picks a second node where one is needed."""
    nodes = postorder([proof], _children)
    target = nodes[i % len(nodes)]
    if how == "swap":
        binary = [n for n in nodes if type(n) in (ModusPonens, Syllogism)]
        if not binary:
            return proof
        target = binary[i % len(binary)]
        return replaced(proof, target, type(target)(*reversed(
            NODE_KINDS[type(target)].children(target))))
    if how == "premise":
        return replaced(proof, target, Premise(p9))
    if how == "major":
        mp = [n for n in nodes if type(n) is ModusPonens]
        if not mp:
            return proof
        target = mp[i % len(mp)]
        major = (Exfalso(p0), WeakeningConj(p1, p0), Premise(p0))[j % 3]
        return replaced(proof, target, ModusPonens(target.minor, major))
    if how == "foreign":
        return replaced(proof, target, (p0, 42, "x", None)[j % 4])
    # "share": another node of the same proof in target's place
    return replaced(proof, target, nodes[j % len(nodes)])


def outcome(run, *args):
    """('ok', result) or (error class, message, path)."""
    try:
        return ("ok", run(*args))
    except Exception as exc:  # compared, whatever it is
        return (type(exc), str(exc), getattr(exc, "path", None))


def wire(proof) -> str:
    return json.dumps(proof_to_json(proof), sort_keys=True)


def assert_same(gamma, proof):
    assert outcome(check, gamma, proof) == \
        outcome(reference_kernel.check, gamma, proof)
    assert outcome(infer_conclusion, proof) == \
        outcome(reference_kernel.infer_conclusion, proof)
    for phi in sorted(gamma, key=str):
        rest = gamma - {phi}
        got = outcome(deduction_theorem, rest, phi, proof)
        want = outcome(reference_kernel.deduction_theorem, rest, phi, proof)
        if got[0] == want[0] == "ok":
            got, want = wire(got[1]), wire(want[1])
        assert got == want


def test_oracle_witnesses_match_reference():
    assert len(witnesses()) >= 40
    for gamma, proof in witnesses():
        assert_same(gamma, proof)


CORRUPTIONS = st.lists(
    st.tuples(st.sampled_from(["swap", "premise", "major", "foreign",
                               "share"]),
              st.integers(0, 10_000), st.integers(0, 10_000)),
    min_size=1, max_size=3)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 10_000), CORRUPTIONS)
def test_corrupted_witnesses_match_reference(k, corruptions):
    gamma, proof = witnesses()[k % len(witnesses())]
    for how, i, j in corruptions:
        proof = corrupt(proof, how, i, j)
    assert_same(gamma, proof)


def test_errors_carry_the_reference_paths():
    # the first failing node in the fold's order, reached through shared
    # and unshared subproofs alike
    shared = Syllogism(Premise(p0), Exfalso(p1))
    cases = [
        Syllogism(shared, ModusPonens(Premise(p1), shared)),
        ModusPonens(Premise(p9), ModusPonens(Premise(BOT), shared)),
        Syllogism(Exfalso(p0), Syllogism(Exfalso(p1), 42)),
        ModusPonens(Premise(Implies(p0, p0)), Premise(p9)),
        # a conclusion that is None must not read as one not yet found
        Syllogism(Premise(None), Exfalso(p0)),
    ]
    for proof in cases:
        for gamma in (frozenset(), frozenset([p0, p1, BOT])):
            assert outcome(check, gamma, proof)[0] != "ok"
            assert_same(gamma, proof)


_INDICES = itertools.count(1_000_000)


def fresh():
    """A variable whose index no formula of this process holds yet."""
    index = next(i for i in _INDICES if (Variable, i) not in formula._TABLE)
    return var(index)


# name -> (premises, proof) from fresh variables a, b, c, d: the
# conclusion of each proof but modus ponens' is a formula not yet
# interned, so each lookup in the formula table misses
NEW_CONCLUSIONS = {
    "contraction_disj": lambda a, b, c, d: ([], ContractionDisj(a)),
    "contraction_conj": lambda a, b, c, d: ([], ContractionConj(a)),
    "weakening_disj": lambda a, b, c, d: ([], WeakeningDisj(a, b)),
    "weakening_conj": lambda a, b, c, d: ([], WeakeningConj(a, b)),
    "permutation_disj": lambda a, b, c, d: ([], PermutationDisj(a, b)),
    "permutation_conj": lambda a, b, c, d: ([], PermutationConj(a, b)),
    "exfalso": lambda a, b, c, d: ([], Exfalso(a)),
    "modus_ponens": lambda a, b, c, d: (
        [a, Implies(a, b)], ModusPonens(Premise(a), Premise(Implies(a, b)))),
    "syllogism": lambda a, b, c, d: (
        [Implies(a, b), Implies(b, c)],
        Syllogism(Premise(Implies(a, b)), Premise(Implies(b, c)))),
    "exportation": lambda a, b, c, d: (
        [Implies(And(a, b), c)], Exportation(Premise(Implies(And(a, b), c)))),
    "importation": lambda a, b, c, d: (
        [Implies(a, Implies(b, c))],
        Importation(Premise(Implies(a, Implies(b, c))))),
    "expansion": lambda a, b, c, d: (
        [Implies(a, b)], Expansion(d, Premise(Implies(a, b)))),
}


def test_every_axiom_and_rule_has_new_conclusions():
    assert sorted(NEW_CONCLUSIONS) == sorted(
        kind.rule for kind in NODE_KINDS.values() if kind.rule != "premise")


@pytest.mark.parametrize("rule", sorted(NEW_CONCLUSIONS))
def test_conclusions_not_yet_interned(rule):
    for run in (check, infer_conclusion):
        gamma, proof = NEW_CONCLUSIONS[rule](fresh(), fresh(), fresh(),
                                             fresh())
        args = (gamma, proof) if run is check else (proof,)
        size = len(formula._TABLE)
        got = run(*args)
        # the kernel ran first, so it built the new conclusion
        assert len(formula._TABLE) > size or rule == "modus_ponens"
        assert got is getattr(reference_kernel, run.__name__)(*args)
        assert_same(frozenset(gamma), proof)


# name -> a node of that rule whose subproofs do not fit it
MISMATCHES = {
    "modus_ponens": [ModusPonens(Premise(p0), Premise(p1)),
                     ModusPonens(Premise(p1), Exfalso(p0))],
    "syllogism": [Syllogism(Premise(p0), Exfalso(p1)),
                  Syllogism(Exfalso(p0), Premise(p1)),
                  Syllogism(Exfalso(p0), Exfalso(p1))],
    "exportation": [Exportation(Premise(p0)), Exportation(Exfalso(p0))],
    "importation": [Importation(Premise(p0)), Importation(Exfalso(p0))],
    "expansion": [Expansion(p1, Premise(p0))],
}


@pytest.mark.parametrize("rule", sorted(MISMATCHES))
def test_shape_mismatch_matches_reference(rule):
    gamma = frozenset([p0, p1])
    for bad in MISMATCHES[rule]:
        # alone, and below two rule nodes beside a shared subproof
        shared = Premise(p0)
        for proof, path in ((bad, ()),
                            (Exportation(ModusPonens(bad, shared)), (0, 0)),
                            (Syllogism(Syllogism(shared, bad), shared),
                             (0, 1))):
            got = outcome(check, gamma, proof)
            assert got[0] is RuleShapeMismatch and got[2] == path
            assert got[1].startswith(f"{rule} does not apply to [")
            assert_same(gamma, proof)
