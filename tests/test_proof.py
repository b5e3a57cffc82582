import copy
import dataclasses
import gc
import json
import os
import pathlib
import pickle
import random
import subprocess
import sys
import typing
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import reference_walks
from test_witnesses import named_laws, schwicht_p

import iplkit
from iplkit.formula import (BOT, And, Implies, Or, neg, parse, postorder,
                            render, var)
from iplkit.proof import (ArityMismatch, CATALOG, ContractionConj,
                          ContractionDisj, Exfalso, Expansion, Exportation,
                          Importation, ModusPonens, NODE_KINDS, Premise,
                          PremiseNotInContext, PermutationConj,
                          ProofError, ProofTerm,
                          PermutationDisj, RuleShapeMismatch, Syllogism,
                          WeakeningConj, WeakeningDisj, _children, and_compose,
                          and_elim_right, and_intro, check, conj_monotone,
                          deduction_theorem, derived, dni, ex_falso_rule,
                          identity, iff_elim_left, iff_elim_right, iff_intro,
                          imp_swap, infer_conclusion, k_axiom, neg_elim,
                          or_elim, or_intro_right, premises, proof_from_json,
                          proof_to_json, s_rule, subst_premise, weaken)
from iplkit.theories import Oracle, Provable

p0, p1, p2 = var(0), var(1), var(2)
GOLDEN = pathlib.Path(__file__).parent / "golden"


class TestCheck:
    def test_premise(self):
        assert check([p0], Premise(p0)) == p0

    def test_axiom_conclusions(self):
        assert check([], ContractionDisj(p0)) == Implies(Or(p0, p0), p0)
        assert check([], ContractionConj(p0)) == Implies(p0, And(p0, p0))
        assert check([], WeakeningDisj(p0, p1)) == Implies(p0, Or(p0, p1))
        assert check([], WeakeningConj(p0, p1)) == Implies(And(p0, p1), p0)
        assert check([], PermutationDisj(p0, p1)) == Implies(Or(p0, p1), Or(p1, p0))
        assert check([], PermutationConj(p0, p1)) == Implies(And(p0, p1), And(p1, p0))
        assert check([], Exfalso(p0)) == Implies(BOT, p0)

    def test_weakening_then_disjunction(self):
        # chained weakenings: from a conjunction into a disjunction
        term = Syllogism(WeakeningConj(p0, p1), WeakeningDisj(p0, p2))
        assert check([], term) == parse("p0 & p1 -> p0 | p2")

    def test_premise_not_in_context(self):
        with pytest.raises(PremiseNotInContext) as err:
            check([], ModusPonens(Premise(p0), Exfalso(p0)))
        assert err.value.formula == p0
        assert err.value.path == (0,)

    def test_shape_mismatch_paths(self):
        bad = Syllogism(WeakeningConj(p0, p1), WeakeningConj(p1, p2))
        with pytest.raises(RuleShapeMismatch) as err:
            check([], bad)
        assert err.value.path == ()
        nested = ModusPonens(Premise(p0), Syllogism(Exfalso(p0), Exfalso(p1)))
        with pytest.raises(RuleShapeMismatch) as err:
            check([p0], nested)
        assert err.value.path == (1,)

    def test_deep_bad_premise_path(self):
        # a premise outside the context 350 rules down, under rules of
        # one and two subproofs, is reported with its whole path
        term, steps = Premise(p1), []
        for i in range(350):
            if i % 2:
                term, step = Exportation(term), 0
            else:
                term, step = ModusPonens(Premise(p0), term), 1
            steps.append(step)
        path = tuple(reversed(steps))
        with pytest.raises(PremiseNotInContext) as err:
            check([p0], term)
        assert err.value.formula == p1
        assert err.value.path == path
        assert str(err.value).endswith(f"(node path {list(path)})")

    def test_rule_conclusions(self):
        assert check([p0, Implies(p0, p1)],
                     ModusPonens(Premise(p0), Premise(Implies(p0, p1)))) == p1
        assert check([], Exportation(WeakeningConj(And(p0, p1), p2))) \
            == Implies(And(p0, p1), Implies(p2, And(p0, p1)))
        assert check([], Importation(k_axiom(p0, p1))) == Implies(And(p0, p1), p0)
        assert check([], Expansion(p2, WeakeningConj(p0, p1))) \
            == Implies(Or(p2, And(p0, p1)), Or(p2, p0))

    def test_deterministic(self):
        term = Syllogism(WeakeningConj(p0, p1), WeakeningDisj(p0, p2))
        assert check([], term) == check([], term)

    def test_unknown_node(self):
        with pytest.raises(ProofError, match="unknown node Variable") as err:
            check([], p0)
        assert err.value.path == ()
        with pytest.raises(ProofError, match="unknown node Variable") as err:
            check([p0], ModusPonens(Premise(p0), p1))
        assert err.value.path == (1,)


ATOMS = [p0, p1, BOT]


def catalog_instances():
    """One checked instance per catalog entry and atom triple; rule-form
    entries get premise proofs built from other entries."""
    for a, b, c in product(ATOMS, repeat=3):
        iff_proof = iff_intro(ContractionConj(a), WeakeningConj(a, a))
        yield ("identity", identity(a), [], Implies(a, a))
        yield ("top_intro", derived("top_intro"), [], Implies(BOT, BOT))
        yield ("k_axiom", k_axiom(a, b), [], Implies(a, Implies(b, a)))
        yield ("imp_chain", derived("imp_chain", a, b, c), [],
               Implies(Implies(b, c),
                       Implies(Implies(a, b), Implies(a, c))))
        yield ("and_elim_right", and_elim_right(a, b), [],
               Implies(And(a, b), b))
        yield ("disj_of_and_elim_left", derived("disj_of_and_elim_left", a, b, c),
               [], Implies(And(a, b), Or(a, c)))
        yield ("or_intro_right", or_intro_right(a, b), [], Implies(b, Or(a, b)))
        yield ("and_assoc_left", derived("and_assoc_left", a, b, c), [],
               Implies(And(And(a, b), c), And(a, And(b, c))))
        yield ("and_assoc_right", derived("and_assoc_right", a, b, c), [],
               Implies(And(a, And(b, c)), And(And(a, b), c)))
        yield ("distrib_and_or", derived("distrib_and_or", a, b, c), [],
               Implies(And(a, Or(b, c)), Or(And(a, b), And(a, c))))
        yield ("dni", dni(a), [], Implies(a, neg(neg(a))))
        yield ("and_intro", and_intro(identity(a), dni(b)), [],
               And(Implies(a, a), Implies(b, neg(neg(b)))))
        yield ("or_elim", or_elim(WeakeningDisj(a, b), or_intro_right(a, b)),
               [], Implies(Or(a, b), Or(a, b)))
        yield ("conj_monotone", conj_monotone(c, WeakeningConj(a, b)), [],
               Implies(And(c, And(a, b)), And(c, a)))
        yield ("conj_monotone_left",
               derived("conj_monotone_left", c, WeakeningConj(a, b)), [],
               Implies(And(And(a, b), c), And(a, c)))
        yield ("and_compose",
               and_compose(WeakeningConj(a, b), and_elim_right(a, b)), [],
               Implies(And(a, b), And(a, b)))
        yield ("imp_swap", imp_swap(k_axiom(a, b)), [],
               Implies(b, Implies(a, a)))
        yield ("s_rule", s_rule(identity(a), k_axiom(a, a)), [],
               Implies(a, a))
        yield ("neg_elim", neg_elim(Premise(a), Premise(neg(a))),
               [a, neg(a)], BOT)
        yield ("ex_falso_rule", ex_falso_rule(Premise(BOT), a), [BOT], a)
        yield ("iff_intro", iff_proof, [],
               And(Implies(a, And(a, a)), Implies(And(a, a), a)))
        yield ("iff_elim_left", iff_elim_left(iff_proof), [],
               Implies(a, And(a, a)))
        yield ("iff_elim_right", iff_elim_right(iff_proof), [],
               Implies(And(a, a), a))


class TestCatalog:
    def test_at_least_fifteen_entries(self):
        assert len(CATALOG) >= 15

    def test_every_instance_checks_with_advertised_conclusion(self):
        names = set()
        for name, proof, gamma, expected in catalog_instances():
            assert check(gamma, proof) == expected, name
            names.add(name)
        assert names == set(CATALOG)

    def test_identity_structure_matches_contraction_weakening(self):
        assert identity(p0) == Syllogism(ContractionConj(p0),
                                         WeakeningConj(p0, p0))

    def test_derived_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            derived("identity", p0, p1)
        with pytest.raises(ArityMismatch):
            derived("no_such_rule")

    def test_rule_shape_rejections(self):
        with pytest.raises(RuleShapeMismatch):
            neg_elim(Premise(p0), Premise(p1))
        with pytest.raises(RuleShapeMismatch):
            or_elim(WeakeningDisj(p0, p1), WeakeningDisj(p1, p2))

    def test_golden_files(self):
        files = sorted(GOLDEN.glob("*.json"))
        assert {f.stem for f in files} == set(CATALOG)
        for path in files:
            doc = json.loads(path.read_text())
            proof = proof_from_json(doc["proof"])
            gamma = [parse(g) for g in doc["premises"]]
            assert render(check(gamma, proof)) == doc["conclusion"], path.stem


class TestDeductionTheorem:
    def test_self_premise(self):
        q = deduction_theorem([], p0, Premise(p0))
        assert check([], q) == Implies(p0, p0)

    def test_modus_ponens_case(self):
        q = deduction_theorem([], p0,
                              ModusPonens(Premise(p0), ContractionConj(p0)))
        assert check([], q) == Implies(p0, And(p0, p0))

    def test_side_premise(self):
        q = deduction_theorem([p1], p0, Premise(p1))
        assert check([p1], q) == Implies(p0, p1)

    def corpus(self):
        gamma = [p1, Implies(p0, p1)]
        return [
            ([], p0, Premise(p0)),
            ([], p0, ContractionDisj(p1)),
            ([], p0, Exfalso(p0)),
            ([p1], p0, Premise(p1)),
            ([p1], p0, ModusPonens(Premise(p0), ContractionConj(p0))),
            ([], p0, ModusPonens(Premise(p0), dni(p0))),
            ([], p0, Syllogism(ContractionConj(p0), WeakeningConj(p0, p0))),
            ([], p0, Syllogism(ContractionConj(p1), and_elim_right(p1, p1))),
            ([], p0, Exportation(WeakeningConj(And(p0, p1), p2))),
            ([], p0, Importation(k_axiom(p0, p1))),
            ([], p0, Expansion(p2, WeakeningConj(p0, p1))),
            ([Implies(p1, p0)], p1, Expansion(p1, Premise(Implies(p1, p0)))),
            (gamma, p0, ModusPonens(Premise(p0), Premise(Implies(p0, p1)))),
            (gamma, p0, and_intro(Premise(p1), Premise(p0))),
            (gamma, p0, or_elim(Premise(Implies(p0, p1)), identity(p1))),
            ([], Implies(p0, p1), imp_swap(k_axiom(Implies(p0, p1), p2))),
            ([], And(p0, p1), ModusPonens(Premise(And(p0, p1)),
                                          WeakeningConj(p0, p1))),
            ([], And(p0, p1), ModusPonens(Premise(And(p0, p1)),
                                          and_elim_right(p0, p1))),
            ([], Or(p0, p1), ModusPonens(Premise(Or(p0, p1)),
                                         PermutationDisj(p0, p1))),
            ([p2], BOT, ex_falso_rule(Premise(BOT), p1)),
            ([], neg(p0), imp_swap(identity(neg(p0)))),
            ([], p0, s_rule(identity(p1), k_axiom(p1, p1))),
        ]

    def test_corpus_round_trip(self):
        cases = self.corpus()
        assert len(cases) >= 20
        for gamma, phi, proof in cases:
            psi = check(list(gamma) + [phi], proof)
            q = deduction_theorem(gamma, phi, proof)
            assert check(gamma, q) == Implies(phi, psi)

    def test_requires_checkable_input(self):
        with pytest.raises(PremiseNotInContext):
            deduction_theorem([], p0, Premise(p1))

    def test_premise_also_in_gamma(self):
        q = deduction_theorem([p0], p0, Premise(p0))
        assert check([p0], q) == Implies(p0, p0)
        assert check([], q) == Implies(p0, p0)


class TestWeaken:
    def test_grows_context(self):
        assert check([p0, p1], weaken([p0], [p0, p1], Premise(p0))) == p0

    def test_closed_term(self):
        term = Exfalso(p1)
        assert weaken([], [p0], term) is term
        assert check([p0], term) == Implies(BOT, p1)

    def test_reflexive(self):
        assert weaken([p0], [p0], Premise(p0)) == Premise(p0)

    def test_rejects_shrinking(self):
        with pytest.raises(ValueError):
            weaken([p0], [], Premise(p0))


class TestPremises:
    def test_closed_term(self):
        assert premises(identity(p0)) == frozenset()

    def test_each_premise_once(self):
        mp = ModusPonens(Premise(p0), Premise(Implies(p0, p1)))
        term = ModusPonens(mp, ModusPonens(Premise(p1), k_axiom(p1, p0)))
        assert premises(term) == {p0, p1, Implies(p0, p1)}

    def test_least_context_that_checks(self):
        term = ModusPonens(Premise(p0), Premise(Implies(p0, p1)))
        assert check(premises(term), term) == p1
        for dropped in premises(term):
            with pytest.raises(PremiseNotInContext):
                check(premises(term) - {dropped}, term)


class TestJson:
    def test_round_trip(self):
        term = Expansion(p2, Syllogism(WeakeningConj(p0, p1),
                                       WeakeningDisj(p0, p2)))
        assert proof_from_json(proof_to_json(term)) == term

    def test_rule_names(self):
        doc = proof_to_json(ModusPonens(Premise(p0), Exfalso(p0)))
        assert doc["rule"] == "modus_ponens"
        assert [s["rule"] for s in doc["subproofs"]] == ["premise", "exfalso"]
        assert doc["subproofs"][0]["formulas"] == ["p0"]

    def test_rejects_unknown_rule(self):
        with pytest.raises(ValueError):
            proof_from_json({"rule": "cut", "formulas": [], "subproofs": []})

    def test_rejects_bad_arity(self):
        with pytest.raises(ValueError):
            proof_from_json({"rule": "premise", "formulas": [], "subproofs": []})

    @pytest.mark.parametrize("doc", [
        {"rule": ["x"], "formulas": [], "subproofs": []},
        {"rule": "premise", "formulas": [5], "subproofs": []},
        {"rule": "premise", "formulas": 5, "subproofs": []},
        {"rule": "exportation", "formulas": [], "subproofs": 5},
    ])
    def test_rejects_members_of_the_wrong_type(self, doc):
        with pytest.raises(ValueError):
            proof_from_json(doc)


def json_outcome(reader, doc):
    """The term read from doc, or the type and message of the error."""
    try:
        return "proof", reader(doc)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def json_nodes(doc) -> list:
    """Every object of the document, in preorder."""
    out, stack = [], [doc]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(node["subproofs"]))
    return out


BREAKS = [
    lambda node: node.update(rule="cut"),
    lambda node: node.update(rule=["x"]),
    lambda node: node.pop("rule"),
    lambda node: node.pop("formulas"),
    lambda node: node.update(formulas=node["formulas"] + ["p0"]),
    lambda node: node.update(formulas=[5]),
    lambda node: node.update(formulas="p0"),
    lambda node: node.update(formulas=["p0 &"]),
    lambda node: node.update(subproofs=5),
    lambda node: node["subproofs"].append(
        {"rule": "premise", "formulas": ["p1"], "subproofs": []}),
    lambda node: node["subproofs"].insert(0, 7),
    lambda node: node["subproofs"].clear(),
]


class TestJsonMatchesReference:
    """The explicit-stack reader against the recursive one: the same
    term, or the same error type and message, the first one met."""

    def docs(self):
        for gamma, goal in named_laws():
            yield proof_to_json(Oracle().provable(gamma, goal).witness)

    def test_valid_documents(self):
        for doc in self.docs():
            got = json_outcome(proof_from_json, doc)
            assert got[0] == "proof"
            assert got == json_outcome(reference_walks.proof_from_json, doc)

    def test_malformed_documents(self):
        rng = random.Random(3)
        docs = list(self.docs())
        seen = set()
        for _ in range(1000):
            doc = copy.deepcopy(rng.choice(docs))
            # several broken nodes, so that which error comes first counts
            nodes = json_nodes(doc)
            for node in rng.sample(nodes, min(len(nodes), rng.randint(1, 3))):
                rng.choice(BREAKS)(node)
            got = json_outcome(proof_from_json, doc)
            assert got == json_outcome(reference_walks.proof_from_json, doc)
            seen.add(got[1].split(":")[0] if got[0] != "proof" else "proof")
        assert len(seen) > 8

    def test_deep_round_trip(self):
        # the 3000-step modus ponens chain; the recursive reader raised
        # RecursionError on it
        n = 3000
        gamma = [p0] + [Implies(var(i), var(i + 1)) for i in range(n)]
        witness = Oracle().provable(gamma, var(n)).witness
        back = proof_from_json(proof_to_json(witness))
        assert check(gamma, back) == var(n)
        assert back == witness
        assert repr(back) == repr(witness)


# Terms of all thirteen kinds; neither the JSON format nor subst_premise
# checks them, so they need not be well typed.
FORMULAS = st.recursive(
    st.sampled_from([p0, p1, BOT]),
    lambda sub: st.one_of(st.builds(And, sub, sub), st.builds(Or, sub, sub),
                          st.builds(Implies, sub, sub)),
    max_leaves=4)
TERMS = st.recursive(
    st.one_of(*(st.builds(cls, FORMULAS) for cls in
                (Premise, ContractionDisj, ContractionConj, Exfalso)),
              *(st.builds(cls, FORMULAS, FORMULAS) for cls in
                (WeakeningDisj, WeakeningConj, PermutationDisj,
                 PermutationConj))),
    lambda sub: st.one_of(st.builds(ModusPonens, sub, sub),
                          st.builds(Syllogism, sub, sub),
                          st.builds(Exportation, sub),
                          st.builds(Importation, sub),
                          st.builds(Expansion, FORMULAS, sub)),
    max_leaves=8)


class TestNodeKinds:
    def test_one_entry_per_proof_term_class(self):
        assert tuple(NODE_KINDS) == typing.get_args(ProofTerm)

    def test_fields_are_formulas_then_subproofs(self):
        for cls, kind in NODE_KINDS.items():
            names = tuple(f.name for f in dataclasses.fields(cls))
            assert names == kind.formulas + kind.subproofs
            axiom = cls is not Premise and not kind.subproofs
            assert (kind.conclusion is not None) == axiom

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(TERMS)
    def test_json_round_trip(self, term):
        doc = json.loads(json.dumps(proof_to_json(term)))
        assert proof_from_json(doc) == term

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(TERMS, st.sampled_from([p0, p1, BOT]), TERMS)
    def test_subst_premise_matches_reference(self, term, target, replacement):
        assert subst_premise(term, target, replacement) == \
            reference_subst(term, target, replacement)


    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(TERMS, TERMS, st.sampled_from([p0, p1, BOT]), TERMS)
    def test_eq_and_hash_match_reference(self, term, other, target,
                                         replacement):
        changed = subst_premise(term, target, replacement)
        twin = proof_from_json(proof_to_json(term))
        for a, b in ((term, other), (term, changed), (term, twin)):
            assert (a == b) == reference_eq(a, b)
            assert (a != b) == (not reference_eq(a, b))
        assert twin == term and hash(twin) == hash(term)
        # the dataclass hash: that of the tuple of the fields
        for node in postorder([term], _children):
            assert hash(node) == hash(tuple(
                getattr(node, f.name) for f in dataclasses.fields(node)))


def reference_eq(a, b) -> bool:
    """The dataclass == by recursion over the fields."""
    if type(a) is not type(b) or not dataclasses.is_dataclass(a):
        return a == b
    return all(reference_eq(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(a))


def reference_subst(term, target, replacement):
    """subst_premise by recursion over the dataclass fields."""
    if term == Premise(target):
        return replacement
    return dataclasses.replace(term, **{
        f.name: reference_subst(getattr(term, f.name), target, replacement)
        for f in dataclasses.fields(term)
        if type(getattr(term, f.name)) in typing.get_args(ProofTerm)})


class TestSubstPremise:
    def test_replaces_uses(self):
        term = ModusPonens(Premise(p0), ContractionConj(p0))
        replaced = subst_premise(term, p0,
                                 ModusPonens(Premise(BOT), Exfalso(p0)))
        assert check([BOT], replaced) == And(p0, p0)

    def test_untouched_term_is_shared(self):
        term = Syllogism(ContractionConj(p0), WeakeningConj(p0, p0))
        assert subst_premise(term, p1, Premise(p1)) is term

    def test_rebuilds_every_compound_kind(self):
        hole, filled = Premise(p0), Exfalso(p2)
        before = [ModusPonens(hole, Exfalso(p1)), Syllogism(Exfalso(p1), hole),
                  Exportation(hole), Importation(hole), Expansion(p1, hole)]
        after = [ModusPonens(filled, Exfalso(p1)),
                 Syllogism(Exfalso(p1), filled), Exportation(filled),
                 Importation(filled), Expansion(p1, filled)]
        assert [subst_premise(t, p0, filled) for t in before] == after


class TestInfer:
    def test_matches_check_when_premises_allowed(self):
        term = and_intro(Premise(p0), Premise(p1))
        assert infer_conclusion(term) == check([p0, p1], term)


class TestDeepProofs:
    def test_3000_deep_syllogism_chain(self):
        # the kernel, the path it reports on failure and the deduction
        # theorem all walk explicit stacks
        a = Implies(p0, p0)
        term = Premise(a)
        for _ in range(3000):
            term = Syllogism(term, Premise(a))
        assert check([a], term) == a
        assert infer_conclusion(term) == a
        q = deduction_theorem([], a, term)
        assert check([], q) == Implies(a, a)
        bad = Premise(p1)
        for _ in range(3000):
            bad = Syllogism(bad, Premise(a))
        with pytest.raises(PremiseNotInContext) as err:
            check([a], bad)
        assert err.value.path == (0,) * 3000


def one_of_each():
    """(class, field names, field values, node) for every node kind; the
    subproof fields all hold one shared Premise."""
    sub = Premise(p1)
    for cls, kind in NODE_KINDS.items():
        names = kind.formulas + kind.subproofs
        values = [p0] * len(kind.formulas) + [sub] * len(kind.subproofs)
        yield cls, names, values, cls(*values)


def reference_repr(value) -> str:
    """The dataclass repr of a proof node, by recursion over its fields."""
    if type(value) not in NODE_KINDS:
        return repr(value)
    return f"{type(value).__qualname__}(" + ", ".join(
        f"{f.name}={reference_repr(getattr(value, f.name))}"
        for f in dataclasses.fields(value)) + ")"


def tree_size(proof) -> int:
    """The number of nodes of the proof written out as a tree."""
    size: dict = {}
    for node in postorder([proof], _children):
        size[id(node)] = 1 + sum(size[id(k)] for k in _children(node))
    return size[id(proof)]


def law_witnesses() -> list:
    oracle = Oracle()
    verdicts = [oracle.provable(gamma, phi) for gamma, phi in named_laws()]
    return [v.witness for v in verdicts if isinstance(v, Provable)]


class TestNodeConstructors:
    # the kernel module makes each node class's __init__ and __repr__;
    # the classes must still behave as the frozen dataclasses they are

    def test_keyword_and_positional_construction(self):
        for cls, names, values, node in one_of_each():
            assert cls(**dict(zip(names, values))) == node
            assert [getattr(node, name) for name in names] == values
            assert vars(node) == dict(zip(names, values))
            assert [f.name for f in dataclasses.fields(node)] == list(names)
            with pytest.raises(TypeError):
                cls(*values, p0)
            with pytest.raises(TypeError):
                cls(*values[1:])
            with pytest.raises(TypeError):
                cls(*values, **{names[0]: p2})

    def test_replace(self):
        for cls, names, values, node in one_of_each():
            changed = dataclasses.replace(node, **{names[0]: p2})
            assert type(changed) is cls
            assert changed == cls(p2, *values[1:])
            assert dataclasses.replace(node) == node

    def test_frozen(self):
        for cls, names, values, node in one_of_each():
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, names[0], p2)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(node, names[-1])
            with pytest.raises(dataclasses.FrozenInstanceError):
                node.extra = 1
            assert vars(node) == dict(zip(names, values))

    def test_eq_and_hash(self):
        for cls, names, values, node in one_of_each():
            twin = cls(*values)
            assert twin == node and twin is not node
            assert hash(twin) == hash(node) == hash(tuple(values))
        assert ContractionDisj(p0) != Exfalso(p0)
        assert ModusPonens(Premise(p0), Premise(p1)) != \
            ModusPonens(Premise(p1), Premise(p0))
        assert len({Premise(p0), Premise(p0), Premise(p1)}) == 2

    def test_pickle_and_copy(self):
        for witness in law_witnesses():
            for twin in (pickle.loads(pickle.dumps(witness)),
                         copy.copy(witness), copy.deepcopy(witness)):
                assert twin == witness
                assert proof_to_json(twin) == proof_to_json(witness)
                assert infer_conclusion(twin) is infer_conclusion(witness)

    def test_deep_witness_copies_as_itself(self):
        # 3000 modus ponens steps deep; deepcopy walked the fields and
        # raised RecursionError
        n = 3000
        gamma = [p0] + [Implies(var(i), var(i + 1)) for i in range(n)]
        witness = Oracle().provable(gamma, var(n)).witness
        assert copy.copy(witness) is witness
        assert copy.deepcopy(witness) is witness
        assert copy.deepcopy([witness])[0] is witness

    def test_deep_witness_pickles(self):
        # 3000 modus ponens steps deep; pickling walked the fields and
        # raised RecursionError
        n = 3000
        gamma = [p0] + [Implies(var(i), var(i + 1)) for i in range(n)]
        witness = Oracle().provable(gamma, var(n)).witness
        twin = pickle.loads(pickle.dumps(witness))
        assert twin is not witness and twin == witness
        assert check(gamma, twin) is var(n)

    def test_pickle_keeps_shared_subproofs_shared(self):
        shared = ModusPonens(Premise(p0), Premise(Implies(p0, p1)))
        proof = and_intro(shared, shared)
        witness = Oracle().provable([], schwicht_p(8)).witness
        for original in (proof, witness):
            twin = pickle.loads(pickle.dumps(original))
            nodes = postorder([twin], _children)
            assert twin == original
            assert len(nodes) == len(postorder([original], _children))
            assert tree_size(twin) == tree_size(original) > len(nodes)
        twin = pickle.loads(pickle.dumps(proof))
        assert len([node for node in postorder([twin], _children)
                    if node == shared]) == 1

    def test_pickle_keeps_values_that_are_not_nodes(self):
        node = ModusPonens(Premise(p0), None)
        assert pickle.loads(pickle.dumps(node)) == node

    def test_deep_witness_eq_and_hash(self):
        # 3000 modus ponens steps deep; the dataclass == and hash recursed
        # once per step and raised RecursionError
        n = 3000
        gamma = [p0] + [Implies(var(i), var(i + 1)) for i in range(n)]
        witness = Oracle().provable(gamma, var(n)).witness
        twin = proof_from_json(proof_to_json(witness))
        assert twin is not witness and twin == witness
        assert hash(twin) == hash(witness) == \
            hash((witness.minor, witness.major))
        # the deepest leaf differs
        other = subst_premise(witness, p0, Exfalso(p0))
        assert other != witness and not other == witness
        assert len({witness, twin, other}) == 2

    def test_a_node_is_one_gc_tracked_object(self):
        # the fields live in the instance, with no dict of their own
        sub = Premise(p0)
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = len(gc.get_objects())
            nodes = [ModusPonens(sub, sub) for _ in range(10_000)]
            added = len(gc.get_objects()) - before
        finally:
            if enabled:
                gc.enable()
        assert len(nodes) == 10_000
        assert 10_000 <= added < 10_500


class TestRepr:
    def test_dataclass_text(self):
        v0 = "Variable(var=Var(index=0))"
        assert repr(ModusPonens(Premise(p0), Exfalso(p0))) == \
            f"ModusPonens(minor=Premise(formula={v0}), " \
            f"major=Exfalso(formula={v0}))"
        assert repr(Expansion(p0, 42)) == f"Expansion(disjunct={v0}, sub=42)"
        assert repr(Exportation("x")) == "Exportation(sub='x')"
        for node in (*(node for *_, node in one_of_each()),
                     Premise(None), Syllogism(Exfalso(p0), [Premise(p1)])):
            assert repr(node) == reference_repr(node)

    def test_witnesses_match_reference(self):
        for witness in law_witnesses():
            assert repr(witness) == reference_repr(witness)

    def test_deep_verdict(self):
        # 3000 modus ponens steps deep; the dataclass repr recursed once
        # per step and raised RecursionError
        n = 3000
        gamma = [p0] + [Implies(var(i), var(i + 1)) for i in range(n)]
        text = repr(Oracle().provable(gamma, var(n)))
        assert text.startswith("Provable(witness=ModusPonens(minor=")
        assert text.count("ModusPonens(") == n
        assert text.count("Premise(") == n + 1


class TestNodeProtocol:
    """Formulas and proof terms share one node protocol: one pickle
    program, one copy rule and one repr, also where the families nest."""

    def test_a_fresh_process_rebuilds_a_witness(self):
        chain = [p0] + [Implies(var(i), var(i + 1)) for i in range(40)]
        queries = [([], schwicht_p(8)), (chain, var(40))]
        cases = [(gamma, Oracle().provable(gamma, phi).witness)
                 for gamma, phi in queries]
        child = ("import pickle, sys\n"
                 "from iplkit.formula import postorder, render\n"
                 "from iplkit.proof import _children, check\n"
                 "for gamma, witness in pickle.loads(sys.stdin.buffer.read()):\n"
                 "    print(render(check(gamma, witness)),\n"
                 "          len(postorder([witness], _children)))\n")
        src = str(pathlib.Path(iplkit.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", child],
                             input=pickle.dumps(cases), capture_output=True,
                             env=dict(os.environ, PYTHONPATH=src),
                             timeout=60, check=True)
        assert out.stdout.decode() == "".join(
            f"{render(phi)} {len(postorder([witness], _children))}\n"
            for (_, phi), (_, witness) in zip(queries, cases))

    def test_a_premise_over_a_deep_formula(self):
        phi = p1
        for _ in range(3000):
            phi = Implies(p0, phi)
        node = Premise(phi)
        twin = pickle.loads(pickle.dumps(node))
        assert twin == node and twin is not node and twin.formula is phi
        assert copy.copy(node) is node and copy.deepcopy(node) is node
        assert repr(node) == f"Premise(formula={phi!r})"
        assert repr(node).count("Implies(") == 3000
