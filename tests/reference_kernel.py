"""The two-pass proof kernel, kept as a test reference.

Each node is pushed twice, with a (parent link, index) pair per child, so
every node carries its root-to-node path; each entry of the table holds
the node, its conclusion and the frozenset of the premises used below it,
which the deduction theorem reads to find the nodes above Premise(phi).
iplkit.proof checks the same proofs with one entry per node and recovers
a path only when a check fails.  The axiom schemas are written here with
the formula constructors; iplkit.proof looks its conclusions up in the
formula table instead.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Optional

from iplkit.formula import And, BOT, Formula, Implies, Or, postorder
from iplkit.proof import (NODE_KINDS, ContractionConj, ContractionDisj,
                          Exfalso, Exportation, Importation, ModusPonens,
                          PermutationConj, PermutationDisj, Premise,
                          ProofError, ProofTerm, PremiseNotInContext,
                          RuleShapeMismatch, Syllogism, WeakeningConj,
                          WeakeningDisj, _and_compose, _children,
                          _conj_monotone, _or_elim, _s_rule, and_assoc_left,
                          and_assoc_right, and_elim_right, distrib_and_or,
                          identity, k_axiom, or_intro_right)

_NO_PREMISES: frozenset = frozenset()

# axiom class -> its conclusion from the node's fields, in field order
SCHEMAS = {
    ContractionDisj: lambda f: Implies(Or(f, f), f),
    ContractionConj: lambda f: Implies(f, And(f, f)),
    WeakeningDisj: lambda a, b: Implies(a, Or(a, b)),
    WeakeningConj: lambda a, b: Implies(And(a, b), a),
    PermutationDisj: lambda a, b: Implies(Or(a, b), Or(b, a)),
    PermutationConj: lambda a, b: Implies(And(a, b), And(b, a)),
    Exfalso: lambda f: Implies(BOT, f),
}


def _union(a: frozenset, b: frozenset) -> frozenset:
    """a | b, reusing an operand that already holds the other."""
    return a if b <= a else b if a <= b else a | b


def _path(link) -> tuple:
    """Root-to-node child indices from a (parent link, index) chain."""
    out = []
    while link is not None:
        link, i = link
        out.append(i)
    return tuple(reversed(out))


def _conclusion_map(proof: ProofTerm, gamma: Optional[frozenset]) -> dict:
    """Post-order fold giving id(node) -> (node, conclusion, free premises).

    Shared subterms are checked once, so DAG-shaped proofs stay linear.
    Each entry holds its node, so no id is reused while the table lives.
    With gamma=None, premise membership is not enforced (pure shape
    inference).
    """
    out: dict = {}
    stack = [(proof, None, None)]
    while stack:
        node, link, kids = stack.pop()
        if id(node) in out:
            continue
        if kids is None:
            kids = _children(node)
            stack.append((node, link, kids))
            for i, child in enumerate(kids):
                stack.append((child, (link, i), None))
            continue
        kind = NODE_KINDS.get(type(node))
        if kind is None:
            raise ProofError(f"unknown node {type(node).__name__}",
                             _path(link))
        if type(node) in SCHEMAS:
            concl = SCHEMAS[type(node)](*(getattr(node, f.name)
                                          for f in fields(node)))
            free = _NO_PREMISES
        elif type(node) is Premise:
            if gamma is not None and node.formula not in gamma:
                raise PremiseNotInContext(node.formula, _path(link))
            concl, free = node.formula, frozenset((node.formula,))
        elif type(node) is ModusPonens:
            _, minor, f1 = out[id(node.minor)]
            _, major, f2 = out[id(node.major)]
            if not (isinstance(major, Implies) and major.lhs == minor):
                raise RuleShapeMismatch(kind.rule, (minor, major), _path(link))
            concl, free = major.rhs, _union(f1, f2)
        elif type(node) is Syllogism:
            _, first, f1 = out[id(node.first)]
            _, second, f2 = out[id(node.second)]
            if not (isinstance(first, Implies) and isinstance(second, Implies)
                    and first.rhs == second.lhs):
                raise RuleShapeMismatch(kind.rule, (first, second),
                                        _path(link))
            concl, free = Implies(first.lhs, second.rhs), _union(f1, f2)
        elif type(node) is Exportation:
            _, sub, free = out[id(node.sub)]
            if not (isinstance(sub, Implies) and isinstance(sub.lhs, And)):
                raise RuleShapeMismatch(kind.rule, (sub,), _path(link))
            concl = Implies(sub.lhs.lhs, Implies(sub.lhs.rhs, sub.rhs))
        elif type(node) is Importation:
            _, sub, free = out[id(node.sub)]
            if not (isinstance(sub, Implies) and isinstance(sub.rhs, Implies)):
                raise RuleShapeMismatch(kind.rule, (sub,), _path(link))
            concl = Implies(And(sub.lhs, sub.rhs.lhs), sub.rhs.rhs)
        else:  # Expansion
            _, sub, free = out[id(node.sub)]
            if not isinstance(sub, Implies):
                raise RuleShapeMismatch(kind.rule, (sub,), _path(link))
            concl = Implies(Or(node.disjunct, sub.lhs),
                            Or(node.disjunct, sub.rhs))
        out[id(node)] = (node, concl, free)
    return out


def check(gamma, proof: ProofTerm) -> Formula:
    """Conclusion of proof relative to the premise set gamma."""
    gamma = frozenset(gamma)
    return _conclusion_map(proof, gamma)[id(proof)][1]


def infer_conclusion(proof: ProofTerm) -> Formula:
    """Conclusion shape of proof, ignoring premise membership."""
    return _conclusion_map(proof, None)[id(proof)][1]


def deduction_theorem(gamma, phi: Formula, proof: ProofTerm) -> ProofTerm:
    """Transform a proof of gamma, phi |- psi into one of gamma |- phi -> psi."""
    gamma = frozenset(gamma)
    return _deduce(phi, proof, _conclusion_map(proof, gamma | {phi}))


def _deduce(phi: Formula, proof: ProofTerm, table: dict) -> ProofTerm:
    """Core of the deduction theorem; table is the _conclusion_map of
    proof, whose shapes are taken as good.

    Subtrees that never mention the discharged premise are kept intact
    and prefixed with a K-style wrapper, so only the spine touching
    Premise(phi) is rebuilt, and only that spine is walked.
    """
    def spine(node) -> tuple:
        return _children(node) if phi in table[id(node)][2] else ()

    memo: dict = {}
    for node in postorder([proof], spine):
        _, concl, free = table[id(node)]
        if phi not in free:
            memo[id(node)] = ModusPonens(node, k_axiom(concl, phi))
            continue
        if isinstance(node, Premise):
            # phi is free here, so this is the discharged premise itself
            out = identity(phi)
        elif isinstance(node, ModusPonens):
            major = table[id(node.major)][1]
            out = _s_rule(phi, major.lhs, major.rhs,
                          memo[id(node.minor)], memo[id(node.major)])
        elif isinstance(node, Syllogism):
            c1 = table[id(node.first)][1]
            c2 = table[id(node.second)][1]
            alpha, beta, gam = c1.lhs, c1.rhs, c2.rhs
            imp1 = Importation(memo[id(node.first)])
            imp2 = Importation(memo[id(node.second)])
            mono = _conj_monotone(phi, And(phi, alpha), beta, imp1)
            dup = _and_compose(And(phi, alpha), phi, And(phi, alpha),
                               WeakeningConj(phi, alpha),
                               identity(And(phi, alpha)))
            out = Exportation(Syllogism(dup, Syllogism(mono, imp2)))
        elif isinstance(node, Exportation):
            c = table[id(node.sub)][1]
            alpha, beta = c.lhs.lhs, c.lhs.rhs
            core = Syllogism(and_assoc_left(phi, alpha, beta),
                             Importation(memo[id(node.sub)]))
            out = Exportation(Exportation(core))
        elif isinstance(node, Importation):
            c = table[id(node.sub)][1]
            alpha, beta = c.lhs, c.rhs.lhs
            core = Syllogism(and_assoc_right(phi, alpha, beta),
                             Importation(Importation(memo[id(node.sub)])))
            out = Exportation(core)
        else:
            c = table[id(node.sub)][1]
            alpha, beta, chi = c.lhs, c.rhs, node.disjunct
            imp = Importation(memo[id(node.sub)])
            v1 = Syllogism(and_elim_right(phi, chi), WeakeningDisj(chi, beta))
            v2 = Syllogism(imp, or_intro_right(chi, beta))
            core = Syllogism(distrib_and_or(phi, chi, alpha),
                             _or_elim(And(phi, chi), And(phi, alpha),
                                      Or(chi, beta), v1, v2))
            out = Exportation(core)
        memo[id(node)] = out
    return memo[id(proof)]
