"""Hilbert-style proof objects and their checker.

A proof term is an explicit derivation tree.  Axiom nodes carry the
formulas that instantiate their schema, so checking is a total fold that
either returns the conclusion or reports the offending node by its
root-to-node child-index path.  On top of the thirteen primitive node
kinds the module provides a catalog of derived rules (every entry builds
a term the checker accepts) and the deduction theorem as a proof
transformation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .formula import And, BOT, Formula, Implies, Or, parse, render


@dataclass(frozen=True)
class Premise:
    formula: Formula


@dataclass(frozen=True)
class ContractionDisj:
    formula: Formula


@dataclass(frozen=True)
class ContractionConj:
    formula: Formula


@dataclass(frozen=True)
class WeakeningDisj:
    first: Formula
    second: Formula


@dataclass(frozen=True)
class WeakeningConj:
    first: Formula
    second: Formula


@dataclass(frozen=True)
class PermutationDisj:
    first: Formula
    second: Formula


@dataclass(frozen=True)
class PermutationConj:
    first: Formula
    second: Formula


@dataclass(frozen=True)
class Exfalso:
    formula: Formula


@dataclass(frozen=True)
class ModusPonens:
    minor: "ProofTerm"
    major: "ProofTerm"


@dataclass(frozen=True)
class Syllogism:
    first: "ProofTerm"
    second: "ProofTerm"


@dataclass(frozen=True)
class Exportation:
    sub: "ProofTerm"


@dataclass(frozen=True)
class Importation:
    sub: "ProofTerm"


@dataclass(frozen=True)
class Expansion:
    disjunct: Formula
    sub: "ProofTerm"


ProofTerm = Union[
    Premise, ContractionDisj, ContractionConj, WeakeningDisj, WeakeningConj,
    PermutationDisj, PermutationConj, Exfalso, ModusPonens, Syllogism,
    Exportation, Importation, Expansion,
]

_AXIOM_TYPES = (
    ContractionDisj, ContractionConj, WeakeningDisj, WeakeningConj,
    PermutationDisj, PermutationConj, Exfalso,
)

_NO_PREMISES: frozenset = frozenset()


class ProofError(Exception):
    """Checking failure; carries the root-to-node child-index path."""

    def __init__(self, message: str, path: tuple):
        super().__init__(f"{message} (node path {list(path)})")
        self.path = tuple(path)


class PremiseNotInContext(ProofError):
    def __init__(self, formula: Formula, path: tuple):
        super().__init__(f"premise {render(formula)!r} not in context", path)
        self.formula = formula


class RuleShapeMismatch(ProofError):
    def __init__(self, rule: str, found: tuple, path: tuple):
        shapes = ", ".join(render(f) for f in found)
        super().__init__(f"{rule} does not apply to [{shapes}]", path)
        self.rule = rule
        self.found = found


class ArityMismatch(ValueError):
    pass


def _axiom_conclusion(node) -> Formula:
    if isinstance(node, ContractionDisj):
        f = node.formula
        return Implies(Or(f, f), f)
    if isinstance(node, ContractionConj):
        f = node.formula
        return Implies(f, And(f, f))
    if isinstance(node, WeakeningDisj):
        return Implies(node.first, Or(node.first, node.second))
    if isinstance(node, WeakeningConj):
        return Implies(And(node.first, node.second), node.first)
    if isinstance(node, PermutationDisj):
        return Implies(Or(node.first, node.second), Or(node.second, node.first))
    if isinstance(node, PermutationConj):
        return Implies(And(node.first, node.second), And(node.second, node.first))
    return Implies(BOT, node.formula)


def _children(node) -> tuple:
    if isinstance(node, ModusPonens):
        return (node.minor, node.major)
    if isinstance(node, Syllogism):
        return (node.first, node.second)
    if isinstance(node, (Exportation, Importation, Expansion)):
        return (node.sub,)
    return ()


def _postorder(proof: ProofTerm, children=_children) -> list:
    """The distinct nodes (by identity) of proof, each after the nodes
    that children(node) lists, from one explicit stack."""
    out = []
    seen = set()
    stack = [(proof, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            out.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((k, False) for k in children(node))
    return out


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
        if isinstance(node, Premise):
            if gamma is not None and node.formula not in gamma:
                raise PremiseNotInContext(node.formula, _path(link))
            concl, free = node.formula, frozenset((node.formula,))
        elif isinstance(node, _AXIOM_TYPES):
            concl, free = _axiom_conclusion(node), _NO_PREMISES
        elif isinstance(node, ModusPonens):
            _, minor, f1 = out[id(node.minor)]
            _, major, f2 = out[id(node.major)]
            if not (isinstance(major, Implies) and major.lhs == minor):
                raise RuleShapeMismatch("modus_ponens", (minor, major),
                                        _path(link))
            concl, free = major.rhs, _union(f1, f2)
        elif isinstance(node, Syllogism):
            _, first, f1 = out[id(node.first)]
            _, second, f2 = out[id(node.second)]
            if not (isinstance(first, Implies) and isinstance(second, Implies)
                    and first.rhs == second.lhs):
                raise RuleShapeMismatch("syllogism", (first, second),
                                        _path(link))
            concl, free = Implies(first.lhs, second.rhs), _union(f1, f2)
        elif isinstance(node, Exportation):
            _, sub, free = out[id(node.sub)]
            if not (isinstance(sub, Implies) and isinstance(sub.lhs, And)):
                raise RuleShapeMismatch("exportation", (sub,), _path(link))
            concl = Implies(sub.lhs.lhs, Implies(sub.lhs.rhs, sub.rhs))
        elif isinstance(node, Importation):
            _, sub, free = out[id(node.sub)]
            if not (isinstance(sub, Implies) and isinstance(sub.rhs, Implies)):
                raise RuleShapeMismatch("importation", (sub,), _path(link))
            concl = Implies(And(sub.lhs, sub.rhs.lhs), sub.rhs.rhs)
        elif isinstance(node, Expansion):
            _, sub, free = out[id(node.sub)]
            if not isinstance(sub, Implies):
                raise RuleShapeMismatch("expansion", (sub,), _path(link))
            concl = Implies(Or(node.disjunct, sub.lhs),
                            Or(node.disjunct, sub.rhs))
        else:
            raise ProofError(f"unknown node {type(node).__name__}",
                             _path(link))
        out[id(node)] = (node, concl, free)
    return out


def check(gamma, proof: ProofTerm) -> Formula:
    """Conclusion of proof relative to the premise set gamma."""
    gamma = frozenset(gamma)
    return _conclusion_map(proof, gamma)[id(proof)][1]


def infer_conclusion(proof: ProofTerm) -> Formula:
    """Conclusion shape of proof, ignoring premise membership."""
    return _conclusion_map(proof, None)[id(proof)][1]


def weaken(gamma, gamma_prime, proof: ProofTerm) -> ProofTerm:
    """Premise monotonicity: the same term checks against any superset."""
    gamma = frozenset(gamma)
    gamma_prime = frozenset(gamma_prime)
    if not gamma <= gamma_prime:
        raise ValueError("weaken requires gamma' to include gamma")
    check(gamma, proof)
    return proof


def subst_premise(proof: ProofTerm, target: Formula,
                  replacement: ProofTerm) -> ProofTerm:
    """Replace every Premise(target) node by the given replacement proof."""
    memo: dict = {}
    for node in _postorder(proof):
        if isinstance(node, Premise) and node.formula == target:
            memo[id(node)] = replacement
            continue
        kids = _children(node)
        new_kids = tuple(memo[id(k)] for k in kids)
        if all(nk is ok for nk, ok in zip(new_kids, kids)):
            memo[id(node)] = node
        elif isinstance(node, ModusPonens):
            memo[id(node)] = ModusPonens(*new_kids)
        elif isinstance(node, Syllogism):
            memo[id(node)] = Syllogism(*new_kids)
        elif isinstance(node, Exportation):
            memo[id(node)] = Exportation(*new_kids)
        elif isinstance(node, Importation):
            memo[id(node)] = Importation(*new_kids)
        else:
            memo[id(node)] = Expansion(node.disjunct, *new_kids)
    return memo[id(proof)]


# ---------------------------------------------------------------------------
# JSON wire format: {"rule": name, "formulas": [...], "subproofs": [...]}
# ---------------------------------------------------------------------------

_NODE_RULE = {
    Premise: "premise",
    ContractionDisj: "contraction_disj",
    ContractionConj: "contraction_conj",
    WeakeningDisj: "weakening_disj",
    WeakeningConj: "weakening_conj",
    PermutationDisj: "permutation_disj",
    PermutationConj: "permutation_conj",
    Exfalso: "exfalso",
    ModusPonens: "modus_ponens",
    Syllogism: "syllogism",
    Exportation: "exportation",
    Importation: "importation",
    Expansion: "expansion",
}

_ONE_FORMULA = {"premise": Premise, "contraction_disj": ContractionDisj,
                "contraction_conj": ContractionConj, "exfalso": Exfalso}
_TWO_FORMULAS = {"weakening_disj": WeakeningDisj, "weakening_conj": WeakeningConj,
                 "permutation_disj": PermutationDisj,
                 "permutation_conj": PermutationConj}
_TWO_SUBPROOFS = {"modus_ponens": ModusPonens, "syllogism": Syllogism}
_ONE_SUBPROOF = {"exportation": Exportation, "importation": Importation}


def _node_formulas(node) -> tuple:
    if isinstance(node, (Premise, ContractionDisj, ContractionConj, Exfalso)):
        return (node.formula,)
    if isinstance(node, (WeakeningDisj, WeakeningConj, PermutationDisj,
                         PermutationConj)):
        return (node.first, node.second)
    if isinstance(node, Expansion):
        return (node.disjunct,)
    return ()


def proof_to_json(proof: ProofTerm) -> dict:
    memo: dict = {}
    for node in _postorder(proof):
        memo[id(node)] = {
            "rule": _NODE_RULE[type(node)],
            "formulas": [render(f) for f in _node_formulas(node)],
            "subproofs": [memo[id(k)] for k in _children(node)],
        }
    return memo[id(proof)]


def proof_from_json(obj) -> ProofTerm:
    if not isinstance(obj, dict) or "rule" not in obj:
        raise ValueError("proof node must be an object with a 'rule' field")
    rule = obj["rule"]
    formulas = [parse(f) for f in obj.get("formulas", [])]
    subs = [proof_from_json(s) for s in obj.get("subproofs", [])]

    def want(n_formulas, n_subs):
        if len(formulas) != n_formulas or len(subs) != n_subs:
            raise ValueError(
                f"rule {rule!r} takes {n_formulas} formulas and "
                f"{n_subs} subproofs")

    if rule in _ONE_FORMULA:
        want(1, 0)
        return _ONE_FORMULA[rule](formulas[0])
    if rule in _TWO_FORMULAS:
        want(2, 0)
        return _TWO_FORMULAS[rule](formulas[0], formulas[1])
    if rule in _TWO_SUBPROOFS:
        want(0, 2)
        return _TWO_SUBPROOFS[rule](subs[0], subs[1])
    if rule in _ONE_SUBPROOF:
        want(0, 1)
        return _ONE_SUBPROOF[rule](subs[0])
    if rule == "expansion":
        want(1, 1)
        return Expansion(formulas[0], subs[0])
    raise ValueError(f"unknown rule {rule!r}")


# ---------------------------------------------------------------------------
# Derived rules.  The private helpers take all instantiating formulas
# explicitly so large transformations never re-infer conclusions; the
# public catalog entries recover shapes from their proof arguments.
# ---------------------------------------------------------------------------


def identity(phi: Formula) -> ProofTerm:
    """|- phi -> phi"""
    return Syllogism(ContractionConj(phi), WeakeningConj(phi, phi))


def top_intro() -> ProofTerm:
    """|- top"""
    return Exfalso(BOT)


def k_axiom(phi: Formula, psi: Formula) -> ProofTerm:
    """|- phi -> (psi -> phi)"""
    return Exportation(WeakeningConj(phi, psi))


def and_elim_right(phi: Formula, psi: Formula) -> ProofTerm:
    """|- phi & psi -> psi"""
    return Syllogism(PermutationConj(phi, psi), WeakeningConj(psi, phi))


def disj_of_and_elim_left(phi: Formula, psi: Formula, chi: Formula) -> ProofTerm:
    """|- phi & psi -> phi | chi"""
    return Syllogism(WeakeningConj(phi, psi), WeakeningDisj(phi, chi))


def or_intro_right(phi: Formula, psi: Formula) -> ProofTerm:
    """|- psi -> phi | psi"""
    return Syllogism(WeakeningDisj(psi, phi), PermutationDisj(psi, phi))


def dni(phi: Formula) -> ProofTerm:
    """|- phi -> ~~phi"""
    return _imp_swap(Implies(phi, BOT), phi, BOT, identity(Implies(phi, BOT)))


def _imp_swap(outer, inner, target, h) -> ProofTerm:
    # h: outer -> (inner -> target)   yields   inner -> (outer -> target)
    return Exportation(Syllogism(PermutationConj(inner, outer), Importation(h)))


def _imp_trans_right(outer, inner, mid, target, h, g) -> ProofTerm:
    # h: outer -> (inner -> mid), g: mid -> target
    # yields outer -> (inner -> target)
    return Exportation(Syllogism(Importation(h), g))


def _conj_monotone(chi, a, b, p) -> ProofTerm:
    # p: a -> b   yields   chi & a -> chi & b
    h = Exportation(identity(And(chi, b)))
    hs = _imp_swap(chi, b, And(chi, b), h)
    t = Syllogism(p, hs)
    return Importation(_imp_swap(a, chi, And(chi, b), t))


def _conj_monotone_left(chi, a, b, p) -> ProofTerm:
    # p: a -> b   yields   a & chi -> b & chi
    return Syllogism(PermutationConj(a, chi),
                     Syllogism(_conj_monotone(chi, a, b, p),
                               PermutationConj(chi, b)))


def _and_compose(x, b, c, p, q) -> ProofTerm:
    # p: x -> b, q: x -> c   yields   x -> b & c
    return _s_rule(x, c, And(b, c), q,
                   Syllogism(p, Exportation(identity(And(b, c)))))


def _and_intro(a, b, p, q) -> ProofTerm:
    # p: a, q: b   yields   a & b
    return ModusPonens(q, ModusPonens(p, Exportation(identity(And(a, b)))))


def _or_elim(a, b, c, p, q) -> ProofTerm:
    # p: a -> c, q: b -> c   yields   a | b -> c
    return Syllogism(Expansion(a, q),
                     Syllogism(PermutationDisj(a, c),
                               Syllogism(Expansion(c, p), ContractionDisj(c))))


def _s_rule(chi, a, b, p, q) -> ProofTerm:
    # p: chi -> a, q: chi -> (a -> b)   yields   chi -> b, through
    # chi -> (chi -> b) and contraction
    t = Syllogism(p, _imp_swap(chi, a, b, q))
    return Syllogism(ContractionConj(chi), Importation(t))


def and_assoc_left(a: Formula, b: Formula, c: Formula) -> ProofTerm:
    """|- (a & b) & c -> a & (b & c)"""
    x = And(And(a, b), c)
    xab = WeakeningConj(And(a, b), c)
    pa = Syllogism(xab, WeakeningConj(a, b))
    pb = Syllogism(xab, and_elim_right(a, b))
    pc = and_elim_right(And(a, b), c)
    return _and_compose(x, a, And(b, c), pa, _and_compose(x, b, c, pb, pc))


def and_assoc_right(a: Formula, b: Formula, c: Formula) -> ProofTerm:
    """|- a & (b & c) -> (a & b) & c"""
    x = And(a, And(b, c))
    xbc = and_elim_right(a, And(b, c))
    pa = WeakeningConj(a, And(b, c))
    pb = Syllogism(xbc, WeakeningConj(b, c))
    pc = Syllogism(xbc, and_elim_right(b, c))
    return _and_compose(x, And(a, b), c, _and_compose(x, a, b, pa, pb), pc)


def imp_chain(phi: Formula, psi: Formula, chi: Formula) -> ProofTerm:
    """|- (psi -> chi) -> ((phi -> psi) -> (phi -> chi))"""
    a = Implies(psi, chi)
    b = Implies(phi, psi)
    x = And(And(a, b), phi)
    xab = WeakeningConj(And(a, b), phi)
    pa = Syllogism(xab, WeakeningConj(a, b))
    pb = Syllogism(xab, and_elim_right(a, b))
    pc = and_elim_right(And(a, b), phi)
    t_psi = Syllogism(_and_compose(x, b, phi, pb, pc),
                      Importation(identity(b)))
    t_chi = Syllogism(_and_compose(x, a, psi, pa, t_psi),
                      Importation(identity(a)))
    return Exportation(Exportation(t_chi))


def distrib_and_or(a: Formula, b: Formula, c: Formula) -> ProofTerm:
    """|- a & (b | c) -> (a & b) | (a & c)"""
    d = Or(And(a, b), And(a, c))
    s1 = _imp_swap(a, b, And(a, b), Exportation(identity(And(a, b))))
    u1 = _imp_trans_right(b, a, And(a, b), d, s1,
                          WeakeningDisj(And(a, b), And(a, c)))
    s2 = _imp_swap(a, c, And(a, c), Exportation(identity(And(a, c))))
    u2 = _imp_trans_right(c, a, And(a, c), d, s2,
                          or_intro_right(And(a, b), And(a, c)))
    oe = _or_elim(b, c, Implies(a, d), u1, u2)
    return Importation(_imp_swap(Or(b, c), a, d, oe))


def _implication_shape(p: ProofTerm, rule: str) -> Implies:
    c = infer_conclusion(p)
    if not isinstance(c, Implies):
        raise RuleShapeMismatch(rule, (c,), ())
    return c


def and_intro(p: ProofTerm, q: ProofTerm) -> ProofTerm:
    """From proofs of phi and psi, a proof of phi & psi."""
    return _and_intro(infer_conclusion(p), infer_conclusion(q), p, q)


def or_elim(p: ProofTerm, q: ProofTerm) -> ProofTerm:
    """From proofs of phi -> chi and psi -> chi, a proof of phi | psi -> chi."""
    cp = _implication_shape(p, "or_elim")
    cq = _implication_shape(q, "or_elim")
    if cp.rhs != cq.rhs:
        raise RuleShapeMismatch("or_elim", (cp, cq), ())
    return _or_elim(cp.lhs, cq.lhs, cp.rhs, p, q)


def conj_monotone(chi: Formula, p: ProofTerm) -> ProofTerm:
    """From a proof of phi -> psi, a proof of chi & phi -> chi & psi."""
    c = _implication_shape(p, "conj_monotone")
    return _conj_monotone(chi, c.lhs, c.rhs, p)


def conj_monotone_left(chi: Formula, p: ProofTerm) -> ProofTerm:
    """From a proof of phi -> psi, a proof of phi & chi -> psi & chi."""
    c = _implication_shape(p, "conj_monotone_left")
    return _conj_monotone_left(chi, c.lhs, c.rhs, p)


def and_compose(p: ProofTerm, q: ProofTerm) -> ProofTerm:
    """From proofs of x -> b and x -> c, a proof of x -> b & c."""
    cp = _implication_shape(p, "and_compose")
    cq = _implication_shape(q, "and_compose")
    if cp.lhs != cq.lhs:
        raise RuleShapeMismatch("and_compose", (cp, cq), ())
    return _and_compose(cp.lhs, cp.rhs, cq.rhs, p, q)


def imp_swap(p: ProofTerm) -> ProofTerm:
    """From a proof of a -> (b -> c), a proof of b -> (a -> c)."""
    c = _implication_shape(p, "imp_swap")
    if not isinstance(c.rhs, Implies):
        raise RuleShapeMismatch("imp_swap", (c,), ())
    return _imp_swap(c.lhs, c.rhs.lhs, c.rhs.rhs, p)


def s_rule(p: ProofTerm, q: ProofTerm) -> ProofTerm:
    """From proofs of chi -> a and chi -> (a -> b), a proof of chi -> b."""
    cp = _implication_shape(p, "s_rule")
    cq = _implication_shape(q, "s_rule")
    if not (isinstance(cq.rhs, Implies) and cq.lhs == cp.lhs
            and cq.rhs.lhs == cp.rhs):
        raise RuleShapeMismatch("s_rule", (cp, cq), ())
    return _s_rule(cp.lhs, cp.rhs, cq.rhs.rhs, p, q)


def neg_elim(p: ProofTerm, q: ProofTerm) -> ProofTerm:
    """From proofs of phi and ~phi, a proof of bot."""
    cq = _implication_shape(q, "neg_elim")
    if cq.rhs != BOT or cq.lhs != infer_conclusion(p):
        raise RuleShapeMismatch("neg_elim", (infer_conclusion(p), cq), ())
    return ModusPonens(p, q)


def ex_falso_rule(p: ProofTerm, phi: Formula) -> ProofTerm:
    """From a proof of bot, a proof of phi."""
    if infer_conclusion(p) != BOT:
        raise RuleShapeMismatch("ex_falso_rule", (infer_conclusion(p),), ())
    return ModusPonens(p, Exfalso(phi))


def iff_intro(p: ProofTerm, q: ProofTerm) -> ProofTerm:
    """From proofs of phi -> psi and psi -> phi, a proof of phi <-> psi."""
    cp = _implication_shape(p, "iff_intro")
    cq = _implication_shape(q, "iff_intro")
    if cp.lhs != cq.rhs or cp.rhs != cq.lhs:
        raise RuleShapeMismatch("iff_intro", (cp, cq), ())
    return and_intro(p, q)


def _iff_shape(p: ProofTerm, rule: str) -> And:
    c = infer_conclusion(p)
    if not (isinstance(c, And) and isinstance(c.lhs, Implies)
            and isinstance(c.rhs, Implies) and c.lhs.lhs == c.rhs.rhs
            and c.lhs.rhs == c.rhs.lhs):
        raise RuleShapeMismatch(rule, (c,), ())
    return c


def iff_elim_left(p: ProofTerm) -> ProofTerm:
    """From a proof of phi <-> psi, a proof of phi -> psi."""
    c = _iff_shape(p, "iff_elim_left")
    return ModusPonens(p, WeakeningConj(c.lhs, c.rhs))


def iff_elim_right(p: ProofTerm) -> ProofTerm:
    """From a proof of phi <-> psi, a proof of psi -> phi."""
    c = _iff_shape(p, "iff_elim_right")
    return ModusPonens(p, and_elim_right(c.lhs, c.rhs))


CATALOG = {
    "identity": (identity, 1),
    "top_intro": (top_intro, 0),
    "k_axiom": (k_axiom, 2),
    "imp_chain": (imp_chain, 3),
    "and_elim_right": (and_elim_right, 2),
    "disj_of_and_elim_left": (disj_of_and_elim_left, 3),
    "or_intro_right": (or_intro_right, 2),
    "and_assoc_left": (and_assoc_left, 3),
    "and_assoc_right": (and_assoc_right, 3),
    "distrib_and_or": (distrib_and_or, 3),
    "dni": (dni, 1),
    "and_intro": (and_intro, 2),
    "or_elim": (or_elim, 2),
    "conj_monotone": (conj_monotone, 2),
    "conj_monotone_left": (conj_monotone_left, 2),
    "and_compose": (and_compose, 2),
    "imp_swap": (imp_swap, 1),
    "s_rule": (s_rule, 2),
    "neg_elim": (neg_elim, 2),
    "ex_falso_rule": (ex_falso_rule, 2),
    "iff_intro": (iff_intro, 2),
    "iff_elim_left": (iff_elim_left, 1),
    "iff_elim_right": (iff_elim_right, 1),
}


def derived(name: str, *args) -> ProofTerm:
    """Build a catalog proof term by rule name."""
    if name not in CATALOG:
        raise ArityMismatch(f"unknown derived rule {name!r}")
    fn, arity = CATALOG[name]
    if len(args) != arity:
        raise ArityMismatch(f"{name} takes {arity} arguments, got {len(args)}")
    return fn(*args)


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
    for node in _postorder(proof, spine):
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
