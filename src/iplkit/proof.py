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

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, NamedTuple, Optional, Union

from .formula import And, BOT, Formula, Implies, Or, parse, postorder, render


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


class NodeKind(NamedTuple):
    """A node class as the kernel and the JSON format see it."""

    rule: str                   # the name on the wire
    formulas: tuple             # the Formula fields, in constructor order
    subproofs: tuple            # the ProofTerm fields, after the formulas
    schema: Optional[Callable]  # an axiom's conclusion from its formulas
    formula_values: Callable    # node -> the values of its formula fields
    children: Callable          # node -> its subproofs


def _getter(names: tuple) -> Callable:
    """node -> the tuple of the named fields, built once per class."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda node: (get(node),)
    return attrgetter(*names) if names else lambda node: ()


def _kind(cls, rule: str, schema: Optional[Callable]) -> NodeKind:
    """The fields annotated Formula are the formulas; the fields after
    them are the subproofs."""
    formulas = tuple(f.name for f in fields(cls) if f.type == "Formula")
    subproofs = tuple(f.name for f in fields(cls))[len(formulas):]
    return NodeKind(rule, formulas, subproofs, schema, _getter(formulas),
                    _getter(subproofs))


# Every node kind, each written down once.  The seven axioms carry the
# schema that gives their conclusion; the checker holds the five rules.
NODE_KINDS = {cls: _kind(cls, rule, schema) for cls, rule, schema in (
    (Premise, "premise", None),
    (ContractionDisj, "contraction_disj", lambda f: Implies(Or(f, f), f)),
    (ContractionConj, "contraction_conj", lambda f: Implies(f, And(f, f))),
    (WeakeningDisj, "weakening_disj", lambda a, b: Implies(a, Or(a, b))),
    (WeakeningConj, "weakening_conj", lambda a, b: Implies(And(a, b), a)),
    (PermutationDisj, "permutation_disj",
     lambda a, b: Implies(Or(a, b), Or(b, a))),
    (PermutationConj, "permutation_conj",
     lambda a, b: Implies(And(a, b), And(b, a))),
    (Exfalso, "exfalso", lambda f: Implies(BOT, f)),
    (ModusPonens, "modus_ponens", None),
    (Syllogism, "syllogism", None),
    (Exportation, "exportation", None),
    (Importation, "importation", None),
    (Expansion, "expansion", None),
)}

_BY_RULE = {kind.rule: cls for cls, kind in NODE_KINDS.items()}

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


def _children(node) -> tuple:
    kind = NODE_KINDS.get(type(node))
    return () if kind is None else kind.children(node)


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
        if kind.schema is not None:
            concl = kind.schema(*kind.formula_values(node))
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
    for node in postorder([proof], _children):
        if type(node) is Premise and node.formula == target:
            memo[id(node)] = replacement
            continue
        kind = NODE_KINDS[type(node)]
        kids = kind.children(node)
        new_kids = tuple(memo[id(k)] for k in kids)
        if all(nk is ok for nk, ok in zip(new_kids, kids)):
            memo[id(node)] = node
        else:
            memo[id(node)] = type(node)(*kind.formula_values(node), *new_kids)
    return memo[id(proof)]


# ---------------------------------------------------------------------------
# JSON wire format: {"rule": name, "formulas": [...], "subproofs": [...]}
# ---------------------------------------------------------------------------


def proof_to_json(proof: ProofTerm) -> dict:
    memo: dict = {}
    for node in postorder([proof], _children):
        kind = NODE_KINDS[type(node)]
        memo[id(node)] = {
            "rule": kind.rule,
            "formulas": [render(f) for f in kind.formula_values(node)],
            "subproofs": [memo[id(k)] for k in kind.children(node)],
        }
    return memo[id(proof)]


def proof_from_json(obj) -> ProofTerm:
    if not isinstance(obj, dict) or "rule" not in obj:
        raise ValueError("proof node must be an object with a 'rule' field")
    rule = obj["rule"]
    texts = obj.get("formulas", [])
    subs = obj.get("subproofs", [])
    if not isinstance(texts, list) or not isinstance(subs, list):
        raise ValueError(f"rule {rule!r}: formulas and subproofs must be "
                         f"lists")
    if not all(isinstance(text, str) for text in texts):
        raise ValueError(f"rule {rule!r}: formulas must be strings")
    formulas = [parse(text) for text in texts]
    subs = [proof_from_json(s) for s in subs]
    cls = _BY_RULE.get(rule) if isinstance(rule, str) else None
    if cls is None:
        raise ValueError(f"unknown rule {rule!r}")
    kind = NODE_KINDS[cls]
    if len(formulas) != len(kind.formulas) or len(subs) != len(kind.subproofs):
        raise ValueError(f"rule {rule!r} takes {len(kind.formulas)} formulas "
                         f"and {len(kind.subproofs)} subproofs")
    return cls(*formulas, *subs)


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


def _imp_trans_right(h, g) -> ProofTerm:
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
    u1 = _imp_trans_right(s1, WeakeningDisj(And(a, b), And(a, c)))
    s2 = _imp_swap(a, c, And(a, c), Exportation(identity(And(a, c))))
    u2 = _imp_trans_right(s2, or_intro_right(And(a, b), And(a, c)))
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


# name -> (builder, number of arguments)
CATALOG = {fn.__name__: (fn, fn.__code__.co_argcount) for fn in (
    identity, top_intro, k_axiom, imp_chain, and_elim_right,
    disj_of_and_elim_left, or_intro_right, and_assoc_left, and_assoc_right,
    distrib_and_or, dni, and_intro, or_elim, conj_monotone,
    conj_monotone_left, and_compose, imp_swap, s_rule, neg_elim,
    ex_falso_rule, iff_intro, iff_elim_left, iff_elim_right)}


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
