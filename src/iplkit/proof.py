"""Hilbert-style proof objects and their checker.

A proof term is an explicit derivation tree.  Axiom nodes carry the
formulas that instantiate their schema, so checking is a total fold that
either returns the conclusion or reports the offending node by its
root-to-node child-index path.  The fold checks each node once and keeps
only its conclusion; the path is recovered by a second walk when a check
fails.  Formulas are hash-consed, so the fold finds each conclusion in
formula._TABLE by its structure key and calls a constructor only for a
formula that is not interned yet.  On top of the thirteen primitive node
kinds the module provides a catalog of derived rules (every entry builds
a term the checker accepts) and the deduction theorem as a proof
transformation.

Node classes are dataclasses on formula._Frozen, the node protocol
that formulas use too: a node is frozen, its copy is itself, a pickle
holds one post-order program over the distinct subproofs and formulas,
and the repr is the dataclass text for a proof of any depth.  Their
__init__ is the record one of formula._init_source, and == and hash,
made here from NODE_KINDS, give the dataclass results from walks that
visit each distinct subproof once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, NamedTuple, Optional, Union

from .formula import (_TABLE, _Frozen, And, BOT, Formula, Implies, Or,
                      _init_source, _methods, parse, postorder, render)

# Dataclasses whose __init__, == and hash are set after NODE_KINDS;
# _Frozen makes them frozen and gives their copy, pickle and repr.
# Each class has a docstring: without one, dataclass would build one from
# the signature, which costs import time.
_node = dataclass(init=False, repr=False, eq=False)


@_node
class Premise(_Frozen):
    """gamma |- formula, for formula in gamma"""
    formula: Formula


@_node
class ContractionDisj(_Frozen):
    """Axiom |- formula | formula -> formula"""
    formula: Formula


@_node
class ContractionConj(_Frozen):
    """Axiom |- formula -> formula & formula"""
    formula: Formula


@_node
class WeakeningDisj(_Frozen):
    """Axiom |- first -> first | second"""
    first: Formula
    second: Formula


@_node
class WeakeningConj(_Frozen):
    """Axiom |- first & second -> first"""
    first: Formula
    second: Formula


@_node
class PermutationDisj(_Frozen):
    """Axiom |- first | second -> second | first"""
    first: Formula
    second: Formula


@_node
class PermutationConj(_Frozen):
    """Axiom |- first & second -> second & first"""
    first: Formula
    second: Formula


@_node
class Exfalso(_Frozen):
    """Axiom |- bot -> formula"""
    formula: Formula


@_node
class ModusPonens(_Frozen):
    """From minor: a and major: a -> b, infer b."""
    minor: "ProofTerm"
    major: "ProofTerm"


@_node
class Syllogism(_Frozen):
    """From first: a -> b and second: b -> c, infer a -> c."""
    first: "ProofTerm"
    second: "ProofTerm"


@_node
class Exportation(_Frozen):
    """From sub: a & b -> c, infer a -> (b -> c)."""
    sub: "ProofTerm"


@_node
class Importation(_Frozen):
    """From sub: a -> (b -> c), infer a & b -> c."""
    sub: "ProofTerm"


@_node
class Expansion(_Frozen):
    """From sub: a -> b, infer disjunct | a -> disjunct | b."""
    disjunct: Formula
    sub: "ProofTerm"


ProofTerm = Union[
    Premise, ContractionDisj, ContractionConj, WeakeningDisj, WeakeningConj,
    PermutationDisj, PermutationConj, Exfalso, ModusPonens, Syllogism,
    Exportation, Importation, Expansion,
]


class NodeKind(NamedTuple):
    """A node class as the kernel and the JSON format see it."""

    rule: str                       # the name on the wire
    formulas: tuple                 # the Formula fields, in constructor order
    subproofs: tuple                # the ProofTerm fields, after the formulas
    conclusion: Optional[Callable]  # an axiom node -> its conclusion
    formula_values: Callable        # node -> the values of its formula fields
    children: Callable              # node -> its subproofs


def _getter(names: tuple) -> Callable:
    """node -> the tuple of the named fields, built once per class."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda node: (get(node),)
    return attrgetter(*names) if names else lambda node: ()


def _kind(cls, rule: str, conclusion: Optional[Callable]) -> NodeKind:
    """The fields annotated Formula are the formulas; the fields after
    them are the subproofs."""
    formulas = tuple(f.name for f in fields(cls) if f.type == "Formula")
    subproofs = tuple(f.name for f in fields(cls))[len(formulas):]
    return NodeKind(rule, formulas, subproofs, conclusion, _getter(formulas),
                    _getter(subproofs))


# The interned formula under a structure key, (class, id(lhs), id(rhs)),
# or None.  The kernel builds a connective by its constructor only on
# None: most conclusions are interned already, and the lookup saves the
# constructor's frame.
_interned = _TABLE.get


# The seven axioms, each an axiom node -> its conclusion.

def _contraction_disj(node) -> Formula:
    """f | f -> f"""
    f = node.formula
    ff = _interned((Or, id(f), id(f))) or Or(f, f)
    return _interned((Implies, id(ff), id(f))) or Implies(ff, f)


def _contraction_conj(node) -> Formula:
    """f -> f & f"""
    f = node.formula
    ff = _interned((And, id(f), id(f))) or And(f, f)
    return _interned((Implies, id(f), id(ff))) or Implies(f, ff)


def _weakening_disj(node) -> Formula:
    """a -> a | b"""
    a, b = node.first, node.second
    ab = _interned((Or, id(a), id(b))) or Or(a, b)
    return _interned((Implies, id(a), id(ab))) or Implies(a, ab)


def _weakening_conj(node) -> Formula:
    """a & b -> a"""
    a, b = node.first, node.second
    ab = _interned((And, id(a), id(b))) or And(a, b)
    return _interned((Implies, id(ab), id(a))) or Implies(ab, a)


def _permutation_disj(node) -> Formula:
    """a | b -> b | a"""
    a, b = node.first, node.second
    ab = _interned((Or, id(a), id(b))) or Or(a, b)
    ba = _interned((Or, id(b), id(a))) or Or(b, a)
    return _interned((Implies, id(ab), id(ba))) or Implies(ab, ba)


def _permutation_conj(node) -> Formula:
    """a & b -> b & a"""
    a, b = node.first, node.second
    ab = _interned((And, id(a), id(b))) or And(a, b)
    ba = _interned((And, id(b), id(a))) or And(b, a)
    return _interned((Implies, id(ab), id(ba))) or Implies(ab, ba)


def _exfalso(node) -> Formula:
    """bot -> f"""
    f = node.formula
    return _interned((Implies, id(BOT), id(f))) or Implies(BOT, f)


# Every node kind, each written down once.  The seven axioms carry the
# function that gives their conclusion; the checker holds the five rules.
NODE_KINDS = {cls: _kind(cls, rule, conclusion)
              for cls, rule, conclusion in (
    (Premise, "premise", None),
    (ContractionDisj, "contraction_disj", _contraction_disj),
    (ContractionConj, "contraction_conj", _contraction_conj),
    (WeakeningDisj, "weakening_disj", _weakening_disj),
    (WeakeningConj, "weakening_conj", _weakening_conj),
    (PermutationDisj, "permutation_disj", _permutation_disj),
    (PermutationConj, "permutation_conj", _permutation_conj),
    (Exfalso, "exfalso", _exfalso),
    (ModusPonens, "modus_ponens", None),
    (Syllogism, "syllogism", None),
    (Exportation, "exportation", None),
    (Importation, "importation", None),
    (Expansion, "expansion", None),
)}


def _eq(self, other):
    """The dataclass ==, fields compared in pairs of the same class, on
    an explicit stack that compares each pair of subproofs once."""
    if type(other) is not type(self):
        return NotImplemented
    seen: set = set()
    stack = [(self, other)]
    while stack:
        a, b = stack.pop()
        if a is b or (id(a), id(b)) in seen:
            continue
        seen.add((id(a), id(b)))
        kind = NODE_KINDS.get(type(a))
        if kind is None or type(b) is not type(a):
            if a != b:
                return False
        elif kind.formula_values(a) != kind.formula_values(b):
            return False
        else:
            stack += zip(kind.children(a), kind.children(b))
    return True


class _Known:
    """A subproof's hash, found once, in the field tuple of its parent."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self):
        return self.value


def _hash(self) -> int:
    """The dataclass hash, that of the tuple of the fields, from one
    post-order walk that hashes each distinct subproof once."""
    known: dict = {}
    for node in postorder([self], _children):
        kind = NODE_KINDS.get(type(node))
        if kind is not None:
            known[id(node)] = hash((*kind.formula_values(node), *(
                _Known(known[id(k)]) if id(k) in known else k
                for k in kind.children(node))))
    return known[id(self)]


# Every node class gets the record __init__ of formula._init_source, one
# parameter per field in field order, and _eq and _hash as == and hash.
for _cls in NODE_KINDS:
    _methods(_cls, _init_source(_cls.__match_args__, ()))
    _cls.__eq__, _cls.__hash__ = _eq, _hash

_BY_RULE = {kind.rule: cls for cls, kind in NODE_KINDS.items()}

# A missing conclusion, told apart from any value a Premise can carry.
_TODO = object()

# axiom class -> its conclusion function, for the checker
_AXIOMS = {cls: kind.conclusion for cls, kind in NODE_KINDS.items()
           if kind.conclusion is not None}


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


def _conclusions(proof: ProofTerm, gamma: Optional[frozenset]) -> dict:
    """Post-order fold giving id(node) -> conclusion, one entry per node.

    A node stays on the stack until its subproofs are done and pushes
    only the missing ones, the last on top, so it is checked first; a
    node pushed twice before it was done is recomputed from its done
    subproofs, so DAG-shaped proofs stay linear.  The ids are valid while
    proof lives.  With gamma=None, premise membership is not enforced
    (pure shape inference).  No paths are kept: on a failure, _path_to
    finds the failing node's.  Each new connective is looked up by its
    structure key, as in _interned, before its constructor is called."""
    out: dict = {}
    get, todo, interned = out.get, _TODO, _interned
    stack = [proof]
    push, pop = stack.append, stack.pop
    while stack:
        node = stack[-1]
        t = type(node)
        if t is Syllogism:
            first = get(id(node.first), todo)
            second = get(id(node.second), todo)
            if first is todo or second is todo:
                if first is todo:
                    push(node.first)
                if second is todo:
                    push(node.second)
                continue
            if not (type(first) is Implies and type(second) is Implies
                    and first.rhs is second.lhs):
                raise _mismatch(proof, node, (first, second))
            a, c = first.lhs, second.rhs
            concl = interned((Implies, id(a), id(c))) or Implies(a, c)
        elif t is Exportation or t is Importation or t is Expansion:
            sub = get(id(node.sub), todo)
            if sub is todo:
                push(node.sub)
                continue
            if t is Exportation:
                # a & b -> c  gives  a -> (b -> c)
                if not (type(sub) is Implies and type(sub.lhs) is And):
                    raise _mismatch(proof, node, (sub,))
                a, b, c = sub.lhs.lhs, sub.lhs.rhs, sub.rhs
                bc = interned((Implies, id(b), id(c))) or Implies(b, c)
                concl = interned((Implies, id(a), id(bc))) or Implies(a, bc)
            elif t is Importation:
                # a -> (b -> c)  gives  a & b -> c
                if not (type(sub) is Implies and type(sub.rhs) is Implies):
                    raise _mismatch(proof, node, (sub,))
                a, b, c = sub.lhs, sub.rhs.lhs, sub.rhs.rhs
                ab = interned((And, id(a), id(b))) or And(a, b)
                concl = interned((Implies, id(ab), id(c))) or Implies(ab, c)
            else:
                # a -> b  gives  d | a -> d | b
                if type(sub) is not Implies:
                    raise _mismatch(proof, node, (sub,))
                d, a, b = node.disjunct, sub.lhs, sub.rhs
                da = interned((Or, id(d), id(a))) or Or(d, a)
                db = interned((Or, id(d), id(b))) or Or(d, b)
                concl = interned((Implies, id(da), id(db))) or Implies(da, db)
        elif t is ModusPonens:
            minor = get(id(node.minor), todo)
            major = get(id(node.major), todo)
            if minor is todo or major is todo:
                if minor is todo:
                    push(node.minor)
                if major is todo:
                    push(node.major)
                continue
            if not (type(major) is Implies and major.lhs is minor):
                raise _mismatch(proof, node, (minor, major))
            concl = major.rhs
        elif t is Premise:
            concl = node.formula
            if gamma is not None and concl not in gamma:
                raise PremiseNotInContext(concl, _path_to(proof, node))
        else:
            conclude = _AXIOMS.get(t)
            if conclude is None:
                raise ProofError(f"unknown node {t.__name__}",
                                 _path_to(proof, node))
            concl = conclude(node)
        out[id(node)] = concl
        pop()
    return out


def _mismatch(proof: ProofTerm, node, found: tuple) -> RuleShapeMismatch:
    return RuleShapeMismatch(NODE_KINDS[type(node)].rule, found,
                            _path_to(proof, node))


def _path_to(proof: ProofTerm, target) -> tuple:
    """Root-to-node child indices of target where _conclusions first
    reaches it.  The walk pushes as the fold does, every child with a
    (parent link, index) pair and the last on top, and expands each node
    once, so it meets the nodes in the fold's order; it checks nothing."""
    seen: set = set()
    node, link, stack = proof, None, []
    while node is not target:
        if id(node) not in seen:
            seen.add(id(node))
            stack += [(child, (link, i))
                      for i, child in enumerate(_children(node))]
        node, link = stack.pop()
    path = []
    while link is not None:
        link, i = link
        path.append(i)
    return tuple(reversed(path))


def check(gamma, proof: ProofTerm) -> Formula:
    """Conclusion of proof relative to the premise set gamma."""
    return _conclusions(proof, frozenset(gamma))[id(proof)]


def infer_conclusion(proof: ProofTerm) -> Formula:
    """Conclusion shape of proof, ignoring premise membership."""
    return _conclusions(proof, None)[id(proof)]


def premises(proof: ProofTerm) -> frozenset:
    """The formulas of the proof's Premise nodes, the least gamma that
    check can accept it under."""
    return frozenset(node.formula for node in postorder([proof], _children)
                     if type(node) is Premise)


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
    """The proof written as obj, read on an explicit stack.  A node's
    fields are checked and its formulas parsed before its subproofs are
    read, and its rule and arity after them, as a recursive descent does."""
    built: list = []
    stack: list = [(None, obj)]
    while stack:
        formulas, node = stack.pop()
        if formulas is not None:
            rule, n = node["rule"], len(node.get("subproofs", []))
            subs = built[len(built) - n:]
            del built[len(built) - n:]
            cls = _BY_RULE.get(rule) if isinstance(rule, str) else None
            if cls is None:
                raise ValueError(f"unknown rule {rule!r}")
            kind = NODE_KINDS[cls]
            if len(formulas) != len(kind.formulas) or n != len(kind.subproofs):
                raise ValueError(f"rule {rule!r} takes {len(kind.formulas)} "
                                 f"formulas and {len(kind.subproofs)} "
                                 "subproofs")
            built.append(cls(*formulas, *subs))
            continue
        if not isinstance(node, dict) or "rule" not in node:
            raise ValueError("proof node must be an object with a 'rule' "
                             "field")
        rule = node["rule"]
        texts = node.get("formulas", [])
        subs = node.get("subproofs", [])
        if not isinstance(texts, list) or not isinstance(subs, list):
            raise ValueError(f"rule {rule!r}: formulas and subproofs must be "
                             f"lists")
        if not all(isinstance(text, str) for text in texts):
            raise ValueError(f"rule {rule!r}: formulas must be strings")
        stack.append(([parse(text) for text in texts], node))
        stack += ((None, sub) for sub in reversed(subs))
    return built[0]


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
    """From proofs of phi and psi, infer a proof of phi & psi."""
    return _and_intro(infer_conclusion(p), infer_conclusion(q), p, q)


def or_elim(p: ProofTerm, q: ProofTerm) -> ProofTerm:
    """From proofs of phi -> chi and psi -> chi, infer a proof of phi | psi -> chi."""
    cp = _implication_shape(p, "or_elim")
    cq = _implication_shape(q, "or_elim")
    if cp.rhs != cq.rhs:
        raise RuleShapeMismatch("or_elim", (cp, cq), ())
    return _or_elim(cp.lhs, cq.lhs, cp.rhs, p, q)


def conj_monotone(chi: Formula, p: ProofTerm) -> ProofTerm:
    """From a proof of phi -> psi, infer a proof of chi & phi -> chi & psi."""
    c = _implication_shape(p, "conj_monotone")
    return _conj_monotone(chi, c.lhs, c.rhs, p)


def conj_monotone_left(chi: Formula, p: ProofTerm) -> ProofTerm:
    """From a proof of phi -> psi, infer a proof of phi & chi -> psi & chi."""
    c = _implication_shape(p, "conj_monotone_left")
    return _conj_monotone_left(chi, c.lhs, c.rhs, p)


def and_compose(p: ProofTerm, q: ProofTerm) -> ProofTerm:
    """From proofs of x -> b and x -> c, infer a proof of x -> b & c."""
    cp = _implication_shape(p, "and_compose")
    cq = _implication_shape(q, "and_compose")
    if cp.lhs != cq.lhs:
        raise RuleShapeMismatch("and_compose", (cp, cq), ())
    return _and_compose(cp.lhs, cp.rhs, cq.rhs, p, q)


def imp_swap(p: ProofTerm) -> ProofTerm:
    """From a proof of a -> (b -> c), infer a proof of b -> (a -> c)."""
    c = _implication_shape(p, "imp_swap")
    if not isinstance(c.rhs, Implies):
        raise RuleShapeMismatch("imp_swap", (c,), ())
    return _imp_swap(c.lhs, c.rhs.lhs, c.rhs.rhs, p)


def s_rule(p: ProofTerm, q: ProofTerm) -> ProofTerm:
    """From proofs of chi -> a and chi -> (a -> b), infer a proof of chi -> b."""
    cp = _implication_shape(p, "s_rule")
    cq = _implication_shape(q, "s_rule")
    if not (isinstance(cq.rhs, Implies) and cq.lhs == cp.lhs
            and cq.rhs.lhs == cp.rhs):
        raise RuleShapeMismatch("s_rule", (cp, cq), ())
    return _s_rule(cp.lhs, cp.rhs, cq.rhs.rhs, p, q)


def neg_elim(p: ProofTerm, q: ProofTerm) -> ProofTerm:
    """From proofs of phi and ~phi, infer a proof of bot."""
    cq = _implication_shape(q, "neg_elim")
    if cq.rhs != BOT or cq.lhs != infer_conclusion(p):
        raise RuleShapeMismatch("neg_elim", (infer_conclusion(p), cq), ())
    return ModusPonens(p, q)


def ex_falso_rule(p: ProofTerm, phi: Formula) -> ProofTerm:
    """From a proof of bot, infer a proof of phi."""
    if infer_conclusion(p) != BOT:
        raise RuleShapeMismatch("ex_falso_rule", (infer_conclusion(p),), ())
    return ModusPonens(p, Exfalso(phi))


def iff_intro(p: ProofTerm, q: ProofTerm) -> ProofTerm:
    """From proofs of phi -> psi and psi -> phi, infer a proof of phi <-> psi."""
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
    """From a proof of phi <-> psi, infer a proof of phi -> psi."""
    c = _iff_shape(p, "iff_elim_left")
    return ModusPonens(p, WeakeningConj(c.lhs, c.rhs))


def iff_elim_right(p: ProofTerm) -> ProofTerm:
    """From a proof of phi <-> psi, infer a proof of psi -> phi."""
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
    return _deduce(phi, proof, _conclusions(proof, gamma | {phi}))


def _deduce(phi: Formula, proof: ProofTerm, table: dict) -> ProofTerm:
    """Core of the deduction theorem; table is the _conclusions of proof,
    whose shapes are taken as good.

    One post-order walk finds the spine, the nodes with Premise(phi) at
    or below them, and rebuilds it.  Subtrees off the spine are kept
    intact and prefixed with a K-style wrapper where the spine uses them.
    """
    on_spine: set = set()
    memo: dict = {}

    def lifted(node) -> ProofTerm:
        if id(node) not in memo:
            memo[id(node)] = ModusPonens(node, k_axiom(table[id(node)], phi))
        return memo[id(node)]

    for node in postorder([proof], _children):
        if not (node.formula == phi if type(node) is Premise
                else any(id(k) in on_spine for k in _children(node))):
            continue
        on_spine.add(id(node))
        if isinstance(node, Premise):
            # on the spine, so this is the discharged premise itself
            out = identity(phi)
        elif isinstance(node, ModusPonens):
            major = table[id(node.major)]
            out = _s_rule(phi, major.lhs, major.rhs,
                          lifted(node.minor), lifted(node.major))
        elif isinstance(node, Syllogism):
            c1 = table[id(node.first)]
            c2 = table[id(node.second)]
            alpha, beta, gam = c1.lhs, c1.rhs, c2.rhs
            imp1 = Importation(lifted(node.first))
            imp2 = Importation(lifted(node.second))
            mono = _conj_monotone(phi, And(phi, alpha), beta, imp1)
            dup = _and_compose(And(phi, alpha), phi, And(phi, alpha),
                               WeakeningConj(phi, alpha),
                               identity(And(phi, alpha)))
            out = Exportation(Syllogism(dup, Syllogism(mono, imp2)))
        elif isinstance(node, Exportation):
            c = table[id(node.sub)]
            alpha, beta = c.lhs.lhs, c.lhs.rhs
            core = Syllogism(and_assoc_left(phi, alpha, beta),
                             Importation(lifted(node.sub)))
            out = Exportation(Exportation(core))
        elif isinstance(node, Importation):
            c = table[id(node.sub)]
            alpha, beta = c.lhs, c.rhs.lhs
            core = Syllogism(and_assoc_right(phi, alpha, beta),
                             Importation(Importation(lifted(node.sub))))
            out = Exportation(core)
        else:
            c = table[id(node.sub)]
            alpha, beta, chi = c.lhs, c.rhs, node.disjunct
            imp = Importation(lifted(node.sub))
            v1 = Syllogism(and_elim_right(phi, chi), WeakeningDisj(chi, beta))
            v2 = Syllogism(imp, or_intro_right(chi, beta))
            core = Syllogism(distrib_and_or(phi, chi, alpha),
                             _or_elim(And(phi, chi), And(phi, alpha),
                                      Or(chi, beta), v1, v2))
            out = Exportation(core)
        memo[id(node)] = out
    return lifted(proof)
