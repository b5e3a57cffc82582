"""Propositional formulas over falsity, conjunction, disjunction and implication.

Negation, truth and equivalence are abbreviations, not constructors:
``~a`` is ``a -> bot``, ``top`` is ``bot -> bot`` and ``a <-> b`` is
``(a -> b) & (b -> a)``.  The module also provides the concrete ASCII
syntax (parser and minimal-parenthesization renderer) and an injective
encoding of formulas into natural numbers based on a pairing function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union


@dataclass(frozen=True)
class Var:
    """A propositional variable, identified by a nonnegative index."""

    index: int


@dataclass(frozen=True)
class Variable:
    var: Var


@dataclass(frozen=True)
class Bottom:
    pass


def _binary_hash(node) -> int:
    """hash((lhs, rhs)), the dataclass hash, computed bottom-up on first
    use with an explicit stack and cached on every node it reaches, so
    formulas of any depth hash without recursion."""
    if node._hash is None:
        stack = [node]
        while stack:
            top = stack[-1]
            todo = [k for k in (top.lhs, top.rhs)
                    if getattr(k, "_hash", 0) is None]
            if todo:
                stack.extend(todo)
            else:
                stack.pop()
                object.__setattr__(top, "_hash", hash((top.lhs, top.rhs)))
    return node._hash


def _binary_eq(node, other):
    """Structural equality, as the dataclass rule, without recursion:
    identical nodes are equal, nodes whose cached hashes differ are not,
    and the rest are compared pair by pair with an explicit stack."""
    if other.__class__ is not node.__class__:
        return NotImplemented
    stack = [(node, other)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if a.__class__ is not b.__class__:
            return False
        if a.__class__ in _BINARY:
            if hash(a) != hash(b):
                return False
            stack += ((a.rhs, b.rhs), (a.lhs, b.lhs))
        elif a != b:
            return False
    return True


@dataclass(frozen=True)
class And:
    lhs: "Formula"
    rhs: "Formula"
    _hash = None
    __hash__ = _binary_hash
    __eq__ = _binary_eq


@dataclass(frozen=True)
class Or:
    lhs: "Formula"
    rhs: "Formula"
    _hash = None
    __hash__ = _binary_hash
    __eq__ = _binary_eq


@dataclass(frozen=True)
class Implies:
    lhs: "Formula"
    rhs: "Formula"
    _hash = None
    __hash__ = _binary_hash
    __eq__ = _binary_eq


_BINARY = (And, Or, Implies)


Formula = Union[Variable, Bottom, And, Or, Implies]

BOT: Formula = Bottom()
TOP: Formula = Implies(BOT, BOT)


def var(index: int) -> Variable:
    return Variable(Var(index))


def neg(phi: Formula) -> Formula:
    return Implies(phi, BOT)


def iff(phi: Formula, psi: Formula) -> Formula:
    return And(Implies(phi, psi), Implies(psi, phi))


def subformulas(phi: Formula) -> frozenset:
    """All subtrees of phi, including phi itself."""
    out = set()
    stack = [phi]
    while stack:
        f = stack.pop()
        if f in out:
            continue
        out.add(f)
        if isinstance(f, (And, Or, Implies)):
            stack.append(f.lhs)
            stack.append(f.rhs)
    return frozenset(out)


def variables(phi: Formula) -> frozenset:
    """The set of Var occurring in phi."""
    return frozenset(f.var for f in subformulas(phi) if isinstance(f, Variable))


def variable_indices(formulas) -> list:
    """Sorted indices of the variables occurring in any of the formulas."""
    return sorted({v.index for f in formulas for v in variables(f)})


def depth(phi: Formula) -> int:
    """Tree depth; leaves (variables and bot) have depth 1."""
    if isinstance(phi, (Variable, Bottom)):
        return 1
    return 1 + max(depth(phi.lhs), depth(phi.rhs))


# ---------------------------------------------------------------------------
# Concrete syntax.
#
# formula := iff ; iff := imp ("<->" imp)*  (right-assoc, sugar)
# imp  := disj ("->" imp)?                  (right-assoc)
# disj := conj ("|" conj)*                  (left-assoc)
# conj := neg ("&" neg)*                    (left-assoc)
# neg  := "~" neg | atom
# atom := "bot" | "top" | VAR | "(" formula ")" ; VAR := "p" [0-9]+
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    """Syntax error in the concrete formula syntax; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


_SYMBOLS = ("<->", "->", "&", "|", "~", "(", ")")


def _tokenize(text: str) -> list:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append((sym, None, i))
                i += len(sym)
                break
        else:
            if text.startswith("bot", i) and not _ident_continues(text, i + 3):
                tokens.append(("bot", None, i))
                i += 3
            elif text.startswith("top", i) and not _ident_continues(text, i + 3):
                tokens.append(("top", None, i))
                i += 3
            elif c == "p" and i + 1 < n and text[i + 1].isdigit():
                j = i + 1
                while j < n and text[j].isdigit():
                    j += 1
                if _ident_continues(text, j):
                    raise ParseError(f"unknown token {text[i:j + 1]!r}", i)
                tokens.append(("var", int(text[i + 1:j]), i))
                i = j
            else:
                raise ParseError(f"unknown token {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


def _ident_continues(text: str, pos: int) -> bool:
    return pos < len(text) and (text[pos].isalnum() or text[pos] == "_")


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def formula(self) -> Formula:
        parts = [self.imp()]
        while self.peek()[0] == "<->":
            self.next()
            parts.append(self.imp())
        out = parts[-1]
        for lhs in reversed(parts[:-1]):
            out = iff(lhs, out)
        return out

    def imp(self) -> Formula:
        lhs = self.disj()
        if self.peek()[0] == "->":
            self.next()
            return Implies(lhs, self.imp())
        return lhs

    def disj(self) -> Formula:
        out = self.conj()
        while self.peek()[0] == "|":
            self.next()
            out = Or(out, self.conj())
        return out

    def conj(self) -> Formula:
        out = self.neg()
        while self.peek()[0] == "&":
            self.next()
            out = And(out, self.neg())
        return out

    def neg(self) -> Formula:
        if self.peek()[0] == "~":
            self.next()
            return neg(self.neg())
        return self.atom()

    def atom(self) -> Formula:
        kind, value, offset = self.next()
        if kind == "bot":
            return BOT
        if kind == "top":
            return TOP
        if kind == "var":
            return var(value)
        if kind == "(":
            out = self.formula()
            self.expect(")")
            return out
        raise ParseError(f"expected a formula, found {kind!r}", offset)


def parse(text: str) -> Formula:
    """Parse the ASCII syntax into a Formula."""
    p = _Parser(text)
    out = p.formula()
    kind, _, offset = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {kind!r}", offset)
    return out


_PREC_IMP, _PREC_OR, _PREC_AND, _PREC_ATOM = 1, 2, 3, 4


def render(phi: Formula) -> str:
    """Minimal-parenthesization text; parse(render(phi)) == phi."""
    return _render(phi, 0)


def _render(phi: Formula, min_prec: int) -> str:
    if isinstance(phi, Variable):
        return f"p{phi.var.index}"
    if isinstance(phi, Bottom):
        return "bot"
    if isinstance(phi, Implies):
        text = f"{_render(phi.lhs, _PREC_OR)} -> {_render(phi.rhs, _PREC_IMP)}"
        prec = _PREC_IMP
    elif isinstance(phi, Or):
        text = f"{_render(phi.lhs, _PREC_OR)} | {_render(phi.rhs, _PREC_AND)}"
        prec = _PREC_OR
    else:
        text = f"{_render(phi.lhs, _PREC_AND)} & {_render(phi.rhs, _PREC_ATOM)}"
        prec = _PREC_AND
    return f"({text})" if prec < min_prec else text


# ---------------------------------------------------------------------------
# Encoding into natural numbers.
# ---------------------------------------------------------------------------


def pairing(x: int, y: int) -> int:
    """(x + y) * (x + y + 1) + 2 * x; injective on pairs of naturals."""
    if x < 0 or y < 0:
        raise ValueError("pairing is defined on naturals only")
    return (x + y) * (x + y + 1) + 2 * x


def unpairing(n: int) -> Optional[tuple]:
    """Inverse of pairing where defined: the unique (x, y), else None.

    Finds the diagonal d with d*(d+1) <= n < (d+1)*(d+2); n is in the
    image of pairing exactly when n - d*(d+1) is even.
    """
    if n < 0:
        return None
    d = (math.isqrt(4 * n + 1) - 1) // 2
    while (d + 1) * (d + 2) <= n:
        d += 1
    while d * (d + 1) > n:
        d -= 1
    r = n - d * (d + 1)
    if r % 2:
        return None
    x = r // 2
    return (x, d - x)


_TAG_AND, _TAG_OR, _TAG_IMP = 1, 2, 3


def encode(phi: Formula) -> int:
    """Injective encoding: bot -> 0, variables via pairing(0, index + 1),
    connectives via pairing(pairing(code(lhs), tag), code(rhs)) with tags
    1 (and), 2 (or), 3 (implies)."""
    if isinstance(phi, Bottom):
        return 0
    if isinstance(phi, Variable):
        return pairing(0, phi.var.index + 1)
    tag = {And: _TAG_AND, Or: _TAG_OR, Implies: _TAG_IMP}[type(phi)]
    return pairing(pairing(encode(phi.lhs), tag), encode(phi.rhs))


def decode(n: int) -> Optional[Formula]:
    """Left inverse of encode: decode(encode(phi)) == phi; None off the image."""
    if n < 0:
        return None
    if n == 0:
        return BOT
    pair = unpairing(n)
    if pair is None:
        return None
    head, rest = pair
    if head == 0:
        return var(rest - 1) if rest >= 1 else None
    inner = unpairing(head)
    if inner is None:
        return None
    lhs_code, tag = inner
    ctor = {_TAG_AND: And, _TAG_OR: Or, _TAG_IMP: Implies}.get(tag)
    if ctor is None:
        return None
    lhs = decode(lhs_code)
    rhs = decode(rest)
    if lhs is None or rhs is None:
        return None
    return ctor(lhs, rhs)


def all_formulas(num_vars: int, max_depth: int) -> list:
    """Every formula over p0..p(num_vars-1) of depth <= max_depth,
    ordered by encode value.  This is the canonical universe order."""
    if max_depth < 1:
        return []
    atoms = [BOT] + [var(i) for i in range(num_vars)]
    layer = list(atoms)
    seen = set(layer)
    for _ in range(max_depth - 1):
        new = []
        for a in layer:
            for b in layer:
                for ctor in (And, Or, Implies):
                    f = ctor(a, b)
                    if f not in seen:
                        seen.add(f)
                        new.append(f)
        layer.extend(new)
    return sorted(seen, key=encode)
