"""The recursive-descent parser and the recursive renderer, kept as
test references for the iterative ones in iplkit.formula.

Each grammar level is one method and each connective one recursive call,
so both walk at most a few hundred levels deep before the interpreter's
stack limit; the differential tests stay well inside that.

formula := iff ; iff := imp ("<->" imp)*  (right-assoc, sugar)
imp  := disj ("->" imp)?                  (right-assoc)
disj := conj ("|" conj)*                  (left-assoc)
conj := neg ("&" neg)*                    (left-assoc)
neg  := "~" neg | atom
atom := "bot" | "top" | VAR | "(" formula ")" ; VAR := "p" [0-9]+
"""

from __future__ import annotations

from iplkit.formula import (And, BOT, Bottom, Formula, Implies, Or,
                            ParseError, TOP, Variable, _tokenize, iff, neg,
                            var)


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


def reference_parse(text: str) -> Formula:
    """The recursive-descent parse of the same grammar."""
    p = _Parser(text)
    out = p.formula()
    kind, _, offset = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {kind!r}", offset)
    return out


_PREC_IMP, _PREC_OR, _PREC_AND, _PREC_ATOM = 1, 2, 3, 4


def reference_render(phi: Formula) -> str:
    """The recursive minimal-parenthesization renderer."""
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
