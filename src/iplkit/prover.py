"""Backward proof search with witness extraction.

Decides sequents premises |- goal by a contraction-free backward search
(invertible rules first, then backtracking over disjunction introduction
and nested-implication premises) and rebuilds every success into an
explicit kernel proof term.  The search terminates on its own; the depth
budget only guards against defects and is surfaced as
SearchBudgetExceeded so callers can report an inconclusive verdict
instead of a wrong one.
"""

from __future__ import annotations

from typing import Optional

from .formula import And, BOT, Bottom, Formula, Implies, Or, Variable, encode
from .proof import (Exfalso, Exportation, ModusPonens, Premise, ProofTerm,
                    Syllogism, WeakeningConj, WeakeningDisj, _and_intro,
                    _deduce, _or_elim, and_elim_right, k_axiom,
                    or_intro_right, subst_premise)

DEFAULT_MAX_DEPTH = 512


class SearchBudgetExceeded(Exception):
    pass


class Prover:
    """Reusable decision procedure; verdicts and witnesses are memoized
    per (premises, goal) sequent.

    Witness building shares one table of proof._conclusion_map per query
    (conclusion and free premises of every node built so far), so each
    deduction or premise substitution walks only the spine that uses the
    premise.  The table keeps its nodes alive and is dropped when the
    query ends.
    """

    def __init__(self, max_depth: int = DEFAULT_MAX_DEPTH):
        self.max_depth = max_depth
        self._memo: dict = {}
        self._table: dict = {}

    def prove(self, premises, goal: Formula) -> Optional[ProofTerm]:
        """A proof term for premises |- goal, or None if there is none."""
        try:
            return self._prove(frozenset(premises), goal, self.max_depth)
        finally:
            self._table.clear()

    def _prove(self, prem: frozenset, goal: Formula,
               depth: int) -> Optional[ProofTerm]:
        key = (prem, goal)
        if key in self._memo:
            return self._memo[key]
        if depth <= 0:
            raise SearchBudgetExceeded(
                f"proof search exceeded depth {self.max_depth}")
        out = self._search(prem, goal, depth - 1)
        self._memo[key] = out
        return out

    def _deduction(self, phi: Formula, proof: ProofTerm) -> ProofTerm:
        # internal fast path: shapes are known good, skip premise checks
        return _deduce(phi, proof, self._table)

    def _subst(self, proof: ProofTerm, target: Formula,
               replacement: ProofTerm) -> ProofTerm:
        return subst_premise(proof, target, replacement, self._table)

    def _search(self, prem: frozenset, goal: Formula,
                depth: int) -> Optional[ProofTerm]:
        if goal in prem:
            return Premise(goal)
        if BOT in prem:
            return ModusPonens(Premise(BOT), Exfalso(goal))

        if isinstance(goal, Implies):
            sub = self._prove(prem | {goal.lhs}, goal.rhs, depth)
            if sub is None:
                return None
            return self._deduction(goal.lhs, sub)
        if isinstance(goal, And):
            p1 = self._prove(prem, goal.lhs, depth)
            if p1 is None:
                return None
            p2 = self._prove(prem, goal.rhs, depth)
            if p2 is None:
                return None
            return _and_intro(goal.lhs, goal.rhs, p1, p2)

        # invertible premise rules: commit to the first applicable one
        for delta in sorted(prem, key=encode):
            if isinstance(delta, And):
                a, b = delta.lhs, delta.rhs
                q = self._prove((prem - {delta}) | {a, b}, goal, depth)
                if q is None:
                    return None
                q = self._subst(
                    q, a, ModusPonens(Premise(delta), WeakeningConj(a, b)))
                if b != a:
                    q = self._subst(
                        q, b, ModusPonens(Premise(delta), and_elim_right(a, b)))
                return q
            if isinstance(delta, Or):
                a, b = delta.lhs, delta.rhs
                q1 = self._prove((prem - {delta}) | {a}, goal, depth)
                if q1 is None:
                    return None
                q2 = self._prove((prem - {delta}) | {b}, goal, depth)
                if q2 is None:
                    return None
                split = _or_elim(a, b, goal,
                                 self._deduction(a, q1), self._deduction(b, q2))
                return ModusPonens(Premise(delta), split)
            if isinstance(delta, Implies):
                ante, body = delta.lhs, delta.rhs
                if isinstance(ante, Bottom):
                    # bot -> body carries no information
                    return self._prove(prem - {delta}, goal, depth)
                if isinstance(ante, Variable) and ante in prem:
                    q = self._prove((prem - {delta}) | {body}, goal, depth)
                    if q is None:
                        return None
                    return self._subst(
                        q, body, ModusPonens(Premise(ante), Premise(delta)))
                if isinstance(ante, And):
                    rep = Implies(ante.lhs, Implies(ante.rhs, body))
                    q = self._prove((prem - {delta}) | {rep}, goal, depth)
                    if q is None:
                        return None
                    return self._subst(q, rep, Exportation(Premise(delta)))
                if isinstance(ante, Or):
                    rep1 = Implies(ante.lhs, body)
                    rep2 = Implies(ante.rhs, body)
                    q = self._prove((prem - {delta}) | {rep1, rep2}, goal, depth)
                    if q is None:
                        return None
                    q = self._subst(q, rep1, Syllogism(
                        WeakeningDisj(ante.lhs, ante.rhs), Premise(delta)))
                    if rep2 != rep1:
                        q = self._subst(q, rep2, Syllogism(
                            or_intro_right(ante.lhs, ante.rhs), Premise(delta)))
                    return q

        # choice points: disjunctive goal, then nested-implication premises
        if isinstance(goal, Or):
            p = self._prove(prem, goal.lhs, depth)
            if p is not None:
                return ModusPonens(p, WeakeningDisj(goal.lhs, goal.rhs))
            p = self._prove(prem, goal.rhs, depth)
            if p is not None:
                return ModusPonens(p, or_intro_right(goal.lhs, goal.rhs))

        for delta in sorted(prem, key=encode):
            if not (isinstance(delta, Implies) and isinstance(delta.lhs, Implies)):
                continue
            inner, body = delta.lhs, delta.rhs
            q1 = self._prove((prem - {delta}) | {Implies(inner.rhs, body)},
                             inner, depth)
            if q1 is None:
                continue
            q2 = self._prove((prem - {delta}) | {body}, goal, depth)
            if q2 is None:
                continue
            h = Premise(delta)
            inner_to_body = Syllogism(k_axiom(inner.rhs, inner.lhs), h)
            q1 = self._subst(q1, Implies(inner.rhs, body), inner_to_body)
            body_proof = ModusPonens(q1, h)
            return self._subst(q2, body, body_proof)
        return None
