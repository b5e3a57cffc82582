"""The premise-based witness builder, kept as a test reference.

The G4ip search of iplkit.prover, one rule per sequent: where the
prover applies a whole run of invertible left rules as one step, this
applies the first applicable rule in order_key order and searches the
sequent it yields.  Every success is rebuilt at once into a proof from
the sequent's own premises: implication introduction and disjunction splits discharge a
premise by the deduction theorem, and the left rules substitute a
derivation for the premise they add.  Each deduction folds its whole
sub-proof, and each substitution walks the whole proof.
"""

from __future__ import annotations

from typing import Optional

from iplkit.formula import (And, BOT, Bottom, Formula, Implies, Or, Variable,
                            order_key)
from iplkit.proof import (Exfalso, Exportation, ModusPonens, Premise,
                          ProofTerm, Syllogism, WeakeningConj, WeakeningDisj,
                          _and_intro, _conclusions, _deduce, _or_elim,
                          and_elim_right, k_axiom, or_intro_right,
                          subst_premise)
from iplkit.prover import DEFAULT_MAX_DEPTH, SearchBudgetExceeded


class ReferenceProver:
    """Decision procedure with witnesses memoized per sequent."""

    def __init__(self, max_depth: int = DEFAULT_MAX_DEPTH):
        self.max_depth = max_depth
        self._memo: dict = {}

    def prove(self, premises, goal: Formula) -> Optional[ProofTerm]:
        """A proof term for premises |- goal, or None if there is none."""
        return self._prove(frozenset(premises), goal, self.max_depth)

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
        return _deduce(phi, proof, _conclusions(proof, None))

    def _subst(self, proof: ProofTerm, target: Formula,
               replacement: ProofTerm) -> ProofTerm:
        return subst_premise(proof, target, replacement)

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
        for delta in sorted(prem, key=order_key):
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

        for delta in sorted(prem, key=order_key):
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
