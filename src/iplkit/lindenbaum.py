"""Provable-equivalence quotients of finite formula universes.

Formulas are grouped into classes by certified provable equivalence
under a premise set, ordered by provable implication between
representatives.  The variable-free fragment realizes the two-element
quotient; universes with variables are verified class-wise without ever
materializing the full (infinite) quotient algebra.
"""

from __future__ import annotations

from functools import cached_property

from .formula import (And, Formula, Implies, Or, TOP, _record, encode,
                      postorder, render, variable_indices)
from .kripke import forces, truth_mask
from .theories import (Fails, FormulaUniverse, Holds, Oracle,
                       OracleInconclusive, Provable, Refuted, Unknown,
                       _MAX_SCAN_VARS, _discrete, _truth_table)


class OutOfUniverse(ValueError):
    """A class combination cannot be resolved inside the universe."""


@_record
class QuotientTable:
    gamma: frozenset
    universe: FormulaUniverse
    classes: tuple          # tuple of formula tuples, each sorted by encode
    representatives: tuple  # minimal-encode member of each class
    provable_top: tuple     # bool per class: gamma proves the representative

    @cached_property
    def _class_of(self) -> dict:
        return {f: i for i, members in enumerate(self.classes) for f in members}

    def class_index(self, phi: Formula) -> int:
        try:
            return self._class_of[phi]
        except KeyError:
            raise OutOfUniverse(f"{render(phi)} is not classified") from None


def provably_equivalent(gamma, phi: Formula, psi: Formula, oracle: Oracle):
    """Holds with a checked proof of gamma |- (phi -> psi) & (psi -> phi);
    Fails with a countermodel refuting one direction under gamma."""
    gamma = frozenset(gamma)
    target = And(Implies(phi, psi), Implies(psi, phi))
    verdict = oracle.provable(gamma, target)
    if isinstance(verdict, Provable):
        return Holds(verdict.witness)
    if isinstance(verdict, Refuted):
        model, world = verdict.model, verdict.world
        direction = ("left_to_right"
                     if not forces(model, world, Implies(phi, psi))
                     else "right_to_left")
        return Fails((model, world, direction))
    return Unknown(verdict.reason)


def provably_leq(gamma, phi: Formula, psi: Formula, oracle: Oracle):
    """Class order: Holds with a proof of gamma |- phi -> psi, Fails with
    a countermodel."""
    verdict = oracle.provable(frozenset(gamma), Implies(phi, psi))
    if isinstance(verdict, Provable):
        return Holds(verdict.witness)
    if isinstance(verdict, Refuted):
        return Fails((verdict.model, verdict.world))
    return Unknown(verdict.reason)


def build_quotient(gamma, universe: FormulaUniverse,
                   oracle: Oracle) -> QuotientTable:
    """Partition the universe by provable equivalence under gamma.

    Each formula is tested only against the classes of its classical
    key, its truth mask over the assignments that satisfy gamma: formulas
    with different keys are not even classically equivalent, and the
    oracle's truth-table scan would refute them.  By the same rule a
    class whose key is not that of top is not provable-top, and the
    oracle is asked only about the others.  Every query made must be
    definitive; Unknown aborts with OracleInconclusive rather than
    guessing a class."""
    gamma = frozenset(gamma)
    classes: list = []
    by_key: dict = {}
    # top has no variables, so it leaves the truth table as it is
    keys = _classical_keys(gamma, FormulaUniverse((*universe.items, TOP)))
    sat = keys.pop()
    for phi, key in zip(universe.items, keys):
        candidates = by_key.setdefault(key, [])
        for members in candidates:
            verdict = provably_equivalent(gamma, phi, members[0], oracle)
            if isinstance(verdict, Holds):
                members.append(phi)
                break
            if isinstance(verdict, Unknown):
                raise OracleInconclusive(
                    f"equivalence of {render(phi)} and {render(members[0])} "
                    f"undecided: {verdict.reason}")
        else:
            candidates.append([phi])
            classes.append(candidates[-1])
    classes = [tuple(sorted(members, key=encode)) for members in classes]
    classes.sort(key=lambda members: encode(members[0]))
    reps = tuple(members[0] for members in classes)
    key_of = dict(zip(universe.items, keys))
    tops = []
    for rep in reps:
        # past the scan's variables every key and sat are None, so the
        # oracle decides each representative
        if key_of[rep] != sat:
            tops.append(False)
            continue
        verdict = oracle.provable(gamma, rep)
        if isinstance(verdict, Unknown):
            raise OracleInconclusive(f"provability of {render(rep)} "
                                     f"undecided: {verdict.reason}")
        tops.append(isinstance(verdict, Provable))
    return QuotientTable(gamma, universe, tuple(classes), reps, tuple(tops))


def _classical_keys(gamma: frozenset, universe: FormulaUniverse) -> list:
    """Each item's truth mask, cut to the assignments that satisfy gamma,
    over the oracle's truth table; all None past the variables that the
    oracle scans, so a query is skipped only where the scan refutes it."""
    idx = tuple(variable_indices([*gamma, *universe.items]))
    if len(idx) > _MAX_SCAN_VARS:
        return [None] * len(universe.items)
    atoms, full = _truth_table(idx)
    memo: dict = {}
    sat = full
    for g in gamma:
        sat &= truth_mask(g, atoms, full, _discrete, memo)
    return [truth_mask(f, atoms, full, _discrete, memo) & sat
            for f in universe.items]


def class_of(table: QuotientTable, phi: Formula) -> int:
    """Class of phi: direct lookup inside the universe, otherwise the
    homomorphic combination of its parts' classes wherever some member
    combination lies in the universe.  One post-order walk over phi's
    distinct subformulas, with universe members as its leaves: a universe
    need not hold the subformulas of its members."""
    def parts(f):
        if f in table.universe or not isinstance(f, (And, Or, Implies)):
            return ()
        return f.lhs, f.rhs
    classes: dict = {}
    for f in postorder([phi], parts):
        if f in table.universe:
            classes[f] = table.class_index(f)
            continue
        if not parts(f):
            raise OutOfUniverse(f"{render(f)} is not in the universe")
        i, j = classes[f.lhs], classes[f.rhs]
        combos = (type(f)(m1, m2) for m1 in table.classes[i]
                  for m2 in table.classes[j])
        combo = next((c for c in combos if c in table.universe), None)
        if combo is None:
            raise OutOfUniverse(f"no {type(f).__name__} combination of "
                                f"classes {i} and {j} lies in the universe")
        classes[f] = table.class_index(combo)
    return classes[phi]


def quotient_ops_well_defined(gamma, universe: FormulaUniverse,
                              oracle: Oracle) -> bool:
    """The class of a combination depends only on the operand classes,
    for each connective, over all combinations inside the universe."""
    table = build_quotient(gamma, universe, oracle)
    for ctor in (And, Or, Implies):
        seen: dict = {}
        for a in universe.items:
            for b in universe.items:
                combo = ctor(a, b)
                if combo not in universe:
                    continue
                key = (table.class_index(a), table.class_index(b))
                cls = table.class_index(combo)
                if seen.setdefault(key, cls) != cls:
                    return False
    return True


def truth_matches_provability(gamma, universe: FormulaUniverse,
                              oracle: Oracle) -> bool:
    """Truth in the quotient coincides with provability: every premise
    lands in a provable-top class, and a universe formula's class is
    provable-top exactly when gamma proves the formula."""
    gamma = frozenset(gamma)
    if not gamma <= set(universe.items):
        raise ValueError("gamma must be a subset of the universe")
    table = build_quotient(gamma, universe, oracle)
    for g in gamma:
        if not table.provable_top[class_of(table, g)]:
            return False
    for phi in universe.items:
        verdict = oracle.provable(gamma, phi)
        if isinstance(verdict, Unknown):
            raise OracleInconclusive(f"provability of {render(phi)} "
                                     f"undecided: {verdict.reason}")
        if table.provable_top[class_of(table, phi)] != isinstance(verdict, Provable):
            return False
    return True
