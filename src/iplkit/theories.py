"""Deductive-theory predicates and consistent-pair saturation.

Everything here is relative to a pluggable oracle that never asserts an
uncertified verdict: Provable always carries a kernel-checked witness,
Refuted always carries a re-validated countermodel, and anything beyond
the configured budgets is Unknown.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional

from .formula import (And, BOT, Formula, Implies, Or, TOP, all_formulas,
                      order_key, render, variable_indices)
from .kripke import (CountermodelSearchTooLarge, KripkeModel,
                     find_countermodel, first_refutation, forces, forces_all,
                     make_model, validate_model)
from .proof import ProofTerm, check
from .prover import DEFAULT_MAX_DEPTH, Prover, SearchBudgetExceeded

# Subset pairs that pair_consistent tries before the whole pair.
MAX_SUBSET_PAIRS = 20000


@dataclass(frozen=True)
class Budget:
    max_worlds: int = 4
    max_depth: int = DEFAULT_MAX_DEPTH


def budget_from_env(text: Optional[str] = None) -> Budget:
    """Parse the IPLKIT_BUDGET setting, e.g. "worlds=4,depth=512"."""
    if text is None:
        text = os.environ.get("IPLKIT_BUDGET", "")
    if not text.strip():
        return Budget()
    fields = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in ("worlds", "depth") or not value.strip().isdigit():
            raise ValueError(f"bad IPLKIT_BUDGET entry {part!r}")
        fields[key] = int(value)
    return Budget(max_worlds=fields.get("worlds", Budget.max_worlds),
                  max_depth=fields.get("depth", Budget.max_depth))


@dataclass(frozen=True)
class Provable:
    witness: Optional[ProofTerm] = None


@dataclass(frozen=True)
class Refuted:
    model: KripkeModel
    world: int


@dataclass(frozen=True)
class Unknown:
    reason: str = ""


@dataclass(frozen=True)
class Holds:
    evidence: object = None


@dataclass(frozen=True)
class Fails:
    witness: object = None


class OracleInconclusive(Exception):
    """A verdict needed definitively came back Unknown."""


class Oracle:
    """Three-valued provability oracle with certificates.

    Strategy: a classical truth-table scan first (a refuting assignment
    is a one-world countermodel), then backward proof search, then
    bounded countermodel search.  Classical logic extends this one, so a
    classical refutation is always sound here.  The prover's memo of
    derivations lives as long as the oracle; a proved query's witness is
    replayed from it once and checked by the kernel against gamma.
    """

    def __init__(self, budget: Optional[Budget] = None):
        self.budget = budget or Budget()
        self._prover = Prover(self.budget.max_depth)
        self._cache: dict = {}

    def provable(self, gamma, phi: Formula):
        gamma = frozenset(gamma)
        key = (gamma, phi)
        if key in self._cache:
            return self._cache[key]
        verdict = self._decide(gamma, phi)
        self._cache[key] = verdict
        return verdict

    def _decide(self, gamma: frozenset, phi: Formula):
        refutation = self._classical_countermodel(gamma, phi)
        if refutation is not None:
            return self._certify_refuted(gamma, phi, refutation, 0)
        exhausted = False
        try:
            proof = self._prover.prove(gamma, phi)
        except SearchBudgetExceeded:
            proof = None
            exhausted = True
        if proof is not None:
            conclusion = check(gamma, proof)
            if conclusion != phi:
                raise RuntimeError("prover returned a witness for the wrong "
                                   f"conclusion: {render(conclusion)}")
            return Provable(proof)
        worlds = self.budget.max_worlds
        try:
            found = find_countermodel(gamma, phi, worlds)
        except CountermodelSearchTooLarge as exc:
            found, searched = None, str(exc)
        else:
            searched = f"no countermodel within {worlds} worlds"
        if found is not None:
            return self._certify_refuted(gamma, phi, found[0], found[1])
        if exhausted:
            return Unknown("proof search depth budget exhausted and "
                           + searched)
        return Unknown(f"{searched} (search is not a provability certificate)")

    def try_prove(self, gamma, phi: Formula) -> Optional[ProofTerm]:
        """Witness or None; never searches for countermodels."""
        gamma = frozenset(gamma)
        if self._classical_countermodel(gamma, phi) is not None:
            return None
        try:
            return self._prover.prove(gamma, phi)
        except SearchBudgetExceeded:
            return None

    def _classical_countermodel(self, gamma: frozenset,
                                phi: Formula) -> Optional[KripkeModel]:
        idx = variable_indices([*gamma, phi])
        k = len(idx)
        if k > 16:
            return None
        # World j of a discrete frame is the j-th assignment in truth-table
        # order, False before True and idx[0] slowest: idx[i] holds at j
        # iff bit k-1-i of j is set, the upper half of each block of 2 * run.
        full = (1 << (1 << k)) - 1
        atoms = {}
        for i, v in enumerate(idx):
            run = 1 << (k - 1 - i)
            atoms[v] = full // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run)
        world = first_refutation(gamma, phi, atoms, full, lambda mask: mask)
        if world is None:
            return None
        return make_model(1, {(0, 0)},
                          {v: [0] if world >> (k - 1 - i) & 1 else []
                           for i, v in enumerate(idx)})

    def _certify_refuted(self, gamma, phi, model, world) -> Refuted:
        if validate_model(model):
            raise RuntimeError("refutation certificate is not a valid model")
        if not forces_all(model, world, gamma) or forces(model, world, phi):
            raise RuntimeError("refutation certificate does not re-evaluate")
        return Refuted(model, world)


# ---------------------------------------------------------------------------
# Formula universes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormulaUniverse:
    """A duplicate-free finite formula list with its position index."""

    items: tuple

    @cached_property
    def _index(self) -> dict:
        return {f: i for i, f in enumerate(self.items)}

    def enumeration(self, i: int) -> Formula:
        return self.items[i]

    def code(self, phi: Formula) -> int:
        try:
            return self._index[phi]
        except KeyError:
            raise ValueError("formula is not in the universe") from None

    def __contains__(self, phi: Formula) -> bool:
        return phi in self._index

    def __len__(self) -> int:
        return len(self.items)


def make_universe(formulas) -> FormulaUniverse:
    items = tuple(formulas)
    if len(set(items)) != len(items):
        raise ValueError("universe items must be duplicate-free")
    return FormulaUniverse(items)


def canonical_universe(num_vars: int, depth: int) -> FormulaUniverse:
    """All formulas over p0..p(num_vars-1) of connective depth <= depth
    (atoms have connective depth 0), ordered by encode value."""
    return FormulaUniverse(tuple(all_formulas(num_vars, depth + 1)))


# ---------------------------------------------------------------------------
# Pairs.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormulaPair:
    left: frozenset
    right: frozenset


def make_pair(left, right) -> FormulaPair:
    return FormulaPair(frozenset(left), frozenset(right))


def conj_fold(formulas) -> Formula:
    """Right fold of & over the list with seed ~bot (the empty conjunction)."""
    out: Formula = TOP
    for f in reversed(list(formulas)):
        out = And(f, out)
    return out


def disj_fold(formulas) -> Formula:
    """Right fold of | over the list with seed bot (the empty disjunction)."""
    out: Formula = BOT
    for f in reversed(list(formulas)):
        out = Or(f, out)
    return out


def is_consistent(gamma, oracle: Oracle):
    """Holds iff gamma does not prove bot, with a countermodel certificate."""
    verdict = oracle.provable(frozenset(gamma), BOT)
    if isinstance(verdict, Provable):
        return Fails(verdict.witness)
    if isinstance(verdict, Refuted):
        return Holds((verdict.model, verdict.world))
    return Unknown(verdict.reason)


def is_ded_closed(gamma, universe: FormulaUniverse, oracle: Oracle):
    """Deductive closure relative to the universe: Fails carries the first
    provable universe formula outside gamma."""
    gamma = frozenset(gamma)
    if not gamma <= set(universe.items):
        raise ValueError("gamma must be a subset of the universe")
    for phi in universe.items:
        if phi in gamma:
            continue
        verdict = oracle.provable(gamma, phi)
        if isinstance(verdict, Provable):
            return Fails((phi, verdict.witness))
        if isinstance(verdict, Unknown):
            return Unknown(verdict.reason)
    return Holds()


def is_disjunctive(gamma, universe: FormulaUniverse, oracle: Oracle):
    """Disjunction property relative to disjunctions in the universe:
    Fails carries (phi, psi) with gamma proving the disjunction but
    refuting both disjuncts, certificates on all three queries."""
    gamma = frozenset(gamma)
    if not gamma <= set(universe.items):
        raise ValueError("gamma must be a subset of the universe")
    for phi in universe.items:
        if not isinstance(phi, Or):
            continue
        both = oracle.provable(gamma, phi)
        if isinstance(both, Unknown):
            return Unknown(both.reason)
        if isinstance(both, Refuted):
            continue
        lhs = oracle.provable(gamma, phi.lhs)
        if isinstance(lhs, Provable):
            continue
        rhs = oracle.provable(gamma, phi.rhs)
        if isinstance(rhs, Provable):
            continue
        if isinstance(lhs, Unknown) or isinstance(rhs, Unknown):
            return Unknown("disjunct provability undecided")
        return Fails((phi.lhs, phi.rhs, both.witness, lhs, rhs))
    return Holds()


def _pair_decision(pair: FormulaPair, oracle: Oracle):
    """Oracle verdict for the pair's defining query: the left side proving
    the fold of the right side."""
    right = sorted(pair.right, key=order_key)
    return oracle.provable(pair.left, disj_fold(right))


def _subset_pairs(left: list, right: list):
    """(Phi, Omega) subset pairs by increasing combined cardinality, then
    subset size, then positionally (both sides are sorted by order_key)."""
    for total in range(len(left) + len(right) + 1):
        for k in range(total + 1):
            if k > len(left) or total - k > len(right):
                continue
            for phi_sub in combinations(left, k):
                for omega_sub in combinations(right, total - k):
                    yield phi_sub, omega_sub


def pair_consistent(pair: FormulaPair, oracle: Oracle):
    """Consistency of a pair of formula sets.

    Holds carries one countermodel (a world forcing the whole left side
    and refuting every right-side formula), which refutes the defining
    implication of every subset pair at once.  Fails carries the first
    provable subset pair (Phi, Omega) together with a checked proof of
    conj_fold(Phi) -> disj_fold(Omega) from no premises.
    """
    verdict = _pair_decision(pair, oracle)
    if isinstance(verdict, Refuted):
        return Holds((verdict.model, verdict.world))
    if isinstance(verdict, Unknown):
        return Unknown(verdict.reason)
    left = sorted(pair.left, key=order_key)
    right = sorted(pair.right, key=order_key)
    budget = MAX_SUBSET_PAIRS
    for phi_sub, omega_sub in _subset_pairs(left, right):
        if budget <= 0:
            break
        budget -= 1
        target = Implies(conj_fold(phi_sub), disj_fold(omega_sub))
        proof = oracle.try_prove(frozenset(), target)
        if proof is not None:
            if check(frozenset(), proof) != target:
                raise RuntimeError("subset-pair witness does not check")
            return Fails((phi_sub, omega_sub, proof))
    target = Implies(conj_fold(left), disj_fold(right))
    proof = oracle.try_prove(frozenset(), target)
    if proof is None:
        return Unknown("pair is provably inconsistent but witness search "
                       "exceeded the subset budget")
    return Fails((tuple(left), tuple(right), proof))


def add_formula_to_pair(pair: FormulaPair, phi: Formula,
                        oracle: Oracle) -> FormulaPair:
    """Add phi to the left side iff the left-extended pair stays
    consistent, otherwise to the right side.  Requires the input pair to
    be consistent; then the result is consistent too."""
    left_ext = FormulaPair(pair.left | {phi}, pair.right)
    verdict = _pair_decision(left_ext, oracle)
    if isinstance(verdict, Unknown):
        raise OracleInconclusive(
            f"cannot settle consistency after adding {render(phi)}: "
            f"{verdict.reason}")
    if isinstance(verdict, Refuted):
        return left_ext
    return FormulaPair(pair.left, pair.right | {phi})


def saturation_trace(pair: FormulaPair, universe: FormulaUniverse,
                     oracle: Oracle) -> list:
    """The pair after each enumeration step, starting with the input."""
    if not (pair.left <= set(universe.items)
            and pair.right <= set(universe.items)):
        raise ValueError("pair sides must be subsets of the universe")
    start = _pair_decision(pair, oracle)
    if isinstance(start, Unknown):
        raise OracleInconclusive(start.reason)
    if isinstance(start, Provable):
        raise ValueError("saturate_pair requires a consistent pair")
    trace = [pair]
    for i in range(len(universe)):
        pair = add_formula_to_pair(pair, universe.enumeration(i), oracle)
        trace.append(pair)
    return trace


def saturate_pair(pair: FormulaPair, universe: FormulaUniverse,
                  oracle: Oracle) -> FormulaPair:
    """Fold add_formula_to_pair over the whole universe enumeration.

    The result includes the input component-wise and partitions the
    universe items between its two sides."""
    return saturation_trace(pair, universe, oracle)[-1]


def family_increasing_check(pair: FormulaPair, universe: FormulaUniverse,
                            oracle: Oracle) -> bool:
    """Both components grow monotonically along the saturation trace."""
    trace = saturation_trace(pair, universe, oracle)
    return all(a.left <= b.left and a.right <= b.right
               for a, b in zip(trace, trace[1:]))
