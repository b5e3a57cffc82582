"""Deductive-theory predicates and consistent-pair saturation.

Everything here is relative to a pluggable oracle that never asserts an
uncertified verdict: Provable always carries a kernel-checked witness,
Refuted always carries a re-validated countermodel, and anything beyond
the depth budget is Unknown.
"""

from __future__ import annotations

import os
from functools import cached_property, lru_cache
from typing import Optional

from .formula import (And, BOT, Formula, Or, TOP, _record, all_formulas,
                      order_key, render, variable_indices)
from .kripke import (KripkeModel, first_refutation, forces, forces_all,
                     make_model, validate_model)
from .proof import ProofTerm, check, premises
from .prover import DEFAULT_MAX_DEPTH, Prover, SearchBudgetExceeded

# The most variables the classical truth-table scan covers (2^16 worlds).
_MAX_SCAN_VARS = 16

# The most scan records an oracle keeps, one per variable set, the most
# recently used last.  A quotient over 3 variables meets at most 8 sets,
# one per subset of its variables.
_SCAN_RECORDS = 16


@_record
class Budget:
    max_depth: int = DEFAULT_MAX_DEPTH


def budget_from_env(text: Optional[str] = None) -> Budget:
    """Parse the IPLKIT_BUDGET setting, e.g. "depth=512"."""
    if text is None:
        text = os.environ.get("IPLKIT_BUDGET", "")
    if not text.strip():
        return Budget()
    for part in text.split(","):
        key, _, value = part.partition("=")
        if key.strip() != "depth" or not value.strip().isdigit():
            raise ValueError(f"bad IPLKIT_BUDGET entry {part!r}")
    return Budget(max_depth=int(value))


@_record
class Provable:
    witness: ProofTerm


@_record
class Refuted:
    model: KripkeModel
    world: int


@_record
class Unknown:
    reason: str


@_record
class Holds:
    evidence: object = None


@_record
class Fails:
    witness: object = None


class OracleInconclusive(Exception):
    """A verdict needed definitively came back Unknown."""


class Oracle:
    """Three-valued provability oracle with certificates.

    Strategy: a classical truth-table scan first (a refuting assignment
    is a one-world countermodel), then backward proof search, which
    decides every query within its depth budget.  Classical logic extends
    this one, so a classical refutation is always sound here.  Each query
    gets a fresh prover, whose memo of derivations lives as long as the
    query: a proved query's witness is replayed from it once and checked
    by the kernel against gamma, and a failed search yields a countermodel.

    The oracle keeps no verdicts: every call decides and certifies its
    query afresh.  Its records across queries are the truth-table scans
    of its variable sets, idx -> (atoms, full, memo, models), one per
    set up to the _SCAN_RECORDS most recently used, so the queries over
    one set evaluate each shared subformula once and share the one-world
    countermodel of each refuting assignment, whose forcing memo is warm,
    even when queries over other sets come between them.  A record holds
    only what its variable set determines, so the certificates are those
    of a fresh oracle.
    """

    def __init__(self, budget: Optional[Budget] = None):
        self.budget = budget or Budget()
        self._scans: dict = {}

    def provable(self, gamma, phi: Formula):
        gamma = frozenset(gamma)
        refutation = self._classical_countermodel(gamma, phi)
        if refutation is not None:
            return self._certify_refuted(gamma, phi, refutation, 0)
        prover = Prover(self.budget.max_depth)
        try:
            proof = prover.prove(gamma, phi)
        except SearchBudgetExceeded:
            return Unknown("proof search depth budget exhausted "
                           f"(depth={self.budget.max_depth})")
        if proof is None:
            return self._certify_refuted(
                gamma, phi, *prover.countermodel(gamma, phi))
        conclusion = check(gamma, proof)
        if conclusion != phi:
            raise RuntimeError("prover returned a witness for the wrong "
                               f"conclusion: {render(conclusion)}")
        return Provable(proof)

    def _classical_countermodel(self, gamma: frozenset,
                                phi: Formula) -> Optional[KripkeModel]:
        idx = tuple(variable_indices([*gamma, phi]))
        k = len(idx)
        if k > _MAX_SCAN_VARS:
            return None
        scans = self._scans
        scan = scans.pop(idx, None)
        if scan is None:
            scan = (*_truth_table(idx), {}, {})
            if len(scans) >= _SCAN_RECORDS:
                del scans[next(iter(scans))]
        scans[idx] = scan
        # the memo's keys are ids, which is safe only because
        # formula._TABLE never evicts a node, so no id is reused
        atoms, full, memo, models = scan
        world = first_refutation(gamma, phi, atoms, full, _discrete, memo)
        if world is None:
            return None
        model = models.get(world)
        if model is None:
            model = models[world] = make_model(
                1, {(0, 0)}, {v: [0] if world >> (k - 1 - i) & 1 else []
                              for i, v in enumerate(idx)})
        return model

    def _certify_refuted(self, gamma, phi, model, world) -> Refuted:
        if validate_model(model):
            raise RuntimeError("refutation certificate is not a valid model")
        if not forces_all(model, world, gamma) or forces(model, world, phi):
            raise RuntimeError("refutation certificate does not re-evaluate")
        return Refuted(model, world)


def _truth_table(idx: tuple) -> tuple:
    """(atoms, full) of the discrete frame of all assignments to the k
    variables of idx.  World j is the j-th assignment in truth-table
    order, False before True and idx[0] slowest: idx[i] holds at j iff
    bit k-1-i of j is set, the upper half of each block of 2 * run."""
    k = len(idx)
    full = (1 << (1 << k)) - 1
    atoms = {}
    for i, v in enumerate(idx):
        run = 1 << (k - 1 - i)
        atoms[v] = full // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run)
    return atoms, full


def _discrete(mask: int) -> int:
    """down in a discrete frame: every world sees only itself."""
    return mask


# ---------------------------------------------------------------------------
# Formula universes.
# ---------------------------------------------------------------------------


@_record
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


# The most formulas canonical_universe builds.  The largest universe under
# it, canonical_universe(6, 2) with 71,155 formulas, takes about 1 s and
# 60 MB through `iplkit universe`; the next size up for three variables,
# canonical_universe(3, 3), would hold about 2 * 10^8.
MAX_UNIVERSE = 100_000


def canonical_universe(num_vars: int, depth: int) -> FormulaUniverse:
    """All formulas over p0..p(num_vars-1) of connective depth <= depth
    (atoms have connective depth 0), ordered by encode value.  Raises
    ValueError on a negative argument, or when the universe would hold
    more than MAX_UNIVERSE formulas, before building any."""
    if num_vars < 0 or depth < 0:
        raise ValueError("universe variables and depth must not be negative")
    # s_d formulas have connective depth below d: s_1 = num_vars + 1
    # atoms, and s_{d+1} = s_d + 3 (s_d^2 - s_{d-1}^2), since a new
    # formula joins two of depth below d, not both below d - 1
    prev, size = 0, num_vars + 1
    for _ in range(depth):
        if size > MAX_UNIVERSE:
            break
        prev, size = size, size + 3 * (size * size - prev * prev)
    if size > MAX_UNIVERSE:
        raise ValueError(f"universe of {num_vars} variables and depth {depth}"
                         f" exceeds MAX_UNIVERSE = {MAX_UNIVERSE} formulas")
    return FormulaUniverse(tuple(all_formulas(num_vars, depth + 1)))


# ---------------------------------------------------------------------------
# Pairs.
# ---------------------------------------------------------------------------


@_record
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
        for side in (lhs, rhs):
            if isinstance(side, Unknown):
                return Unknown(f"disjunct provability undecided: "
                               f"{side.reason}")
        return Fails((phi.lhs, phi.rhs, both.witness, lhs, rhs))
    return Holds()


@lru_cache(maxsize=16)
def _right_goal(right: frozenset) -> Formula:
    """The fold of a pair's right side in order_key order, built once
    per right side: saturation asks it of each step, and the right side
    changes only when a formula goes right."""
    return disj_fold(sorted(right, key=order_key))


def _pair_decision(pair: FormulaPair, oracle: Oracle):
    """Oracle verdict for the pair's defining query: the left side proving
    the fold of the right side."""
    return oracle.provable(pair.left, _right_goal(pair.right))


def pair_consistent(pair: FormulaPair, oracle: Oracle):
    """Consistency of a pair of formula sets, from the one oracle query
    of the left side proving the fold of the right side.

    Holds carries that query's countermodel (a world forcing the whole
    left side and refuting every right-side formula), which refutes the
    defining implication of every subset pair at once.  Fails carries
    (Phi, Omega, proof): Phi the left formulas that the oracle's proof
    uses as premises, Omega the whole right side, both sorted by
    order_key, and the oracle's kernel-checked proof itself, which
    derives disj_fold(Omega) from the premises Phi.
    """
    verdict = _pair_decision(pair, oracle)
    if isinstance(verdict, Refuted):
        return Holds((verdict.model, verdict.world))
    if isinstance(verdict, Unknown):
        return Unknown(verdict.reason)
    proof = verdict.witness
    phi_sub = tuple(sorted(premises(proof), key=order_key))
    omega_sub = tuple(sorted(pair.right, key=order_key))
    if check(phi_sub, proof) != _right_goal(pair.right):
        raise RuntimeError("pair witness does not check")
    return Fails((phi_sub, omega_sub, proof))


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
