"""Both directions between Kripke models and Heyting algebras.

A Kripke model induces the Heyting algebra of its upward-closed world
sets; a Heyting algebra with an interpretation induces the Kripke model
on its prime filters ordered by inclusion.  The harness cross-checks
that validity agrees along both constructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations
from typing import Optional

from .formula import Formula, _ones, render, variable_indices, variables
from .heyting import (FiniteHeytingAlgebra, Interpretation,
                      consequence_over_algebras, interpret, make_algebra,
                      make_interpretation, prime_filters, true_in_algebra,
                      validate_algebra)
from .kripke import (KripkeModel, _closed_masks, _ModelFamily, make_model,
                     truth_mask, valid_in_model, validate_model)


def closed_sets(model: KripkeModel) -> list:
    """All upward-closed world sets, ordered by (size, elements)."""
    return list(map(frozenset, map(_ones, _closed_set_masks(model))))


def _closed_set_masks(model: KripkeModel) -> list:
    """The masks of closed_sets(model), in its order."""
    return sorted(_closed_masks(model.rel, model.worlds, up=True),
                  key=lambda m: (m.bit_count(), tuple(_ones(m))))


@dataclass(frozen=True)
class ClosedSetAlgebra:
    model: KripkeModel
    sets: tuple  # closed sets, in canonical order; element i is sets[i]
    algebra: FiniteHeytingAlgebra

    def index(self, subset: frozenset) -> int:
        return self.sets.index(subset)


def closed_set_algebra(model: KripkeModel, name: str = "") -> ClosedSetAlgebra:
    """The Heyting algebra of closed sets: join is union, meet is
    intersection, and himp(A, B) is W minus the worlds that see a world
    of A minus B."""
    if validate_model(model):
        raise ValueError("closed_set_algebra requires a valid model")
    masks = _closed_set_masks(model)
    sets = tuple(map(frozenset, map(_ones, masks)))
    index = {m: i for i, m in enumerate(masks)}
    _, full, down = model.masks
    size = len(sets)
    le = [[a & ~b == 0 for b in masks] for a in masks]
    meet = [[index[a & b] for b in masks] for a in masks]
    join = [[index[a | b] for b in masks] for a in masks]
    # himp(A, B) depends on A minus B alone: each distinct difference d is
    # walked down once, from d minus its lowest world when that came first
    imp, downs = {}, {0: 0}
    for d in sorted({a & ~b for a in masks for b in masks}, key=int.bit_count):
        rest = d & (d - 1)
        downs[d] = downs[rest] | down(d ^ rest) if rest in downs else down(d)
        imp[d] = index[full & ~downs[d]]
    himp = [[imp[a & ~b] for b in masks] for a in masks]
    alg = make_algebra(size, le, meet, join, himp, index[0], index[full],
                       name or f"Up({model.worlds}w)")
    bad = validate_algebra(alg)
    if bad:
        raise RuntimeError(f"closed-set algebra failed validation: {bad[0]}")
    return ClosedSetAlgebra(model, sets, alg)


def truth_set(model: KripkeModel, phi: Formula) -> frozenset:
    """The worlds forcing phi; always a closed set."""
    mask = truth_mask(phi, *model.masks)
    out = frozenset(w for w in range(model.worlds) if mask >> w & 1)
    for i, j in model.rel:
        if i in out and j not in out:
            raise RuntimeError(f"truth set of {render(phi)} is not closed")
    return out


def canonical_interpretation(csa: ClosedSetAlgebra, phi: Formula) -> Interpretation:
    """Variables go to (the indices of) their truth sets."""
    assignment = {v.index: csa.index(csa.model.true_worlds(v.index))
                  for v in variables(phi)}
    return make_interpretation(csa.algebra, assignment)


def model_algebra_agreement(model: KripkeModel, phi: Formula) -> bool:
    """Validity in the model coincides with truth in its closed-set
    algebra under the truth-set interpretation, and the interpretation
    computes exactly the truth set of phi."""
    csa = closed_set_algebra(model)
    interp = canonical_interpretation(csa, phi)
    element = interpret(interp, phi)
    if element != csa.index(truth_set(model, phi)):
        return False
    return valid_in_model(model, phi) == (element == csa.algebra.top)


def prime_filter_frame(alg: FiniteHeytingAlgebra,
                       interp: Interpretation) -> KripkeModel:
    """The Kripke model on prime filters ordered by inclusion; a variable
    holds at a filter iff its interpretation belongs to the filter."""
    filters = prime_filters(alg)
    if not filters:
        raise ValueError("the algebra has no prime filters")
    rel = {(i, j) for i in range(len(filters)) for j in range(len(filters))
           if filters[i] <= filters[j]}
    valuation = {v: [i for i, f in enumerate(filters) if e in f]
                 for v, e in interp.assignment}
    model = make_model(len(filters), rel, valuation)
    if validate_model(model):
        raise RuntimeError("prime-filter frame failed validation")
    return model


def algebra_model_agreement(alg: FiniteHeytingAlgebra,
                            interp: Interpretation, phi: Formula) -> bool:
    """Truth in the algebraic model coincides with validity in its
    prime-filter frame; moreover a world (a prime filter) forces phi
    exactly when the interpretation of phi belongs to it."""
    filters = prime_filters(alg)
    frame = prime_filter_frame(alg, interp)
    element = interpret(interp, phi)
    mask = truth_mask(phi, *frame.masks)
    for i, f in enumerate(filters):
        if bool(mask >> i & 1) != (element in f):
            return False
    return true_in_algebra(interp, phi) == valid_in_model(frame, phi)


# ---------------------------------------------------------------------------
# Exact isomorphism checks (brute force; carriers are tiny).
# ---------------------------------------------------------------------------


def algebras_isomorphic(a: FiniteHeytingAlgebra,
                        b: FiniteHeytingAlgebra) -> bool:
    if a.size != b.size:
        return False
    rng = range(a.size)
    for perm in permutations(rng):
        if perm[a.bot] != b.bot or perm[a.top] != b.top:
            continue
        if all(a.le[x][y] == b.le[perm[x]][perm[y]]
               and perm[a.meet[x][y]] == b.meet[perm[x]][perm[y]]
               and perm[a.join[x][y]] == b.join[perm[x]][perm[y]]
               and perm[a.himp[x][y]] == b.himp[perm[x]][perm[y]]
               for x in rng for y in rng):
            return True
    return False


def models_isomorphic(m1: KripkeModel, m2: KripkeModel) -> bool:
    if m1.worlds != m2.worlds or m1.var_indices() != m2.var_indices():
        return False
    val2 = dict(m2.valuation)
    for perm in permutations(range(m1.worlds)):
        if {(perm[i], perm[j]) for i, j in m1.rel} != set(m2.rel):
            continue
        if all(frozenset(perm[w] for w in ws) == val2[v]
               for v, ws in m1.valuation):
            return True
    return False


# ---------------------------------------------------------------------------
# Validity-equivalence harness.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HarnessEntry:
    formula: Formula
    kripke_valid: bool
    kripke_witness: Optional[tuple]   # (model index, world)
    algebra_valid: bool
    algebra_witness: Optional[tuple]  # (algebra index, assignment)
    bridged_algebra_refutes: Optional[bool]
    bridged_frame_refutes: Optional[bool]
    discrepancies: tuple


@dataclass(frozen=True)
class HarnessReport:
    entries: tuple

    @property
    def discrepancies(self) -> list:
        return [d for e in self.entries for d in e.discrepancies]


def validity_harness(formulas, models, algebras) -> HarnessReport:
    """For each formula, compare validity over the supplied models with
    algebraic validity over the supplied algebras, and check that every
    refutation transfers across the bridge in both directions.  Any
    discrepancy is a defect, never a valid outcome.  The models are laid
    out once for all the formulas, as a kripke._ModelFamily, so one walk
    forces a formula over many models."""
    formulas = list(formulas)
    family = _ModelFamily(models, variable_indices(formulas))
    # each refuting model and witness is transferred once, when first met
    algebra_of = cache(lambda i: closed_set_algebra(models[i]))
    frame_of = cache(lambda w: prime_filter_frame(
        algebras[w[0]], Interpretation(algebras[w[0]], w[1])))
    entries = []
    for phi in formulas:
        kripke = family.consequence([], phi)
        kripke_witness = (None if kripke.holds
                          else (kripke.model_index, kripke.world))
        algebra = consequence_over_algebras(algebras, [], phi)
        algebra_witness = (None if algebra.holds
                           else (algebra.algebra_index, algebra.assignment))
        problems = []
        bridged_algebra = None
        bridged_frame = None
        if kripke_witness is not None:
            interp = canonical_interpretation(
                algebra_of(kripke_witness[0]), phi)
            bridged_algebra = not true_in_algebra(interp, phi)
            if not bridged_algebra:
                problems.append(
                    f"{render(phi)}: refuting model {kripke_witness[0]} did "
                    "not transfer to its closed-set algebra")
        if algebra_witness is not None:
            bridged_frame = not valid_in_model(frame_of(algebra_witness), phi)
            if not bridged_frame:
                problems.append(
                    f"{render(phi)}: refuting algebra {algebra_witness[0]} did "
                    "not transfer to its prime-filter frame")
        entries.append(HarnessEntry(
            formula=phi,
            kripke_valid=kripke_witness is None,
            kripke_witness=kripke_witness,
            algebra_valid=algebra_witness is None,
            algebra_witness=algebra_witness,
            bridged_algebra_refutes=bridged_algebra,
            bridged_frame_refutes=bridged_frame,
            discrepancies=tuple(problems),
        ))
    return HarnessReport(tuple(entries))
