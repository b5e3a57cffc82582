"""The per-model forcing loops that kripke's model-family record
replaced, kept as the reference for differential tests: each model is
forced on its own, with a fresh memo, in the order given, and the first
model with a refuting world wins at its lowest such world.  Also the
model enumeration that relabels every labeled preorder under every
permutation and compares each valuation's sorted world sets under every
automorphism."""

from itertools import permutations, product

from iplkit.formula import variable_indices
from iplkit.kripke import (MAX_COUNTERMODEL_VALUATIONS, _LABELED_PREORDERS,
                           ConsequenceVerdict, CountermodelSearchTooLarge,
                           KripkeModel, _candidate_count, _closed_subsets,
                           _models, _preorders, _rel_key, truth_mask)


def _relabel_rel(rel: frozenset, perm) -> frozenset:
    return frozenset((perm[i], perm[j]) for i, j in rel)


def canonical_preorders(n: int) -> tuple:
    """Preorders on range(n) whose edge list is lexicographically minimal
    within their relabeling class, sorted by that edge list."""
    perms = list(permutations(range(n)))
    out = []
    for rel in _preorders(n):
        key = _rel_key(rel)
        if all(key <= _rel_key(_relabel_rel(rel, p)) for p in perms):
            out.append(rel)
    return tuple(sorted(out, key=_rel_key))


def _val_key(valuation: tuple) -> tuple:
    return tuple(tuple(sorted(ws)) for _, ws in valuation)


def models(var_indices: tuple, n: int) -> tuple:
    """All valid models on n worlds over the given variables, one per
    isomorphism class: a valuation is kept when its sorted world sets
    are least under every automorphism of the canonical preorder."""
    out = []
    for rel in canonical_preorders(n):
        auts = [p for p in permutations(range(n))
                if _relabel_rel(rel, p) == rel]
        upsets = sorted(_closed_subsets(rel, n, up=True),
                        key=lambda s: tuple(sorted(s)))
        for choice in product(upsets, repeat=len(var_indices)):
            valuation = tuple(zip(var_indices, choice))
            key = _val_key(valuation)
            if all(key <= _val_key(tuple(
                    (v, frozenset(p[w] for w in ws)) for v, ws in valuation))
                    for p in auts):
                out.append(KripkeModel(n, rel, valuation))
    return tuple(out)


def first_refutation(gamma, phi, atoms, full, down):
    """The lowest world forcing all of gamma but not phi, or None; phi
    is skipped once no world is left."""
    memo: dict = {}
    mask = full
    for g in gamma:
        mask &= truth_mask(g, atoms, full, down, memo)
        if not mask:
            return None
    mask &= ~truth_mask(phi, atoms, full, down, memo)
    return (mask & -mask).bit_length() - 1 if mask else None


def consequence_over_models(models, gamma, phi) -> ConsequenceVerdict:
    """Local semantic consequence restricted to the supplied models."""
    gamma = list(gamma)
    for i, model in enumerate(models):
        world = first_refutation(gamma, phi, *model.masks)
        if world is not None:
            return ConsequenceVerdict(False, i, world)
    return ConsequenceVerdict(True)


def find_countermodel(gamma, phi, max_worlds):
    """First (model, world) in enumeration order with at most max_worlds
    worlds that forces gamma but not phi; None if there is none.  Raises
    CountermodelSearchTooLarge before a size past the cap, with the same
    message as kripke.find_countermodel."""
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    gamma = list(gamma)
    var_indices = tuple(variable_indices(gamma + [phi]))
    k = len(var_indices)
    for n in range(1, max_worlds + 1):
        if n > len(_LABELED_PREORDERS) or \
                _LABELED_PREORDERS[n - 1] > MAX_COUNTERMODEL_VALUATIONS:
            too_many = "its labeled preorders"
        elif _candidate_count(k, n) > MAX_COUNTERMODEL_VALUATIONS:
            too_many = f"{k} variables"
        else:
            for model in _models(var_indices, n):
                world = first_refutation(gamma, phi, *model.masks)
                if world is not None:
                    return model, world
            continue
        raise CountermodelSearchTooLarge(
            f"countermodel search stopped at world count {n} of {max_worlds}: "
            f"{too_many} exceed MAX_COUNTERMODEL_VALUATIONS = "
            f"{MAX_COUNTERMODEL_VALUATIONS}")
    return None
