"""The per-model forcing loops that kripke's model-family record
replaced, kept as the reference for differential tests: each model is
forced on its own, with a fresh memo, in the order given, and the first
model with a refuting world wins at its lowest such world."""

from iplkit.formula import variable_indices
from iplkit.kripke import (MAX_COUNTERMODEL_VALUATIONS, _LABELED_PREORDERS,
                           ConsequenceVerdict, CountermodelSearchTooLarge,
                           _candidate_count, _models, truth_mask)


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
