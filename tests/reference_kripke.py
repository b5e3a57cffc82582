"""The per-model countermodel search that kripke.find_countermodel
replaced, kept as the reference for differential tests: it walks the
models of each size in enumeration order, one truth_mask evaluation per
model, and stops at the first model with a refuting world."""

from iplkit.formula import variable_indices
from iplkit.kripke import _models, first_refutation


def find_countermodel(gamma, phi, max_worlds):
    """First (model, world) in enumeration order with at most max_worlds
    worlds that forces gamma but not phi; None if there is none."""
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    gamma = list(gamma)
    var_indices = tuple(variable_indices(gamma + [phi]))
    for n in range(1, max_worlds + 1):
        for model in _models(var_indices, n):
            world = first_refutation(gamma, phi, *model.masks)
            if world is not None:
                return model, world
    return None
