"""decide: one certified verdict from a fresh Oracle per operation.

A user asking one question meets the oracle with cold caches, so every
operation builds its own Oracle.  The refutations spend their time in
Kripke forcing and recursive dataclass hashing; the proofs in search and
witness building.
"""

from __future__ import annotations

import random

from iplkit.formula import Implies
from iplkit.proof import check
from iplkit.theories import Oracle, Provable, Refuted

import checkers
import families
from workload import Op

# The deep-input fault: hashing the cache key of D -> D raises
# RecursionError.  The 300-deep version is Provable in about 0.05 s, so
# once mended this operation stays cheap.
DEEP_NEGATIONS = 600
RANDOM_SIZES = range(4, 15, 2)    # binary connectives of the goal
RANDOM_PER_SIZE = 4


def _random_family(rng: random.Random) -> list:
    """Seeded queries over at most three variables that a truth table
    refutes: one premise of 3 connectives and a goal of a fixed size each,
    so every seed gives the same mix of sizes."""
    out = []
    for size in RANDOM_SIZES:
        for _ in range(RANDOM_PER_SIZE):
            while True:
                gamma = [families.random_formula(rng, 3, 3)]
                phi = families.random_formula(rng, size, 3)
                if (checkers.classically_entails([], gamma[0])
                        or checkers.classically_entails(gamma, phi)):
                    continue
                break
            out.append((f"random_{size}", gamma, phi))
    return out


def _query(gamma, phi):
    return lambda: Oracle().provable(gamma, phi)


def _expect_provable(gamma, phi):
    def check_(verdict) -> list:
        if not isinstance(verdict, Provable):
            return [f"expected Provable, got {type(verdict).__name__}"]
        if verdict.witness is None:
            return ["Provable without a witness"]
        try:
            concl = check(gamma, verdict.witness)
        except Exception as exc:  # the kernel rejecting its own witness
            return [f"witness does not check: {exc!r}"]
        problems = []
        if not checkers.same_formula(concl, phi):
            problems.append("witness proves another formula")
        if not checkers.classically_entails(gamma, phi):
            problems.append("a classically invalid query came back Provable")
        return problems
    return check_


def _expect_refuted(gamma, phi, min_worlds):
    def check_(verdict) -> list:
        if not isinstance(verdict, Refuted):
            return [f"expected Refuted, got {type(verdict).__name__}"]
        problems = checkers.countermodel_problems(
            verdict.model, verdict.world, gamma, phi)
        if verdict.model.worlds < min_worlds:
            problems.append(f"a {verdict.model.worlds}-world refutation of a "
                            f"formula that needs {min_worlds} worlds")
        return problems
    return check_


def build(seed: int, ctx) -> list:
    rng = random.Random(seed)
    ops = []
    for name, gamma, phi in families.provable_family():
        ops.append(Op(name, _query(gamma, phi), _expect_provable(gamma, phi)))
    for name, phi, worlds in families.kripke_family():
        ops.append(Op(name, _query([], phi), _expect_refuted([], phi, worlds)))
    for name, gamma, phi in _random_family(rng):
        ops.append(Op(name, _query(gamma, phi), _expect_refuted(gamma, phi, 1)))
    deep = families.deep_negation(DEEP_NEGATIONS)
    goal = Implies(deep, deep)
    ops.append(Op("deep_identity", _query([], goal), _expect_provable([], goal)))
    return ops

