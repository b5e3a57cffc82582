"""algebra: heyting and bridge with no oracle.

Dominated by the 2^n subset scans of filter enumeration; it never
reaches prover or proof, so a change to the prover must show no change
here.  The algebras are products of chains with 8 to 12 elements, the
closed-set algebras of enumerated small frames, and the catalog's
standard_algebras().
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product

from iplkit.bridge import (closed_set_algebra, prime_filter_frame,
                           validity_harness)
from iplkit.catalog import standard_algebras
from iplkit.formula import And, Implies, Or, var
from iplkit.heyting import (algebra_from_le, generated_filter, make_algebra,
                           make_interpretation, prime_filter_avoiding,
                           prime_filters, valid_in_algebra, validate_algebra)
from iplkit.kripke import enumerate_models

import checkers
import families
from workload import Op

# Chain lengths of each product; 8 to 12 elements.
PRODUCTS = ((2, 2, 2), (3, 3), (2, 5), (3, 4), (2, 2, 3), (2, 6))
GENERATED = 3            # seeded two-element generating sets per algebra

# What an operation costs depends on which point it avoids, which formula
# it evaluates and which frame it completes, so those are fixed; a seed
# that picked them moved ops_per_s by 14% from seed to seed.  The seed
# picks generating sets of a fixed size and frame assignments, whose cost
# does not depend on the choice, and the order of the operations.


def product_le(lengths) -> list:
    """Order table of a product of chains, elements in lexicographic
    order of their coordinates."""
    elems = list(product(*(range(n) for n in lengths)))
    return [[all(x <= y for x, y in zip(a, b)) for b in elems] for a in elems]


def _two_var_formulas() -> list:
    p0, p1 = var(0), var(1)
    neg = families.neg
    return [
        Or(p0, neg(p0)),
        Implies(neg(neg(p0)), p0),
        Or(Implies(p0, p1), Implies(p1, p0)),
        Or(neg(p0), neg(neg(p0))),
        Implies(Implies(Implies(p0, p1), p0), p0),
        Implies(neg(Or(p0, p1)), And(neg(p0), neg(p1))),
        Implies(neg(And(p0, p1)), Or(neg(p0), neg(p1))),
        Or(p1, Implies(p1, Or(p0, neg(p0)))),
    ]


@lru_cache(maxsize=None)
def _lattice(le_key):
    return checkers.Lattice([list(r) for r in le_key])


def lattice_of(alg) -> checkers.Lattice:
    """The checker's lattice of `alg`, built on first use in the untimed
    checks, so that set-up times only the program's inputs."""
    return _lattice(tuple(tuple(r) for r in alg.le))


def _completion_op(name, le) -> Op:
    def run():
        alg = algebra_from_le(le)
        return alg, validate_algebra(alg)

    def check_(out) -> list:
        alg, violations = out
        problems = ["a lawful algebra failed validation"] if violations else []
        problems += checkers.completion_problems(le, alg)
        for tabs in checkers.corrupted_tables(alg):
            broken = make_algebra(alg.size, *tabs, alg.bot, alg.top)
            if not validate_algebra(broken):
                problems.append("validation accepted a corrupted table")
        return problems
    return Op(name, run, check_)


def _algebra_ops(name, alg, rng, formulas) -> list:
    """Operations on one product: the avoided points are bottom, the atom
    and the coatom that come first in index order."""
    ops = [Op(f"{name}.prime_filters", lambda: prime_filters(alg),
              lambda out: checkers.prime_filters_problems(alg.le, out))]
    for x in (alg.bot, 1, alg.size - 2):
        def avoid_check(out, x=x) -> list:
            problems = lattice_of(alg).prime_filter_problems(out)
            if x in out:
                problems.append(f"the prime filter contains {x}")
            return problems
        ops.append(Op(f"{name}.avoid", lambda x=x: prime_filter_avoiding(alg, x),
                      avoid_check))
    for _ in range(GENERATED):
        gens = frozenset(rng.sample(range(alg.size), 2))
        def gen_check(out, gens=gens) -> list:
            lat = lattice_of(alg)
            want = lat.up[lat.meet_of(gens)]
            return [] if frozenset(out) == want else ["not the up-set of the meet"]
        ops.append(Op(f"{name}.generated",
                      lambda gens=gens: generated_filter(alg, gens), gen_check))
    for phi in formulas:
        ops.append(Op(f"{name}.valid", lambda phi=phi: valid_in_algebra(alg, phi),
                      lambda out, phi=phi: [] if out == lattice_of(alg).valid(phi)
                      else ["wrong algebraic validity"]))
    assignment = {0: rng.randrange(alg.size), 1: rng.randrange(alg.size)}
    interp = make_interpretation(alg, assignment)

    def frame_check(model) -> list:
        problems = checkers.model_problems(model)
        lat = lattice_of(alg)
        irreducibles = lat.join_irreducibles()
        if model.worlds != len(irreducibles):
            problems.append("the frame does not have one world per prime filter")
        for v, e in assignment.items():
            below = sum(1 for j in irreducibles if lat.le[j][e])
            if len(model.true_worlds(v)) != below:
                problems.append(f"p{v} holds at the wrong number of worlds")
        return problems
    ops.append(Op(f"{name}.frame", lambda: prime_filter_frame(alg, interp),
                  frame_check))
    return ops


def _closed_set_op(name, model) -> Op:
    def check_(csa) -> list:
        if csa.algebra.size != checkers.count_upsets(model):
            return ["closed-set algebra size is not the number of up-sets"]
        return []
    return Op(name, lambda: closed_set_algebra(model), check_)


def _harness_op(name, formulas, models, algebras) -> Op:
    def check_(report) -> list:
        lattices = [lattice_of(a) for a in algebras]
        problems = [f"harness discrepancy: {d}" for d in report.discrepancies]
        for entry, phi in zip(report.entries, formulas):
            kripke = all(checkers.truth_set(m, phi) == (1 << m.worlds) - 1
                         for m in models)
            algebra = all(lat.valid(phi) for lat in lattices)
            if (entry.kripke_valid, entry.algebra_valid) != (kripke, algebra):
                problems.append("harness validity differs from the checker's")
        return problems
    return Op(name, lambda: validity_harness(formulas, models, algebras),
              check_)


def build(seed: int, ctx) -> list:
    rng = random.Random(seed)
    formulas = _two_var_formulas()
    ops = []
    for k, lengths in enumerate(PRODUCTS):
        name = "x".join(f"C{n}" for n in lengths)
        le = product_le(lengths)
        alg = algebra_from_le(le, name)
        ops.append(_completion_op(f"{name}.complete", le))
        ops += _algebra_ops(name, alg, rng, [formulas[k], formulas[k + 2]])
    frames = [m for n in (3, 4) for m in enumerate_models(0, n)]
    for k, model in enumerate(frames):
        ops.append(_closed_set_op(f"closed_sets_{k}", model))
    std = list(standard_algebras())
    for k, alg in enumerate(std):
        ops.append(Op(f"standard_{k}.prime_filters",
                      lambda alg=alg: prime_filters(alg),
                      lambda out, alg=alg: checkers.prime_filters_problems(
                          alg.le, out)))
    models = list(enumerate_models(2, 1)) + list(enumerate_models(2, 2))
    for k in range(0, len(formulas), 2):
        ops.append(_harness_op(f"harness_{k // 2}", formulas[k:k + 3],
                               models, std))
    rng.shuffle(ops)
    return ops
