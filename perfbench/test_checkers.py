"""The benchmark's checkers accept right answers and reject wrong ones.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checkers.py
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import checkers  # noqa: E402
import families  # noqa: E402
from iplkit.formula import And, BOT, Implies, Or, var  # noqa: E402
from iplkit.heyting import (chain, make_algebra, prime_filters,  # noqa: E402
                            product_algebra, validate_algebra)
from iplkit.kripke import make_model  # noqa: E402
from iplkit.theories import (Oracle, canonical_universe,  # noqa: E402
                             make_pair, saturate_pair)

p0, p1 = var(0), var(1)
LEM = Or(p0, families.neg(p0))
CHAIN2 = {(0, 0), (1, 1), (0, 1)}


def test_truth_table():
    assert checkers.classically_entails([], LEM)
    assert checkers.classically_entails([], families.kripke_family()[2][1])
    assert not checkers.classically_entails([], p0)
    assert checkers.classically_entails([p0, Implies(p0, p1)], p1)
    assert not checkers.classically_entails([Or(p0, p1)], p0)


def test_countermodel_accepts_the_two_world_chain():
    model = make_model(2, CHAIN2, {0: [1]})
    assert checkers.countermodel_problems(model, 0, [], LEM) == []


def test_countermodel_rejects_tampered_models():
    # p0 true at the root only: not monotone
    assert checkers.countermodel_problems(make_model(2, CHAIN2, {0: [0]}),
                                          0, [], LEM)
    # the goal holds at the chosen world
    assert checkers.countermodel_problems(make_model(2, CHAIN2, {0: [1]}),
                                          1, [], LEM)
    # a premise fails at the chosen world
    assert checkers.countermodel_problems(make_model(2, CHAIN2, {0: [1]}),
                                          0, [p0], LEM)
    # relation not reflexive
    assert checkers.countermodel_problems(make_model(2, {(0, 1)}, {0: [1]}),
                                          0, [], LEM)
    # relation not transitive
    rel = {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}
    assert checkers.countermodel_problems(make_model(3, rel, {0: [2]}),
                                          0, [], LEM)


def test_forcing_of_deep_formulas_is_iterative():
    deep = families.deep_negation(2000)
    model = make_model(2, CHAIN2, {0: [1]})
    assert checkers.truth_set(model, Implies(deep, deep)) == 0b11
    assert checkers.same_formula(deep, families.deep_negation(2000))
    assert not checkers.same_formula(deep, families.deep_negation(1999))


def test_birkhoff_matches_on_the_catalog_products():
    for alg in (chain(4), product_algebra(chain(2), chain(3)),
                product_algebra(product_algebra(chain(2), chain(2)), chain(3))):
        assert checkers.prime_filters_problems(alg.le, prime_filters(alg)) == []


def test_birkhoff_rejects_a_dropped_or_extra_prime_filter():
    alg = product_algebra(chain(3), chain(3))
    filters = prime_filters(alg)
    assert checkers.prime_filters_problems(alg.le, filters[1:])
    assert checkers.prime_filters_problems(alg.le, filters + [
        frozenset({alg.top})])
    assert checkers.prime_filters_problems(alg.le, filters + filters[:1])


def test_prime_filter_properties():
    alg = product_algebra(chain(2), chain(2))
    lat = checkers.Lattice(alg.le)
    for f in prime_filters(alg):
        assert lat.prime_filter_problems(f) == []
    assert lat.prime_filter_problems({alg.top})   # {top} is not prime here
    assert lat.prime_filter_problems(range(alg.size))   # contains bottom


def test_lattice_operations_match_the_product_tables():
    alg = product_algebra(chain(3), chain(2))
    assert checkers.completion_problems(alg.le, alg) == []
    wrong = make_algebra(alg.size, alg.le, alg.join, alg.meet, alg.himp,
                         alg.bot, alg.top)
    assert checkers.completion_problems(alg.le, wrong)


def test_corrupted_tables_fail_validation():
    alg = product_algebra(chain(3), chain(2))
    for tabs in checkers.corrupted_tables(alg):
        assert validate_algebra(make_algebra(alg.size, *tabs, alg.bot,
                                             alg.top))


def test_algebraic_validity():
    assert checkers.Lattice(chain(2).le).valid(LEM)
    assert not checkers.Lattice(chain(3).le).valid(LEM)


def test_count_upsets():
    assert checkers.count_upsets(make_model(2, CHAIN2, {})) == 3
    fork = {(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)}
    assert checkers.count_upsets(make_model(3, fork, {})) == 5


def _saturation():
    universe = canonical_universe(2, 1).items
    final = saturate_pair(make_pair([p0], [p1]), canonical_universe(2, 1),
                          Oracle())
    return universe, final


def test_saturated_pair_accepted():
    universe, final = _saturation()
    assert checkers.saturated_pair_problems(
        universe, [p0], [p1], final.left, final.right) == []


def test_saturated_pair_rejects_a_non_partition():
    universe, final = _saturation()
    dropped = set(final.left) - {p0}
    assert checkers.saturated_pair_problems(
        universe, [p0], [p1], dropped, final.right)
    assert checkers.saturated_pair_problems(
        universe, [p0], [p1], final.left, set(final.right) | {p0})


def test_saturated_pair_rejects_a_left_side_that_is_not_closed():
    universe = [BOT, p0, p1, And(p0, p1)]
    assert checkers.saturated_pair_problems(
        universe, [], [], {And(p0, p1), p0}, {BOT, p1})
    assert checkers.saturated_pair_problems(
        universe, [], [], {BOT, p0}, {p1, And(p0, p1)})
    assert checkers.saturated_pair_problems(
        universe, [p1], [], {p0}, {BOT, p1, And(p0, p1)})


def test_quotient_rejects_merged_classes():
    universe = [p0, p1, And(p0, p0)]
    models = checkers.small_models([0, 1])
    vectors = checkers.truth_vectors(models, universe)
    good = [[p0, And(p0, p0)], [p1]]
    assert checkers.quotient_problems(universe, [], good, models, vectors) == []
    merged = [[p0, p1, And(p0, p0)]]
    assert checkers.quotient_problems(universe, [], merged, models, vectors)
    assert checkers.quotient_problems(universe, [], [[p0], [p1]], models,
                                      vectors)
    # under the premise p0 -> p1 & p1 -> p0 the two variables are equivalent
    gamma = [Implies(p0, p1), Implies(p1, p0)]
    vectors.update(checkers.truth_vectors(models, gamma))
    assert checkers.quotient_problems(universe, gamma, merged, models,
                                      vectors) == []


def test_code_of_matches_the_documented_pairing():
    assert families.code_of(BOT) == 0
    assert families.code_of(p0) == 2          # pairing(0, 1)
    assert families.code_of(And(BOT, BOT)) == 10
