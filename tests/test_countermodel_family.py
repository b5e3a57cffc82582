"""The oracle decides every query by proof search and reads its
countermodels off the failed search; these tests hold it to
find_countermodel, the bounded search over enumerated models, and hold
the oracle's classical scan to the one-world models."""

import random

import pytest

from iplkit.formula import (And, BOT, Implies, Or, all_formulas, neg, render,
                            var)
from iplkit.kripke import find_countermodel, forces, forces_all, validate_model
from iplkit.theories import Oracle, Refuted, Unknown

p0, p1, p2 = var(0), var(1), var(2)


def random_formula(rng, connectives, num_vars):
    """A random formula with exactly `connectives` binary connectives
    over p0..p(num_vars-1); bot appears as a leaf now and then."""
    if connectives == 0:
        return BOT if rng.random() < 0.1 else var(rng.randrange(num_vars))
    left = rng.randrange(connectives)
    ctor = rng.choice((And, Or, Implies))
    return ctor(random_formula(rng, left, num_vars),
                random_formula(rng, connectives - 1 - left, num_vars))


def random_queries(seed, count):
    """(premises, goal) pairs over up to three variables, up to two
    premises of up to three connectives and a goal of up to five.  Every
    second pair is redrawn until no one-world model refutes it, so half
    of them reach the models with more worlds."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        num_vars = rng.randint(1, 3)
        gamma = [random_formula(rng, rng.randint(0, 3), num_vars)
                 for _ in range(rng.randint(0, 2))]
        phi = random_formula(rng, rng.randint(0, 5), num_vars)
        if len(out) % 2 and find_countermodel(gamma, phi, 1):
            continue
        out.append((gamma, phi))
    return out


def bd(n):
    """Bounded-depth axiom: bd_1 = p0 | ~p0, bd_(k+1) = p_k | (p_k -> bd_k)."""
    out = Or(p0, neg(p0))
    for k in range(1, n):
        out = Or(var(k), Implies(var(k), out))
    return out


KREISEL_PUTNAM = Implies(Implies(neg(p0), Or(p1, p2)),
                         Or(Implies(neg(p0), p1), Implies(neg(p0), p2)))
INDEPENDENCE_OF_PREMISE = Implies(Implies(p0, Or(p1, p2)),
                                  Or(Implies(p0, p1), Implies(p0, p2)))

THREE_VAR_QUERIES = [
    ([], bd(3)),
    ([], KREISEL_PUTNAM),
    ([], INDEPENDENCE_OF_PREMISE),
    ([], Implies(Or(Or(p0, p1), p2), p0)),
    ([], Implies(Or(p0, Or(p1, p2)), p2)),
    ([], Implies(Or(Or(p0, p1), p2), Or(p2, Or(p1, p0)))),
    ([Or(Or(p0, p1), p2), neg(p1)], Or(p0, p2)),
    ([Implies(p0, Or(p1, p2))], Or(Implies(p0, p1), Implies(p0, p2))),
    ([neg(neg(p2))], Or(p0, Implies(p1, p2))),
]


def assert_oracle_agrees(gamma, phi, max_worlds):
    """A fresh oracle against the bounded model search: a model within
    max_worlds means Refuted, and Provable means there is none.  The
    oracle decides every query, and each of its countermodels is a valid
    model whose world forces gamma but not phi."""
    verdict = Oracle().provable(gamma, phi)
    assert not isinstance(verdict, Unknown), (gamma, render(phi))
    found = find_countermodel(gamma, phi, max_worlds)
    if found is not None:
        assert isinstance(verdict, Refuted), (gamma, render(phi))
    if isinstance(verdict, Refuted):
        model, world = verdict.model, verdict.world
        assert validate_model(model) == []
        assert forces_all(model, world, gamma)
        assert not forces(model, world, phi)


class TestMatchesPerModelLoop:
    """The oracle's countermodels, read off failed proof search, against
    find_countermodel, the per-model loop over enumerated models."""

    def test_all_formulas_two_vars_depth_three(self):
        for phi in all_formulas(2, 3):
            assert_oracle_agrees([], phi, 3)

    def test_seeded_premise_goal_pairs(self):
        for gamma, phi in random_queries(9, 3000):
            assert_oracle_agrees(gamma, phi, 3)

    @pytest.mark.parametrize("gamma,phi", THREE_VAR_QUERIES)
    def test_three_vars_four_worlds(self, gamma, phi):
        assert_oracle_agrees(gamma, phi, 4)

    def test_bd3_needs_four_worlds(self):
        model, world = find_countermodel([], bd(3), 4)
        assert (model.worlds, world) == (4, 0)
        assert find_countermodel([], bd(3), 3) is None


class TestClassicalScanIsTheOneWorldSlice:
    """Oracle._classical_countermodel and the one-world models of
    find_countermodel agree, so the scan could be replaced by
    find_countermodel(gamma, phi, 1)."""

    def queries(self):
        yield from (([], phi) for phi in all_formulas(2, 3))
        yield from random_queries(11, 1500)
        yield from THREE_VAR_QUERIES

    def test_same_model(self):
        oracle = Oracle()
        for gamma, phi in self.queries():
            found = find_countermodel(gamma, phi, 1)
            scanned = oracle._classical_countermodel(frozenset(gamma), phi)
            assert scanned == (None if found is None else found[0])
            if found is not None:
                assert found[1] == 0
