"""find_countermodel evaluates every model of one size at once, as the
disjoint union kripke._family builds; these tests hold it to the
per-model loop it replaced (tests/reference_kripke.py) and to
truth_mask on each model alone."""

import random

import pytest

from iplkit.formula import (And, BOT, Implies, Or, Variable, all_formulas,
                            neg, var)
from iplkit.kripke import _family, _models, find_countermodel, truth_mask
from iplkit.theories import Oracle

from reference_kripke import find_countermodel as reference_countermodel

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
        if len(out) % 2 and reference_countermodel(gamma, phi, 1):
            continue
        out.append((gamma, phi))
    return out


def rename(phi, mapping):
    """phi with each variable p_i replaced by p_mapping[i]."""
    if isinstance(phi, Variable):
        return var(mapping[phi.var.index])
    if isinstance(phi, (And, Or, Implies)):
        return type(phi)(rename(phi.lhs, mapping), rename(phi.rhs, mapping))
    return phi


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


def assert_same(gamma, phi, max_worlds):
    want = reference_countermodel(gamma, phi, max_worlds)
    got = find_countermodel(gamma, phi, max_worlds)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert got[0] is want[0] and got[1] == want[1]


class TestMatchesPerModelLoop:
    def test_all_formulas_two_vars_depth_three(self):
        for phi in all_formulas(2, 3):
            assert_same([], phi, 3)

    def test_seeded_premise_goal_pairs(self):
        for gamma, phi in random_queries(9, 3000):
            assert_same(gamma, phi, 3)

    @pytest.mark.parametrize("gamma,phi", THREE_VAR_QUERIES)
    def test_three_vars_four_worlds(self, gamma, phi):
        assert_same(gamma, phi, 4)

    def test_bd3_needs_four_worlds(self):
        model, world = find_countermodel([], bd(3), 4)
        assert (model.worlds, world) == (4, 0)
        assert find_countermodel([], bd(3), 3) is None


class TestFamilySlices:
    @pytest.mark.parametrize("indices,formulas", [
        ((0, 1), all_formulas(2, 2)),
        ((), all_formulas(0, 3)),
        ((0, 3), [rename(f, (0, 3)) for f in all_formulas(2, 2)]),
    ], ids=["p0p1", "no-vars", "p0p3"])
    def test_blocks_match_each_model(self, indices, formulas):
        for n in (1, 2, 3):
            models, atoms, full, down = _family(indices, n)
            assert models is _models(indices, n)
            assert full == (1 << len(models) * n) - 1
            block = (1 << n) - 1
            family_memo = {}
            model_memos = [{} for _ in models]
            for phi in formulas:
                mask = truth_mask(phi, atoms, full, down, family_memo)
                for t, model in enumerate(models):
                    want = truth_mask(phi, *model.masks, model_memos[t])
                    assert mask >> t * n & block == want

    def test_down_stays_inside_each_model(self):
        models, _, full, down = _family((0,), 3)
        for t, model in enumerate(models):
            for w in range(3):
                seen_by = down(1 << t * 3 + w)
                assert seen_by == sum(1 << t * 3 + i
                                      for i, j in model.rel if j == w)
        assert down(full) == full and down(0) == 0


class TestClassicalScanIsTheOneWorldSlice:
    """Oracle._classical_countermodel and the one-world family agree, so
    the scan could be replaced by find_countermodel(gamma, phi, 1)."""

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
