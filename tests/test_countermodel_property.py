"""Differential test of the oracle against bounded model enumeration:
on random formulas over up to three variables, and on every premise/goal
pair of all_formulas(2, 2), a countermodel that find_countermodel finds
within 3 or 4 worlds means the oracle says Refuted, Provable means it
finds none, and every Refuted certificate is a valid model whose world
forces the premises but not the goal.  The examples are derandomized so
that every run of the suite checks the same ones.  Timed cases hold the
oracle to refutations that bounded enumeration cannot reach; the padded
excluded middle and schwicht_p(256) are in test_theories.py."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from iplkit.formula import BOT, And, Implies, Or, all_formulas, var
from iplkit.theories import Oracle, Refuted

from test_countermodel_family import assert_oracle_agrees, bd

leaves = st.one_of(st.just(BOT), st.integers(0, 2).map(var))
formulas = st.recursive(
    leaves,
    lambda sub: st.one_of(st.builds(And, sub, sub), st.builds(Or, sub, sub),
                          st.builds(Implies, sub, sub)),
    max_leaves=10)
premises = st.lists(formulas, max_size=2)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(premises, formulas)
def test_three_worlds_match_reference(gamma, phi):
    assert_oracle_agrees(gamma, phi, 3)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(premises, formulas)
def test_four_worlds_match_reference(gamma, phi):
    assert_oracle_agrees(gamma, phi, 4)


def test_premise_goal_pairs_of_depth_two():
    universe = all_formulas(2, 2)
    for gamma in universe:
        for phi in universe:
            assert_oracle_agrees([gamma], phi, 3)


@pytest.mark.parametrize("n", range(4, 9))
def test_bounded_depth_axioms_are_refuted(n):
    # bd_n needs a chain of n + 1 worlds, past the enumeration cap
    start = time.perf_counter()
    verdict = Oracle().provable([], bd(n))
    assert time.perf_counter() - start < 0.05
    assert isinstance(verdict, Refuted)
    assert verdict.model.worlds >= n + 1
