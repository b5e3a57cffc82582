"""Property test: on random formulas over up to three variables, the
disjoint-union countermodel search returns exactly what the per-model
loop of tests/reference_kripke.py returns.  The examples are derandomized
so that every run of the suite checks the same ones."""

from hypothesis import given, settings, strategies as st

from iplkit.formula import BOT, And, Implies, Or, var
from iplkit.kripke import find_countermodel

from reference_kripke import find_countermodel as reference_countermodel

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
    assert find_countermodel(gamma, phi, 3) == \
        reference_countermodel(gamma, phi, 3)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(premises, formulas)
def test_four_worlds_match_reference(gamma, phi):
    assert find_countermodel(gamma, phi, 4) == \
        reference_countermodel(gamma, phi, 4)
