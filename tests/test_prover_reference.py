"""Differential test of the prover's invertible runs against the
one-rule-per-sequent reference in reference_prover.py.

The prover applies a whole run of single-successor invertible left rules
(conjunctions, implications with a present atomic antecedent, with a
conjunctive, disjunctive or absurd antecedent) as one search step; the
reference applies one rule per sequent and substitutes a derivation for
each premise it adds.  On random sequents with many such premises, so
that runs are long, the two must agree on every verdict, every proof the
prover replays must pass the kernel, and every countermodel it reads off
a failed search must be a valid model whose root forces the premises but
not the goal.  The examples are derandomized so that every run of the
suite checks the same ones."""

from hypothesis import given, settings, strategies as st
from reference_prover import ReferenceProver
from test_witnesses import schwicht_p

from iplkit.formula import BOT, And, Implies, Or, var
from iplkit.kripke import forces, forces_all, validate_model
from iplkit.proof import check
from iplkit.prover import Prover

atoms = st.integers(0, 3).map(var)
leaves = st.one_of(atoms, st.just(BOT))
formulas = st.recursive(
    leaves,
    lambda sub: st.one_of(st.builds(And, sub, sub), st.builds(Or, sub, sub),
                          st.builds(Implies, sub, sub)),
    max_leaves=6)
# premises that invertible rules take apart, most of them more than once
invertible = st.recursive(
    formulas,
    lambda sub: st.one_of(
        st.builds(And, sub, sub),
        st.builds(Implies, atoms, sub),
        st.builds(Implies, st.builds(And, sub, sub), sub),
        st.builds(Implies, st.builds(Or, sub, sub), sub),
        st.builds(Implies, st.just(BOT), sub)),
    max_leaves=8)
premises = st.lists(st.one_of(invertible, atoms), min_size=1, max_size=5)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(premises, formulas)
def test_runs_match_one_rule_per_sequent(gamma, phi):
    prover = Prover()
    proof = prover.prove(gamma, phi)
    want = ReferenceProver().prove(gamma, phi)
    assert (proof is None) == (want is None)
    if proof is not None:
        assert check(gamma, proof) == phi
        assert prover.countermodel(gamma, phi) is None
        return
    model, world = prover.countermodel(gamma, phi)
    assert validate_model(model) == []
    assert forces_all(model, world, gamma)
    assert not forces(model, world, phi)


def test_a_run_is_one_memo_entry_and_one_level():
    # ->R, then one run that takes the conjunction apart and fires the
    # chain of implications, then the axiom: three sequents whatever n
    for n in (1, 8, 300):
        prover = Prover(max_depth=3)
        proof = prover.prove([], schwicht_p(n))
        assert check([], proof) == schwicht_p(n)
        assert len(prover._memo) == 3


def test_a_first_branch_without_its_disjunct_proves_the_split():
    # [p0 | p1, p2] |- p2 | p3: the branch that assumes p0 proves the goal
    # from p2 alone, and the rule is invertible, so the branch that
    # assumes p1 is never searched
    p0, p1, p2, p3 = map(var, range(4))
    gamma, phi = [Or(p0, p1), p2], Or(p2, p3)
    prover = Prover()
    assert check(gamma, prover.prove(gamma, phi)) == phi
    assert (frozenset({p0, p2}), phi) in prover._memo
    assert (frozenset({p1, p2}), phi) not in prover._memo
