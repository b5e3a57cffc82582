import pytest

import reference_walks

from iplkit.formula import (And, BOT, Implies, Or, TOP, all_formulas, encode,
                            neg, var)
from iplkit.kripke import forces, forces_all, make_model
from iplkit.lindenbaum import (OutOfUniverse, build_quotient, class_of,
                               provably_equivalent, provably_leq,
                               quotient_ops_well_defined,
                               truth_matches_provability)
from iplkit.proof import check
from iplkit.theories import (Budget, Fails, Holds, Oracle, OracleInconclusive,
                             Provable, Unknown, canonical_universe,
                             make_universe)

p0, p1 = var(0), var(1)


class TestEquivalence:
    def test_idempotence(self, oracle):
        v = provably_equivalent([], p0, And(p0, p0), oracle)
        assert isinstance(v, Holds)
        expected = And(Implies(p0, And(p0, p0)), Implies(And(p0, p0), p0))
        assert check(frozenset(), v.evidence) == expected

    def test_double_negation_fails(self, oracle):
        v = provably_equivalent([], p0, neg(neg(p0)), oracle)
        assert isinstance(v, Fails)
        model, world, direction = v.witness
        assert direction == "right_to_left"
        assert not forces(model, world, Implies(neg(neg(p0)), p0))

    def test_premise_makes_variable_top(self, oracle):
        assert isinstance(provably_equivalent([p0], p0, TOP, oracle), Holds)

    def test_setoid_laws_on_small_universe(self, oracle):
        universe = canonical_universe(1, 1)
        items = universe.items
        def equiv(a, b):
            return isinstance(provably_equivalent([], a, b, oracle), Holds)
        for a in items:
            assert equiv(a, a)
        related = [(a, b) for a in items for b in items if equiv(a, b)]
        for a, b in related:
            assert (b, a) in related
        rel_set = set(related)
        for a, b in related:
            for c in items:
                if (b, c) in rel_set:
                    assert (a, c) in rel_set


class TestClassOrder:
    def test_bot_below_everything(self, oracle):
        assert isinstance(provably_leq([], BOT, p0, oracle), Holds)

    def test_weakening_direction(self, oracle):
        assert isinstance(provably_leq([], p0, Or(p0, p1), oracle), Holds)

    def test_refuted_direction(self, oracle):
        v = provably_leq([], Or(p0, p1), p0, oracle)
        assert isinstance(v, Fails)
        model, world = v.witness
        assert forces(model, world, Or(p0, p1))
        assert not forces(model, world, p0)

    def test_antisymmetry_is_class_equality(self, oracle):
        universe = canonical_universe(0, 1)
        table = build_quotient([], universe, oracle)
        for a in universe.items:
            for b in universe.items:
                both = (isinstance(provably_leq([], a, b, oracle), Holds)
                        and isinstance(provably_leq([], b, a, oracle), Holds))
                same = class_of(table, a) == class_of(table, b)
                assert both == same


class TestQuotient:
    def test_variable_free_two_classes(self, oracle):
        # connective depth <= 2 without variables: 49 formulas, 2 classes
        table = build_quotient([], canonical_universe(0, 2), oracle)
        assert len(table.classes) == 2
        assert table.representatives[0] == BOT
        assert table.representatives[1] == TOP
        assert table.provable_top == (False, True)
        assert {BOT, And(BOT, BOT), Or(BOT, BOT)} <= set(table.classes[0])
        assert TOP in table.classes[1]

    def test_variable_free_shallow_universe(self, oracle):
        table = build_quotient([], canonical_universe(0, 1), oracle)
        assert len(table.classes) == 2
        assert set(table.classes[0]) == {BOT, And(BOT, BOT), Or(BOT, BOT)}

    def test_bot_class_strictly_below_top_class(self, oracle):
        assert isinstance(provably_leq([], BOT, TOP, oracle), Holds)
        assert isinstance(provably_leq([], TOP, BOT, oracle), Fails)

    def test_premise_collapses_universe(self, oracle):
        table = build_quotient([p0], make_universe([p0, TOP]), oracle)
        assert len(table.classes) == 1

    def test_two_variables_stay_apart(self, oracle):
        table = build_quotient([], make_universe([p0, p1]), oracle)
        assert len(table.classes) == 2

    def test_representatives_minimize_encode(self, oracle):
        table = build_quotient([], canonical_universe(0, 2), oracle)
        for members, rep in zip(table.classes, table.representatives):
            assert rep == min(members, key=encode)

    @pytest.mark.parametrize("gamma", [[], [p0], [Or(p0, p1)]])
    def test_classical_keys_keep_the_pairwise_classes(self, gamma):
        # each formula meets only the classes of its truth mask under
        # gamma, one equivalence query per item that joins a class here,
        # and only a representative true at every assignment that
        # satisfies gamma is asked about on its own; the classes stay
        # the same
        universe = canonical_universe(3, 1)
        oracle = CountingOracle()
        table = build_quotient(gamma, universe, oracle)
        reps = table.representatives
        tops = [phi for phi in oracle.asked if phi in reps]
        assert oracle.calls - len(tops) == \
            len(universe.items) - len(table.classes)
        assert tops == [rep for rep in reps
                        if classically_valid(gamma, rep, 3)]
        assert table.classes == pairwise_classes(gamma, universe, Oracle())

    def test_past_sixteen_variables_every_class_is_tried(self):
        universe = make_universe([var(i) for i in range(17)] + [And(p0, p0)])
        oracle = CountingOracle()
        table = build_quotient([], universe, oracle)
        assert table.classes == pairwise_classes([], universe, Oracle())
        assert oracle.calls == 17 * 16 // 2 + 1 + 17


class TestQuotientTops:
    """provable_top read off the classical keys, against asking a fresh
    oracle about every representative."""

    @pytest.mark.parametrize("universe", [canonical_universe(2, 1),
                                          canonical_universe(3, 1)])
    @pytest.mark.parametrize("gamma", [
        [], [p0], [Or(p0, p1)], [Implies(p0, p1)], [neg(p0)],
        [neg(neg(p0))], [And(p0, neg(p0))]])
    def test_match_the_oracle(self, universe, gamma):
        table = build_quotient(gamma, universe, Oracle())
        assert table.provable_top == asked_tops(gamma, table)

    def test_past_sixteen_variables(self):
        # the keys are None there, so every representative is asked
        universe = make_universe([var(i) for i in range(17)]
                                 + [Or(p0, Implies(p0, BOT)), TOP])
        oracle = CountingOracle()
        table = build_quotient([Implies(var(16), var(16))], universe, oracle)
        reps = table.representatives
        assert [phi for phi in oracle.asked if phi in reps] == list(reps)
        assert table.provable_top == asked_tops([Implies(var(16), var(16))],
                                                table)
        assert table.provable_top.count(True) == 1


def asked_tops(gamma, table) -> tuple:
    return tuple(isinstance(Oracle().provable(gamma, rep), Provable)
                 for rep in table.representatives)


class CountingOracle(Oracle):
    def __init__(self):
        super().__init__()
        self.asked = []

    @property
    def calls(self) -> int:
        return len(self.asked)

    def provable(self, gamma, phi):
        self.asked.append(phi)
        return super().provable(gamma, phi)


def classically_valid(gamma, phi, num_vars) -> bool:
    """phi holds in every one-world model over p0..p(num_vars-1) that
    forces gamma."""
    for bits in range(1 << num_vars):
        model = make_model(1, [(0, 0)], {i: [0] if bits >> i & 1 else []
                                         for i in range(num_vars)})
        if forces_all(model, 0, gamma) and not forces(model, 0, phi):
            return False
    return True


def pairwise_classes(gamma, universe, oracle) -> tuple:
    """build_quotient's classes from testing each formula against every
    class so far."""
    classes = []
    for phi in universe.items:
        for members in classes:
            if isinstance(provably_equivalent(gamma, phi, members[0], oracle),
                          Holds):
                members.append(phi)
                break
        else:
            classes.append([phi])
    return tuple(sorted((tuple(sorted(members, key=encode))
                         for members in classes),
                        key=lambda members: encode(members[0])))


class TestClassOf:
    def test_direct_members(self, oracle):
        table = build_quotient([], canonical_universe(0, 1), oracle)
        assert class_of(table, BOT) == 0
        assert class_of(table, TOP) == 1

    def test_homomorphic_combination(self, oracle):
        table = build_quotient([], canonical_universe(0, 2), oracle)
        assert class_of(table, And(TOP, BOT)) == class_of(table, BOT)
        assert class_of(table, Implies(BOT, And(BOT, BOT))) == class_of(table, TOP)

    def test_member_combination_fallback(self, oracle):
        # the combination itself is too deep for the universe, but a
        # member pair of the operand classes combines inside it
        table = build_quotient([], canonical_universe(0, 2), oracle)
        deep = And(And(And(BOT, BOT), BOT), Or(BOT, BOT))
        assert deep not in table.universe
        assert class_of(table, deep) == class_of(table, BOT)

    def test_out_of_universe(self, oracle):
        table = build_quotient([], canonical_universe(0, 1), oracle)
        with pytest.raises(OutOfUniverse):
            class_of(table, p0)

    def test_deep_formula_out_of_universe(self, oracle):
        # the message renders the formula instead of its recursive repr
        table = build_quotient([], canonical_universe(0, 1), oracle)
        deep = p0
        for _ in range(3000):
            deep = Implies(p0, deep)
        with pytest.raises(OutOfUniverse) as info:
            table.class_index(deep)
        assert str(info.value) == "p0 -> " * 3000 + "p0 is not classified"

    def test_compositionality_inside_universe(self, oracle):
        universe = canonical_universe(0, 2)
        table = build_quotient([], universe, oracle)
        for f in universe.items:
            if isinstance(f, (And, Or, Implies)):
                assert class_of(table, f) == table.class_index(f)


def class_outcome(walk, table, phi):
    try:
        return "class", walk(table, phi)
    except OutOfUniverse as exc:
        return "OutOfUniverse", str(exc)


class TestClassOfMatchesReference:
    """The explicit-stack class_of against the recursive one: the same
    class, or the same OutOfUniverse message."""

    @pytest.mark.parametrize("gamma, items", [
        ([], canonical_universe(1, 1).items),
        ([p0], canonical_universe(1, 1).items),
        # not closed under subformulas: p0 & p1 is a member, p1 is not
        ([], [BOT, p0, And(p0, p1), Or(p0, BOT), Implies(BOT, BOT)]),
    ])
    def test_formulas_to_depth_three(self, oracle, gamma, items):
        table = build_quotient(gamma, make_universe(items), oracle)
        outcomes = set()
        for phi in all_formulas(2, 3):
            got = class_outcome(class_of, table, phi)
            assert got == class_outcome(reference_walks.class_of, table, phi)
            outcomes.add(got[0] if got[0] == "class"
                         else got[1].split()[0] == "no")
        # classes found, and parts outside the universe; the combination
        # that no member pair reaches shows up in the first and the last
        assert {"class", False} <= outcomes

    def test_members_are_leaves(self, oracle):
        # (p0 & p1) & p0 combines the class of the member p0 & p1, whose
        # own part p1 lies outside the universe, through its equivalent
        # member p1 & p0
        members = [p0, And(p0, p1), And(p1, p0), And(And(p1, p0), p0)]
        table = build_quotient([], make_universe(members), oracle)
        phi = And(And(p0, p1), p0)
        assert phi not in table.universe
        assert class_of(table, phi) == table.class_index(members[3])
        with pytest.raises(OutOfUniverse, match="^p1 is not in the universe"):
            class_of(table, And(p1, p1))

    def test_deep_conjunction(self):
        # p0 & (p0 & (... & p0)), 3000 deep; the recursive walk raised
        # RecursionError on it
        table = build_quotient([], canonical_universe(1, 1), Oracle())
        phi = p0
        for _ in range(3000):
            phi = And(p0, phi)
        assert class_of(table, phi) == table.class_index(p0)


class TestInconclusive:
    """Every OracleInconclusive names the verdict's reason."""

    class Undecided(Oracle):
        def __init__(self, undecided):
            super().__init__()
            self.undecided = undecided

        def provable(self, gamma, phi):
            if phi in self.undecided:
                return Unknown("stub reason")
            return super().provable(gamma, phi)

    def test_equivalence_names_the_budget(self):
        with pytest.raises(OracleInconclusive) as info:
            build_quotient([], canonical_universe(1, 1),
                           Oracle(Budget(max_depth=1)))
        assert str(info.value) == ("equivalence of bot & bot and bot "
                                   "undecided: proof search depth budget "
                                   "exhausted (depth=1)")

    def test_representative_provability(self):
        oracle = self.Undecided({TOP})
        with pytest.raises(OracleInconclusive) as info:
            build_quotient([], canonical_universe(0, 1), oracle)
        assert str(info.value) == ("provability of bot -> bot undecided: "
                                   "stub reason")

    def test_truth_matches_provability(self):
        # And(BOT, BOT) is no representative, so only the per-formula
        # check asks for it on its own
        oracle = self.Undecided({And(BOT, BOT)})
        with pytest.raises(OracleInconclusive) as info:
            truth_matches_provability([], canonical_universe(0, 1), oracle)
        assert str(info.value) == ("provability of bot & bot undecided: "
                                   "stub reason")


class TestOpsWellDefined:
    def test_variable_free(self, oracle):
        assert quotient_ops_well_defined([], canonical_universe(0, 1), oracle)
        assert quotient_ops_well_defined([], canonical_universe(0, 2), oracle)

    def test_with_premise(self, oracle):
        universe = make_universe([p0, TOP, And(p0, TOP), And(TOP, TOP)])
        assert quotient_ops_well_defined([p0], universe, oracle)

    def test_degenerate_universe(self, oracle):
        assert quotient_ops_well_defined([], make_universe([p0]), oracle)


class TestTruthMatchesProvability:
    def test_variable_free(self, oracle):
        assert truth_matches_provability([], canonical_universe(0, 1), oracle)

    def test_with_premise_depth_one(self, oracle):
        assert truth_matches_provability([p0], canonical_universe(1, 1), oracle)
        assert quotient_ops_well_defined([p0], canonical_universe(1, 1), oracle)

    def test_top_only(self, oracle):
        assert truth_matches_provability([], make_universe([TOP]), oracle)

    def test_requires_gamma_inside_universe(self, oracle):
        with pytest.raises(ValueError):
            truth_matches_provability([p0], canonical_universe(0, 1), oracle)
