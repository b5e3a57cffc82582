import random
import time
from itertools import product

import pytest

from iplkit.formula import (And, BOT, Bottom, Implies, Or, TOP, Variable,
                            encode, neg, parse, var, variables)
from iplkit.kripke import (CountermodelSearchTooLarge, find_countermodel,
                           forces, forces_all, make_model, validate_model)
from iplkit.proof import Premise, check
from iplkit.theories import (Budget, Fails, Holds, Oracle, OracleInconclusive,
                             Provable, Refuted, Unknown,
                             add_formula_to_pair, budget_from_env,
                             canonical_universe, conj_fold, disj_fold,
                             family_increasing_check, is_consistent,
                             is_ded_closed, is_disjunctive, make_pair,
                             make_universe, pair_consistent, saturate_pair,
                             saturation_trace)

p0, p1 = var(0), var(1)


class TestBudget:
    def test_default(self):
        assert budget_from_env("") == Budget()

    def test_parse(self):
        b = budget_from_env("worlds=3,depth=100")
        assert b.max_worlds == 3 and b.max_depth == 100

    def test_partial(self):
        assert budget_from_env("worlds=2").max_worlds == 2

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            budget_from_env("worlds=two")


class TestUniverse:
    def test_canonical_order_is_encode_order(self):
        u = canonical_universe(2, 1)
        codes = [encode(f) for f in u.items]
        assert codes == sorted(codes)
        assert len(u) == 30

    def test_connective_depth_zero_is_atoms(self):
        assert list(canonical_universe(2, 0).items) == [BOT, p0, p1]

    def test_code_inverts_enumeration(self):
        u = canonical_universe(2, 0)
        for i in range(len(u)):
            assert u.code(u.enumeration(i)) == i

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            make_universe([p0, p0])

    def test_membership(self):
        u = canonical_universe(1, 0)
        assert p0 in u and BOT in u and p1 not in u


class TestFolds:
    def test_empty_folds(self):
        assert conj_fold([]) == TOP
        assert disj_fold([]) == BOT

    def test_singleton_folds_keep_seed(self):
        assert conj_fold([p0]) == And(p0, TOP)
        assert disj_fold([p0]) == Or(p0, BOT)

    def test_fold_is_right_nested(self):
        assert conj_fold([p0, p1]) == And(p0, And(p1, TOP))


class TestOracle:
    def test_identity_provable_with_witness(self, oracle):
        goal = Implies(p0, p0)
        v = oracle.provable(frozenset(), goal)
        assert isinstance(v, Provable)
        assert check(frozenset(), v.witness) == goal

    def test_lem_refuted_with_model(self, oracle):
        v = oracle.provable(frozenset(), parse("p0 | ~p0"))
        assert isinstance(v, Refuted)
        assert validate_model(v.model) == []
        assert not forces(v.model, v.world, parse("p0 | ~p0"))

    def test_premise_refuted_one_world(self, oracle):
        v = oracle.provable(frozenset({p0}), p1)
        assert isinstance(v, Refuted)
        assert v.model.worlds == 1
        assert forces_all(v.model, v.world, [p0])

    def test_unknown_when_budgets_tiny(self):
        # Peirce needs two worlds to refute; with one world and no proof
        # the only honest verdict is Unknown
        tiny = Oracle(Budget(max_worlds=1))
        v = tiny.provable(frozenset(), parse("((p0 -> p1) -> p0) -> p0"))
        assert isinstance(v, Unknown)

    def test_cache_stable(self, oracle):
        a = oracle.provable(frozenset(), Implies(p0, p0))
        b = oracle.provable(frozenset(), Implies(p0, p0))
        assert a is b


def implication_chain(n, last):
    phi = last
    for _ in range(n):
        phi = Implies(p0, phi)
    return phi


def padded_lem(k):
    """(p1 -> p1) & ... & (p(k-1) -> p(k-1)) & (p0 | ~p0)."""
    phi = Or(p0, neg(p0))
    for i in range(k - 1, 0, -1):
        phi = And(Implies(var(i), var(i)), phi)
    return phi


class TestCountermodelCap:
    # Before building the models of a world count, the search counts
    # their candidate valuations and stops past a fixed cap, so a query
    # over many variables ends at once instead of exhausting memory.
    def test_search_stops_at_the_first_size_past_the_cap(self):
        valid = conj_fold([Implies(var(i), var(i)) for i in range(4)])
        with pytest.raises(CountermodelSearchTooLarge) as info:
            find_countermodel([], valid, 4)
        # 4 variables: 1,168 valuations on 3 worlds, 157,886 on 4
        assert str(info.value).startswith(
            "countermodel search stopped at world count 4 of 4: 4 variables "
            "exceed MAX_COUNTERMODEL_VALUATIONS = ")

    def test_padded_excluded_middle_is_unknown_fast(self):
        start = time.perf_counter()
        v = Oracle().provable([], padded_lem(18))
        assert time.perf_counter() - start < 5.0
        assert isinstance(v, Unknown)
        assert "MAX_COUNTERMODEL_VALUATIONS" in v.reason
        assert "world count 1 of 4" in v.reason

    def test_schwicht_256_is_unknown_fast(self):
        body = p0
        for i in range(256):
            body = And(body, Implies(var(i), var(i + 1)))
        start = time.perf_counter()
        v = Oracle().provable([], Implies(body, var(256)))
        assert time.perf_counter() - start < 5.0
        assert isinstance(v, Unknown)
        assert v.reason.startswith("proof search depth budget exhausted and "
                                   "countermodel search stopped")


class TestDeepFormulas:
    # the cache keys and variable sets hash these formulas, which must
    # not recurse once per connective
    def test_countermodel_search_on_deep_chains(self):
        assert find_countermodel([], implication_chain(3000, p0), 3) is None
        phi = implication_chain(3000, p1)
        model, world = find_countermodel([], phi, 3)
        assert not forces(model, world, phi)

    def test_oracle_refutes_deep_chain(self):
        phi = implication_chain(3000, p1)
        v = Oracle().provable([], phi)
        assert isinstance(v, Refuted)
        assert not forces(v.model, v.world, phi)

    def test_oracle_reports_depth_budget_on_deep_provable_chain(self):
        # the search stops at the depth budget, not the recursion limit
        v = Oracle().provable([], implication_chain(3000, p0))
        assert isinstance(v, Unknown)
        assert "depth budget exhausted" in v.reason

    def test_oracle_proves_400_implication_chain(self):
        # the witness's conclusion is compared with the goal without
        # recursing once per connective
        phi = implication_chain(400, p0)
        v = Oracle().provable([], phi)
        assert isinstance(v, Provable)
        assert check([], v.witness) == phi

    def test_oracle_proves_past_unused_deep_premise(self):
        # the search orders premises by a key linear in their size, so an
        # unused 3000-deep premise neither stalls nor crashes it
        chain = p1
        for _ in range(3000):
            chain = Implies(var(2), chain)
        gamma = [chain, Or(p0, p1)]
        start = time.perf_counter()
        v = Oracle().provable(gamma, Or(p1, p0))
        assert time.perf_counter() - start < 1.0
        assert isinstance(v, Provable)
        assert check(gamma, v.witness) == Or(p1, p0)

    def test_pair_with_deep_right_side_is_inconclusive(self):
        # sorting the right side must not recurse into the chain; proving
        # the chain then stops at the depth budget
        pair = make_pair([Or(p0, p1)], [implication_chain(3000, p0), p0])
        v = pair_consistent(pair, Oracle())
        assert isinstance(v, Unknown)
        assert "depth budget exhausted" in v.reason

    def test_inconclusive_pair_step_renders_formula(self):
        # the message embeds the added formula as rendered text, not as
        # the recursive dataclass repr
        oracle = Oracle(Budget(max_worlds=1, max_depth=1))
        pair = make_pair([], [Or(p0, neg(p0))])
        with pytest.raises(OracleInconclusive) as info:
            add_formula_to_pair(pair, Implies(p0, And(p0, p1)), oracle)
        assert str(info.value) == (
            "cannot settle consistency after adding p0 -> p0 & p1: proof "
            "search depth budget exhausted and no countermodel within 1 "
            "worlds")

    def test_oracle_proves_deep_identity(self):
        d = p0
        for _ in range(600):
            d = neg(d)
        v = Oracle().provable([], Implies(d, d))
        assert isinstance(v, Provable)
        assert check([], v.witness) == Implies(d, d)


def classical(phi, env):
    if isinstance(phi, Variable):
        return env[phi.var.index]
    if isinstance(phi, Bottom):
        return False
    if isinstance(phi, And):
        return classical(phi.lhs, env) and classical(phi.rhs, env)
    if isinstance(phi, Or):
        return classical(phi.lhs, env) or classical(phi.rhs, env)
    return not classical(phi.lhs, env) or classical(phi.rhs, env)


def truth_table_countermodel(gamma, phi):
    """The one-world model of the first assignment, in
    product((False, True)) order over the sorted variables, that makes
    gamma true and phi false; None if there is none."""
    idx = sorted({v.index for f in [*gamma, phi] for v in variables(f)})
    for choice in product((False, True), repeat=len(idx)):
        env = dict(zip(idx, choice))
        if all(classical(g, env) for g in gamma) and not classical(phi, env):
            return make_model(1, {(0, 0)},
                              {v: [0] if env[v] else [] for v in idx})
    return None


def random_formula(rng, size, num_vars):
    if size == 0:
        return BOT if rng.random() < 0.1 else var(rng.randrange(num_vars))
    left = rng.randrange(size)
    ctor = rng.choice((And, Or, Implies))
    return ctor(random_formula(rng, left, num_vars),
                random_formula(rng, size - 1 - left, num_vars))


class TestClassicalScan:
    def test_matches_truth_table_on_universe_pairs(self):
        items = canonical_universe(3, 1).items
        oracle = Oracle()
        refuted = 0
        for g in items:
            for phi in items:
                want = truth_table_countermodel([g], phi)
                got = oracle._classical_countermodel(frozenset({g}), phi)
                assert got == want, (g, phi)
                refuted += want is not None
        assert refuted > 1000

    def test_matches_truth_table_with_more_variables(self):
        rng = random.Random(5)
        oracle = Oracle()
        for _ in range(200):
            gamma = [random_formula(rng, 6, 7)
                     for _ in range(rng.randrange(3))]
            phi = random_formula(rng, 8, 7)
            assert (oracle._classical_countermodel(frozenset(gamma), phi)
                    == truth_table_countermodel(gamma, phi))


class TestTheoryPredicates:
    def test_consistent_empty(self, oracle):
        assert isinstance(is_consistent([], oracle), Holds)

    def test_inconsistent_bot(self, oracle):
        v = is_consistent([BOT], oracle)
        assert isinstance(v, Fails)
        assert v.witness == Premise(BOT)

    def test_inconsistent_contradiction(self, oracle):
        v = is_consistent([p0, neg(p0)], oracle)
        assert isinstance(v, Fails)
        assert check(frozenset({p0, neg(p0)}), v.witness) == BOT

    def test_ded_closed_whole_universe(self, oracle):
        u = canonical_universe(1, 0)
        assert isinstance(is_ded_closed(set(u.items), u, oracle), Holds)

    def test_ded_closed_fails_on_top(self, oracle):
        u = canonical_universe(0, 1)  # contains bot -> bot
        v = is_ded_closed([], u, oracle)
        assert isinstance(v, Fails)
        assert v.witness[0] == TOP

    def test_ded_closed_holds_with_refutations(self, oracle):
        u = make_universe([p0, p1])
        assert isinstance(is_ded_closed([p0], u, oracle), Holds)

    def test_disjunctive_vacuous(self, oracle):
        u = make_universe([p0, p1])
        assert isinstance(is_disjunctive([p0], u, oracle), Holds)

    def test_disjunctive_fails_on_bare_disjunction(self, oracle):
        u = make_universe([p0, p1, Or(p0, p1)])
        v = is_disjunctive([Or(p0, p1)], u, oracle)
        assert isinstance(v, Fails)
        assert (v.witness[0], v.witness[1]) == (p0, p1)

    def test_disjunctive_holds_when_disjunct_provable(self, oracle):
        u = make_universe([p0, p1, Or(p0, p1)])
        assert isinstance(is_disjunctive([p0], u, oracle), Holds)


class TestPairConsistency:
    def test_same_formula_both_sides(self, oracle):
        v = pair_consistent(make_pair([p0], [p0]), oracle)
        assert isinstance(v, Fails)
        phi_sub, omega_sub, proof = v.witness
        assert phi_sub == (p0,) and omega_sub == (p0,)
        expected = Implies(conj_fold([p0]), disj_fold([p0]))
        assert check(frozenset(), proof) == expected

    def test_separable_pair(self, oracle):
        v = pair_consistent(make_pair([p0], [p1]), oracle)
        assert isinstance(v, Holds)
        model, world = v.evidence
        assert forces(model, world, p0) and not forces(model, world, p1)

    def test_empty_pair(self, oracle):
        v = pair_consistent(make_pair([], []), oracle)
        assert isinstance(v, Holds)
        assert v.evidence[0].worlds == 1

    def test_intuitionistic_pair(self, oracle):
        # (~~p0, ~p0) is inconsistent; ({}, {p0 | ~p0}) is consistent
        v = pair_consistent(make_pair([neg(neg(p0))], [p0]), oracle)
        assert isinstance(v, Holds)  # ~~p0 does not prove p0
        v = pair_consistent(make_pair([], [parse("p0 | ~p0")]), oracle)
        assert isinstance(v, Holds)
        v = pair_consistent(make_pair([neg(neg(p0)), neg(p0)], []), oracle)
        assert isinstance(v, Fails)


class TestAddFormula:
    def test_left_when_consistent(self, oracle):
        out = add_formula_to_pair(make_pair([p0], [p1]), And(p0, p0), oracle)
        assert out == make_pair([p0, And(p0, p0)], [p1])

    def test_right_when_left_breaks(self, oracle):
        out = add_formula_to_pair(make_pair([p0], []), neg(p0), oracle)
        assert out == make_pair([p0], [neg(p0)])

    def test_bot_goes_right(self, oracle):
        out = add_formula_to_pair(make_pair([], []), BOT, oracle)
        assert out == make_pair([], [BOT])


class TestSaturation:
    def test_already_partition(self, oracle):
        u = make_universe([p0, p1])
        pair = make_pair([p0], [p1])
        assert saturate_pair(pair, u, oracle) == pair

    def test_bot_universe(self, oracle):
        u = make_universe([BOT])
        assert saturate_pair(make_pair([], []), u, oracle) == make_pair([], [BOT])

    def test_atoms_universe(self, oracle):
        u = canonical_universe(2, 0)
        final = saturate_pair(make_pair([p0], [p1]), u, oracle)
        assert final == make_pair([p0], [BOT, p1])

    def test_depth_one_universe_properties(self, oracle):
        u = canonical_universe(2, 1)
        pair = make_pair([p0], [p1])
        trace = saturation_trace(pair, u, oracle)
        final = trace[-1]
        assert final.left | final.right == set(u.items)
        assert not final.left & final.right
        assert pair.left <= final.left and pair.right <= final.right
        for step in trace:
            assert isinstance(pair_consistent(step, oracle), Holds)

    def test_family_increasing(self, oracle):
        u = canonical_universe(2, 0)
        assert family_increasing_check(make_pair([p0], [p1]), u, oracle)
        assert family_increasing_check(make_pair([], []), make_universe([]),
                                       oracle)

    def test_rejects_inconsistent_start(self, oracle):
        u = make_universe([p0, BOT])
        with pytest.raises(ValueError):
            saturate_pair(make_pair([BOT], []), u, oracle)

    def test_rejects_outside_universe(self, oracle):
        with pytest.raises(ValueError):
            saturate_pair(make_pair([p0], []), make_universe([p1]), oracle)

    def test_deterministic_placement(self, oracle):
        u = canonical_universe(2, 1)
        a = saturate_pair(make_pair([p0], [p1]), u, oracle)
        b = saturate_pair(make_pair([p0], [p1]), u, Oracle())
        assert a == b
