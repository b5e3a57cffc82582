import gc
import json
import random
import time
import weakref
from itertools import product

import pytest

from iplkit.formula import (And, BOT, Bottom, Implies, Or, TOP, Variable,
                            all_formulas, encode, neg, order_key, parse, var,
                            variable_indices, variables)
from iplkit.kripke import (_LABELED_PREORDERS, CountermodelSearchTooLarge,
                           _preorders, find_countermodel, forces, forces_all,
                           make_model, model_from_json, model_to_json,
                           validate_model)
from iplkit.proof import Premise, check, proof_to_json
from iplkit import theories
from iplkit.prover import Prover
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
        assert budget_from_env(" depth = 100 ") == Budget(max_depth=100)

    def test_partial(self):
        # the oracle no longer enumerates models, so there is no worlds
        # entry, alone or next to depth
        for text in ("worlds=2", "worlds=3,depth=100"):
            with pytest.raises(ValueError):
                budget_from_env(text)

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

    @pytest.mark.parametrize("num_vars,depth", [(-1, 1), (1, -1), (-2, -2)])
    def test_rejects_negative_sizes(self, num_vars, depth):
        with pytest.raises(ValueError, match="must not be negative"):
            canonical_universe(num_vars, depth)

    @pytest.mark.parametrize("num_vars,depth", [(3, 3), (7, 2), (0, 4),
                                                (10 ** 6, 0), (0, 10 ** 9)])
    def test_rejects_universes_past_the_cap(self, num_vars, depth):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds MAX_UNIVERSE"):
            canonical_universe(num_vars, depth)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("num_vars,depth,size", [
        (0, 0, 1), (2, 1, 30), (1, 2, 590), (2, 2, 2703), (0, 3, 7204)])
    def test_cap_counts_the_universe_exactly(self, monkeypatch, num_vars,
                                             depth, size):
        # the size is computed before building: a cap of exactly the
        # universe's size admits it, one less rejects it
        monkeypatch.setattr(theories, "MAX_UNIVERSE", size)
        assert len(canonical_universe(num_vars, depth)) == size
        monkeypatch.setattr(theories, "MAX_UNIVERSE", size - 1)
        with pytest.raises(ValueError):
            canonical_universe(num_vars, depth)


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
        # Peirce is classically valid, so only a finished proof search
        # refutes it; at depth 1 the search cannot finish, and the only
        # honest verdict is Unknown
        tiny = Oracle(Budget(max_depth=1))
        v = tiny.provable(frozenset(), parse("((p0 -> p1) -> p0) -> p0"))
        assert isinstance(v, Unknown)
        assert v.reason == "proof search depth budget exhausted (depth=1)"

    @pytest.mark.parametrize("gamma, phi", [
        ([], Implies(p0, p0)),          # Provable
        ([p0], p1),                     # Refuted by the truth-table scan
        ([], parse("p0 | ~p0")),        # Refuted by failed proof search
    ])
    def test_verdicts_are_not_kept(self, oracle, gamma, phi):
        # the shared oracle lives as long as the test run; it keeps no
        # verdict, so one is freed as soon as its caller drops it
        verdict = oracle.provable(gamma, phi)
        assert isinstance(verdict, (Provable, Refuted))
        ref = weakref.ref(verdict)
        del verdict
        gc.collect()
        assert ref() is None

    def test_repeated_query_same_certificate(self, oracle):
        for gamma, phi in (([], Implies(p0, p0)), ([p0], p1),
                           ([], parse("p0 | ~p0"))):
            a = oracle.provable(gamma, phi)
            b = oracle.provable(gamma, phi)
            assert a == b and a is not b
            assert certificate_text(a) == certificate_text(b)


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
    # their labeled preorders and candidate valuations and stops past a
    # fixed cap, so a query over many variables or worlds ends at once
    # instead of exhausting memory.  The oracle never meets the cap: it
    # reads its countermodels off failed proof search.
    def test_search_stops_at_the_first_size_past_the_cap(self):
        valid = conj_fold([Implies(var(i), var(i)) for i in range(4)])
        with pytest.raises(CountermodelSearchTooLarge) as info:
            find_countermodel([], valid, 4)
        # 4 variables: 1,168 valuations on 3 worlds, 157,886 on 4
        assert str(info.value).startswith(
            "countermodel search stopped at world count 4 of 4: 4 variables "
            "exceed MAX_COUNTERMODEL_VALUATIONS = ")

    def test_search_stops_before_building_too_many_frames(self):
        # 6 worlds have 209,527 labeled preorders, each tested against
        # 720 relabelings, so the search stops before it builds them
        assert [len(_preorders(n)) for n in range(1, 6)] == \
            list(_LABELED_PREORDERS[:5])
        with pytest.raises(CountermodelSearchTooLarge) as info:
            find_countermodel([], Implies(p0, p0), 7)
        assert str(info.value) == (
            "countermodel search stopped at world count 6 of 7: its labeled "
            "preorders exceed MAX_COUNTERMODEL_VALUATIONS = 20000")

    def test_padded_excluded_middle_is_refuted_fast(self):
        # 18 variables: past the truth-table scan, and 2^18 valuations on
        # one world are past the cap of the model search
        for k in (18, 40):
            phi = padded_lem(k)
            start = time.perf_counter()
            v = Oracle().provable([], phi)
            assert time.perf_counter() - start < 1.0
            assert isinstance(v, Refuted)
            assert validate_model(v.model) == []
            assert not forces(v.model, v.world, phi)

    def test_schwicht_is_provable_at_the_default_budget(self):
        # one run of invertible left rules takes the conjunction apart and
        # fires the whole chain, so the search is three sequents deep and
        # its time linear in n
        for n in (256, 1024):
            body = p0
            for i in range(n):
                body = And(body, Implies(var(i), var(i + 1)))
            goal = Implies(body, var(n))
            start = time.perf_counter()
            v = Oracle().provable([], goal)
            assert time.perf_counter() - start < 2.0
            assert isinstance(v, Provable)
            assert check([], v.witness) == goal


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
        oracle = Oracle(Budget(max_depth=1))
        pair = make_pair([], [Or(p0, neg(p0))])
        with pytest.raises(OracleInconclusive) as info:
            add_formula_to_pair(pair, Implies(p0, And(p0, p1)), oracle)
        assert str(info.value) == (
            "cannot settle consistency after adding p0 -> p0 & p1: proof "
            "search depth budget exhausted (depth=1)")

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


def certificate_text(verdict) -> str:
    if isinstance(verdict, Provable):
        body = proof_to_json(verdict.witness)
    elif isinstance(verdict, Refuted):
        body = [model_to_json(verdict.model), verdict.world]
    else:
        body = verdict.reason
    return json.dumps([type(verdict).__name__, body], sort_keys=True)


def query_sequence(seed, n):
    """n queries that keep a variable set for a few steps, then switch to
    another, over canonical_universe(3, 1) and random formulas."""
    rng = random.Random(seed)
    universe = canonical_universe(3, 1).items
    out = []
    while len(out) < n:
        wanted = set(rng.sample(range(4), rng.randint(1, 3)))
        pool = [f for f in universe
                if set(variable_indices([f])) <= wanted]
        pool += [random_formula(rng, 4, 4) for _ in range(6)]
        for _ in range(rng.randint(1, 8)):
            gamma = rng.sample(pool, rng.randint(0, 2))
            out.append((gamma, rng.choice(pool)))
    return out[:n]


class TestLongLivedOracle:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_certificates_equal_those_of_fresh_oracles(self, seed):
        queries = query_sequence(seed, 120)
        shared = Oracle()
        kinds = set()
        sets = set()
        for gamma, phi in queries:
            got = shared.provable(gamma, phi)
            assert certificate_text(got) == \
                certificate_text(Oracle().provable(gamma, phi))
            kinds.add(type(got).__name__)
            sets.add(tuple(variable_indices([*gamma, phi])))
            if isinstance(got, Refuted):
                # re-checked in a copy of the model with a cold memo
                model = model_from_json(model_to_json(got.model))
                assert validate_model(got.model) == []
                assert forces_all(model, got.world, gamma)
                assert not forces(model, got.world, phi)
        assert kinds == {"Provable", "Refuted"} and len(sets) > 5

    def test_a_repeated_assignment_returns_the_same_model(self):
        oracle = Oracle()
        a = oracle.provable([], Or(p0, p1))
        b = oracle.provable([], And(p0, p1))
        assert isinstance(a, Refuted) and a.model is b.model
        oracle.provable([], var(2))
        c = oracle.provable([p1], And(p0, p1))
        assert c.model is not a.model and c.model != a.model

    def test_alternating_variable_sets_keep_one_record_each(self):
        # a query over another variable set leaves the record of the
        # first in place, and the certificates stay those of fresh oracles
        p2, p3 = var(2), var(3)
        queries = [([], Or(p0, p1)), ([p2], p3),
                   ([], Implies(p0, Or(p0, p1))), ([p3], Or(p2, p3)),
                   ([p1], And(p0, p1)), ([], Implies(p2, And(p2, p3))),
                   ([Or(p0, p1)], Or(p1, p0)), ([p3], Implies(p2, p3))]
        oracle = Oracle()
        for _ in range(3):
            for gamma, phi in queries:
                assert certificate_text(oracle.provable(gamma, phi)) == \
                    certificate_text(Oracle().provable(gamma, phi))
        assert list(oracle._scans) == [(0, 1), (2, 3)]
        a = oracle.provable([], Or(p0, p1))
        oracle.provable([p2], p3)
        b = oracle.provable([], And(p0, p1))
        assert isinstance(a, Refuted) and a.model is b.model

    def test_records_are_capped(self):
        cap = theories._SCAN_RECORDS
        oracle = Oracle()
        for rounds in range(2):
            for i in range(cap + 4):
                phi = Or(var(i), neg(var(i)))
                assert certificate_text(oracle.provable([], phi)) == \
                    certificate_text(Oracle().provable([], phi))
                assert len(oracle._scans) <= cap
        assert list(oracle._scans) == [(i,) for i in range(4, cap + 4)]
        # a set used again becomes the most recent, so the next new set
        # evicts the one after it
        oracle.provable([], var(4))
        oracle.provable([], var(99))
        assert (4,) in oracle._scans and (5,) not in oracle._scans
        assert len(oracle._scans) == cap


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

    def test_disjunctive_skips_refuted_disjunction(self, oracle):
        # p2 | p2 is refuted under p0 | p1, so the scan moves on to the
        # failing disjunction after it
        p2 = var(2)
        u = make_universe([p0, p1, Or(p2, p2), Or(p0, p1)])
        v = is_disjunctive([Or(p0, p1)], u, oracle)
        assert isinstance(v, Fails)
        assert (v.witness[0], v.witness[1]) == (p0, p1)

    def test_disjunctive_skips_provable_right_disjunct(self, oracle):
        # p0 | p1 holds by its right disjunct p1, a premise
        p2 = var(2)
        u = make_universe([p0, p1, p2, Or(p0, p1), Or(p0, p2)])
        v = is_disjunctive([p1, Or(p0, p2)], u, oracle)
        assert isinstance(v, Fails)
        assert (v.witness[0], v.witness[1]) == (p0, p2)

    def test_disjunctive_undecided_names_the_budget(self):
        # Peirce's law is classically valid, so only proof search settles
        # it, and at depth 1 the search cannot finish
        peirce, p2 = parse("((p0 -> p1) -> p0) -> p0"), var(2)
        u = make_universe([peirce, p2, Or(peirce, p2)])
        v = is_disjunctive([Or(peirce, p2)], u, Oracle(Budget(max_depth=1)))
        assert v == Unknown("disjunct provability undecided: proof search "
                            "depth budget exhausted (depth=1)")


class TestPairConsistency:
    def test_same_formula_both_sides(self, oracle):
        v = pair_consistent(make_pair([p0], [p0]), oracle)
        assert isinstance(v, Fails)
        phi_sub, omega_sub, proof = v.witness
        assert phi_sub == (p0,) and omega_sub == (p0,)
        assert check(frozenset(phi_sub), proof) == disj_fold(omega_sub)

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

    def test_witness_keeps_only_the_premises_the_proof_uses(self):
        # 20 unused left formulas and 10 unused right formulas around a
        # chain p1, p1 -> p2, p2 -> p0 that proves p0
        chain = [p1, parse("p1 -> p2"), parse("p2 -> p0")]
        left = [var(100 + i) for i in range(20)] + chain
        right = [var(200 + i) for i in range(10)] + [p0]
        v = pair_consistent(make_pair(left, right), Oracle())
        assert isinstance(v, Fails)
        phi_sub, omega_sub, proof = v.witness
        assert set(phi_sub) == set(chain) and len(phi_sub) == 3
        assert omega_sub == tuple(sorted(right, key=order_key))
        assert check(frozenset(phi_sub), proof) == disj_fold(omega_sub)

    @pytest.mark.parametrize("left, right, kind", [
        # ({~~p2}, {p2}) holds classically but not intuitionistically, so
        # a scan of subset pairs would search it before the chain
        (["~~p2", "p0", "p0 -> p1"], ["p2", "p1"], Fails),
        (["~~p2"], ["p2"], Holds),
    ])
    def test_one_oracle_query(self, left, right, kind, monkeypatch):
        calls = []

        def counted(method):
            def wrapper(self, *args):
                calls.append(method.__qualname__)
                return method(self, *args)
            return wrapper

        monkeypatch.setattr(Oracle, "provable", counted(Oracle.provable))
        monkeypatch.setattr(Prover, "prove", counted(Prover.prove))
        pair = make_pair(map(parse, left), map(parse, right))
        assert isinstance(pair_consistent(pair, Oracle()), kind)
        assert calls == ["Oracle.provable", "Prover.prove"]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_witnesses_agree_with_the_defining_query(self, seed):
        rng = random.Random(seed)
        pool = list(all_formulas(2, 2))
        oracle = Oracle()
        kinds = set()
        for _ in range(80):
            left = rng.sample(pool, rng.randint(0, 4))
            right = rng.sample(pool, rng.randint(0, 3))
            v = pair_consistent(make_pair(left, right), oracle)
            query = Oracle().provable(
                left, disj_fold(sorted(right, key=order_key)))
            expected = {Provable: Fails, Refuted: Holds}[type(query)]
            assert isinstance(v, expected)
            kinds.add(expected)
            if isinstance(v, Fails):
                phi_sub, omega_sub, proof = v.witness
                assert set(phi_sub) <= set(left)
                assert omega_sub == tuple(sorted(right, key=order_key))
                assert check(frozenset(phi_sub), proof) == \
                    disj_fold(omega_sub)
            else:
                model, world = v.evidence
                assert forces_all(model, world, left)
                assert not any(forces(model, world, f) for f in right)
        assert kinds == {Fails, Holds}


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
