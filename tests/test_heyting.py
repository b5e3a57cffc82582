import pytest

from iplkit.formula import BOT, Implies, TOP, neg, parse, var
from iplkit.heyting import (InterpretationError,
                            MalformedAlgebra, NoWitnessError, NotHeytingError,
                            Violation, algebra_from_json,
                            algebra_to_json, chain, consequence_over_algebras,
                            generated_filter, himp_from_order,
                            himp_not_mem_check, interpret, is_filter,
                            is_prime_filter, is_proper_filter,
                            join_bound_witness, lattice_from_le, make_algebra,
                            make_interpretation, meet_bound_witness,
                            prime_filter_avoiding, prime_filters,
                            prime_intersection, product_algebra,
                            super_prime_filter, true_in_algebra,
                            valid_in_algebra, validate_algebra)
from iplkit.catalog import standard_algebras

p0, p1 = var(0), var(1)

C2 = chain(2)
C3 = chain(3)
B4 = product_algebra(C2, C2)


def all_filters(alg):
    for mask in range(1 << alg.size):
        cand = frozenset(i for i in range(alg.size) if mask >> i & 1)
        if is_filter(alg, cand):
            yield cand


class TestValidation:
    def test_two_chain_classical_tables(self):
        assert validate_algebra(C2) == []
        assert C2.himp[1][0] == 0 and C2.himp[0][0] == 1

    def test_three_chain(self):
        assert validate_algebra(C3) == []
        assert C3.himp[1][0] == 0
        assert C3.himp[2][1] == 1
        assert C3.himp[1][2] == 2

    def test_broken_residuation_is_reported(self):
        himp = [list(row) for row in C3.himp]
        himp[1][0] = 1
        bad = make_algebra(3, C3.le, C3.meet, C3.join, himp, 0, 2)
        violations = validate_algebra(bad)
        assert Violation("residuation", (1, 1, 0)) in violations

    def test_residuation_exhaustive_on_catalog(self):
        for alg in standard_algebras():
            assert validate_algebra(alg) == [], alg.name

    def test_malformed_tables(self):
        with pytest.raises(MalformedAlgebra):
            make_algebra(2, [[True]], C2.meet, C2.join, C2.himp, 0, 1)


class TestHimpFromOrder:
    def test_three_chain(self):
        himp = himp_from_order(C3.le, C3.meet)
        assert himp == C3.himp
        assert himp[2][1] == 1 and himp[1][0] == 0 and himp[0][2] == 2

    def test_diamond_is_not_heyting(self):
        # M3: bottom, three incomparable atoms, top
        le = [[i == j for j in range(5)] for i in range(5)]
        for j in range(5):
            le[0][j] = True
            le[j][4] = True
        meet, join, bot, top = lattice_from_le(le)
        with pytest.raises(NotHeytingError):
            himp_from_order([[bool(x) for x in row] for row in le], meet)

    def test_boolean_four_is_classical(self):
        himp = himp_from_order(B4.le, B4.meet)
        for b in range(4):
            for c in range(4):
                complement = next(a for a in range(4)
                                  if B4.meet[a][b] == 0 and B4.join[a][b] == 3)
                assert himp[b][c] == B4.join[complement][c]


class TestFilters:
    def test_top_singleton(self):
        assert is_filter(C3, {2})

    def test_not_upward_closed(self):
        assert not is_filter(C3, {1})

    def test_principal_filter(self):
        assert is_filter(C3, {1, 2})

    def test_empty_is_not_a_filter(self):
        assert not is_filter(C3, set())

    def test_generated_empty(self):
        assert generated_filter(C3, set()) == frozenset({2})

    def test_generated_singleton(self):
        assert generated_filter(C3, {1}) == frozenset({1, 2})

    def test_generated_atoms_span_boolean_four(self):
        assert generated_filter(B4, {1, 2}) == frozenset({0, 1, 2, 3})

    def test_generated_agreement_everywhere(self):
        for alg in standard_algebras():
            if alg.size > 6:
                continue
            for mask in range(1 << alg.size):
                sub = frozenset(i for i in range(alg.size) if mask >> i & 1)
                out = generated_filter(alg, sub)
                assert is_filter(alg, out)

    def test_proper_and_prime(self):
        assert is_proper_filter(B4, {3}) and not is_prime_filter(B4, {3})
        assert is_proper_filter(C3, {1, 2}) and is_prime_filter(C3, {1, 2})
        assert not is_proper_filter(C3, {0, 1, 2})

    def test_prime_enumeration(self):
        assert prime_filters(C3) == [frozenset({2}), frozenset({1, 2})]
        assert prime_filters(C2) == [frozenset({1})]
        assert prime_filters(B4) == [frozenset({1, 3}), frozenset({2, 3})]


def by_size(filters):
    return sorted(filters, key=lambda f: (len(f), sorted(f)))


class TestFilterFamily:
    """The filter family and what is read from it, against a scan of all
    subsets."""

    def test_family_matches_subset_scan(self):
        for alg in standard_algebras():
            assert list(alg.filters) == by_size(all_filters(alg)), alg.name

    def test_prime_filters_match_subset_scan(self):
        for alg in standard_algebras():
            want = by_size(f for f in all_filters(alg)
                           if is_prime_filter(alg, f))
            assert prime_filters(alg) == want, alg.name

    def test_generated_filter_matches_subset_scan(self):
        for alg in standard_algebras():
            filters = list(all_filters(alg))
            for mask in range(1 << alg.size):
                sub = frozenset(i for i in range(alg.size) if mask >> i & 1)
                want = frozenset(range(alg.size)).intersection(
                    *(f for f in filters if sub <= f))
                assert generated_filter(alg, sub) == want, (alg.name, sub)


class TestSuperPrime:
    def test_top_filter_avoiding_mid(self):
        assert super_prime_filter(C3, {2}, 1) == frozenset({2})

    def test_boolean_four(self):
        assert super_prime_filter(B4, {3}, 1) == frozenset({2, 3})

    def test_already_maximal(self):
        assert super_prime_filter(C3, {1, 2}, 0) == frozenset({1, 2})

    def test_requires_filter(self):
        with pytest.raises(ValueError):
            super_prime_filter(C3, {1}, 0)

    def test_requires_x_outside(self):
        with pytest.raises(ValueError):
            super_prime_filter(C3, {2}, 2)

    @pytest.mark.parametrize("flt, x, message", [
        ({99}, 0, "filter element 99 is not an element"),
        ({2}, 99, "avoided point 99 is not an element"),
        ({2}, -1, "avoided point -1 is not an element"),
    ])
    def test_rejects_points_outside_the_algebra(self, flt, x, message):
        with pytest.raises(ValueError, match=message):
            super_prime_filter(C3, flt, x)

    def test_exhaustive_contract(self):
        for alg in standard_algebras():
            if alg.size > 6:
                continue
            primes = prime_filters(alg)
            for f in all_filters(alg):
                for x in range(alg.size):
                    if x in f:
                        continue
                    out = super_prime_filter(alg, f, x)
                    assert out in primes
                    assert f <= out and x not in out

    def test_avoiding(self):
        assert prime_filter_avoiding(C3, 1) == frozenset({2})
        assert prime_filter_avoiding(B4, 1) == frozenset({2, 3})
        assert prime_filter_avoiding(C2, 0) == frozenset({1})
        with pytest.raises(ValueError):
            prime_filter_avoiding(C3, 2)

    def test_prime_intersection_is_top_singleton(self):
        for alg in standard_algebras():
            assert prime_intersection(alg) == frozenset({alg.top}), alg.name


def chain_product(lengths):
    """The product of chains of the given lengths, by product_algebra."""
    out = chain(lengths[0])
    for n in lengths[1:]:
        out = product_algebra(out, chain(n))
    return out


def join_irreducibles(alg) -> list:
    """The j != bot that are not the join of the elements below them."""
    out = []
    for j in range(alg.size):
        below = alg.bot
        for a in range(alg.size):
            if a != j and alg.le[a][j]:
                below = alg.join[below][a]
        if j != alg.bot and below != j:
            out.append(j)
    return out


class TestBirkhoff:
    """In a finite distributive lattice every prime filter is the up-set
    of a join-irreducible element (Birkhoff's representation; Davey and
    Priestley, Introduction to Lattices and Order, ch. 5)."""

    # the chains and products of chains of the catalog, and the products
    # of chains of the algebra benchmark
    CATALOG = list(standard_algebras()[:6])
    WORKLOAD = [chain_product(lengths) for lengths in
                ((2, 2, 2), (3, 3), (2, 5), (3, 4), (2, 2, 3), (2, 6))]

    def test_super_prime_filter_is_a_birkhoff_witness(self):
        for alg in self.CATALOG + self.WORKLOAD:
            irreducible = set(join_irreducibles(alg))

            def least(s):
                return next(a for a in s if all(alg.le[a][b] for b in s))

            for flt in alg.filters:
                for x in range(alg.size):
                    if x in flt:
                        continue
                    out = super_prime_filter(alg, flt, x)
                    j = least(out)
                    assert out == frozenset(
                        b for b in range(alg.size) if alg.le[j][b])
                    assert j in irreducible, (alg.name, sorted(flt), x)
                    assert alg.le[j][least(flt)] and not alg.le[j][x]


class TestWitnesses:
    def test_join_witness_can_fail(self):
        # with a join bound, {top} offers no witness for x=1, y=1 in C3
        with pytest.raises(NoWitnessError):
            join_bound_witness(C3, {2}, 1, 1)

    def test_join_witness_direct(self):
        assert join_bound_witness(C3, {1, 2}, 0, 1) == 1

    def test_join_witness_trivial(self):
        assert join_bound_witness(C2, {1}, 1, 1) == 1

    def test_join_witness_checks_precondition(self):
        with pytest.raises(ValueError):
            join_bound_witness(C3, {2}, 2, 0)

    def test_meet_witness_always_exists(self):
        for alg in standard_algebras():
            if alg.size > 6:
                continue
            for f in all_filters(alg):
                for x in range(alg.size):
                    for y in generated_filter(alg, f | {x}):
                        z = meet_bound_witness(alg, f, x, y)
                        assert z in f
                        assert alg.le[alg.meet[x][z]][y]

    def test_himp_not_mem_all_triples(self):
        for alg in (C2, C3, B4):
            for f in all_filters(alg):
                for x in range(alg.size):
                    for y in range(alg.size):
                        assert himp_not_mem_check(alg, f, x, y)

    def test_himp_not_mem_vacuous_when_member(self):
        assert himp_not_mem_check(C3, {1, 2}, 2, 1)


class TestInterpretation:
    def test_negation_of_middle(self):
        i = make_interpretation(C3, {0: 1})
        assert interpret(i, neg(p0)) == 0

    def test_lem_lands_strictly_below_top(self):
        i = make_interpretation(C3, {0: 1})
        assert interpret(i, parse("p0 | ~p0")) == 1

    def test_top_formula(self):
        for alg in standard_algebras():
            i = make_interpretation(alg, {})
            assert interpret(i, TOP) == alg.top

    def test_true_in_algebra(self):
        assert true_in_algebra(make_interpretation(C2, {0: 1}), p0)
        assert not true_in_algebra(make_interpretation(C3, {0: 1}),
                                   parse("p0 | ~p0"))
        assert true_in_algebra(make_interpretation(C3, {0: 1}),
                               Implies(p0, p0))

    def test_unknown_variable(self):
        with pytest.raises(InterpretationError):
            interpret(make_interpretation(C2, {}), p0)
        # the leftmost unassigned variable is the one reported
        with pytest.raises(InterpretationError, match="p2 "):
            interpret(make_interpretation(C2, {0: 1}), parse("p0 & p2 | p1"))

    def test_deep_chain(self):
        # 3000 levels is three times the default recursion limit
        valid = invalid = p0
        for _ in range(3000):
            valid, invalid = Implies(p0, valid), Implies(p0, invalid)
        invalid = Implies(p0, Implies(invalid, p1))
        assert interpret(make_interpretation(C3, {0: 1}), valid) == C3.top
        assert interpret(make_interpretation(C3, {0: 2, 1: 0}), invalid) == 0
        assert valid_in_algebra(C3, valid)
        assert not valid_in_algebra(C3, invalid)

    def test_validity(self):
        assert valid_in_algebra(C2, parse("p0 | ~p0"))
        assert not valid_in_algebra(C3, parse("p0 | ~p0"))
        for alg in standard_algebras():
            assert valid_in_algebra(alg, Implies(BOT, p0)), alg.name

    def test_consequence_over_catalog(self):
        algebras = list(standard_algebras())
        assert consequence_over_algebras(algebras, [p0], parse("p0 & p0")).holds
        v = consequence_over_algebras(algebras, [], parse("p0 | ~p0"))
        assert not v.holds
        assert algebras[v.algebra_index].name == "C3"
        assert v.assignment == ((0, 1),)
        assert consequence_over_algebras(algebras, [BOT], p0).holds


class TestJson:
    def test_round_trip(self):
        for alg in (C2, C3, B4):
            assert algebra_from_json(algebra_to_json(alg)) == alg

    def test_derives_operations_from_order(self):
        loaded = algebra_from_json(
            {"size": 3, "le": [[True, True, True],
                               [False, True, True],
                               [False, False, True]]})
        assert loaded == C3

    def test_rejects_non_heyting(self):
        le = [[i == j for j in range(5)] for i in range(5)]
        for j in range(5):
            le[0][j] = True
            le[j][4] = True
        with pytest.raises((ValueError, NotHeytingError)):
            algebra_from_json({"size": 5, "le": le})

    def test_rejects_bad_tables(self):
        doc = algebra_to_json(C2)
        doc["himp"] = [[0, 0], [0, 0]]
        with pytest.raises(ValueError):
            algebra_from_json(doc)

    def test_a_lone_meet_or_join_table_is_checked(self):
        # the missing table is derived from the order, and the given one
        # must equal its derived value
        doc = algebra_to_json(C3)
        for what in ("meet", "join"):
            lone = {"size": 3, "le": doc["le"], what: doc[what]}
            assert algebra_from_json(lone) == C3
            lone[what] = [[1] * 3] * 3
            with pytest.raises(ValueError, match=f"declared {what} "):
                algebra_from_json(lone)


class TestCatalogShape:
    def test_names_and_sizes(self):
        algebras = standard_algebras()
        names = [a.name for a in algebras]
        assert names == ["C2", "C3", "C4", "C5", "C2xC2", "C3xC2",
                         "Up(chain2)", "Up(chain3)", "Up(fork3)"]
        assert [a.size for a in algebras] == [2, 3, 4, 5, 4, 6, 3, 4, 5]
