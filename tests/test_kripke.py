import copy
import pickle
import random
import time
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from iplkit.bridge import truth_set
from iplkit.formula import (And, BOT, Bottom, Implies, Or, TOP, Variable,
                            all_formulas, neg, parse, var)
from iplkit.kripke import (MAX_CLOSED_SETS, EvalError, KripkeModel,
                           Violation, _canonical_preorders, _closed_subsets,
                           _closure, _models, consequence_over_models,
                           enumerate_models, find_countermodel, forces,
                           forces_all, forcing_is_monotone, make_model,
                           model_from_json, model_to_json, truth_mask,
                           valid_in_model, validate_model)
from iplkit.proof import (ContractionConj, ContractionDisj, Exfalso,
                          PermutationConj, PermutationDisj, WeakeningConj,
                          WeakeningDisj, check)

import reference_kripke as reference

p0, p1 = var(0), var(1)
LEM = parse("p0 | ~p0")
PEIRCE = parse("((p0 -> p1) -> p0) -> p0")
DNE = parse("~~p0 -> p0")


def chain2(val0=(1,), val1=()):
    return make_model(2, {(0, 0), (1, 1), (0, 1)}, {0: val0, 1: val1})


class TestValidate:
    def test_single_reflexive_world(self):
        m = make_model(1, {(0, 0)}, {0: [0]})
        assert validate_model(m) == []

    def test_missing_reflexivity(self):
        m = make_model(2, {(1, 1), (0, 1)}, {})
        assert validate_model(m) == [Violation("reflexivity", (0,))]

    def test_missing_transitivity(self):
        m = make_model(3, {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}, {})
        assert Violation("transitivity", (0, 1, 2)) in validate_model(m)

    def test_non_monotone_valuation(self):
        m = make_model(2, {(0, 0), (1, 1), (0, 1)}, {0: [0]})
        assert validate_model(m) == [Violation("monotonicity", (0, 0, 1))]


EMPTY = frozenset()
PAIR = r"^relation pair \(-?\d, -?\d\) out of range$"
WORLD = r"^valuation of p0 mentions an unknown world$"
INDEX = (r"^valuation variable index -?\d+ is negative, repeated or out "
         r"of order$")

# The shapes a KripkeModel refuses, as its fields and as the pieces of
# make_model, which sorts the variables before it makes them ints.
MALFORMED = [
    (0, [], (), {}, r"^a model needs at least one world$"),
    (2, [(0, 1), (0, 2)], (), {}, PAIR),
    (2, [(0, 1), (2, 0)], (), {}, PAIR),
    (2, [(0, 1), (-1, 0)], (), {}, PAIR),
    (2, [(0, 1), (0, -1)], (), {}, PAIR),
    (2, [], ((0, frozenset({2})),), {0: [2]}, WORLD),
    (2, [], ((0, frozenset({-1})),), {0: [-1]}, WORLD),
    # a repeated, an unsorted and a negative variable
    (1, [], ((0, EMPTY), (0, EMPTY)), {0: [], 0.5: []}, INDEX),
    (1, [], ((1, EMPTY), (0, EMPTY)), {"10": [], "9": []}, INDEX),
    (1, [], ((-1, EMPTY),), {-1: []}, INDEX),
]


class TestWellFormed:
    @pytest.mark.parametrize("worlds,rel,valuation,pieces,message",
                             MALFORMED)
    def test_malformed_models_raise(self, worlds, rel, valuation, pieces,
                                    message):
        with pytest.raises(ValueError, match=message):
            KripkeModel(worlds, frozenset(rel), valuation)
        with pytest.raises(ValueError, match=message):
            make_model(worlds, rel, pieces)

    def test_a_stray_world_no_longer_reaches_forcing(self):
        # this model once passed validate_model, and forcing ~p0 in it
        # raised IndexError
        with pytest.raises(ValueError, match="^valuation of p0 mentions an "
                           "unknown world$"):
            KripkeModel(2, frozenset({(0, 0), (1, 1)}),
                        ((0, frozenset({1, 7})),))

    def test_copies_and_pickles_are_built_again(self):
        m = make_model(3, {(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)},
                       {0: [1], 2: [1, 2]})
        for other in (copy.copy(m), copy.deepcopy(m),
                      pickle.loads(pickle.dumps(m))):
            assert other == m and other is not m
            assert [forces(other, w, LEM) for w in range(3)] == \
                [False, True, True]


class TestForces:
    def test_lem_fails_at_root(self):
        assert forces(chain2(), 0, LEM) is False

    def test_peirce_fails_at_root(self):
        assert forces(chain2((1,), ()), 0, PEIRCE) is False

    def test_top_everywhere(self):
        m = chain2()
        assert forces(m, 0, TOP) and forces(m, 1, TOP)

    def test_variable_and_negation(self):
        m = chain2()
        assert not forces(m, 0, p0) and forces(m, 1, p0)
        assert not forces(m, 0, neg(p0)) and not forces(m, 1, neg(p0))
        # no successor of w0 settles p0 negatively, so ~~p0 already holds
        assert forces(m, 0, neg(neg(p0)))

    def test_unknown_world(self):
        with pytest.raises(EvalError):
            forces(chain2(), 5, p0)

    def test_undeclared_variable(self):
        with pytest.raises(EvalError):
            forces(chain2(), 0, var(3))


class TestValidity:
    def test_identity_valid(self):
        m = make_model(1, {(0, 0)}, {0: []})
        assert valid_in_model(m, Implies(p0, p0))

    def test_lem_invalid_on_chain(self):
        assert not valid_in_model(chain2(), LEM)

    def test_exfalso_valid(self):
        assert valid_in_model(chain2(), Implies(BOT, p0))

    def test_forces_all(self):
        m = chain2()
        assert forces_all(m, 0, [])
        assert forces_all(m, 1, [p0])
        assert not forces_all(m, 0, [p0])

    def test_consequence_trivial(self):
        m = chain2()
        v = consequence_over_models([m], [p0], p0)
        assert v.holds

    def test_consequence_refuted(self):
        v = consequence_over_models([chain2()], [], LEM)
        assert (v.holds, v.model_index, v.world) == (False, 0, 0)

    def test_consequence_conjunction(self):
        m = make_model(1, {(0, 0)}, {0: [0]})
        assert consequence_over_models([m], [p0], And(p0, p0)).holds


def reference_truth_set(model, phi, memo):
    """The worlds forcing phi, read off the definition of forcing by
    recursion over phi, checking implications world by world against
    the relation's pairs; memo is keyed by id(subformula)."""
    if id(phi) not in memo:
        if isinstance(phi, Variable):
            out = model.true_worlds(phi.var.index)
        elif isinstance(phi, Bottom):
            out = frozenset()
        else:
            a = reference_truth_set(model, phi.lhs, memo)
            b = reference_truth_set(model, phi.rhs, memo)
            if isinstance(phi, And):
                out = a & b
            elif isinstance(phi, Or):
                out = a | b
            else:
                out = frozenset(w for w in range(model.worlds)
                                if all(v in b for u, v in model.rel
                                       if u == w and v in a))
        memo[id(phi)] = out
    return memo[id(phi)]


class TestTruthMask:
    def test_matches_recursive_reference(self):
        formulas = all_formulas(2, 3)
        for n in (1, 2, 3):
            for m in enumerate_models(2, n):
                ref_memo, mask_memo = {}, {}
                for phi in formulas:
                    want = sum(1 << w
                               for w in reference_truth_set(m, phi, ref_memo))
                    assert truth_mask(phi, *m.masks, mask_memo) == want

    def test_deep_implication_chain(self):
        phi = p0
        for _ in range(3000):
            phi = Implies(p0, phi)
        m = chain2()
        assert forces(m, 0, phi)
        assert valid_in_model(m, phi)
        assert truth_set(m, phi) == frozenset({0, 1})


def brute_force_models(num_vars, num_worlds):
    """Independent enumerator: every labeled preorder with every monotone
    valuation, no isomorphism reduction."""
    worlds = range(num_worlds)
    diagonal = {(w, w) for w in worlds}
    offdiag = [(i, j) for i in worlds for j in worlds if i != j]
    for mask in range(1 << len(offdiag)):
        rel = set(diagonal)
        rel.update(p for i, p in enumerate(offdiag) if mask >> i & 1)
        if any((a, b) in rel and (b, c) in rel and (a, c) not in rel
               for a in worlds for b in worlds for c in worlds):
            continue
        upsets = [frozenset(s) for k in range(num_worlds + 1)
                  for s in _subsets(list(worlds), k)
                  if all(j in s for i, j in rel if i in s)]
        for choice in product(upsets, repeat=num_vars):
            yield frozenset(rel), tuple(choice)


def _subsets(items, k):
    if k == 0:
        yield frozenset()
        return
    for i, x in enumerate(items):
        for rest in _subsets(items[i + 1:], k - 1):
            yield frozenset({x}) | rest


def iso_classes(models, num_worlds):
    seen = set()
    for rel, vals in models:
        canon = min((tuple(sorted((p[i], p[j]) for i, j in rel)),
                     tuple(tuple(sorted(p[w] for w in v)) for v in vals))
                    for p in permutations(range(num_worlds)))
        seen.add(canon)
    return len(seen)


class TestEnumeration:
    def test_counts_no_vars(self):
        assert len(list(enumerate_models(0, 1))) == 1

    def test_counts_one_var_one_world(self):
        assert len(list(enumerate_models(1, 1))) == 2

    def test_matches_brute_force_quotient(self):
        for num_vars, num_worlds in [(1, 2), (0, 3), (1, 3), (2, 2)]:
            expected = iso_classes(
                list(brute_force_models(num_vars, num_worlds)), num_worlds)
            got = len(list(enumerate_models(num_vars, num_worlds)))
            assert got == expected, (num_vars, num_worlds)

    def test_all_enumerated_models_are_valid(self):
        for m in enumerate_models(2, 3):
            assert validate_model(m) == []

    def test_deterministic(self):
        first = list(enumerate_models(1, 2))
        second = list(enumerate_models(1, 2))
        assert first == second

    def test_requires_one_world(self):
        with pytest.raises(ValueError):
            list(enumerate_models(1, 0))


class TestEnumerationReference:
    """The enumeration on orbits and up-set indices gives the tuples of
    the relabel-everything loops in tests/reference_kripke.py, in the
    same order."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_canonical_preorders(self, n):
        assert _canonical_preorders(n) == reference.canonical_preorders(n)

    @pytest.mark.parametrize("num_vars", range(4))
    @pytest.mark.parametrize("num_worlds", range(1, 5))
    def test_models(self, num_vars, num_worlds):
        indices = tuple(range(num_vars))
        assert _models(indices, num_worlds) == \
            reference.models(indices, num_worlds)

    def test_models_over_scattered_indices(self):
        for n in (2, 3):
            assert _models((1, 4), n) == reference.models((1, 4), n)


class TestCountermodels:
    def test_lem(self):
        model, world = find_countermodel([], LEM, 2)
        assert world == 0
        assert model == make_model(2, {(0, 0), (1, 1), (0, 1)}, {0: [1]})

    def test_peirce(self):
        model, world = find_countermodel([], PEIRCE, 2)
        assert model.worlds == 2
        assert not forces(model, world, PEIRCE)
        assert validate_model(model) == []

    def test_dne(self):
        model, world = find_countermodel([], DNE, 2)
        assert not forces(model, world, DNE)

    def test_theorems_have_no_countermodel(self):
        assert find_countermodel([], Implies(p0, p0), 5) is None
        assert find_countermodel([], Implies(BOT, p0), 4) is None

    def test_with_premises(self):
        model, world = find_countermodel([p0], p1, 1)
        assert forces(model, world, p0) and not forces(model, world, p1)


class TestMonotonicity:
    def test_depth_two_family(self):
        assert forcing_is_monotone(chain2(), all_formulas(1, 2))

    def test_single_world(self):
        m = make_model(1, {(0, 0)}, {0: []})
        assert forcing_is_monotone(m, all_formulas(1, 2))

    def test_bottom_only(self):
        assert forcing_is_monotone(chain2(), [BOT])

    def test_persistence_exhaustive_small(self):
        family = all_formulas(2, 2)
        for n in (1, 2, 3):
            for m in enumerate_models(2, n):
                assert forcing_is_monotone(m, family)


AXIOM_BUILDERS = [
    lambda a, b: ContractionDisj(a),
    lambda a, b: ContractionConj(a),
    lambda a, b: WeakeningDisj(a, b),
    lambda a, b: WeakeningConj(a, b),
    lambda a, b: PermutationDisj(a, b),
    lambda a, b: PermutationConj(a, b),
    lambda a, b: Exfalso(a),
]


class TestSoundnessPieces:
    def test_axioms_valid_everywhere(self):
        atoms = all_formulas(2, 1)
        instances = {check([], build(a, b))
                     for build in AXIOM_BUILDERS
                     for a in atoms for b in atoms}
        models = [m for n in (1, 2, 3) for m in enumerate_models(2, n)]
        for m in models:
            for f in instances:
                assert valid_in_model(m, f)

    def test_rules_preserve_validity(self):
        # if all premises of a rule are valid in a model, so is its conclusion
        atoms = all_formulas(2, 1)
        models = [m for n in (1, 2, 3) for m in enumerate_models(2, n)]
        pairs = [(a, b) for a in atoms for b in atoms]
        for m in models:
            for a, b in pairs:
                mp_minor, mp_major = a, Implies(a, b)
                if valid_in_model(m, mp_minor) and valid_in_model(m, mp_major):
                    assert valid_in_model(m, b)
                for c in atoms:
                    syl1, syl2 = Implies(a, b), Implies(b, c)
                    if valid_in_model(m, syl1) and valid_in_model(m, syl2):
                        assert valid_in_model(m, Implies(a, c))
                    exp = Implies(And(a, b), c)
                    if valid_in_model(m, exp):
                        assert valid_in_model(m, Implies(a, Implies(b, c)))
                        assert valid_in_model(m, exp)
                    imp = Implies(a, Implies(b, c))
                    if valid_in_model(m, imp):
                        assert valid_in_model(m, Implies(And(a, b), c))
                    if valid_in_model(m, Implies(a, b)):
                        assert valid_in_model(m, Implies(Or(c, a), Or(c, b)))


def truth_table(phi, env):
    if isinstance(phi, Variable):
        return env[phi.var.index]
    if isinstance(phi, Bottom):
        return False
    if isinstance(phi, And):
        return truth_table(phi.lhs, env) and truth_table(phi.rhs, env)
    if isinstance(phi, Or):
        return truth_table(phi.lhs, env) or truth_table(phi.rhs, env)
    return (not truth_table(phi.lhs, env)) or truth_table(phi.rhs, env)


class TestClassicalDegeneracy:
    def test_identity_relation_models_are_classical(self):
        family = all_formulas(2, 2)
        for n in (1, 2, 3):
            for m in enumerate_models(2, n):
                if set(m.rel) != {(w, w) for w in range(m.worlds)}:
                    continue
                for w in range(m.worlds):
                    env = {v: w in ws for v, ws in m.valuation}
                    for f in family:
                        assert forces(m, w, f) == truth_table(f, env)


class TestJson:
    def test_round_trip(self):
        m = chain2()
        assert model_from_json(model_to_json(m)) == m

    def test_loader_takes_closure(self):
        m = model_from_json({"worlds": 3, "rel": [[0, 1], [1, 2]],
                             "vars": 1, "val": {"p0": [2]}})
        assert (0, 2) in m.rel and all((w, w) in m.rel for w in range(3))

    def test_loader_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            model_from_json({"worlds": 2, "rel": [[0, 1]], "vars": 1,
                             "val": {"p0": [0]}})

    def test_loader_rejects_unknown_vars(self):
        with pytest.raises(ValueError):
            model_from_json({"worlds": 1, "rel": [], "vars": 0,
                             "val": {"p0": [0]}})

    def test_loader_names_the_first_pair_out_of_range(self):
        # checked before the closure, which took seconds over these
        # 5,000 worlds and then named a pair of its own
        rel = [[0, 1]] + [[0, 1_000_000 + i] for i in range(5000)]
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^relation pair "
                           r"\(0, 1000000\) out of range$"):
            model_from_json({"worlds": 2, "rel": rel + [[-1, 0]]})
        assert time.perf_counter() - start < 1.0
        with pytest.raises(ValueError, match=r"\(-1, 0\) out of range"):
            model_from_json({"worlds": 2, "rel": [[0, 1], [-1, 0]]})


def reference_closure(rel, worlds) -> set:
    """The fixpoint model_from_json used before Warshall: add (a, d) for
    each (a, b), (b, d) until nothing changes."""
    closure = set(rel)
    closure.update((w, w) for w in range(worlds))
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


class TestClosure:
    def test_matches_the_fixpoint(self):
        rng = random.Random(12)
        for _ in range(500):
            worlds = rng.randint(0, 7)
            # a few pairs leave the range, as in malformed input
            rel = [(rng.randint(-1, worlds), rng.randint(-1, worlds))
                   for _ in range(rng.randint(0, 12))]
            want = reference_closure(rel, worlds)
            assert _closure(rel, worlds) == want, (rel, worlds)
            if worlds and all(0 <= w < worlds for pair in rel for w in pair):
                doc = {"worlds": worlds, "rel": [list(p) for p in rel]}
                assert model_from_json(doc).rel == want

    def test_long_chain_loads_quickly(self):
        doc = {"worlds": 150, "rel": [[w, w + 1] for w in range(149)]}
        start = time.perf_counter()
        model = model_from_json(doc)
        assert time.perf_counter() - start < 2.0
        assert len(model.rel) == 150 * 151 // 2


def reference_closed_subsets(rel, n, up) -> list:
    """The scan _closed_subsets ran before it joined principal up-sets:
    each of the 2^n world sets, in mask order, tested against every
    pair."""
    pairs = rel if up else [(b, a) for a, b in rel]
    return [frozenset(i for i in range(n) if mask >> i & 1)
            for mask in range(1 << n)
            if all(mask >> b & 1 for a, b in pairs if mask >> a & 1)]


def antichain(n) -> frozenset:
    return frozenset((w, w) for w in range(n))


class TestClosedSubsets:
    def test_matches_the_scan(self):
        rng = random.Random(14)
        for _ in range(3000):
            n = rng.randint(0, 7)
            rel = {(rng.randrange(n), rng.randrange(n))
                   for _ in range(rng.randint(0, 12))} if n else set()
            if rng.random() < 0.5:
                rel = _closure(list(rel), n)
            rel = frozenset(rel)
            for up in (True, False):
                assert _closed_subsets(rel, n, up) == \
                    reference_closed_subsets(rel, n, up), (rel, n, up)

    def test_long_chain_without_a_scan(self):
        rel = frozenset(_closure([(w, w + 1) for w in range(99)], 100))
        start = time.perf_counter()
        ups = _closed_subsets(rel, 100, up=True)
        downs = _closed_subsets(rel, 100, up=False)
        assert time.perf_counter() - start < 1.0
        assert ups == [frozenset(range(k, 100)) for k in range(100, -1, -1)]
        assert downs == [frozenset(range(k)) for k in range(101)]

    def test_the_cap(self):
        # every world set of an antichain is closed: 2^n of them
        assert MAX_CLOSED_SETS == 512
        assert len(_closed_subsets(antichain(9), 9, up=True)) == 512
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^more than MAX_CLOSED_SETS = "
                           r"512 down-closed world sets$"):
            _closed_subsets(antichain(20), 20, up=False)
        assert time.perf_counter() - start < 1.0


def reference_validate(model) -> list:
    """The loops validate_model ran before successor bitmasks: one
    membership test per (pair, world) and per (variable, pair)."""
    out = []
    rel = model.rel
    for w in range(model.worlds):
        if (w, w) not in rel:
            out.append(Violation("reflexivity", (w,)))
    for a, b in sorted(rel):
        for c in range(model.worlds):
            if (b, c) in rel and (a, c) not in rel:
                out.append(Violation("transitivity", (a, b, c)))
    for v, ws in model.valuation:
        for a, b in sorted(rel):
            if a in ws and b not in ws:
                out.append(Violation("monotonicity", (v, a, b)))
    return out


class TestValidateBitmasks:
    def test_matches_the_loops(self):
        rng = random.Random(13)
        valid = 0
        for _ in range(1500):
            worlds = rng.randint(1, 7)
            rel = {(rng.randrange(worlds), rng.randrange(worlds))
                   for _ in range(rng.randint(0, 16))}
            if rng.random() < 0.5:
                rel = _closure(list(rel), worlds)
            if rng.random() < 0.1:
                # a world out of range: no model is built
                stray = {(rng.choice((-1, worlds)), rng.randrange(worlds)),
                         (rng.randrange(worlds), rng.choice((-2, worlds + 1)))}
                with pytest.raises(ValueError, match="out of range$"):
                    KripkeModel(worlds, frozenset(rel | stray), ())
            valuation = []
            for v in range(rng.randint(0, 3)):
                ws = {w for w in range(worlds) if rng.random() < 0.4}
                if rng.random() < 0.5:
                    # close up along the relation, so it may be monotone
                    ws |= {b for a, b in rel if a in ws}
                if rng.random() < 0.1:
                    with pytest.raises(ValueError, match="unknown world$"):
                        KripkeModel(worlds, frozenset(rel), ((v, frozenset(
                            ws | {worlds + rng.randint(0, 2)})),))
                valuation.append((v, frozenset(ws)))
            model = KripkeModel(worlds, frozenset(rel), tuple(valuation))
            want = reference_validate(model)
            assert validate_model(model) == want, model
            valid += not want
        assert 100 < valid < 1400

    def test_long_chain_loads_in_half_a_second(self):
        doc = {"worlds": 300, "rel": [[w, w + 1] for w in range(299)],
               "vars": 1, "val": {"p0": list(range(150, 300))}}
        start = time.perf_counter()
        model = model_from_json(doc)
        assert time.perf_counter() - start < 0.5
        assert len(model.rel) == 300 * 301 // 2

    def test_names_the_violations_of_a_long_chain(self):
        rel = {(w, w + 1) for w in range(199)} | {(w, w) for w in range(200)}
        model = KripkeModel(200, frozenset(rel), ((0, frozenset({0})),))
        assert validate_model(model) == reference_validate(model)


# formulas over p0..p2 for models that declare only p0 and p1, so a walk
# may stop at an undeclared variable
_leaves = st.one_of(st.just(BOT), st.integers(0, 2).map(var))
_formulas = st.recursive(
    _leaves,
    lambda sub: st.one_of(st.builds(And, sub, sub), st.builds(Or, sub, sub),
                          st.builds(Implies, sub, sub)),
    max_leaves=8)
_MODELS = list(enumerate_models(2, 1)) + list(enumerate_models(2, 2)) + \
    list(enumerate_models(2, 3))


def outcome(model, world, phi):
    try:
        return forces(model, world, phi)
    except EvalError:
        return "EvalError"


class TestModelMemo:
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from(_MODELS), st.lists(_formulas, min_size=1,
                                              max_size=6))
    def test_warm_memo_agrees_with_a_fresh_model(self, base, formulas):
        pieces = (base.worlds, base.rel, dict(base.valuation))
        warm = make_model(*pieces)
        for phi in formulas:
            for w in range(warm.worlds):
                outcome(warm, w, phi)
        for phi in formulas:
            for w in range(warm.worlds):
                assert outcome(warm, w, phi) == \
                    outcome(make_model(*pieces), w, phi)
            if outcome(warm, 0, phi) != "EvalError":
                assert valid_in_model(warm, phi) == \
                    valid_in_model(make_model(*pieces), phi)
                assert forces_all(warm, 0, [phi]) == \
                    forces_all(make_model(*pieces), 0, [phi])

    def test_a_stopped_walk_leaves_only_finished_masks(self):
        m = chain2()
        phi = Implies(Or(p0, neg(p0)), And(var(2), p0))
        with pytest.raises(EvalError):
            forces(m, 0, phi)
        assert id(phi) not in m.memo and id(var(2)) not in m.memo
        assert forces(m, 1, Or(p0, neg(p0)))
        assert not forces(m, 0, Or(p0, neg(p0)))

    def test_copies_and_pickles_start_cold(self):
        m = chain2()
        forces(m, 0, LEM)
        for other in (copy.copy(m), copy.deepcopy(m),
                      pickle.loads(pickle.dumps(m))):
            assert other == m and other.memo == {}
            assert other.memo is not m.memo
