"""Forcing over a whole model family (kripke._ModelFamily) against the
per-model loops it replaced, kept in tests/reference_kripke.py: the same
ConsequenceVerdict, the same EvalError where the loop raises one, the same
(model, world) from find_countermodel and the same validity_harness
report.  The models include invalid relations, non-monotone valuations
and undeclared variables, since consequence_over_models takes any
models."""

import pytest
from hypothesis import given, settings, strategies as st

import reference_kripke
from iplkit import bridge
from iplkit.catalog import standard_algebras
from iplkit.formula import (BOT, And, Implies, Or, neg, parse, var,
                            variable_indices)
from iplkit.kripke import (CountermodelSearchTooLarge, EvalError,
                           KripkeModel, _frame, _layout, _ModelFamily,
                           _models,
                           consequence_over_models, enumerate_models,
                           find_countermodel, make_model, truth_mask)

p0, p1, p2 = var(0), var(1), var(2)

# A few relations per world count, valid and not, so that lists of models
# often share a frame: identity, a chain, everything, nothing, and a
# chain that is neither reflexive nor transitive.
FRAME_POOL = {
    n: [frozenset((w, w) for w in range(n)),
        frozenset((a, b) for a in range(n) for b in range(a, n)),
        frozenset((a, b) for a in range(n) for b in range(n)),
        frozenset(),
        frozenset((w, w + 1) for w in range(n - 1))]
    for n in range(1, 5)}


@st.composite
def models(draw):
    n = draw(st.integers(1, 4))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    rel = draw(st.one_of(st.sampled_from(FRAME_POOL[n]), st.sets(pairs)))
    declared = draw(st.one_of(st.just(frozenset(range(4))),
                              st.sets(st.integers(0, 3))))
    worlds = st.sets(st.integers(0, n - 1))
    return make_model(n, rel, {v: draw(worlds) for v in sorted(declared)})


leaves = st.one_of(st.just(BOT), st.integers(0, 3).map(var))
formulas = st.recursive(
    leaves,
    lambda sub: st.one_of(st.builds(And, sub, sub), st.builds(Or, sub, sub),
                          st.builds(Implies, sub, sub)),
    max_leaves=8)


def outcome(consequence, models, gamma, phi):
    """The verdict, or the error's class and message.  IndexError comes
    only from models built past make_model's range checks."""
    try:
        return consequence(models, gamma, phi)
    except (EvalError, IndexError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(models(), max_size=6), st.lists(formulas, max_size=2),
       formulas)
def test_consequence_matches_per_model_loop(family, gamma, phi):
    assert outcome(consequence_over_models, family, gamma, phi) == \
        outcome(reference_kripke.consequence_over_models, family, gamma, phi)


class TestFallback:
    """Models past the covered prefix are forced one at a time."""

    def chain(self, valuation):
        return make_model(2, {(0, 0), (0, 1), (1, 1)}, valuation)

    def test_error_raised_at_the_first_undeclared_variable(self):
        family = [self.chain({0: [1], 1: []}), self.chain({0: []})]
        phi = Implies(p1, p0)
        for consequence in (consequence_over_models,
                            reference_kripke.consequence_over_models):
            with pytest.raises(EvalError, match="variable p1 is not declared"):
                consequence(family, [], phi)

    def test_refutation_before_the_undeclared_variable(self):
        family = [self.chain({0: [1], 1: []}), self.chain({0: []})]
        verdict = consequence_over_models(family, [], Or(p0, neg(p0)))
        assert (verdict.holds, verdict.model_index, verdict.world) == \
            (False, 0, 0)

    def test_premises_that_hold_nowhere_skip_the_goal(self):
        family = [self.chain({0: []}), self.chain({0: []})]
        # p0 holds at no world, so the goal's p1 is never looked up
        assert consequence_over_models(family, [p0], p1).holds

    def test_models_past_the_prefix_are_still_searched(self):
        # the second model names a world past its own two
        stray = KripkeModel(2, frozenset({(0, 0), (1, 1), (0, 5)}),
                            ((0, frozenset({0, 1})),))
        family = [self.chain({0: [0, 1]}), stray, self.chain({0: [1]})]
        records = _ModelFamily(family, [0])
        verdict = records.consequence([], p0)
        assert (verdict.model_index, verdict.world) == (2, 0)
        assert records.covered == 1

    def test_worlds_outside_the_model_are_not_laid_out(self):
        # built directly, past make_model's range checks
        stray = KripkeModel(2, frozenset({(0, 0), (1, 1), (0, 5)}),
                            ((0, frozenset({1})),))
        beyond = KripkeModel(2, frozenset({(0, 0), (1, 1)}),
                             ((0, frozenset({1, 7})),))
        ok = self.chain({0: [0, 1]})
        for family in ([ok, stray, ok], [ok, beyond, ok]):
            assert _layout(family, [0])[0] == [0]
            for phi in (p0, neg(p0), Or(p0, neg(p0))):
                assert outcome(consequence_over_models, family, [], phi) == \
                    outcome(reference_kripke.consequence_over_models,
                            family, [], phi)


class TestLayout:
    def test_one_model_keeps_its_frame_down(self):
        model = list(enumerate_models(1, 3))[-1]
        starts, _, full, down = _layout([model], [0])
        assert starts == [0]
        assert down is _frame(model.rel, model.worlds)[3]
        assert full == (1 << model.worlds) - 1

    def test_slices_match_each_models_own_forcing(self):
        # shared frames, frames of one model and invalid relations mixed
        family = [m for n in (1, 2, 3) for m in _models((0, 1), n)]
        family += [make_model(3, FRAME_POOL[3][4], {0: [2], 1: [0, 1]}),
                   make_model(2, FRAME_POOL[2][3], {0: [0], 1: []})]
        starts, atoms, full, down = _layout(family, [0, 1])
        assert len(starts) == len(family)
        for phi in (Or(p0, neg(p0)), Implies(neg(neg(p0)), p0),
                    Implies(Implies(p0, p1), Or(neg(p0), p1))):
            mask = truth_mask(phi, atoms, full, down, {})
            for model, start in zip(family, starts):
                own = truth_mask(phi, *model.masks, {})
                assert mask >> start & ((1 << model.worlds) - 1) == own

    def test_blocks_double(self):
        family = [m for n in (1, 2, 3) for m in _models((0, 1, 2), n)]
        assert len(family) == 757
        records = _ModelFamily(family, [0, 1, 2])
        # p0 -> p0 holds everywhere, so every block is laid out
        assert records.consequence([], Implies(p0, p0)).holds
        assert [len(block[1]) for block in records.blocks] == \
            [64, 64, 128, 256, 245]
        assert records.covered == 757

    def test_an_early_refutation_lays_out_one_block(self):
        family = [m for n in (1, 2, 3) for m in _models((0, 1, 2), n)]
        records = _ModelFamily(family, [0, 1, 2])
        assert not records.consequence([], p0).holds
        assert len(records.blocks) == 1 and records.covered == 64


def bd(n):
    """bd_1 = p0 | ~p0, bd_(k+1) = p_k | (p_k -> bd_k)."""
    out = Or(p0, neg(p0))
    for k in range(1, n):
        out = Or(var(k), Implies(var(k), out))
    return out


PEIRCE = Implies(Implies(Implies(p0, p1), p0), p0)
SEARCHES = [bd(2), bd(3), bd(4), PEIRCE, Or(p0, neg(p0)),
            Or(Or(Implies(p0, p1), Implies(p1, p0)), p2)]


def search(find, gamma, phi, max_worlds):
    try:
        return find(gamma, phi, max_worlds)
    except CountermodelSearchTooLarge as exc:
        return "too large", str(exc)


@pytest.mark.parametrize("phi", SEARCHES)
def test_find_countermodel_matches_per_model_loop(phi):
    for max_worlds in (3, 4):
        found = search(find_countermodel, [], phi, max_worlds)
        assert found == search(reference_kripke.find_countermodel, [], phi,
                               max_worlds)
        if found is not None and found[0] != "too large":
            # the very model object of the enumeration
            assert any(found[0] is m for m in _models(
                tuple(variable_indices([phi])), found[0].worlds))


def test_find_countermodel_with_premises_matches_per_model_loop():
    for gamma, phi in (([neg(neg(p2))], Or(p0, Implies(p1, p2))),
                       ([Implies(p0, Or(p1, p2))],
                        Or(Implies(p0, p1), Implies(p0, p2))),
                       ([p0, neg(p0)], p1)):
        assert find_countermodel(gamma, phi, 4) == \
            reference_kripke.find_countermodel(gamma, phi, 4)


class PerModel:
    """A stand-in for the family record that forces one model at a time."""

    def __init__(self, models, var_indices):
        self.models = list(models)

    def consequence(self, gamma, phi):
        return reference_kripke.consequence_over_models(self.models, gamma,
                                                        phi)


HARNESS_CASES = {
    # the formulas and models of the benchmark's algebra workload
    "algebra": ([parse(t) for t in (
        "p0 | ~p0", "~~p0 -> p0", "(p0 -> p1) | (p1 -> p0)", "~p0 | ~~p0",
        "((p0 -> p1) -> p0) -> p0", "~(p0 | p1) -> ~p0 & ~p1",
        "~(p0 & p1) -> ~p0 | ~p1", "p1 | (p1 -> p0 | ~p0)")],
        [m for n in (1, 2) for m in enumerate_models(2, n)]),
    # the formulas of the CLI output guard, on the CLI's default models
    "cli": ([parse(t) for t in (
        "p0 | ~p0", "((p0 -> p1) -> p0) -> p0", "(p0 -> p1) | (p1 -> p0)",
        "~~p2 -> p2", "(p3 -> p0) | ~p3",
        "(p0 & p1) -> (p3 | p2 -> p1 & p0)")],
        [m for n in (1, 2) for m in enumerate_models(4, n)]),
}


@pytest.mark.parametrize("case", sorted(HARNESS_CASES))
def test_harness_matches_per_model_loop(case, monkeypatch):
    formulas, family = HARNESS_CASES[case]
    algebras = list(standard_algebras())
    groups = [formulas[k:k + 3] for k in range(0, len(formulas), 2)]
    reports = [bridge.validity_harness(g, family, algebras) for g in groups]
    monkeypatch.setattr(bridge, "_ModelFamily", PerModel)
    assert reports == [bridge.validity_harness(g, family, algebras)
                       for g in groups]
    assert any(not e.kripke_valid for r in reports for e in r.entries)
