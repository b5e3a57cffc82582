import pytest

from iplkit import bridge
from iplkit.bridge import (algebra_model_agreement,
                           algebras_isomorphic, canonical_interpretation,
                           closed_set_algebra, closed_sets,
                           model_algebra_agreement, models_isomorphic,
                           prime_filter_frame, truth_set, validity_harness)
from iplkit.catalog import (chain_model, fork_model, identity_model,
                            standard_algebras)
from iplkit.formula import BOT, Implies, all_formulas, neg, parse, var
from iplkit.heyting import (chain, make_interpretation, product_algebra,
                            validate_algebra)
from iplkit.kripke import enumerate_models, make_model, valid_in_model

p0, p1 = var(0), var(1)
LEM = parse("p0 | ~p0")
PEIRCE = parse("((p0 -> p1) -> p0) -> p0")


def chain2(vals=None):
    return chain_model(2, vals or {0: [1]})


class TestClosedSets:
    def test_two_chain(self):
        assert closed_sets(chain_model(2)) == [frozenset(), frozenset({1}),
                                               frozenset({0, 1})]

    def test_single_world(self):
        assert closed_sets(make_model(1, {(0, 0)}, {})) == [frozenset(),
                                                            frozenset({0})]

    def test_identity_relation_has_full_powerset(self):
        assert len(closed_sets(identity_model(2))) == 4

    def test_fork(self):
        got = closed_sets(fork_model())
        assert frozenset({1}) in got and frozenset({2}) in got
        assert len(got) == 5


class TestClosedSetAlgebra:
    def test_two_chain_is_three_chain(self):
        csa = closed_set_algebra(chain_model(2))
        assert algebras_isomorphic(csa.algebra, chain(3))

    def test_single_world_is_two_chain(self):
        csa = closed_set_algebra(make_model(1, {(0, 0)}, {}))
        assert algebras_isomorphic(csa.algebra, chain(2))

    def test_identity_two_worlds_is_boolean_four(self):
        csa = closed_set_algebra(identity_model(2))
        assert algebras_isomorphic(csa.algebra,
                                   product_algebra(chain(2), chain(2)))

    def test_always_validates(self):
        for n in (1, 2, 3):
            for m in enumerate_models(0, n):
                assert validate_algebra(closed_set_algebra(m).algebra) == []

    def test_requires_valid_model(self):
        broken = make_model(2, {(0, 1), (1, 1)}, {})
        with pytest.raises(ValueError):
            closed_set_algebra(broken)


class TestTruthSet:
    def test_variable(self):
        assert truth_set(chain2(), p0) == frozenset({1})

    def test_negation_empty(self):
        assert truth_set(chain2(), neg(p0)) == frozenset()

    def test_lem_union(self):
        assert truth_set(chain2(), LEM) == frozenset({1})

    def test_always_closed(self):
        family = all_formulas(2, 2)
        for m in enumerate_models(2, 2):
            for f in family:
                out = truth_set(m, f)
                assert all(j in out for i, j in m.rel if i in out)


class TestModelToAlgebra:
    def test_lem_agrees_both_refuted(self):
        assert model_algebra_agreement(chain2(), LEM)
        assert not valid_in_model(chain2(), LEM)

    def test_identity_formula_agrees(self):
        assert model_algebra_agreement(chain2(), Implies(p0, p0))

    def test_classical_model_validates_lem(self):
        m = identity_model(2, {0: [1]})
        assert model_algebra_agreement(m, LEM)
        assert valid_in_model(m, LEM)

    def test_exhaustive_small(self):
        family = all_formulas(2, 2)
        for n in (1, 2):
            for m in enumerate_models(2, n):
                for f in family:
                    assert model_algebra_agreement(m, f)


class TestAlgebraToModel:
    def test_three_chain_frame_is_two_chain(self):
        interp = make_interpretation(chain(3), {0: 1})
        frame = prime_filter_frame(chain(3), interp)
        assert models_isomorphic(frame, chain2())

    def test_two_chain_frame_is_point(self):
        interp = make_interpretation(chain(2), {0: 0})
        assert prime_filter_frame(chain(2), interp).worlds == 1

    def test_boolean_four_frame_is_two_incomparable_worlds(self):
        b4 = product_algebra(chain(2), chain(2))
        frame = prime_filter_frame(b4, make_interpretation(b4, {0: 1}))
        assert frame.worlds == 2
        assert set(frame.rel) == {(0, 0), (1, 1)}

    def test_lem_agreement_on_three_chain(self):
        alg = chain(3)
        interp = make_interpretation(alg, {0: 1})
        assert algebra_model_agreement(alg, interp, LEM)

    def test_top_agreement_everywhere(self):
        for alg in standard_algebras():
            interp = make_interpretation(alg, {})
            assert algebra_model_agreement(alg, interp, parse("top"))

    def test_lem_agreement_on_boolean_four(self):
        b4 = product_algebra(chain(2), chain(2))
        interp = make_interpretation(b4, {0: 1})
        assert algebra_model_agreement(b4, interp, LEM)

    def test_exhaustive_catalog_depth_two(self):
        family = all_formulas(2, 2)
        for alg in standard_algebras():
            for e0 in range(alg.size):
                for e1 in range(alg.size):
                    interp = make_interpretation(alg, {0: e0, 1: e1})
                    for f in family:
                        assert algebra_model_agreement(alg, interp, f)


class TestRoundTrip:
    def test_two_chain_comes_back(self):
        model = chain2()
        csa = closed_set_algebra(model)
        interp = canonical_interpretation(csa, p0)
        frame = prime_filter_frame(csa.algebra, interp)
        assert models_isomorphic(frame, model)


class TestIsomorphismCheckers:
    def test_algebras_reject_different_sizes(self):
        assert not algebras_isomorphic(chain(2), chain(3))

    def test_algebras_reject_same_size_different_shape(self):
        b4 = product_algebra(chain(2), chain(2))
        assert not algebras_isomorphic(chain(4), b4)

    def test_models_relabeling(self):
        m1 = make_model(2, {(0, 0), (1, 1), (0, 1)}, {0: [1]})
        m2 = make_model(2, {(0, 0), (1, 1), (1, 0)}, {0: [0]})
        assert models_isomorphic(m1, m2)

    def test_models_distinguish_valuations(self):
        m1 = make_model(2, {(0, 0), (1, 1), (0, 1)}, {0: [1]})
        m2 = make_model(2, {(0, 0), (1, 1), (0, 1)}, {0: [0, 1]})
        assert not models_isomorphic(m1, m2)


class TestHarness:
    def harness_inputs(self):
        models = [chain_model(2, {0: [1], 1: []})]
        return models, list(standard_algebras())

    def test_lem_refuted_both_sides(self):
        models, algebras = self.harness_inputs()
        report = validity_harness([LEM], models, algebras)
        entry = report.entries[0]
        assert not entry.kripke_valid and not entry.algebra_valid
        assert entry.bridged_algebra_refutes and entry.bridged_frame_refutes
        assert report.discrepancies == []

    def test_peirce_refuted_both_sides(self):
        models, algebras = self.harness_inputs()
        report = validity_harness([PEIRCE], models, algebras)
        entry = report.entries[0]
        assert not entry.kripke_valid and not entry.algebra_valid
        assert entry.bridged_algebra_refutes and entry.bridged_frame_refutes
        assert report.discrepancies == []

    def test_transfers_built_once_per_witness(self, monkeypatch):
        """The first harness group of the benchmark's algebra workload:
        model 20 refutes two of the three formulas and the algebra
        witness (1, ((0, 1),)) two as well, so one closed-set algebra
        and two prime-filter frames are built.  The report is the one
        that each formula gets alone."""
        formulas = [parse(t) for t in (
            "p0 | ~p0", "~~p0 -> p0", "(p0 -> p1) | (p1 -> p0)")]
        models = [m for n in (1, 2) for m in enumerate_models(2, n)]
        algebras = list(standard_algebras())
        built = []
        for name in ("closed_set_algebra", "prime_filter_frame"):
            def counted(*args, real=getattr(bridge, name), name=name):
                built.append(name)
                return real(*args)
            monkeypatch.setattr(bridge, name, counted)
        report = validity_harness(formulas, models, algebras)
        assert [(e.kripke_witness, e.algebra_witness)
                for e in report.entries] == [
            ((20, 0), (1, ((0, 1),))), ((20, 0), (1, ((0, 1),))),
            (None, (8, ((0, 1), (1, 2))))]
        assert sorted(built) == ["closed_set_algebra", "prime_filter_frame",
                                 "prime_filter_frame"]
        assert report.entries == tuple(
            e for phi in formulas
            for e in validity_harness([phi], models, algebras).entries)
        assert report.discrepancies == []

    def test_exfalso_valid_both_sides(self):
        models, algebras = self.harness_inputs()
        report = validity_harness([Implies(BOT, p0)], models, algebras)
        entry = report.entries[0]
        assert entry.kripke_valid and entry.algebra_valid
        assert entry.bridged_algebra_refutes is None
        assert entry.bridged_frame_refutes is None
        assert report.discrepancies == []
