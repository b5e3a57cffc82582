"""The library's record classes are made by formula._record, not by
dataclasses.  Each must behave as the frozen dataclass it replaced: the
same __init__ and defaults, ==, hash, repr and __match_args__, the same
FrozenInstanceError, and copies, pickles and cached properties as a
plain object has them.  Each is checked against a dataclass twin with
the same fields, made here."""

import copy
import dataclasses
import importlib
import inspect
import pickle
from functools import cached_property

import pytest

from iplkit.formula import _Frozen, _record, var
from iplkit.heyting import FiniteHeytingAlgebra, chain
from iplkit.kripke import forces, make_model
from iplkit.proof import NODE_KINDS

MODULES = ["formula", "proof", "prover", "kripke", "heyting", "theories",
           "lindenbaum", "bridge", "catalog", "cli"]

RECORDS = {
    "formula": ["Var"],
    "theories": ["Budget", "Provable", "Refuted", "Unknown", "Holds", "Fails",
                 "FormulaUniverse", "FormulaPair"],
    "kripke": ["KripkeModel", "Violation", "ConsequenceVerdict"],
    "heyting": ["FiniteHeytingAlgebra", "Violation", "Interpretation",
                "AlgConsequenceVerdict"],
    "bridge": ["ClosedSetAlgebra", "HarnessEntry", "HarnessReport"],
    "lindenbaum": ["QuotientTable"],
}
RECORD_CLASSES = [getattr(importlib.import_module(f"iplkit.{module}"), name)
                  for module, names in RECORDS.items() for name in names]

# fields that == and hash leave out, as field(compare=False) did
HIDDEN = {FiniteHeytingAlgebra: {"name"}}


def classes_of(module):
    return [cls for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module.__name__]


def twin(cls):
    """The frozen dataclass with the fields and defaults of the record."""
    fields = []
    for name in cls.__annotations__:
        options = {"compare": name not in HIDDEN.get(cls, ())}
        if name in vars(cls):
            options["default"] = vars(cls)[name]
        fields.append((name, object, dataclasses.field(**options)))
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def values(cls):
    """Distinct hashable field values, one per field."""
    return [(name, i) for i, name in enumerate(cls.__annotations__)]


@pytest.fixture(params=RECORD_CLASSES,
                ids=lambda cls: f"{cls.__module__}.{cls.__qualname__}")
def record(request):
    return request.param


class TestAgainstTheDataclassTwin:
    def test_eq_hash_repr_and_match_args(self, record):
        model = twin(record)
        assert record.__match_args__ == model.__match_args__
        first, same = record(*values(record)), record(*values(record))
        assert first == same and not first != same
        assert hash(first) == hash(model(*values(record)))
        assert repr(first) == repr(model(*values(record)))
        assert first.__eq__(object()) is NotImplemented
        for i, name in enumerate(record.__annotations__):
            changed = values(record)
            changed[i] = ("changed",)
            ours = record(*changed) == first
            assert ours == (model(*changed) == model(*values(record))), name
            assert ours == (name in HIDDEN.get(record, ())), name

    def test_keywords_and_defaults(self, record):
        model = twin(record)
        names = list(record.__annotations__)
        kwargs = dict(zip(names, values(record)))
        assert vars(record(**kwargs)) == vars(model(**kwargs)) == kwargs
        required = [n for n in names if n not in vars(record)]
        short = dict(zip(required, values(record)))
        assert vars(record(**short)) == vars(model(**short))
        with pytest.raises(TypeError):
            record(*values(record), "one too many")
        if required:
            with pytest.raises(TypeError):
                record()

    def test_frozen(self, record):
        node = record(*values(record))
        name = record.__match_args__[0]
        for action in (lambda: setattr(node, name, 1),
                       lambda: delattr(node, name),
                       lambda: setattr(node, "extra", 1)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                action()
        assert vars(node) == dict(zip(record.__annotations__,
                                      values(record)))

    def test_copies_and_pickles_are_equal_new_objects(self, record):
        node = record(*values(record))
        for other in (copy.copy(node), copy.deepcopy(node),
                      pickle.loads(pickle.dumps(node))):
            assert type(other) is record and other == node
            assert other is not node
            assert vars(other) == vars(node)


class TestCachedProperty:
    def test_a_record_caches_in_its_instance(self):
        calls = []

        @_record
        class Pair:
            left: int
            right: int = 2

            @cached_property
            def total(self):
                calls.append(1)
                return self.left + self.right

        pair = Pair(1)
        assert pair.total == pair.total == 3 and len(calls) == 1
        assert vars(pair) == {"left": 1, "right": 2, "total": 3}
        assert pair == Pair(1, 2) and hash(pair) == hash((1, 2))

    def test_library_caches_start_cold_in_copies(self):
        model = make_model(2, {(0, 0), (1, 1), (0, 1)}, {0: [1]})
        forces(model, 0, var(0))
        assert model.memo and model.memo is model.memo
        assert copy.deepcopy(model).memo == {}
        algebra = chain(3)
        assert algebra.filters is algebra.filters


class TestHiddenName:
    def test_name_is_left_out_of_eq_and_hash_but_not_repr(self):
        a, b = chain(3), renamed(chain(3), "another")
        assert a == b and hash(a) == hash(b)
        assert a.name != b.name and repr(a) != repr(b)
        assert "name='another'" in repr(b)


def renamed(alg, name):
    fields = [getattr(alg, n) for n in FiniteHeytingAlgebra.__match_args__]
    return FiniteHeytingAlgebra(*fields[:-1], name)


class TestStructure:
    def test_only_proof_nodes_are_dataclasses(self):
        found = {cls for module in MODULES for cls in classes_of(
            importlib.import_module(f"iplkit.{module}"))
            if hasattr(cls, "__dataclass_fields__")}
        assert found == set(NODE_KINDS) and len(found) == 13

    def test_the_records_are_the_twenty(self):
        found = {cls for module in MODULES for cls in classes_of(
            importlib.import_module(f"iplkit.{module}"))
            if cls.__setattr__ is _Frozen.__setattr__
            and not issubclass(cls, _Frozen)}
        assert found == set(RECORD_CLASSES) and len(found) == 20
