import copy
import os
import pickle
import random
import subprocess
import sys
import threading
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from reference_syntax import reference_parse, reference_render
from test_witnesses import named_laws, seeded_queries

from iplkit import formula
from iplkit.formula import (And, BOT, Bottom, Implies, Or, ParseError, TOP,
                            Var, Variable,
                            all_formulas, decode, depth, encode, iff, neg,
                            order_key, pairing, parse, postorder, render,
                            subformulas, unpairing, var, variable_indices,
                            variables)
from iplkit.theories import Oracle

p0, p1, p2, p3 = var(0), var(1), var(2), var(3)


class TestParse:
    def test_implication_right_associative(self):
        assert parse("p0 -> p1 -> p0") == Implies(p0, Implies(p1, p0))

    def test_neg_bot_is_top(self):
        assert parse("~bot") == Implies(BOT, BOT)

    def test_precedence_and_over_or(self):
        assert parse("p0 & p1 | p2") == Or(And(p0, p1), p2)

    def test_or_over_implication(self):
        assert parse("p0 | p1 -> p2") == Implies(Or(p0, p1), p2)

    def test_left_associative_conj_disj(self):
        assert parse("p0 & p1 & p2") == And(And(p0, p1), p2)
        assert parse("p0 | p1 | p2") == Or(Or(p0, p1), p2)

    def test_iff_expands(self):
        assert parse("p0 <-> p1") == iff(p0, p1)
        assert parse("p0 <-> p1 <-> p2") == iff(p0, iff(p1, p2))

    def test_negation_nests(self):
        assert parse("~~p0") == neg(neg(p0))
        assert parse("~p0 & p1") == And(neg(p0), p1)

    def test_top_keyword(self):
        assert parse("top") == TOP

    def test_parentheses(self):
        assert parse("(p0 -> p1) -> p0") == Implies(Implies(p0, p1), p0)

    def test_whitespace_insignificant(self):
        assert parse(" p0->p1 ") == parse("p0 -> p1")

    @pytest.mark.parametrize("text,offset", [
        ("p0 @ p1", 3),
        ("px", 0),
        ("p0 &", 4),
        ("(p0", 3),
        ("p0 p1", 3),
    ])
    def test_errors_carry_offsets(self, text, offset):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset


class TestRender:
    def test_bot_implies_bot(self):
        assert render(Implies(BOT, BOT)) == "bot -> bot"

    def test_minimal_parens(self):
        assert render(Or(And(p0, p1), p2)) == "p0 & p1 | p2"

    def test_variable(self):
        assert render(var(7)) == "p7"

    def test_needed_parens(self):
        assert render(Implies(Implies(p0, p1), p0)) == "(p0 -> p1) -> p0"
        assert render(And(p0, Or(p1, p2))) == "p0 & (p1 | p2)"
        assert render(And(p0, And(p1, p2))) == "p0 & (p1 & p2)"

    def test_round_trip_families(self):
        for f in all_formulas(2, 3):
            assert render(f) == reference_render(f)
            assert parse(render(f)) == f

    def test_round_trip_random_depth8(self):
        rng = random.Random(20240817)

        def build(d):
            if d <= 1 or rng.random() < 0.2:
                return rng.choice([BOT, p0, p1])
            ctor = rng.choice([And, Or, Implies])
            return ctor(build(d - 1), build(d - 1))

        for _ in range(300):
            f = build(8)
            assert render(f) == reference_render(f)
            assert parse(render(f)) == f


class TestPairing:
    def test_values(self):
        assert pairing(0, 0) == 0
        assert pairing(0, 1) == 2
        assert pairing(1, 0) == 4

    def test_injective_to_50(self):
        seen = {}
        for x in range(51):
            for y in range(51):
                n = pairing(x, y)
                assert n not in seen, (seen.get(n), (x, y))
                seen[n] = (x, y)

    def test_unpairing_inverse(self):
        for x in range(30):
            for y in range(30):
                assert unpairing(pairing(x, y)) == (x, y)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pairing(-1, 0)


class TestEncode:
    def test_bot_is_zero(self):
        assert encode(BOT) == 0

    def test_variable_zero(self):
        assert encode(p0) == 2

    def test_and_bot_bot(self):
        assert encode(And(BOT, BOT)) == 10

    def test_decode_examples(self):
        assert decode(0) == BOT
        assert decode(10) == And(BOT, BOT)
        assert decode(1) is None

    def test_injective_depth3(self):
        family = all_formulas(2, 3)
        codes = {encode(f) for f in family}
        assert len(codes) == len(family) == 2703

    def test_left_inverse_depth3(self):
        for f in all_formulas(2, 3):
            assert decode(encode(f)) == f

    def test_non_image_codes_below_bound(self):
        family_codes = {encode(f) for f in all_formulas(2, 2)}
        for n in range(60):
            back = decode(n)
            if back is None:
                assert n not in family_codes
            else:
                assert encode(back) == n


class TestStructure:
    def test_subformulas_bot(self):
        assert subformulas(BOT) == frozenset({BOT})

    def test_subformulas_self_implication(self):
        f = Implies(p0, p0)
        assert subformulas(f) == frozenset({p0, f})

    def test_subformulas_nested(self):
        f = And(p0, Or(p0, BOT))
        assert subformulas(f) == frozenset({p0, BOT, Or(p0, BOT), f})

    def test_variables(self):
        assert variables(BOT) == frozenset()
        assert variables(Implies(p0, p1)) == frozenset({p0.var, p1.var})
        assert variables(neg(p3)) == frozenset({p3.var})

    def test_depth(self):
        assert depth(BOT) == depth(p0) == 1
        assert depth(And(p0, p1)) == 2
        assert depth(Implies(p0, And(p0, p1))) == 3

    def test_family_sizes(self):
        assert len(all_formulas(2, 1)) == 3
        assert len(all_formulas(2, 2)) == 30
        assert len(all_formulas(0, 2)) == 4

    def test_family_ordered_by_code(self):
        family = all_formulas(2, 2)
        codes = [encode(f) for f in family]
        assert codes == sorted(codes)


def nested_tuples(phi):
    """phi with every connective replaced by the pair of its operands; a
    tuple hashes its items the way the dataclass hash does, recursively."""
    if isinstance(phi, (And, Or, Implies)):
        return (nested_tuples(phi.lhs), nested_tuples(phi.rhs))
    return phi


def recursive_repr(phi):
    """The text of the generated dataclass repr, one call per connective:
    the reference for the iterative repr."""
    if not isinstance(phi, (And, Or, Implies, Variable, Bottom)):
        return repr(phi)
    fields = ", ".join(f"{f}={recursive_repr(getattr(phi, f))}"
                       for f in phi.__match_args__)
    return f"{type(phi).__name__}({fields})"


def implication_chain(n, last=p0):
    phi = last
    for _ in range(n):
        phi = Implies(p0, phi)
    return phi


class TestInterning:
    def test_parsed_copies_are_one_node(self):
        # rebuilt copies: TestIterativeEquality
        for phi in all_formulas(2, 3):
            assert parse(render(phi)) is phi
        assert parse("(p0 -> p1) & ~p2") is parse("(p0->p1)&~p2")
        assert Bottom() is BOT and var(5) is Variable(Var(5))

    def test_a_negative_index_makes_no_variable(self):
        # var(-1) would render as p-1, which parse rejects, and encode to
        # 0, the code of bot
        for index in (-1, -2):
            with pytest.raises(ValueError, match=f"^variable index {index} "
                               "is negative$"):
                var(index)
            assert (Variable, index) not in formula._TABLE

    def test_hash_is_the_dataclass_hash_of_the_fields(self):
        assert hash(BOT) == hash(())
        assert hash(var(7)) == hash((Var(7),))
        assert hash(And(p0, p1)) == hash(Or(p0, p1)) == hash((p0, p1))

    def test_copies_and_pickles_are_the_same_node(self):
        for phi in all_formulas(2, 2) + [implication_chain(300)]:
            assert pickle.loads(pickle.dumps(phi)) is phi
        for phi in (p0, BOT, Or(p0, p1), implication_chain(3000)):
            assert copy.copy(phi) is phi
            assert copy.deepcopy(phi) is phi

    def test_nodes_are_frozen(self):
        phi = Implies(p0, p1)
        with pytest.raises(FrozenInstanceError):
            phi.lhs = p1
        with pytest.raises(FrozenInstanceError):
            p0.var = Var(1)
        with pytest.raises(FrozenInstanceError):
            del phi.rhs
        assert phi.lhs is p0

    def test_repr(self):
        assert repr(Implies(p0, BOT)) == \
            "Implies(lhs=Variable(var=Var(index=0)), rhs=Bottom())"

    def test_repr_is_the_recursive_text(self):
        for phi in all_formulas(2, 2) + [implication_chain(50, BOT)]:
            assert repr(phi) == recursive_repr(phi)

    def test_repr_of_deep_formulas(self):
        # pytest prints a failed assertion's values with repr, so a deep
        # formula, or a verdict holding one, must have one
        phi = implication_chain(5000)
        text = repr(phi)
        assert text == "Implies(lhs=Variable(var=Var(index=0)), rhs=" * 5000 \
            + "Variable(var=Var(index=0))" + ")" * 5000
        verdict = Oracle().provable([phi], phi)
        assert repr(verdict) == f"Provable(witness=Premise(formula={text}))"

    def test_two_threads_build_one_chain(self):
        # a variable no other test uses, so the chain is new to the table
        leaf = var(7919)
        barrier = threading.Barrier(2, timeout=10)
        built = [None, None]

        def build(slot):
            barrier.wait()
            phi = leaf
            for _ in range(500):
                phi = Implies(leaf, phi)
            built[slot] = phi

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(k,))
                       for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert built[0] is not None and built[0] is built[1]

    def test_repeated_queries_add_no_nodes(self):
        queries = list(named_laws()) + seeded_queries()

        def run():
            for gamma, phi in queries:
                Oracle().provable(gamma, phi)
        run()
        size = len(formula._TABLE)
        run()
        assert len(formula._TABLE) == size


def doubling(levels):
    """And(f, f) nested levels deep: a DAG of levels + 1 distinct nodes
    whose tree has 2^levels leaves."""
    phi = p0
    for _ in range(levels):
        phi = And(phi, phi)
    return phi


class TestPickle:
    def test_deep_chain_round_trips_to_the_same_node(self):
        phi = implication_chain(3000, p1)
        data = pickle.dumps(phi)
        assert pickle.loads(data) is phi
        assert b"_vars" not in data

    def test_size_is_linear_in_the_distinct_nodes(self):
        sizes = [len(pickle.dumps(doubling(n))) for n in (30, 60)]
        assert sizes[1] < 40 * 61
        assert sizes[1] - sizes[0] < 40 * 30
        phi = doubling(60)
        assert pickle.loads(pickle.dumps(phi)) is phi
        assert copy.copy(phi) is phi and copy.deepcopy(phi) is phi

    def test_a_fresh_process_rebuilds_the_nodes(self):
        phi = And(implication_chain(700, var(424243)), Or(BOT, var(424241)))
        child = ("import pickle, sys\n"
                 "from iplkit.formula import render, variable_indices\n"
                 "phi = pickle.loads(sys.stdin.buffer.read())\n"
                 "print(variable_indices([phi]), render(phi))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            formula.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", child],
                             input=pickle.dumps(phi), capture_output=True,
                             env=env, timeout=60, check=True)
        assert out.stdout.decode() == f"[0, 424241, 424243] {render(phi)}\n"


def reference_indices(formulas) -> list:
    return sorted({f.var.index for f in postorder(formulas)
                   if type(f) is Variable})


# indices up to 10^6, interned in the order hypothesis draws them
_leaves = st.one_of(st.just(BOT), st.integers(0, 10 ** 6).map(var),
                    st.integers(0, 5).map(var))
_formulas = st.recursive(
    _leaves,
    lambda sub: st.one_of(st.builds(And, sub, sub), st.builds(Or, sub, sub),
                          st.builds(Implies, sub, sub)),
    max_leaves=12)


class TestVariableMasks:
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.lists(_formulas, max_size=4))
    def test_match_a_postorder_walk(self, formulas):
        want = reference_indices(formulas)
        assert variable_indices(formulas) == want
        for phi in formulas:
            assert variables(phi) == frozenset(
                Var(i) for i in reference_indices([phi]))

    def test_variables_built_in_shuffled_order(self):
        indices = random.Random(17).sample(range(900_000, 10 ** 6), 40)
        leaves = [var(i) for i in indices]
        phi = leaves[0]
        for leaf in leaves[1:]:
            phi = Implies(leaf, Or(phi, BOT))
        assert variable_indices([phi]) == sorted(indices)
        assert variable_indices([phi, p3, BOT]) == [3] + sorted(indices)
        assert variable_indices([]) == [] and variables(TOP) == frozenset()

    def test_no_walk(self, monkeypatch):
        phi = implication_chain(3000, And(p2, neg(p3)))

        def walk(*args, **kwargs):
            raise AssertionError("postorder called")
        monkeypatch.setattr(formula, "postorder", walk)
        assert variable_indices([phi, p1]) == [0, 1, 2, 3]
        assert variables(phi) == frozenset({Var(0), Var(2), Var(3)})


class TestCachedHash:
    def test_equals_recursive_dataclass_hash(self):
        for phi in all_formulas(2, 3):
            assert hash(phi) == hash(nested_tuples(phi))

    def test_deep_chain(self):
        phi = implication_chain(3000)
        assert hash(phi) == hash(implication_chain(3000))
        assert len({phi, implication_chain(3000, p1)}) == 2
        assert len(subformulas(phi)) == 3001


def rebuilt(phi):
    """A copy of phi that shares no node with it."""
    if isinstance(phi, (And, Or, Implies)):
        return type(phi)(rebuilt(phi.lhs), rebuilt(phi.rhs))
    if isinstance(phi, Variable):
        return var(phi.var.index)
    return Bottom()


def recursive_eq(a, b):
    """Structural equality: same class and equal operands, recursively;
    variables by index, and bot equals bot."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (And, Or, Implies)):
        return recursive_eq(a.lhs, b.lhs) and recursive_eq(a.rhs, b.rhs)
    return not isinstance(a, Variable) or a.var.index == b.var.index


class TestIterativeEquality:
    def test_agrees_with_recursive_rule(self):
        small = all_formulas(2, 2)
        for a in small:
            for b in small:
                assert (a == b) == recursive_eq(a, b)
                assert (a != b) == (not recursive_eq(a, b))
        for phi in all_formulas(2, 3):
            copy = rebuilt(phi)
            assert copy is phi
            assert copy == phi and phi == copy and not copy != phi
            assert recursive_eq(copy, phi)

    def test_deep_chains(self):
        def chain(n, odd=None):
            phi = var(0)
            for i in range(n):
                phi = Implies(var(1 if i == odd else 0), phi)
            return phi
        a, b = chain(3000), chain(3000)
        assert a is b and a == b and not a != b
        assert a != chain(3000, odd=1500)
        assert a != chain(2999)


class TestOrderKey:
    def test_distinct_on_depth3(self):
        family = all_formulas(2, 3)
        assert len({order_key(f) for f in family}) == len(family) == 2703

    def test_is_length_then_rendered_text(self):
        for phi in all_formulas(2, 3) + [var(12), Bottom()]:
            text = render(phi)
            assert order_key(phi) == (len(text), text)

    def test_rebuilt_copies_get_equal_keys(self):
        for phi in all_formulas(2, 3):
            assert order_key(rebuilt(phi)) == order_key(phi)

    def test_shorter_text_first(self):
        family = sorted(all_formulas(2, 2), key=order_key)
        assert family[:3] == [p0, p1, BOT]
        assert [len(render(f)) for f in family] == \
            sorted(len(render(f)) for f in family)

    def test_deep_chains(self):
        # two chains that differ only at the leaf compare without
        # recursing once per connective
        a, b = implication_chain(3000), implication_chain(3000, p1)
        assert order_key(a) == (len(render(a)), render(a))
        assert sorted([b, a], key=order_key) == [a, b]


# Tokens for the differential parser tests, parentheses and negation
# weighted up.
TOKENS = ["p0", "p1", "p12", "bot", "top", "~", "(", ")", "&", "|", "->",
          "<->", "(", ")", "~"]


def random_tokens(rng):
    """Mostly malformed text; tokens joined without a space may run
    together into an unknown token."""
    toks = [rng.choice(TOKENS) for _ in range(rng.randrange(13))]
    return "".join(t + rng.choice(("", " ", " ")) for t in toks)


def grammar_string(rng, levels):
    """A formula drawn from the grammar, fully spelled out."""
    r = rng.random()
    if levels <= 0 or r < 0.25:
        return rng.choice(["p0", "p1", "p3", "bot", "top"])
    if r < 0.35:
        return "~" + grammar_string(rng, levels - 1)
    if r < 0.45:
        return "(" + grammar_string(rng, levels - 1) + ")"
    op = rng.choice(["&", "|", "->", "<->"])
    return (f"{grammar_string(rng, levels - 1)} {op} "
            f"{grammar_string(rng, levels - 1)}")


def mutated(rng, text):
    """text with up to two tokens deleted, inserted or swapped."""
    toks = text.replace("(", " ( ").replace(")", " ) ").replace("~", " ~ ")
    toks = toks.split()
    for _ in range(rng.randrange(3)):
        i = rng.randrange(len(toks))
        r = rng.random()
        if r < 0.4 and len(toks) > 1:
            del toks[i]
        elif r < 0.8:
            toks.insert(i, rng.choice(TOKENS))
        else:
            j = rng.randrange(len(toks))
            toks[i], toks[j] = toks[j], toks[i]
    return " ".join(toks)


def outcome(parser, text):
    try:
        return ("formula", parser(text))
    except ParseError as exc:
        return ("error", str(exc), exc.offset)


class TestParserMatchesReference:
    """The operator-precedence parser against the recursive-descent one:
    the same tree, or the same ParseError message and offset."""

    def test_renderings(self):
        for f in all_formulas(2, 3):
            text = reference_render(f)
            assert outcome(parse, text) == outcome(reference_parse, text)

    def test_random_token_strings(self):
        rng = random.Random(8)
        for _ in range(60000):
            text = random_tokens(rng)
            assert outcome(parse, text) == outcome(reference_parse, text), \
                text

    def test_grammar_directed_strings(self):
        rng = random.Random(9)
        for _ in range(40000):
            text = grammar_string(rng, 3)
            if rng.random() < 0.5:
                text = mutated(rng, text)
            got = outcome(parse, text)
            assert got == outcome(reference_parse, text), text
            if got[0] == "formula":
                assert render(got[1]) == reference_render(got[1])


class TestDeepInputs:
    # 3000 levels is three times the default recursion limit
    def test_parse_negations(self):
        want = p0
        for _ in range(3000):
            want = neg(want)
        assert parse("~" * 3000 + "p0") == want

    def test_parse_parentheses(self):
        assert parse("(" * 3000 + "p0" + ")" * 3000) == p0

    def test_render_parse_round_trip(self):
        phi = implication_chain(3000)
        text = render(phi)
        assert text == " -> ".join(["p0"] * 3001)
        assert parse(text) == phi

    def test_depth(self):
        assert depth(implication_chain(3000)) == 3001
