"""The mask scans and the block evaluator in iplkit.heyting against the
dense-table scans kept in reference_heyting.py.

Completion must give the same tables or raise the same error class with
the same message, on any relation, orders or not, and past 16 elements
the same as the mask scans that its lookups replace; validation must give
the same violations in the same order, on lawful algebras and on tables
corrupted in one to three entries, and on algebras past 128 and 256
elements the same residuation violations on the rows checked;
consequence must give the same verdict with the same first refuting
assignment, and interpretation the same element or the same error for
the leftmost unassigned variable.  Prime filters, generated filters,
greedy prime filters and closed-set algebras must give the same result
or the same error, on lawful and on broken tables.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import reference_heyting

from iplkit import heyting, kripke
from iplkit.bridge import closed_set_algebra
from iplkit.catalog import standard_algebras
from iplkit.formula import BOT, And, Implies, Or, neg, postorder, var
from iplkit.heyting import (AlgConsequenceVerdict, _table, algebra_from_le,
                            chain, consequence_over_algebras,
                            himp_from_order, interpret, lattice_from_le,
                            make_algebra, make_interpretation,
                            product_algebra, validate_algebra, Violation)
from iplkit.kripke import enumerate_models, make_model

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


def outcome(run, *args):
    """('ok', result) or (error class, message)."""
    try:
        return ("ok", run(*args))
    except Exception as exc:  # compared, whatever it is
        return (type(exc), str(exc))


def product_le(lengths, perm=None) -> list:
    """Order table of a product of chains; perm renumbers the elements."""
    elems = list(product(*(range(n) for n in lengths)))
    if perm is not None:
        elems = [elems[i] for i in perm]
    return [[all(x <= y for x, y in zip(a, b)) for b in elems] for a in elems]


def assert_completion_agrees(le) -> list:
    """Compare completion and then validation; the completed tables, or
    [] when the order is not a Heyting algebra."""
    got = outcome(lattice_from_le, le)
    assert got == outcome(reference_heyting.lattice_from_le, le)
    if got[0] != "ok":
        return []
    meet, join, bot, top = got[1]
    table = _table(le, len(le), "le", bool)
    himp = outcome(himp_from_order, table, meet)
    assert himp == outcome(reference_heyting.himp_from_order, table, meet)
    if himp[0] != "ok":
        return []
    alg = make_algebra(len(le), le, meet, join, himp[1], bot, top)
    assert validate_algebra(alg) == reference_heyting.validate_algebra(alg)
    return [table, meet, join, himp[1], bot, top]


@st.composite
def relations(draw):
    """A boolean relation on 1 to 7 elements, often closed to a
    preorder, so that lattices, non-lattices and non-orders all occur."""
    n = draw(st.integers(1, 7))
    rel = [[draw(st.booleans()) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for a in range(n):
            rel[a][a] = True
        for k in range(n):
            for a in range(n):
                for b in range(n):
                    rel[a][b] = rel[a][b] or (rel[a][k] and rel[k][b])
    return rel


@SETTINGS
@given(relations())
def test_random_relations_match_reference(le):
    assert_completion_agrees(le)


def size_of(lengths) -> int:
    size = 1
    for n in lengths:
        size *= n
    return size


# up to 16 elements, where the n^4 reference scans stay quick
CHAINS = st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(
    lambda lengths: size_of(lengths) <= 16)


@SETTINGS
@given(CHAINS, st.randoms(use_true_random=False))
def test_products_of_chains_match_reference(lengths, rnd):
    perm = list(range(size_of(lengths)))
    rnd.shuffle(perm)
    assert assert_completion_agrees(product_le(lengths, perm))


CORRUPTIONS = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 10_000),
              st.integers(0, 10_000), st.integers(0, 10_000)),
    min_size=1, max_size=3)


@SETTINGS
@given(CHAINS, CORRUPTIONS)
def test_corrupted_tables_match_reference(lengths, corruptions):
    """One to three entries broken: a table entry (le, meet, join or
    himp), or the bottom or top."""
    tables = assert_completion_agrees(product_le(lengths))
    le, meet, join, himp = [[list(r) for r in t] for t in tables[:4]]
    bot, top = tables[4:]
    n = len(le)
    for which, i, j, v in corruptions:
        if which == 0:
            le[i % n][j % n] = not le[i % n][j % n]
        elif which < 4:
            (meet, join, himp)[which - 1][i % n][j % n] = v % n
        elif which == 4:
            bot = v % n
        else:
            top = v % n
    alg = make_algebra(n, le, meet, join, himp, bot, top)
    assert validate_algebra(alg) == reference_heyting.validate_algebra(alg)


# ---------------------------------------------------------------------------
# Completion past the reference's 16 elements: the mask lookups against the
# mask scans and summed residuals that they replace.
# ---------------------------------------------------------------------------


def assert_lookups_agree(monkeypatch, le) -> None:
    """lattice_from_le, himp_from_order and algebra_from_le give the same
    tables, or raise the same error class with the same message, as with
    heyting._index answering {} for every order, which makes completion
    scan every candidate and sum every residual, as it did before the
    lookups."""
    table = _table(le, len(le), "le", bool)
    lattice = outcome(lattice_from_le, le)
    runs = [lattice, outcome(algebra_from_le, le)]
    if lattice[0] == "ok":
        runs.append(outcome(himp_from_order, table, lattice[1][0]))
    with monkeypatch.context() as m:
        m.setattr(heyting, "_index", lambda masks, converse: {})
        m.setattr(heyting, "_himp_rows", None)  # no lookup is left
        slow = [outcome(lattice_from_le, le), outcome(algebra_from_le, le)]
        if lattice[0] == "ok":
            slow.append(outcome(himp_from_order, table, lattice[1][0]))
    assert runs == slow


def poset_product(*les) -> list:
    """The order table of a product of posets given by their tables, in
    lexicographic order of the coordinates."""
    elems = list(product(*(range(len(le)) for le in les)))
    return [[all(le[i][j] for le, i, j in zip(les, a, b)) for b in elems]
            for a in elems]


def permuted(le, seed: int) -> list:
    perm = list(range(len(le)))
    random.Random(seed).shuffle(perm)
    return [[le[a][b] for b in perm] for a in perm]


def graph_le(n: int, edges) -> list:
    """The reflexive and transitive closure of the edges on n elements."""
    le = [[a == b or (a, b) in edges for b in range(n)] for a in range(n)]
    for k in range(n):
        for a in range(n):
            for b in range(n):
                le[a][b] = le[a][b] or (le[a][k] and le[k][b])
    return le


# bottom 0, top 4: the pentagon 0 < 1 < 2 < 4, 0 < 3 < 4, and the diamond
# with three atoms, both lattices that are not distributive, so not Heyting
N5 = graph_le(5, {(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)})
M3 = graph_le(5, {(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)})
# bounded, but the two middle elements 1 and 2 have no meet
BOWTIE = graph_le(6, {(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4),
                      (3, 5), (4, 5)})


@pytest.mark.parametrize("n", [64, 128, 257])
def test_chains_lookups_match_scans(monkeypatch, n):
    assert_lookups_agree(monkeypatch, product_le((n,)))


@pytest.mark.parametrize("lengths", [
    (2, 2, 2, 2, 2, 2), (4, 4, 4), (8, 8), (3, 5, 4), (2, 32), (5, 3, 2, 2)],
    ids=lambda lengths: "x".join(map(str, lengths)))
def test_permuted_products_lookups_match_scans(monkeypatch, lengths):
    le = product_le(lengths)
    assert_lookups_agree(monkeypatch, le)
    assert_lookups_agree(monkeypatch, permuted(le, size_of(lengths)))


def drop(le, a, b) -> list:
    """le without the pair (a, b)."""
    return [[x and (i, j) != (a, b) for j, x in enumerate(row)]
            for i, row in enumerate(le)]


def twin(le, a) -> list:
    """le with one more element, equivalent to a: not antisymmetric."""
    rows = [row + [row[a]] for row in le]
    return rows + [rows[a][:]]


@pytest.mark.parametrize("le", [
    pytest.param(poset_product(N5, product_le((8,))), id="N5xC8"),
    pytest.param(poset_product(product_le((6,)), M3), id="C6xM3"),
    pytest.param(poset_product(BOWTIE, product_le((6,))), id="BOWTIExC6"),
    pytest.param(twin(product_le((4, 5)), 7), id="twin in C4xC5"),
    # 5 <= 6 <= 7 in the chain, but not 5 <= 7: the scans complete it
    pytest.param(drop(product_le((40,)), 5, 7), id="intransitive C40"),
    pytest.param(drop(product_le((4, 5)), 6, 6), id="irreflexive C4xC5"),
    # the scans find every meet and join, but no himp
    pytest.param(drop(product_le((30,)), 12, 12), id="irreflexive C30"),
])
def test_broken_orders_lookups_match_scans(monkeypatch, le):
    """Orders past 16 elements that are not Heyting, not lattices or not
    partial orders, as given and renumbered."""
    assert_lookups_agree(monkeypatch, le)
    assert_lookups_agree(monkeypatch, permuted(le, len(le)))


def residuation_rows(alg, rows) -> list:
    """The residuation violations of the reference loop, for the rows a
    in rows only, where the n^3 loop over the whole algebra is too slow."""
    le, meet, himp, rng = alg.le, alg.meet, alg.himp, range(alg.size)
    return [Violation("residuation", (a, b, c)) for a in rows
            for b in rng for c in rng
            if le[a][himp[b][c]] != le[meet[a][b]][c]]


@pytest.mark.parametrize("build", [
    lambda: product_algebra(chain(3), chain(43)), lambda: chain(257)],
    ids=["129", "257"])
def test_residuation_past_one_byte(build):
    """Elements past 127 and past 255 in the residuation check: himp
    entries corrupted to values on both sides of those bounds, and one
    meet entry, against the reference law on the rows they touch and on
    a few others."""
    alg = build()
    n = alg.size
    assert validate_algebra(alg) == []
    rng = random.Random(n)
    le, meet, himp = alg.le, [list(r) for r in alg.meet], \
        [list(r) for r in alg.himp]
    cells = sorted(divmod(k, n) for k in rng.sample(range(n * n), 8))
    for (b, c), v in zip(cells, (0, 127, 128, 255, 256, n - 1, 1, 129)):
        v %= n
        himp[b][c] = v if v != himp[b][c] else (v + 1) % n
    row, col = rng.randrange(n), rng.randrange(n)
    meet[row][col] = (meet[row][col] + 200) % n
    bad = make_algebra(n, le, meet, alg.join, himp, alg.bot, alg.top)
    got = validate_algebra(bad)
    rows = sorted({0, row, n - 1, *rng.sample(range(n), 3)})
    want = residuation_rows(bad, rows)
    assert [v for v in got if v.kind == "residuation"
            and v.witness[0] in rows] == want
    assert any(v.witness[0] == row for v in want)
    # outside the row of the broken meet, only the corrupted himp cells
    # can break the law
    assert [v for v in got
            if v.kind == "residuation" and v.witness[0] != row] == \
        [Violation("residuation", (a, b, c)) for a in range(n) if a != row
         for b, c in cells if le[a][himp[b][c]] != le[meet[a][b]][c]]


def test_catalog_corruptions_match_reference():
    rng = random.Random(17)
    for alg in standard_algebras():
        for _ in range(40):
            tabs = [[list(r) for r in t]
                    for t in (alg.le, alg.meet, alg.join, alg.himp)]
            for _ in range(rng.randint(1, 3)):
                t, i, j = rng.randrange(4), rng.randrange(alg.size), \
                    rng.randrange(alg.size)
                tabs[t][i][j] = (not tabs[t][i][j]) if t == 0 \
                    else rng.randrange(alg.size)
            broken = make_algebra(alg.size, *tabs, alg.bot, alg.top)
            assert validate_algebra(broken) == \
                reference_heyting.validate_algebra(broken)


# a 12-element product beside the catalog
C3C2C2 = product_algebra(chain(3), product_algebra(chain(2), chain(2)))
ALGEBRAS = list(standard_algebras()) + [C3C2C2]


def formulas(nvars: int):
    leaves = st.sampled_from([BOT] + [var(i) for i in range(nvars)])
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(And, sub, sub), st.builds(Or, sub, sub),
            st.builds(Implies, sub, sub), st.builds(neg, sub)),
        max_leaves=6)


@SETTINGS
@given(st.lists(formulas(3), max_size=3), formulas(3), st.integers(0, 9))
def test_consequence_matches_reference(gamma, phi, start):
    """Over the catalog and the 12-element product, and over a suffix of
    the list, so that the refuting algebra varies."""
    for algebras in (ALGEBRAS, ALGEBRAS[start:], [C3C2C2]):
        assert consequence_over_algebras(algebras, gamma, phi) == \
            reference_heyting.consequence_over_algebras(algebras, gamma, phi)


def test_refutation_past_the_first_blocks():
    """12^4 assignments span several blocks.  A refutation needs p0, p2
    and p3 in the top third of the C3 factor, so the first one comes
    after 8 * 12^3 assignments; the valid formula runs through them all."""
    p0, p1, p2, p3 = (var(i) for i in range(4))
    lem = Or(p1, neg(p1))
    cases = [
        ([], Implies(And(p0, And(p2, p3)), lem)),
        ([Implies(p2, p3)], Implies(And(p0, p2), lem)),
        ([], Implies(And(p0, And(p1, And(p2, p3))), p3)),
    ]
    verdicts = [consequence_over_algebras([C3C2C2], gamma, phi)
                for gamma, phi in cases]
    assert verdicts == [reference_heyting.consequence_over_algebras(
        [C3C2C2], gamma, phi) for gamma, phi in cases]
    assert [v.assignment[0] for v in verdicts[:2]] == [(0, 8), (0, 8)]
    assert verdicts[2].holds


@pytest.mark.parametrize("values", [heyting.VALUES, 2_000])
def test_first_refutation_at_every_assignment(monkeypatch, values):
    """Over C2 with 8 variables, conj(t) is true exactly at assignment t
    of the 256 in product order, so the first refutation is known for
    every t.  Blocks of 16, 64 and 176 assignments cover them under the
    default VALUES; a small VALUES caps them near 40."""
    monkeypatch.setattr(heyting, "VALUES", values)
    nvars = 8
    variables = [var(i) for i in range(nvars)]

    def conj(t):
        out = None
        for i, p in enumerate(variables):
            lit = p if t >> (nvars - 1 - i) & 1 else neg(p)
            out = lit if out is None else And(out, lit)
        return out

    def digits(t):
        return tuple((i, t >> (nvars - 1 - i) & 1) for i in range(nvars))

    C2 = chain(2)
    for t in range(2 ** nvars - 1):
        got = consequence_over_algebras([C2], [], neg(conj(t)))
        assert got.assignment == digits(t)
        # the premise rules out t, so the refutation moves on to t + 1
        phi = And(neg(conj(t)), neg(conj(t + 1)))
        got = consequence_over_algebras([C2], [neg(conj(t))], phi)
        assert got.assignment == digits(t + 1)


def test_blocks_hold_at_most_VALUES_values(monkeypatch):
    """A formula of a few hundred nodes is valid in C5, so all 5^5
    assignments are evaluated, in blocks whose values stay within
    VALUES."""
    blocks = []

    def evaluate(alg, nodes, column, size):
        blocks.append((size, len(nodes)))
        return evaluate.real(alg, nodes, column, size)

    evaluate.real = heyting._evaluate
    monkeypatch.setattr(heyting, "_evaluate", evaluate)
    rng = random.Random(5)
    subs = [var(i) for i in range(5)]
    for _ in range(600):
        subs.append(rng.choice([And, Or, Implies])(rng.choice(subs[-20:]),
                                                   rng.choice(subs)))
    phi = Implies(And(subs[-1], var(0)), var(0))
    assert consequence_over_algebras([chain(5)], [], phi).holds
    nodes = blocks[0][1]
    assert nodes > 200
    assert sum(size for size, _ in blocks) == 5 ** 5
    assert max(size for size, _ in blocks) == heyting.VALUES // nodes


def test_many_premises():
    p0, p1 = var(0), var(1)
    gamma = [Or(p0, p1)] * 100_000 + [neg(p1)]
    assert consequence_over_algebras([chain(3)], gamma, p0).holds
    assert consequence_over_algebras([chain(3)], gamma[:-1], p0) == \
        AlgConsequenceVerdict(False, 0, ((0, 0), (1, 2)))


@SETTINGS
@given(formulas(4), st.dictionaries(st.integers(0, 3), st.integers(0, 11)),
       st.sampled_from(ALGEBRAS))
def test_interpret_matches_reference(phi, assignment, alg):
    interp = make_interpretation(
        alg, {v: e % alg.size for v, e in assignment.items()})

    def reference(interp, phi):
        return reference_heyting._evaluate(
            interp.algebra, postorder([phi]), interp.element)[id(phi)]

    assert outcome(interpret, interp, phi) == outcome(reference, interp, phi)


# ---------------------------------------------------------------------------
# Filters on order masks against the frozenset scans.
# ---------------------------------------------------------------------------


def assert_filters_agree(alg, subsets, points) -> None:
    """prime_filters on the algebra, generated_filter on each subset and
    super_prime_filter on each subset and point give the same result, or
    raise the same error class with the same message, as the reference."""
    assert heyting.prime_filters(alg) == reference_heyting.prime_filters(alg)
    for s in ({alg.size}, {-1, 0}):
        assert outcome(heyting.super_prime_filter, alg, s, 0) == \
            outcome(reference_heyting.super_prime_filter, alg, s, 0)
    for s in subsets:
        assert outcome(heyting.generated_filter, alg, s) == \
            outcome(reference_heyting.generated_filter, alg, s)
        for x in points:
            assert outcome(heyting.super_prime_filter, alg, s, x) == \
                outcome(reference_heyting.super_prime_filter, alg, s, x)


def some_subsets(alg, rnd, count: int) -> list:
    """The filters, the empty set and count random subsets."""
    rng = range(alg.size)
    return list(alg.filters) + [frozenset()] + [
        frozenset(x for x in rng if rnd.random() < 0.5) for _ in range(count)]


@SETTINGS
@given(relations(), st.randoms(use_true_random=False))
def test_random_relations_filters_match_reference(le, rnd):
    """On the completed algebra when the relation completes, and on the
    relation with random meet, join and himp tables and random bounds,
    which break the laws in every way."""
    n = len(le)
    points = list(range(n)) + [-1, n]
    tables = assert_completion_agrees(le)
    if tables:
        alg = make_algebra(n, *tables)
        assert_filters_agree(alg, some_subsets(alg, rnd, 4), points)

    def table():
        return [[rnd.randrange(n) for _ in range(n)] for _ in range(n)]

    alg = make_algebra(n, le, table(), table(), table(), rnd.randrange(n),
                       rnd.randrange(n))
    assert_filters_agree(alg, some_subsets(alg, rnd, 4), points)


@SETTINGS
@given(CHAINS, st.randoms(use_true_random=False))
def test_products_of_chains_filters_match_reference(lengths, rnd):
    perm = list(range(size_of(lengths)))
    rnd.shuffle(perm)
    alg = make_algebra(len(perm), *assert_completion_agrees(
        product_le(lengths, perm)))
    assert_filters_agree(alg, some_subsets(alg, rnd, 8), range(alg.size))


@pytest.mark.parametrize("alg", [
    product_algebra(chain(3), chain(4)), C3C2C2,
    product_algebra(chain(5), product_algebra(chain(2), chain(3)))],
    ids=lambda alg: alg.name)
def test_product_algebras_filters_match_reference(alg):
    assert_filters_agree(alg, some_subsets(alg, random.Random(alg.size), 16),
                         range(alg.size))


def test_chain_257_filters_match_reference():
    alg = chain(257)
    assert heyting.prime_filters(alg) == reference_heyting.prime_filters(alg)
    for s, x in (({256}, 0), ({256}, 255), ({3, 200}, 2), (range(40, 257), 7),
                 ({5, 6}, 6)):
        assert outcome(heyting.super_prime_filter, alg, s, x) == \
            outcome(reference_heyting.super_prime_filter, alg, s, x)
        assert outcome(heyting.generated_filter, alg, s) == \
            outcome(reference_heyting.generated_filter, alg, s)


def test_generated_filter_rejects_points_outside_the_algebra():
    for s in ({3}, {0, -1}):
        with pytest.raises(ValueError, match="is not an element of the 3-"):
            heyting.generated_filter(chain(3), s)


# ---------------------------------------------------------------------------
# Closed-set algebras from masks against the frozenset build.
# ---------------------------------------------------------------------------


def assert_closed_sets_agree(model) -> None:
    got = outcome(closed_set_algebra, model)
    assert got == outcome(reference_heyting.closed_set_algebra, model)
    if got[0] == "ok":
        assert got[1].algebra.name == \
            reference_heyting.closed_set_algebra(model).algebra.name


@pytest.mark.parametrize("worlds", [1, 2, 3, 4])
def test_enumerated_models_closed_sets_match_reference(worlds):
    for model in enumerate_models(1 if worlds < 4 else 0, worlds):
        assert_closed_sets_agree(model)


@SETTINGS
@given(relations(), st.randoms(use_true_random=False))
def test_random_models_closed_sets_match_reference(rel, rnd):
    """Models on the random relations, closed or not, with monotone or
    arbitrary valuations."""
    n = len(rel)
    pairs = [(a, b) for a in range(n) for b in range(n) if rel[a][b]]
    val = {v: [w for w in range(n) if rnd.random() < 0.5] for v in range(2)}
    for relation in (pairs, kripke._closure(pairs, n)):
        assert_closed_sets_agree(make_model(n, relation, val))
        assert_closed_sets_agree(make_model(n, relation, {}))


def test_closed_set_errors_match_reference():
    """More than MAX_CLOSED_SETS up-sets, which the ten-world antichain
    has."""
    antichain = make_model(10, {(w, w) for w in range(10)}, {})
    got = outcome(closed_set_algebra, antichain)
    assert got[0] is ValueError
    assert got == outcome(reference_heyting.closed_set_algebra, antichain)
    assert_closed_sets_agree(make_model(7, {(w, w) for w in range(7)}, {}))
