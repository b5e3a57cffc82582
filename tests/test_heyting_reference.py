"""The mask scans and the block evaluator in iplkit.heyting against the
dense-table scans kept in reference_heyting.py.

Completion must give the same tables or raise the same error class with
the same message, on any relation, orders or not; validation must give
the same violations in the same order, on lawful algebras and on tables
corrupted in one to three entries, and on algebras past 128 and 256
elements the same residuation violations on the rows checked;
consequence must give the same verdict with the same first refuting
assignment, and interpretation the same element or the same error for
the leftmost unassigned variable.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import reference_heyting

from iplkit import heyting
from iplkit.catalog import standard_algebras
from iplkit.formula import BOT, And, Implies, Or, neg, postorder, var
from iplkit.heyting import (AlgConsequenceVerdict, _table, chain,
                            consequence_over_algebras,
                            himp_from_order, interpret, lattice_from_le,
                            make_algebra, make_interpretation,
                            product_algebra, validate_algebra, Violation)

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
