"""Finite Heyting algebras, filters and the algebraic semantics.

Algebras are dense tables: an order relation plus meet, join and
relative pseudocomplement (himp) operation tables over elements
0..size-1.  Completion looks each entry up by its mask of the elements
below or above, validation and the filters run on those masks, and one
evaluator computes a formula under a block of assignments at a time.
The filter machinery covers generated filters (computed two ways and
cross-checked), prime filter enumeration in one pass over the pairs of
elements, and the finite replacement of the Zorn argument for extending
a filter to a prime filter avoiding a point.
"""

from __future__ import annotations

from functools import cached_property, partial, reduce
from itertools import compress, count, islice, product
from operator import and_, getitem, or_
from typing import Optional

from .formula import (And, Bottom, Formula, Implies, Or, Variable, _ones,
                      _record, _union, postorder, variable_indices)

# formula values held at once, assignments times nodes: this caps the
# block of assignments evaluated together, so memory stays bounded
VALUES = 1 << 16


class MalformedAlgebra(ValueError):
    pass


class NotHeytingError(ValueError):
    """A bounded lattice with no greatest a such that a & b <= c."""

    def __init__(self, b: int, c: int):
        super().__init__(f"no relative pseudocomplement for ({b}, {c})")
        self.pair = (b, c)


class NoWitnessError(ValueError):
    """Exhaustive witness search failed; signals a failed property check."""


@_record(hidden=("name",))
class FiniteHeytingAlgebra:
    size: int
    le: tuple        # size x size booleans
    meet: tuple      # size x size element indices
    join: tuple
    himp: tuple
    bot: int
    top: int
    name: str = ""

    def leq(self, a: int, b: int) -> bool:
        return self.le[a][b]

    @cached_property
    def filters(self) -> tuple:
        """Every filter, sorted by (size, elements).  In a finite lattice
        a filter holds the meet of its members, so it is the principal
        filter of that meet: the filters are the sets of elements above
        a, one for each element a."""
        rng = range(self.size)
        out = (frozenset(compress(rng, row)) for row in self.le)
        return tuple(sorted(out, key=lambda s: (len(s), sorted(s))))

    @cached_property
    def masks(self) -> tuple:
        """(down, up), the order masks of _masks."""
        return _masks(self.le)


@_record
class Violation:
    kind: str
    witness: tuple


def _masks(le) -> tuple:
    """(down, up): bit b of down[a] is le[b][a], bit b of up[a] is
    le[a][b]."""
    bits = [1 << b for b in range(len(le))]
    up = [sum(compress(bits, row)) for row in le]
    down = [sum(compress(bits, col)) for col in zip(*le)]
    return down, up


def _himp_rows(masks, close, index, full: int) -> list:
    """Rows of index.get(full & ~close(masks[b] & ~masks[c])): the himp
    table of a lattice's down masks, close the union of the up masks of a
    mask's bits, or of a frame's up-sets, close its down.  Each distinct
    difference d is closed once, from d & (d - 1) when that came first."""
    nots = [~m for m in masks]
    reach, imp = {0: 0}, {}
    for d in sorted({b & c for b in masks for c in nots}, key=int.bit_count):
        rest = d & (d - 1)
        reach[d] = reach[rest] | close(d ^ rest) if rest in reach else close(d)
        imp[d] = index.get(full & ~reach[d])
    return [[imp[b & c] for c in nots] for b in masks]


def _table(rows, size, what, cast):
    if len(rows) != size or any(map(size.__ne__, map(len, rows))):
        raise MalformedAlgebra(f"{what} table must be {size}x{size}")
    return tuple([tuple(map(cast, r)) for r in rows])


def make_algebra(size: int, le, meet, join, himp, bot: int, top: int,
                 name: str = "") -> FiniteHeytingAlgebra:
    if size < 1:
        raise MalformedAlgebra("an algebra needs at least one element")
    for x in (bot, top):
        if not 0 <= x < size:
            raise MalformedAlgebra("bot/top out of range")
    alg = FiniteHeytingAlgebra(
        size,
        _table(le, size, "le", bool),
        _table(meet, size, "meet", int),
        _table(join, size, "join", int),
        _table(himp, size, "himp", int),
        bot, top, name)
    for t in (alg.meet, alg.join, alg.himp):
        if min(map(min, t)) < 0 or max(map(max, t)) >= size:
            raise MalformedAlgebra("operation table entry out of range")
    return alg


def validate_algebra(alg: FiniteHeytingAlgebra) -> list:
    """Empty list iff the tables describe a Heyting algebra: a partial
    order with correct meets, joins, bounds and the residuation law
    a <= himp(b, c) iff meet(a, b) <= c.  Each law is tested on whole
    rows or tables at once: the order and lattice laws on the bitmasks
    of the elements below and above each element, residuation on
    byte strings over (b, c).  Only the bits or pairs that break a law are
    visited, and violations come in the order of loops over a, b and c."""
    n, le, meet, join = alg.size, alg.le, alg.meet, alg.join
    rng = range(n)
    down, up = _masks(le)
    out = [Violation("order_reflexive", (a,)) for a in rng if not le[a][a]]
    reflexive = not out
    for a in rng:
        if up[a] & down[a] & ~(1 << a) or \
                reduce(or_, compress(up, le[a]), 0) & ~up[a]:
            for b in _ones(up[a]):
                if a != b and up[b] >> a & 1:
                    out.append(Violation("order_antisymmetric", (a, b)))
                out += [Violation("order_transitive", (a, b, c))
                        for c in _ones(up[b] & ~up[a])]
    above_bot, below_top = up[alg.bot], down[alg.top]
    for a in _ones(((1 << n) - 1) & ~(above_bot & below_top)):
        if not above_bot >> a & 1:
            out.append(Violation("bot_least", (a,)))
        if not below_top >> a & 1:
            out.append(Violation("top_greatest", (a,)))
    # entry a * n + b of each list is for the pair (a, b)
    lower = [x & y for x in down for y in down]
    upper = [x & y for x in up for y in up]
    meets = [m for row in meet for m in row]
    joins = [j for row in join for j in row]
    if not (reflexive and lower == [down[m] for m in meets]
            and upper == [up[j] for j in joins]):
        for (a, b), m, j, lo, hi in zip(product(rng, rng), meets, joins,
                                        lower, upper):
            if not lo >> m & 1:
                out.append(Violation("meet_lower_bound", (a, b)))
            out += [Violation("meet_greatest", (a, b, c))
                    for c in _ones(lo & ~down[m])]
            if not hi >> j & 1:
                out.append(Violation("join_upper_bound", (a, b)))
            out += [Violation("join_least", (a, b, c))
                    for c in _ones(hi & ~up[j])]
    # both sides of residuation for a row a, as byte strings over (b, c):
    # le[a][himp[b][c]] is read by bytes.translate, one plane of 256
    # elements at a time, and le[meet[a][b]][c] by joining rows of le
    rows = [bytes(row) for row in le]
    flat = [h for row in alg.himp for h in row]
    planes = _planes(flat, n)
    for a in rng:
        if len(planes) == 1:
            lhs = planes[0][0].translate(rows[a].ljust(256, b"\0"))
        else:
            bits = 0
            for h, (low, mask) in enumerate(planes):
                part = rows[a][256 * h:256 * h + 256].ljust(256, b"\0")
                bits |= int.from_bytes(low.translate(part), "big") & mask
            lhs = bits.to_bytes(n * n, "big")
        rhs = b"".join(map(rows.__getitem__, meet[a]))
        if lhs != rhs:
            out += [Violation("residuation", (a, k // n, k % n))
                    for k in range(n * n) if lhs[k] != rhs[k]]
    return out


def _planes(flat: list, n: int) -> list:
    """The entries of flat, elements of an n-element algebra, split by
    their high byte: (low bytes, mask) per plane h of 256 elements, where
    mask has 1 in the byte of each entry in plane h.  One plane, holding
    flat itself and no mask, when n is at most 256."""
    if n <= 256:
        return [(bytes(flat), None)]
    low = bytes(x & 255 for x in flat)
    high = bytes(x >> 8 for x in flat)
    return [(low, int.from_bytes(high.translate(bytes(
        i == h for i in range(256))), "big"))
        for h in range((n + 255) // 256)]


def lattice_from_le(le) -> tuple:
    """Derive (meet, join, bot, top) from an order table; raises
    MalformedAlgebra when the order is not a bounded lattice."""
    return _lattice(*_masks(_table(le, len(le), "le", bool)))[:4]


def _lattice(down, up) -> tuple:
    """lattice_from_le on the order's masks, and {down[a]: a} if each meet
    was looked up there, which makes meet a partial order's meet, or {}."""
    size = len(down)
    full = (1 << size) - 1
    bots = [a for a in range(size) if up[a] == full]
    tops = [a for a in range(size) if down[a] == full]
    if len(bots) != 1 or len(tops) != 1:
        raise MalformedAlgebra("order has no unique bottom/top")

    def missing(what):
        return lambda a, b: MalformedAlgebra(
            f"{what} of ({a}, {b}) does not exist")

    # down[meet(a, b)] is down[a] & down[b], up[join(a, b)] up[a] & up[b]
    below, above = _index(down, up), _index(up, down)
    ordered = len(below) == size
    meet = _greatest_rows([x & y for x in down for y in down], down,
                          missing("meet"), below)
    join = _greatest_rows([x & y for x in up for y in up], up,
                          missing("join"), above)
    return meet, join, bots[0], tops[0], \
        below if ordered and len(below) == size else {}


def himp_from_order(le, meet) -> tuple:
    """The forced relative pseudocomplement: himp(b, c) is the greatest a
    with meet(a, b) <= c; raises NotHeytingError when no greatest exists.
    It is looked up if meet is the order's, as lattice_from_le gives it."""
    down, up = _masks(le)
    index = _index(down, up)
    if meet == tuple(tuple(map(index.get, map(d.__and__, down)))
                     for d in down):
        return _himp(down, up, index)
    cols, cands = list(zip(*le)), []
    for b in range(len(le)):
        by_meet = [0] * len(le)     # disjoint: the a with meet(a, b) = m
        for a in range(len(le)):
            by_meet[meet[a][b]] |= 1 << a
        cands += [sum(compress(by_meet, col)) for col in cols]
    return _greatest_rows(cands, down, NotHeytingError, index)


def _himp(down, up, index) -> tuple:
    """himp_from_order for the order's own meet, by _himp_rows."""
    rows = _himp_rows(down, partial(_union, up), index, (1 << len(down)) - 1)
    for b, row in enumerate(rows):
        if None in row:     # no element has that down-set
            raise NotHeytingError(b, row.index(None))
    return tuple(map(tuple, rows))


def _index(masks, converse) -> dict:
    """{masks[c]: c} on a reflexive, antisymmetric order, else {}."""
    if any(m & v != 1 << c for c, (m, v) in enumerate(zip(masks, converse))):
        return {}
    return {m: c for c, m in enumerate(masks)}


def _greatest_rows(cands: list, masks, error, best: dict) -> tuple:
    """The table of the greatest member c of each candidate m, row-major,
    with m & ~masks[c] == 0; raises error(a, b) for the first with none
    or several.  best maps known candidates, and gains those scanned."""
    picked = list(map(best.get, cands))
    if None in picked:
        for m in set(cands).difference(best):
            found = [c for c in _ones(m) if not m & ~masks[c]]
            best[m] = found[0] if len(found) == 1 else None
        picked = list(map(best.__getitem__, cands))
        if None in picked:
            raise error(*divmod(picked.index(None), len(masks)))
    return tuple(zip(*[iter(picked)] * len(masks)))    # rows of len(masks)


def algebra_from_le(le, name: str = "") -> FiniteHeytingAlgebra:
    """Complete an order table to a full Heyting algebra when possible."""
    down, up = _masks(table := _table(le, len(le), "le", bool))
    meet, join, bot, top, index = _lattice(down, up)
    himp = _himp(down, up, index) if index else himp_from_order(table, meet)
    return make_algebra(len(le), le, meet, join, himp, bot, top, name)


def chain(n: int, name: str = "") -> FiniteHeytingAlgebra:
    """The n-element chain 0 < 1 < ... < n-1."""
    le = [[a <= b for b in range(n)] for a in range(n)]
    return algebra_from_le(le, name or f"C{n}")


def product_algebra(a: FiniteHeytingAlgebra, b: FiniteHeytingAlgebra,
                    name: str = "") -> FiniteHeytingAlgebra:
    """Componentwise product; element (i, j) has index i * b.size + j."""
    size = a.size * b.size
    idx = lambda i, j: i * b.size + j
    pairs = [(i, j) for i in range(a.size) for j in range(b.size)]
    le = [[a.le[i1][i2] and b.le[j1][j2] for (i2, j2) in pairs]
          for (i1, j1) in pairs]

    def lift(ta, tb):
        return [[idx(ta[i1][i2], tb[j1][j2]) for (i2, j2) in pairs]
                for (i1, j1) in pairs]

    return make_algebra(size, le, lift(a.meet, b.meet), lift(a.join, b.join),
                        lift(a.himp, b.himp), idx(a.bot, b.bot),
                        idx(a.top, b.top), name or f"{a.name}x{b.name}")


# ---------------------------------------------------------------------------
# Filters.
# ---------------------------------------------------------------------------


def is_filter(alg: FiniteHeytingAlgebra, subset) -> bool:
    """Nonempty, meet-closed, upward closed."""
    s = frozenset(subset)
    rng = range(alg.size)
    return bool(s) and all(s.issuperset(map(alg.meet[x].__getitem__, s))
                           and s.issuperset(compress(rng, alg.le[x]))
                           for x in s)


def _generated(alg: FiniteHeytingAlgebra, xs: list) -> int:
    """The meet of the elements xs, folded in the order given: its up-set
    is the least filter holding them.  That up-set must equal the
    intersection of the up-sets of the holders, the elements below all
    of xs."""
    down, up = alg.masks
    meet = alg.meet
    inf, holders = alg.top, (1 << alg.size) - 1
    for x in xs:
        inf, holders = meet[inf][x], holders & down[x]
    common = -1
    while holders:      # the holders are few: walk their bits inline
        low = holders & -holders
        common &= up[low.bit_length() - 1]
        holders ^= low
    if common != up[inf]:
        raise RuntimeError(
            f"generated-filter characterizations disagree on {xs}")
    return inf


def _outside(alg: FiniteHeytingAlgebra, x, what: str) -> ValueError:
    return ValueError(f"{what} {x} is not an element of the {alg.size}-"
                      f"element algebra")


def _element_mask(alg: FiniteHeytingAlgebra, s: frozenset, what: str) -> int:
    outside = s.difference(range(alg.size))
    if outside:
        raise _outside(alg, min(outside), what)
    return sum(1 << e for e in s)


def generated_filter(alg: FiniteHeytingAlgebra, subset) -> frozenset:
    """Least filter including the subset, computed both as the intersection
    of all filters including it and as the upward closure of its meet,
    folded in ascending order."""
    xs = sorted(frozenset(subset))
    rng = range(alg.size)
    for x in xs:
        if x not in rng:
            raise _outside(alg, x, "generating element")
    return frozenset(compress(rng, alg.le[_generated(alg, xs)]))


def is_proper_filter(alg: FiniteHeytingAlgebra, subset) -> bool:
    return is_filter(alg, subset) and alg.bot not in frozenset(subset)


def is_prime_filter(alg: FiniteHeytingAlgebra, subset) -> bool:
    """A proper filter holding x or y whenever it holds join(x, y)."""
    s = frozenset(subset)
    if not is_proper_filter(alg, s):
        return False
    outside = [x for x in range(alg.size) if x not in s]
    return all(s.isdisjoint(map(alg.join[x].__getitem__, outside))
               for x in outside)


def prime_filters(alg: FiniteHeytingAlgebra) -> list:
    """All prime filters, sorted by (size, elements).  One pass over the
    pairs (x, y) sets bit a of bad when the up-set of a holds x and y but
    not their meet, their join but neither, or x but not y above x."""
    down, up = alg.masks
    bad = down[alg.bot]
    for x, dx in enumerate(down):
        for dy, m, j, above in zip(down, alg.meet[x], alg.join[x], alg.le[x]):
            bad |= dx & dy & ~down[m] | down[j] & ~(dx | dy)
            if above:
                bad |= dx & ~dy
    good = {frozenset(_ones(u)) for a, u in enumerate(up)
            if u and not bad >> a & 1}
    return [f for f in alg.filters if f in good]


def super_prime_filter(alg: FiniteHeytingAlgebra, flt, x: int) -> frozenset:
    """A prime filter including flt and avoiding x, chosen as the greedy
    maximal filter avoiding x.  Primeness of the maximal avoider is a
    theorem at finite size; it is asserted, not assumed."""
    f = frozenset(flt)
    current = _element_mask(alg, f, "filter element")
    avoid = _element_mask(alg, {x}, "avoided point")
    if not is_filter(alg, f):
        raise ValueError("super_prime_filter requires a filter")
    if current & avoid:
        raise ValueError("super_prime_filter requires x outside the filter")
    up = alg.masks[1]
    for e in range(alg.size):
        if not current >> e & 1:
            grown = up[_generated(alg, list(_ones(current | 1 << e)))]
            if not grown & avoid:
                current = grown
    out = frozenset(_ones(current))
    if not is_prime_filter(alg, out):
        raise RuntimeError(
            f"maximal filter avoiding {x} is not prime: {sorted(out)}")
    return out


def prime_filter_avoiding(alg: FiniteHeytingAlgebra, x: int) -> frozenset:
    """A prime filter avoiding x, for x below the top element."""
    if x == alg.top:
        raise ValueError("no proper filter avoids the top element")
    return super_prime_filter(alg, frozenset({alg.top}), x)


def prime_intersection(alg: FiniteHeytingAlgebra) -> frozenset:
    """Intersection of all prime filters; equals {top} on Heyting algebras."""
    out = frozenset(range(alg.size))
    for p in prime_filters(alg):
        out &= p
    return out


def join_bound_witness(alg: FiniteHeytingAlgebra, flt, x: int, y: int) -> int:
    """First z in the filter with join(x, z) <= y.

    The inequality is the quoted shape this operation implements; the
    variant that always exists under the precondition is
    meet_bound_witness below.  Raises NoWitnessError when no such z
    exists.
    """
    f = frozenset(flt)
    if y not in generated_filter(alg, f | {x}):
        raise ValueError("y must lie in the filter generated by F and x")
    for z in sorted(f):
        if alg.le[alg.join[x][z]][y]:
            return z
    raise NoWitnessError(f"no z in {sorted(f)} with join({x}, z) <= {y}")


def meet_bound_witness(alg: FiniteHeytingAlgebra, flt, x: int, y: int) -> int:
    """First z in the filter with meet(x, z) <= y; exists whenever y lies
    in the filter generated by F and x."""
    f = frozenset(flt)
    if y not in generated_filter(alg, f | {x}):
        raise ValueError("y must lie in the filter generated by F and x")
    for z in sorted(f):
        if alg.le[alg.meet[x][z]][y]:
            return z
    raise NoWitnessError(f"no z in {sorted(f)} with meet({x}, z) <= {y}")


def himp_not_mem_check(alg: FiniteHeytingAlgebra, flt, x: int, y: int) -> bool:
    """himp(x, y) outside F implies y outside the filter generated by
    F and x."""
    f = frozenset(flt)
    if alg.himp[x][y] in f:
        return True
    return y not in generated_filter(alg, f | {x})


# ---------------------------------------------------------------------------
# Algebraic semantics.
# ---------------------------------------------------------------------------


class InterpretationError(ValueError):
    pass


@_record
class Interpretation:
    algebra: FiniteHeytingAlgebra
    assignment: tuple  # ((var_index, element), ...), sorted by index

    def element(self, index: int) -> int:
        for v, e in self.assignment:
            if v == index:
                return e
        raise InterpretationError(f"variable p{index} is not assigned")


def make_interpretation(alg: FiniteHeytingAlgebra,
                        assignment) -> Interpretation:
    items = []
    for v in sorted(assignment):
        e = int(assignment[v])
        if not 0 <= e < alg.size:
            raise InterpretationError(f"element {e} out of range")
        items.append((int(v), e))
    return Interpretation(alg, tuple(items))


def interpret(interp: Interpretation, phi: Formula) -> int:
    """Homomorphic extension of the variable assignment."""
    value = _evaluate(interp.algebra, postorder([phi]),
                      lambda i: (interp.element(i),), 1)
    return value[id(phi)][0]


def _evaluate(alg: FiniteHeytingAlgebra, nodes: list, column,
              size: int) -> dict:
    """id(node) -> its values under a block of size assignments, for each
    node of a postorder list, where column(i) lists the values of p<i>;
    variables are looked up in list order, so the leftmost unassigned
    one is reported."""
    ops = {And: alg.meet, Or: alg.join, Implies: alg.himp}
    value: dict = {}
    for f in nodes:
        kind = type(f)
        if kind is Variable:
            value[id(f)] = column(f.var.index)
        elif kind is Bottom:
            value[id(f)] = (alg.bot,) * size
        else:
            rows = map(ops[kind].__getitem__, value[id(f.lhs)])
            value[id(f)] = list(map(getitem, rows, value[id(f.rhs)]))
    return value


def true_in_algebra(interp: Interpretation, phi: Formula) -> bool:
    return interpret(interp, phi) == interp.algebra.top


def valid_in_algebra(alg: FiniteHeytingAlgebra, phi: Formula) -> bool:
    """True under every assignment of phi's variables into the algebra."""
    return consequence_over_algebras([alg], [], phi).holds


@_record
class AlgConsequenceVerdict:
    holds: bool
    algebra_index: Optional[int] = None
    assignment: Optional[tuple] = None


def consequence_over_algebras(algebras, gamma, phi) -> AlgConsequenceVerdict:
    """Algebraic semantic consequence restricted to the supplied catalog.
    Assignments run in product order, in blocks that grow from 16 to
    VALUES // len(nodes) so that an early refutation stays cheap, and
    the first refuting one is reported."""
    gamma = list(gamma)
    nodes = postorder(gamma + [phi])
    idx = variable_indices(gamma + [phi])
    cap = max(1, VALUES // len(nodes))
    for i, alg in enumerate(algebras):
        choices = product(range(alg.size), repeat=len(idx))
        size = min(16, cap)
        while block := list(islice(choices, size)):
            size = min(4 * size, cap)
            columns = dict(zip(idx, zip(*block)))
            value = _evaluate(alg, nodes, columns.__getitem__, len(block))
            top = alg.top
            refutes = list(map(top.__ne__, value[id(phi)]))
            for g in gamma:
                # a list each time: a chain of one lazy map per premise
                # would overflow the C stack when next() runs through it
                refutes = list(map(and_, refutes,
                                   map(top.__eq__, value[id(g)])))
            t = next(compress(count(), refutes), None)
            if t is not None:
                return AlgConsequenceVerdict(False, i,
                                             tuple(zip(idx, block[t])))
    return AlgConsequenceVerdict(True)


# ---------------------------------------------------------------------------
# JSON wire format.
# ---------------------------------------------------------------------------


def algebra_to_json(alg: FiniteHeytingAlgebra) -> dict:
    return {
        "size": alg.size,
        "le": [[bool(x) for x in row] for row in alg.le],
        "meet": [list(row) for row in alg.meet],
        "join": [list(row) for row in alg.join],
        "himp": [list(row) for row in alg.himp],
        "bot": alg.bot,
        "top": alg.top,
        "name": alg.name,
    }


def algebra_from_json(obj) -> FiniteHeytingAlgebra:
    """Load an algebra; meet/join/himp are derived from the order when
    absent, and a lone meet or join table must equal the derived one.
    The result is validated before use."""
    if not isinstance(obj, dict):
        raise ValueError("algebra JSON must be an object")
    if "le" not in obj:
        raise ValueError("malformed algebra JSON: missing le")
    size, le = obj.get("size"), obj["le"]
    # json.load gives bool for true and false, which int() would take
    if type(size) is not int or \
            any(type(obj.get(k, 0)) is not int for k in ("bot", "top")):
        raise ValueError("malformed algebra JSON: size, bot and top must be "
                         "integers")
    for what in ("le", "meet", "join", "himp"):
        rows = obj.get(what, [])
        # an order entry may be a bool, an element may not
        types = (int, bool) if what == "le" else (int,)
        if not isinstance(rows, list) or not all(
                isinstance(row, list) and all(type(x) in types for x in row)
                for row in rows):
            # a string or an object would be read through its iteration
            raise ValueError(f"malformed algebra JSON: {what} must be a "
                             "list of lists of integers")
    name = str(obj.get("name", ""))
    # a member of the wrong type raises TypeError, a missing bot or top
    # KeyError
    try:
        if "meet" in obj and "join" in obj:
            meet = _table(obj["meet"], size, "meet", int)
            join = _table(obj["join"], size, "join", int)
            bot = obj["bot"]
            top = obj["top"]
        else:
            meet, join, bot, top = lattice_from_le(le)
            if "bot" in obj and obj["bot"] != bot:
                raise ValueError("declared bot disagrees with the order")
            if "top" in obj and obj["top"] != top:
                raise ValueError("declared top disagrees with the order")
            # a lone meet or join table is checked against the derived one
            for what, derived in (("meet", meet), ("join", join)):
                if what in obj and \
                        _table(obj[what], size, what, int) != derived:
                    raise ValueError(f"declared {what} disagrees with the "
                                     "order")
        if "himp" in obj:
            himp = _table(obj["himp"], size, "himp", int)
        elif any(not 0 <= x < size for row in meet for x in row):
            # himp_from_order would index the order table with them
            raise MalformedAlgebra("operation table entry out of range")
        else:
            himp = himp_from_order(_table(le, size, "le", bool), meet)
        alg = make_algebra(size, le, meet, join, himp, bot, top, name)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed algebra JSON: {exc}") from exc
    bad = validate_algebra(alg)
    if bad:
        raise ValueError(f"not a Heyting algebra: {bad[0]}")
    return alg
