"""Finite Heyting algebras, filters and the algebraic semantics.

Algebras are dense tables: an order relation plus meet, join and
relative pseudocomplement (himp) operation tables over elements
0..size-1.  Filter machinery includes generated filters (computed two
ways and cross-checked), prime filter enumeration and the finite
replacement of the Zorn argument for extending a filter to a prime
filter avoiding a point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Optional

from .formula import (And, Bottom, Formula, Implies, Or, Variable, postorder,
                      variable_indices)


class MalformedAlgebra(ValueError):
    pass


class NotHeytingError(ValueError):
    """A bounded lattice with no greatest a such that a & b <= c."""

    def __init__(self, b: int, c: int):
        super().__init__(f"no relative pseudocomplement for ({b}, {c})")
        self.pair = (b, c)


class NoWitnessError(ValueError):
    """Exhaustive witness search failed; signals a failed property check."""


@dataclass(frozen=True)
class FiniteHeytingAlgebra:
    size: int
    le: tuple        # size x size booleans
    meet: tuple      # size x size element indices
    join: tuple
    himp: tuple
    bot: int
    top: int
    name: str = field(default="", compare=False)

    def leq(self, a: int, b: int) -> bool:
        return self.le[a][b]

    @cached_property
    def filters(self) -> tuple:
        """Every filter, sorted by (size, elements).  In a finite lattice
        a filter holds the meet of its members, so it is the principal
        filter of that meet: the filters are the sets of elements above
        a, one for each element a."""
        rng = range(self.size)
        out = (frozenset(b for b in rng if self.le[a][b]) for a in rng)
        return tuple(sorted(out, key=lambda s: (len(s), sorted(s))))


@dataclass(frozen=True)
class Violation:
    kind: str
    witness: tuple


def _table(rows, size, what, cast):
    if len(rows) != size or any(len(r) != size for r in rows):
        raise MalformedAlgebra(f"{what} table must be {size}x{size}")
    return tuple(tuple(cast(x) for x in r) for r in rows)


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
        if any(not 0 <= x < size for row in t for x in row):
            raise MalformedAlgebra("operation table entry out of range")
    return alg


def validate_algebra(alg: FiniteHeytingAlgebra) -> list:
    """Empty list iff the tables describe a Heyting algebra: a partial
    order with correct meets, joins, bounds and the residuation law
    a <= himp(b, c) iff meet(a, b) <= c."""
    out = []
    rng = range(alg.size)
    le = alg.le
    for a in rng:
        if not le[a][a]:
            out.append(Violation("order_reflexive", (a,)))
    for a in rng:
        for b in rng:
            if a != b and le[a][b] and le[b][a]:
                out.append(Violation("order_antisymmetric", (a, b)))
            for c in rng:
                if le[a][b] and le[b][c] and not le[a][c]:
                    out.append(Violation("order_transitive", (a, b, c)))
    for a in rng:
        if not le[alg.bot][a]:
            out.append(Violation("bot_least", (a,)))
        if not le[a][alg.top]:
            out.append(Violation("top_greatest", (a,)))
    for a in rng:
        for b in rng:
            m = alg.meet[a][b]
            if not (le[m][a] and le[m][b]):
                out.append(Violation("meet_lower_bound", (a, b)))
            for c in rng:
                if le[c][a] and le[c][b] and not le[c][m]:
                    out.append(Violation("meet_greatest", (a, b, c)))
            j = alg.join[a][b]
            if not (le[a][j] and le[b][j]):
                out.append(Violation("join_upper_bound", (a, b)))
            for c in rng:
                if le[a][c] and le[b][c] and not le[j][c]:
                    out.append(Violation("join_least", (a, b, c)))
    for a in rng:
        for b in rng:
            for c in rng:
                if le[a][alg.himp[b][c]] != le[alg.meet[a][b]][c]:
                    out.append(Violation("residuation", (a, b, c)))
    return out


def lattice_from_le(le) -> tuple:
    """Derive (meet, join, bot, top) from an order table; raises
    MalformedAlgebra when the order is not a bounded lattice."""
    size = len(le)
    le = _table(le, size, "le", bool)
    rng = range(size)
    bots = [a for a in rng if all(le[a][b] for b in rng)]
    tops = [a for a in rng if all(le[b][a] for b in rng)]
    if len(bots) != 1 or len(tops) != 1:
        raise MalformedAlgebra("order has no unique bottom/top")

    def bound(a, b, lower):
        if lower:
            cands = [c for c in rng if le[c][a] and le[c][b]]
            best = [c for c in cands if all(le[d][c] for d in cands)]
        else:
            cands = [c for c in rng if le[a][c] and le[b][c]]
            best = [c for c in cands if all(le[c][d] for d in cands)]
        if len(best) != 1:
            raise MalformedAlgebra(
                f"{'meet' if lower else 'join'} of ({a}, {b}) does not exist")
        return best[0]

    meet = tuple(tuple(bound(a, b, True) for b in rng) for a in rng)
    join = tuple(tuple(bound(a, b, False) for b in rng) for a in rng)
    return meet, join, bots[0], tops[0]


def himp_from_order(le, meet) -> tuple:
    """The forced relative pseudocomplement: himp(b, c) is the greatest a
    with meet(a, b) <= c; raises NotHeytingError when no greatest exists."""
    size = len(le)
    rng = range(size)
    rows = []
    for b in rng:
        row = []
        for c in rng:
            cands = [a for a in rng if le[meet[a][b]][c]]
            best = [a for a in cands if all(le[d][a] for d in cands)]
            if len(best) != 1:
                raise NotHeytingError(b, c)
            row.append(best[0])
        rows.append(tuple(row))
    return tuple(rows)


def algebra_from_le(le, name: str = "") -> FiniteHeytingAlgebra:
    """Complete an order table to a full Heyting algebra when possible."""
    meet, join, bot, top = lattice_from_le(le)
    himp = himp_from_order(_table(le, len(le), "le", bool), meet)
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
    if not s:
        return False
    for x in s:
        for y in s:
            if alg.meet[x][y] not in s:
                return False
        for y in range(alg.size):
            if alg.le[x][y] and y not in s:
                return False
    return True


def _meet_fold(alg: FiniteHeytingAlgebra, xs) -> int:
    out = alg.top
    for x in xs:
        out = alg.meet[out][x]
    return out


def generated_filter(alg: FiniteHeytingAlgebra, subset) -> frozenset:
    """Least filter including the subset.

    Computed both as the intersection of all filters including the subset
    and as the upward closure of finite meets; the two must agree.
    """
    s = frozenset(subset)
    members = None
    for cand in alg.filters:
        if s <= cand:
            members = cand if members is None else members & cand
    inf = _meet_fold(alg, sorted(s))
    by_meets = frozenset(a for a in range(alg.size) if alg.le[inf][a])
    if members != by_meets:
        raise RuntimeError(
            f"generated-filter characterizations disagree on {sorted(s)}")
    return by_meets


def is_proper_filter(alg: FiniteHeytingAlgebra, subset) -> bool:
    return is_filter(alg, subset) and alg.bot not in frozenset(subset)


def is_prime_filter(alg: FiniteHeytingAlgebra, subset) -> bool:
    s = frozenset(subset)
    if not is_proper_filter(alg, s):
        return False
    for x in range(alg.size):
        for y in range(alg.size):
            if alg.join[x][y] in s and x not in s and y not in s:
                return False
    return True


def prime_filters(alg: FiniteHeytingAlgebra) -> list:
    """All prime filters, sorted by (size, elements)."""
    return [f for f in alg.filters if is_prime_filter(alg, f)]


def super_prime_filter(alg: FiniteHeytingAlgebra, flt, x: int) -> frozenset:
    """A prime filter including flt and avoiding x, chosen as the greedy
    maximal filter avoiding x.  Primeness of the maximal avoider is a
    theorem at finite size; it is asserted, not assumed."""
    f = frozenset(flt)
    if not is_filter(alg, f):
        raise ValueError("super_prime_filter requires a filter")
    if x in f:
        raise ValueError("super_prime_filter requires x outside the filter")
    current = f
    for e in range(alg.size):
        if e in current:
            continue
        grown = generated_filter(alg, current | {e})
        if x not in grown:
            current = grown
    if not is_prime_filter(alg, current):
        raise RuntimeError(
            f"maximal filter avoiding {x} is not prime: {sorted(current)}")
    return current


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


@dataclass(frozen=True)
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
    return _evaluate(interp.algebra, postorder([phi]), interp.element)[id(phi)]


def _evaluate(alg: FiniteHeytingAlgebra, nodes: list, element) -> dict:
    """id(node) -> value for each node of a postorder list, where
    element(i) is the value of variable p<i>; variables are looked up
    in list order, so the leftmost unassigned one is reported."""
    ops = {And: alg.meet, Or: alg.join, Implies: alg.himp}
    value: dict = {}
    for f in nodes:
        kind = type(f)
        if kind is Variable:
            value[id(f)] = element(f.var.index)
        elif kind is Bottom:
            value[id(f)] = alg.bot
        else:
            value[id(f)] = ops[kind][value[id(f.lhs)]][value[id(f.rhs)]]
    return value


def true_in_algebra(interp: Interpretation, phi: Formula) -> bool:
    return interpret(interp, phi) == interp.algebra.top


def valid_in_algebra(alg: FiniteHeytingAlgebra, phi: Formula) -> bool:
    """True under every assignment of phi's variables into the algebra."""
    return consequence_over_algebras([alg], [], phi).holds


@dataclass(frozen=True)
class AlgConsequenceVerdict:
    holds: bool
    algebra_index: Optional[int] = None
    assignment: Optional[tuple] = None


def consequence_over_algebras(algebras, gamma, phi) -> AlgConsequenceVerdict:
    """Algebraic semantic consequence restricted to the supplied catalog."""
    gamma = list(gamma)
    nodes = postorder(gamma + [phi])
    idx = variable_indices(gamma + [phi])
    for i, alg in enumerate(algebras):
        for choice in product(range(alg.size), repeat=len(idx)):
            value = _evaluate(alg, nodes, dict(zip(idx, choice)).__getitem__)
            if all(value[id(g)] == alg.top for g in gamma) \
                    and value[id(phi)] != alg.top:
                return AlgConsequenceVerdict(False, i, tuple(zip(idx, choice)))
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
    absent.  The result is validated before use."""
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
        if not isinstance(rows, list) or not all(
                isinstance(row, list) and all(isinstance(x, int) for x in row)
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
        if "himp" in obj:
            himp = _table(obj["himp"], size, "himp", int)
        else:
            himp = himp_from_order(_table(le, size, "le", bool), meet)
        alg = make_algebra(size, le, meet, join, himp, bot, top, name)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed algebra JSON: {exc}") from exc
    bad = validate_algebra(alg)
    if bad:
        raise ValueError(f"not a Heyting algebra: {bad[0]}")
    return alg
