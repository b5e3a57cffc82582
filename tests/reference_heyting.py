"""The dense-table Heyting scans, kept as a test reference.

lattice_from_le and himp_from_order build each candidate list and keep
the candidate that all others lie below; validate_algebra runs the
n-cubed loops over the order and the tables; consequence_over_algebras
evaluates the formulas once per assignment.  iplkit.heyting computes the
same results on per-element bitmasks and over blocks of assignments.

The filter functions test each principal filter against the definition
of a prime filter and grow filters as frozensets; closed_set_algebra
builds the closed sets as frozensets and sums them back to masks.
iplkit.heyting and iplkit.bridge compute the same on order masks.
"""

from __future__ import annotations

from itertools import compress, product

from iplkit import kripke
from iplkit.bridge import ClosedSetAlgebra
from iplkit.formula import (And, Bottom, Implies, Or, Variable, _ones,
                            postorder, variable_indices)
from iplkit.heyting import (AlgConsequenceVerdict, FiniteHeytingAlgebra,
                            MalformedAlgebra, NotHeytingError, Violation,
                            _table, is_filter, is_prime_filter, make_algebra,
                            validate_algebra as mask_validate_algebra)
from iplkit.kripke import KripkeModel, validate_model


def _evaluate(alg, nodes: list, element) -> dict:
    """id(node) -> value for each node of a postorder list, where
    element(i) is the value of variable p<i>."""
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
    by_meets = frozenset(compress(range(alg.size), alg.le[inf]))
    if members != by_meets:
        raise RuntimeError(
            f"generated-filter characterizations disagree on {sorted(s)}")
    return by_meets


def prime_filters(alg: FiniteHeytingAlgebra) -> list:
    """All prime filters, sorted by (size, elements)."""
    return [f for f in alg.filters if is_prime_filter(alg, f)]


def super_prime_filter(alg: FiniteHeytingAlgebra, flt, x: int) -> frozenset:
    """A prime filter including flt and avoiding x, chosen as the greedy
    maximal filter avoiding x.  Primeness of the maximal avoider is a
    theorem at finite size; it is asserted, not assumed."""
    f = frozenset(flt)
    outside = f.difference(range(alg.size))
    if outside:
        raise ValueError(f"filter element {min(outside)} is not an element "
                         f"of the {alg.size}-element algebra")
    if x not in range(alg.size):
        raise ValueError(f"avoided point {x} is not an element of the "
                         f"{alg.size}-element algebra")
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


def _closed_subsets(rel: frozenset, n: int, up: bool) -> list:
    """The up-closed (or down-closed) subsets of range(n), in mask order:
    the unions of the worlds' principal up-sets (or down-sets) under the
    reflexive-transitive closure of rel, a relation on range(n).  Raises
    ValueError once the family passes MAX_CLOSED_SETS."""
    succ = [1 << w for w in range(n)]
    for a, b in rel:
        if not up:
            a, b = b, a
        succ[a] |= 1 << b
    kripke._warshall(succ)
    found = {0}     # after world w: the unions of the sets of worlds <= w
    for row in succ:
        found |= {mask | row for mask in found}
        if len(found) > kripke.MAX_CLOSED_SETS:
            raise ValueError(
                f"more than MAX_CLOSED_SETS = {kripke.MAX_CLOSED_SETS} "
                f"{'up' if up else 'down'}-closed world sets")
    return [frozenset(_ones(mask)) for mask in sorted(found)]


def closed_set_algebra(model: KripkeModel, name: str = "") -> ClosedSetAlgebra:
    """The Heyting algebra of closed sets: join is union, meet is
    intersection, and himp(A, B) is W minus the worlds that see a world
    of A minus B."""
    if validate_model(model):
        raise ValueError("closed_set_algebra requires a valid model")
    sets = tuple(sorted(_closed_subsets(model.rel, model.worlds, up=True),
                        key=lambda s: (len(s), tuple(sorted(s)))))
    masks = [sum(1 << w for w in s) for s in sets]
    index = {m: i for i, m in enumerate(masks)}
    _, full, down = model.masks
    size = len(sets)
    le = [[a & ~b == 0 for b in masks] for a in masks]
    meet = [[index[a & b] for b in masks] for a in masks]
    join = [[index[a | b] for b in masks] for a in masks]
    himp = [[index[full & ~down(a & ~b)] for b in masks] for a in masks]
    alg = make_algebra(size, le, meet, join, himp, index[0], index[full],
                       name or f"Up({model.worlds}w)")
    bad = mask_validate_algebra(alg)
    if bad:
        raise RuntimeError(f"closed-set algebra failed validation: {bad[0]}")
    return ClosedSetAlgebra(model, sets, alg)
