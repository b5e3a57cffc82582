"""The dense-table Heyting scans, kept as a test reference.

lattice_from_le and himp_from_order build each candidate list and keep
the candidate that all others lie below; validate_algebra runs the
n-cubed loops over the order and the tables; consequence_over_algebras
evaluates the formulas once per assignment.  iplkit.heyting computes the
same results on per-element bitmasks and over blocks of assignments.
"""

from __future__ import annotations

from itertools import product

from iplkit.formula import (And, Bottom, Implies, Or, Variable, postorder,
                            variable_indices)
from iplkit.heyting import (AlgConsequenceVerdict, MalformedAlgebra,
                            NotHeytingError, Violation, _table)


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
