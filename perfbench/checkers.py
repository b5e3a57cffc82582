"""Checkers that judge the program's answers without asking the program.

Formulas are read through the iplkit constructor classes, models through
the fields of KripkeModel (worlds, rel, valuation) and algebras through
their order table alone; every semantic value is recomputed here.  Each
checker returns a list of problems, empty when the answer is right.

Evaluation is iterative, so formulas nested hundreds of levels deep are
checked without touching the recursion limit.
"""

from __future__ import annotations

from itertools import product

from iplkit.formula import And, Bottom, Implies, Or, Variable


def _postorder(phi):
    """Distinct subformula objects of phi, children before parents."""
    out, seen = [], set()
    stack = [(phi, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded or isinstance(node, (Variable, Bottom)):
            seen.add(id(node))
            out.append(node)
            continue
        stack.append((node, True))
        stack.append((node.rhs, False))
        stack.append((node.lhs, False))
    return out


def same_formula(a, b) -> bool:
    """Structural equality, iterative."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, Variable):
            if x.var.index != y.var.index:
                return False
        elif not isinstance(x, Bottom):
            stack.append((x.lhs, y.lhs))
            stack.append((x.rhs, y.rhs))
    return True


def var_indices(formulas) -> list:
    idx = set()
    for phi in formulas:
        for node in _postorder(phi):
            if isinstance(node, Variable):
                idx.add(node.var.index)
    return sorted(idx)


# ---------------------------------------------------------------------------
# Classical truth tables: one 2^k-bit mask per formula.
# ---------------------------------------------------------------------------


def truth_table(phi, indices: list) -> int:
    """Bit a of the result is phi's value under assignment a, where bit j of
    a is the value of variable indices[j]."""
    rows = 1 << len(indices)
    full = (1 << rows) - 1
    base = {}
    for j, v in enumerate(indices):
        base[v] = sum(1 << a for a in range(rows) if a >> j & 1)
    val = {}
    for node in _postorder(phi):
        if isinstance(node, Variable):
            m = base[node.var.index]
        elif isinstance(node, Bottom):
            m = 0
        elif isinstance(node, And):
            m = val[id(node.lhs)] & val[id(node.rhs)]
        elif isinstance(node, Or):
            m = val[id(node.lhs)] | val[id(node.rhs)]
        else:
            m = (full & ~val[id(node.lhs)]) | val[id(node.rhs)]
        val[id(node)] = m
    return val[id(phi)]


def classically_entails(gamma, phi) -> bool:
    gamma = list(gamma)
    indices = var_indices(gamma + [phi])
    full = (1 << (1 << len(indices))) - 1
    premises = full
    for g in gamma:
        premises &= truth_table(g, indices)
    return premises & ~truth_table(phi, indices) & full == 0


# ---------------------------------------------------------------------------
# Kripke models: truth sets as bitmasks over worlds.
# ---------------------------------------------------------------------------


def model_problems(model) -> list:
    """Reflexivity, transitivity and monotonicity of a KripkeModel."""
    n, rel = model.worlds, set(model.rel)
    out = []
    if any(not (0 <= a < n and 0 <= b < n) for a, b in rel):
        return ["relation mentions an unknown world"]
    out += [f"not reflexive at {w}" for w in range(n) if (w, w) not in rel]
    for a, b in rel:
        for c in range(n):
            if (b, c) in rel and (a, c) not in rel:
                out.append(f"not transitive at {a}, {b}, {c}")
    for v, ws in model.valuation:
        for a, b in rel:
            if a in ws and b not in ws:
                out.append(f"p{v} true at {a} but not at its successor {b}")
    return out


def truth_set(model, phi) -> int:
    """Bitmask of the worlds of a valid model that force phi."""
    n = model.worlds
    succ = [0] * n
    for a, b in model.rel:
        succ[a] |= 1 << b
    val = {v: sum(1 << w for w in ws) for v, ws in model.valuation}
    out = {}
    for node in _postorder(phi):
        if isinstance(node, Variable):
            if node.var.index not in val:
                raise KeyError(f"p{node.var.index} has no valuation")
            m = val[node.var.index]
        elif isinstance(node, Bottom):
            m = 0
        elif isinstance(node, And):
            m = out[id(node.lhs)] & out[id(node.rhs)]
        elif isinstance(node, Or):
            m = out[id(node.lhs)] | out[id(node.rhs)]
        else:
            bad = out[id(node.lhs)] & ~out[id(node.rhs)]
            m = sum(1 << w for w in range(n) if succ[w] & bad == 0)
        out[id(node)] = m
    return out[id(phi)]


def countermodel_problems(model, world, gamma, phi) -> list:
    """A refutation of gamma |- phi: a valid model whose `world` forces
    every premise and does not force phi."""
    out = model_problems(model)
    if out:
        return out
    if not 0 <= world < model.worlds:
        return [f"world {world} is not in the model"]
    try:
        for g in gamma:
            if not truth_set(model, g) >> world & 1:
                out.append("a premise is not forced at the refuting world")
        if truth_set(model, phi) >> world & 1:
            out.append("the goal is forced at the refuting world")
    except KeyError as exc:
        out.append(str(exc))
    return out


def small_models(indices) -> list:
    """Every model on the rooted frames of at most three worlds (chains of
    one to three worlds and the fork) with every monotone valuation of
    the given variables.  Built here, not by iplkit.kripke."""
    from iplkit.kripke import make_model
    frames = [
        (1, {(0, 0)}),
        (2, {(0, 0), (1, 1), (0, 1)}),
        (3, {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)}),
        (3, {(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)}),
    ]
    out = []
    for n, rel in frames:
        ups = [s for s in _subsets(n)
               if all(b in s for a, b in rel if a in s)]
        for choice in product(ups, repeat=len(indices)):
            out.append(make_model(n, rel, dict(zip(indices, choice))))
    return out


def _subsets(n: int) -> list:
    return [frozenset(i for i in range(n) if mask >> i & 1)
            for mask in range(1 << n)]


def count_upsets(model) -> int:
    """Number of upward-closed world sets of the model's frame."""
    return sum(1 for s in _subsets(model.worlds)
               if all(b in s for a, b in model.rel if a in s))


# ---------------------------------------------------------------------------
# Finite lattices given by their order table.
# ---------------------------------------------------------------------------


class Lattice:
    """Meet, join and relative pseudocomplement derived from `le` alone."""

    def __init__(self, le):
        self.le = [list(map(bool, row)) for row in le]
        self.size = n = len(self.le)
        rng = range(n)
        self.bot = next(a for a in rng if all(self.le[a][b] for b in rng))
        self.top = next(a for a in rng if all(self.le[b][a] for b in rng))
        self.up = [frozenset(b for b in rng if self.le[a][b]) for a in rng]

        def best(cands, greatest):
            for c in cands:
                if all((self.le[d][c] if greatest else self.le[c][d])
                       for d in cands):
                    return c
            raise ValueError("the order is not a Heyting lattice")

        self.meet = [[best([c for c in rng if self.le[c][a] and self.le[c][b]],
                           True) for b in rng] for a in rng]
        self.join = [[best([c for c in rng if self.le[a][c] and self.le[b][c]],
                           False) for b in rng] for a in rng]
        self.himp = [[best([c for c in rng if self.le[self.meet[c][a]][b]],
                           True) for b in rng] for a in rng]

    def meet_of(self, elems) -> int:
        out = self.top
        for x in elems:
            out = self.meet[out][x]
        return out

    def join_irreducibles(self) -> list:
        """j != bot that is not the join of the elements strictly below it."""
        out = []
        for j in range(self.size):
            if j == self.bot:
                continue
            below = self.bot
            for a in range(self.size):
                if a != j and self.le[a][j]:
                    below = self.join[below][a]
            if below != j:
                out.append(j)
        return out

    def birkhoff_prime_filters(self) -> set:
        """The prime filters of a finite distributive lattice are exactly
        the principal filters of its join-irreducible elements."""
        return {self.up[j] for j in self.join_irreducibles()}

    def prime_filter_problems(self, subset) -> list:
        s = frozenset(subset)
        out = []
        if not s or self.bot in s:
            out.append("empty or contains bottom")
        for x in s:
            if not self.up[x] <= s:
                out.append(f"not upward closed above {x}")
            for y in s:
                if self.meet[x][y] not in s:
                    out.append(f"meet of {x} and {y} missing")
        for x in range(self.size):
            for y in range(self.size):
                if self.join[x][y] in s and x not in s and y not in s:
                    out.append(f"join of {x} and {y} in it but neither is")
        return out

    def value(self, phi, assignment: dict) -> int:
        val = {}
        for node in _postorder(phi):
            if isinstance(node, Variable):
                m = assignment[node.var.index]
            elif isinstance(node, Bottom):
                m = self.bot
            elif isinstance(node, And):
                m = self.meet[val[id(node.lhs)]][val[id(node.rhs)]]
            elif isinstance(node, Or):
                m = self.join[val[id(node.lhs)]][val[id(node.rhs)]]
            else:
                m = self.himp[val[id(node.lhs)]][val[id(node.rhs)]]
            val[id(node)] = m
        return val[id(phi)]

    def valid(self, phi) -> bool:
        indices = var_indices([phi])
        return all(self.value(phi, dict(zip(indices, choice))) == self.top
                   for choice in product(range(self.size),
                                         repeat=len(indices)))


def prime_filters_problems(le, filters) -> list:
    """The program's prime filters must be exactly the Birkhoff set."""
    lat = Lattice(le)
    got = [frozenset(f) for f in filters]
    want = lat.birkhoff_prime_filters()
    out = []
    if len(set(got)) != len(got):
        out.append("a prime filter is listed twice")
    if set(got) != want:
        missing = len(want - set(got))
        extra = len(set(got) - want)
        out.append(f"{missing} prime filters missing, {extra} extra")
    return out


def completion_problems(le, alg) -> list:
    """A completed algebra keeps the order and has the operations the
    order forces."""
    lat = Lattice(le)
    out = []
    if [list(map(bool, r)) for r in alg.le] != lat.le:
        out.append("order table changed")
    for name in ("meet", "join", "himp"):
        if [list(r) for r in getattr(alg, name)] != getattr(lat, name):
            out.append(f"{name} table differs from the one the order forces")
    if (alg.bot, alg.top) != (lat.bot, lat.top):
        out.append("bounds differ")
    return out


def corrupted_tables(alg) -> list:
    """Copies of a lawful algebra's (le, meet, join, himp) tables with one
    entry broken in each, so that no Heyting algebra has them: top <= bot,
    meet(top, top) = bot, join(bot, bot) = top, himp(top, bot) = top.
    Needs bot != top."""
    b, t = alg.bot, alg.top
    out = []
    for table, i, j, value in ((0, t, b, True), (1, t, t, b), (2, b, b, t),
                               (3, t, b, t)):
        tabs = [[list(r) for r in tab]
                for tab in (alg.le, alg.meet, alg.join, alg.himp)]
        tabs[table][i][j] = value
        out.append(tabs)
    return out


# ---------------------------------------------------------------------------
# Consistent complete pairs and quotients.
# ---------------------------------------------------------------------------


def saturated_pair_problems(universe, start_left, start_right,
                            left, right) -> list:
    """Properties every saturation of a consistent pair over a finite
    universe must have: it partitions the universe, includes the starting
    pair, and its left side is closed under the connective rules."""
    items = set(universe)
    left, right = set(left), set(right)
    out = []
    if left & right:
        out.append(f"{len(left & right)} formulas on both sides")
    if left | right != items:
        out.append("the sides do not cover the universe"
                   if items - (left | right)
                   else "a side holds a formula outside the universe")
    if not (set(start_left) <= left and set(start_right) <= right):
        out.append("the starting pair is not included")
    for phi in left:
        if isinstance(phi, Bottom):
            out.append("bot is on the left")
        elif isinstance(phi, And) and not (phi.lhs in left and phi.rhs in left):
            out.append("a conjunction on the left lacks a conjunct")
        elif isinstance(phi, Or) and phi.lhs in items and phi.rhs in items \
                and phi.lhs not in left and phi.rhs not in left:
            out.append("a disjunction on the left has no disjunct there")
        elif isinstance(phi, Implies) and phi.lhs in left \
                and phi.rhs in items and phi.rhs not in left:
            out.append("the left side is not closed under modus ponens")
    return out


def truth_vectors(models, formulas) -> dict:
    """phi -> its truth set in each model of the family, as a tuple."""
    return {phi: tuple(truth_set(m, phi) for m in models) for phi in formulas}


def quotient_problems(universe, gamma, classes, models, vectors) -> list:
    """Classes partition the universe, and members of one class agree at
    every world that forces gamma, in every model of the family.
    `vectors` holds truth_vectors(models, ...) for the universe and gamma."""
    out = []
    members = [phi for cls in classes for phi in cls]
    if len(members) != len(set(members)) or set(members) != set(universe):
        return ["classes do not partition the universe"]
    for k, model in enumerate(models):
        worlds = (1 << model.worlds) - 1
        for g in gamma:
            worlds &= vectors[g][k]
        for cls in classes:
            first = vectors[cls[0]][k] & worlds
            if any(vectors[phi][k] & worlds != first for phi in cls[1:]):
                return ["two members of one class differ in a model"]
    return out


def pair_countermodel_problems(model, world, left, right) -> list:
    """A countermodel of a pair: `world` forces the left side and none of
    the right side."""
    out = model_problems(model)
    if out:
        return out
    for phi in left:
        if not truth_set(model, phi) >> world & 1:
            return ["a left-side formula is not forced"]
    for phi in right:
        if truth_set(model, phi) >> world & 1:
            return ["a right-side formula is forced"]
    return out
