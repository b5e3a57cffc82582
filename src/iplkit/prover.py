"""Backward proof search with witness extraction, in two phases.

Phase 1 decides premises |- goal by Dyckhoff's contraction-free G4ip
search (invertible rules first, then backtracking over disjunction
introduction and nested-implication premises), memoizing per sequent the
winning rule, its sub-sequents and the premises it used.  Phase 2 replays
the winning derivation once per query into a proof of goal from the
premises.  At the root each step proves its formula x outright; below an
implication introduction it proves C -> x, where the context C conjoins
the hypotheses introduced on the path, so a discharge costs at most one
Exportation node.  Each formula the derivation uses is a fact, a proof
of f at the root or of C -> f below it, built on first use.  Both phases
are generators that one loop runs on an explicit stack, so the depth
budget, not the interpreter's recursion limit, bounds the search; it is
surfaced as SearchBudgetExceeded so callers can report an inconclusive
verdict instead of a wrong one.  G4ip terminates, so a search that fails
is a refutation: countermodel reads a finite Kripke countermodel off the
failed search's memo.

A whole run of the single-successor invertible left rules is one search
step: one memo entry, whose sub-sequent is the saturated premise set,
and one level of the depth budget.  Disjunction elimination is
invertible too (Dyckhoff 1992), so when the first branch of a split
proves the goal without its disjunct, that branch alone proves the
sequent and the second is never searched.  The replay never composes
with a proof of C -> C: where the formula a step passes on is C itself,
the other operand stands alone.
"""

from __future__ import annotations

from typing import Optional

from .formula import (And, BOT, Bottom, Formula, Implies, Or, Variable,
                      order_key, var, variable_indices)
from .kripke import make_model
from .proof import (ContractionConj, Exfalso, Exportation, Importation,
                    ModusPonens, PermutationConj, Premise, ProofTerm,
                    Syllogism, WeakeningConj, WeakeningDisj, _and_compose,
                    _and_intro, _imp_swap, _or_elim, _s_rule, and_assoc_left,
                    and_elim_right, identity, k_axiom, or_intro_right)

DEFAULT_MAX_DEPTH = 512

# Rules of a phase-1 memo entry (rule, principal premise, sub-sequents,
# used premises).  _LEFT is a run of invertible left rules, each adding
# formulas in place of its premise; its second slot lists (premise, added
# formulas the sub-derivation uses) for each rule that matters, in order.
# _SAME proves a sequent by one sub-sequent when the sub-derivation uses
# nothing that the rules added.
_ID, _EXFALSO, _SAME, _IMP_R, _AND_R, _OR_R1, _OR_R2, _LEFT, _OR_L, \
    _IMP_IMP_L = range(10)


class SearchBudgetExceeded(Exception):
    pass


class Prover:
    """Decision procedure; derivations are memoized per (premises, goal)
    sequent across the queries of one prover, and each proved query gets
    one witness replayed from them."""

    def __init__(self, max_depth: int = DEFAULT_MAX_DEPTH):
        self.max_depth = max_depth
        self._memo: dict = {}
        self._contexts: dict = {}   # (parent, hypothesis) -> child context

    def prove(self, premises, goal: Formula) -> Optional[ProofTerm]:
        """A proof term for premises |- goal, or None if there is none.
        The replay's contexts live in _contexts until it returns."""
        key = (frozenset(premises), goal)
        if self._drive(None, key) is None:
            return None
        root = _Context(None, None, dict.fromkeys(key[0], _PREMISE))
        try:
            return self._drive(root, key)
        finally:
            self._contexts.clear()

    def countermodel(self, premises, goal: Formula) -> Optional[tuple]:
        """(model, 0) for a Kripke model whose world 0 forces the premises
        but not goal, read off the failed search of premises |- goal, or
        None if the sequent is provable (Pinto and Dyckhoff 1995).  Each
        irreducible failed sequent becomes one world that forces exactly
        its atomic premises and sees the worlds of the sequents that
        _refutation lists for it; any other failed sequent takes the
        world of the sequent it passes on to."""
        root = (frozenset(premises), goal)
        if self._drive(None, root) is not None:
            return None
        world: dict = {}        # failed sequent -> its world, in post-order
        prems, ups = [], []     # per world: its premises, the worlds it sees
        stack = [(root, None)]
        while stack:
            key, plan = stack.pop()
            if key in world:
                continue
            if plan is None:
                plan = _refutation(self._memo, key)
                stack += [(key, plan), *((k, None) for k in plan[0])]
                continue
            subs, own = plan
            if not own:
                world[key] = world[subs[0]]
            else:
                world[key] = len(ups)
                prems.append(key[0])
                up = 1 << len(ups)
                for k in subs:
                    up |= ups[world[k]]
                ups.append(up)
        last = len(ups) - 1     # the root's world, renumbered 0
        rel = [(last - i, last - j) for i, up in enumerate(ups)
               for j in range(i + 1) if up >> j & 1]
        val = {v: [last - i for i, prem in enumerate(prems) if var(v) in prem]
               for v in variable_indices([*root[0], goal])}
        return make_model(len(ups), rel, val), 0

    def _drive(self, ctx: Optional["_Context"], key: tuple):
        """The memo entry of one job, run with every job it yields on one
        explicit stack: the search of key when ctx is None, memoized in
        _memo, else the replay of key in ctx, memoized in ctx.built.  A
        new search with max_depth searches on the stack exceeds the
        budget; a memo hit never does."""
        stack = []
        while True:
            table = self._memo if ctx is None else ctx.built
            if key in table:
                value = table[key]
            elif ctx is None and len(stack) >= self.max_depth:
                raise SearchBudgetExceeded(
                    f"proof search exceeded depth {self.max_depth}")
            else:
                job = _search(*key) if ctx is None else self._steps(ctx, key)
                stack.append((job, table, key))
                value = None
            while stack:
                job, table, key = stack[-1]
                try:
                    ctx, key = job.send(value)
                    break
                except StopIteration as done:
                    stack.pop()
                    value = table[key] = done.value
            else:
                return value

    def _steps(self, ctx: "_Context", key: tuple):
        """The last rule of key's derivation in ctx, as a generator that
        yields (context, sub-sequent) for each sub-proof it needs, is sent
        that proof, and returns a proof of goal at the root, of
        ctx.formula -> goal below it."""
        rule, delta, subs, _ = self._memo[key]
        goal, c = key[1], ctx.formula
        if rule == _ID:
            return ctx.fact(goal)
        if rule == _EXFALSO:
            return _then(c, BOT, ctx.fact(BOT), Exfalso(goal))
        if rule == _IMP_R:
            p = yield ctx.child(goal.lhs, self._contexts), subs[0]
            return p if c is None else Exportation(p)
        if rule == _AND_R:
            p = yield ctx, subs[0]
            q = yield ctx, subs[1]
            if c is None:
                return _and_intro(goal.lhs, goal.rhs, p, q)
            return _and_compose(c, goal.lhs, goal.rhs, p, q)
        if rule in (_OR_R1, _OR_R2):
            inject = WeakeningDisj if rule == _OR_R1 else or_intro_right
            return _then(c, subs[0][1], (yield ctx, subs[0]),
                         inject(goal.lhs, goal.rhs))
        if rule == _OR_L:
            a, b = delta.lhs, delta.rhs
            p = yield ctx.child(a, self._contexts), subs[0]
            q = yield ctx.child(b, self._contexts), subs[1]
            if c is None:
                return ModusPonens(ctx.fact(delta), _or_elim(a, b, goal, p, q))
            split = _or_elim(a, b, Implies(c, goal),
                             _swap_out(c, a, p), _swap_out(c, b, q))
            return Syllogism(ContractionConj(c), Importation(
                _then(c, delta, ctx.fact(delta), split)))
        if rule == _IMP_IMP_L and not ctx.provides(delta.rhs):
            # prove inner from inner.rhs -> body, then body from delta
            self._add_facts(ctx, delta, subs[0], key)
            p = yield ctx, subs[0]
            ctx.facts[delta.rhs] = _modus_ponens(c, delta.lhs, delta.rhs, p,
                                                 ctx.fact(delta))
        if rule == _LEFT:
            for d, fs in delta:
                for f in fs:
                    if not ctx.provides(f):
                        ctx.facts[f] = _left_fact(ctx, d, f)
        return (yield ctx, subs[-1])

    def _add_facts(self, ctx: "_Context", delta: Formula, sub: tuple,
                   key: tuple) -> None:
        """Facts for the formulas that the left rule on delta adds and the
        sub-derivation uses, where the chain has none yet."""
        for f in self._memo[sub][3] - key[0]:
            if not ctx.provides(f):
                ctx.facts[f] = _left_fact(ctx, delta, f)


def _search(prem: frozenset, goal: Formula):
    """The phase-1 rule for prem |- goal, as a generator that yields
    (None, sub-sequent) for each sub-derivation it needs, is sent that
    sequent's memo entry, and returns the memo entry of prem |- goal:
    None when it is not provable.  After the axioms and the goal-directed
    rules comes one run of single-successor invertible left rules
    (_saturate), as one step whose sub-sequent is the saturated premise
    set; a saturated sequent splits its first disjunction premise, and
    searches the second branch only when the first uses its disjunct,
    then tries the choice points."""
    if goal in prem:
        return (_ID, None, (), frozenset((goal,)))
    if BOT in prem:
        return (_EXFALSO, None, (), frozenset((BOT,)))

    if isinstance(goal, Implies):
        key = (prem | {goal.lhs}, goal.rhs)
        sub = yield None, key
        if sub is None:
            return None
        return (_IMP_R, None, (key,), sub[3] - {goal.lhs})
    if isinstance(goal, And):
        k1, k2 = (prem, goal.lhs), (prem, goal.rhs)
        s1 = yield None, k1
        if s1 is None:
            return None
        s2 = yield None, k2
        if s2 is None:
            return None
        return (_AND_R, None, (k1, k2), s1[3] | s2[3])

    # invertible premise rules: one run of the single-successor ones,
    # else a split on the first disjunction
    order = sorted(prem, key=order_key)
    run = _saturate(prem, goal, order)
    if run is not None:
        key, steps = run
        sub = yield None, key
        return None if sub is None else _run_entry(key, steps, sub[3])
    for delta in order:
        if isinstance(delta, Or):
            a, b = delta.lhs, delta.rhs
            rest = prem - {delta}
            k1, k2 = (rest | {a}, goal), (rest | {b}, goal)
            s1 = yield None, k1
            if s1 is None:
                return None
            if a in rest or a not in s1[3]:
                return (_SAME, None, (k1,), s1[3])
            s2 = yield None, k2
            if s2 is None:
                return None
            if b in rest or b not in s2[3]:
                return (_SAME, None, (k2,), s2[3])
            return (_OR_L, delta, (k1, k2),
                    (s1[3] - {a}) | (s2[3] - {b}) | {delta})

    # choice points: disjunctive goal, then nested-implication premises
    if isinstance(goal, Or):
        for rule, side in ((_OR_R1, goal.lhs), (_OR_R2, goal.rhs)):
            key = (prem, side)
            sub = yield None, key
            if sub is not None:
                return (rule, None, (key,), sub[3])

    for delta in order:
        if not (isinstance(delta, Implies) and isinstance(delta.lhs, Implies)):
            continue
        inner, body = delta.lhs, delta.rhs
        rest = prem - {delta}
        rep = Implies(inner.rhs, body)
        k1 = (rest | {rep}, inner)
        s1 = yield None, k1
        if s1 is None:
            continue
        k2 = (rest | {body}, goal)
        s2 = yield None, k2
        if s2 is None:
            continue
        if body in rest or body not in s2[3]:
            return (_SAME, None, (k2,), s2[3])
        return (_IMP_IMP_L, delta, (k1, k2),
                (s1[3] & rest) | (s2[3] - {body}) | {delta})
    return None


def _saturate(prem: frozenset, goal: Formula,
              order: list) -> Optional[tuple]:
    """(sub-sequent, steps) for the run of single-successor invertible
    left rules on prem |- goal, or None if no rule applies.  The run walks
    the premises in order, then the formulas its rules add, first in
    first out, appending them to order; an implication whose atomic
    antecedent is absent waits until that atom is added.  It stops once
    no rule applies or the goal or bot is a premise.  steps lists
    (principal premise, formulas it added) in the order the rules applied."""
    cur = prem              # copied once the first rule applies
    waiting: dict = {}      # absent atom -> implications waiting for it
    steps = []
    for delta in order:     # order grows at its end as the loop runs
        new = _adds(delta, cur)
        if new is None:
            if isinstance(delta, Implies) and isinstance(delta.lhs, Variable):
                waiting.setdefault(delta.lhs, []).append(delta)
            continue
        if cur is prem:
            cur = set(prem)
        cur.discard(delta)
        added = [f for f in new if f not in cur]
        cur.update(added)
        order += added
        if waiting:
            for f in added:
                if f in waiting:
                    order += waiting.pop(f)
        steps.append((delta, added))
        if goal in added or BOT in added:
            break
    return ((frozenset(cur), goal), steps) if steps else None


def _run_entry(key: tuple, steps: list, used: frozenset) -> tuple:
    """The memo entry of a run whose sub-sequent key used the premises
    used, from one backward pass over its steps with the rule of a single
    left step: a step matters when the sub-derivation uses a formula it
    added, and then uses its principal premise, and an atomic antecedent,
    in their place."""
    facts, need = [], set(used)
    for delta, added in reversed(steps):
        fs = [f for f in added if f in need]
        if fs:
            need.difference_update(fs)
            need.add(delta)
            if isinstance(delta, Implies) and isinstance(delta.lhs, Variable):
                need.add(delta.lhs)
            facts.append((delta, fs))
    if not facts:
        return (_SAME, None, (key,), used)
    facts.reverse()
    return (_LEFT, tuple(facts), (key,), frozenset(need))


def _refutation(memo: dict, key: tuple) -> tuple:
    """(subs, own) for a failed sequent, read from the search memo by
    replaying _search on it.  own is False when a countermodel of the
    failed sequent subs[0] refutes key too: an invertible rule's failed
    premise (a run of left rules is one such rule), or the failed second
    premise of a nested-implication rule whose first premise was proved.
    Otherwise key is irreducible: its own world sits below countermodels
    of the failed sequents subs, its disjunct goals and the first
    premises of its nested implications."""
    prem, goal = key
    tried, job, value = [], _search(prem, goal), None
    try:
        while True:
            tried.append(job.send(value)[1])
            value = memo[tried[-1]]
    except StopIteration:
        pass
    if isinstance(goal, (Implies, And)) or any(
            isinstance(d, Or) or _adds(d, prem) is not None for d in prem):
        return tried[-1:], False
    for k, after in zip(tried, tried[1:]):
        if memo[k] is not None:
            return [after], False
    return tried, True


def _adds(delta: Formula, prem: frozenset) -> Optional[tuple]:
    """The formulas that the invertible left rule on delta puts in its
    place, or None if no invertible rule applies to it."""
    if isinstance(delta, And):
        return (delta.lhs, delta.rhs)
    if not isinstance(delta, Implies):
        return None
    ante, body = delta.lhs, delta.rhs
    if isinstance(ante, Bottom):
        return ()   # bot -> body carries no information
    if isinstance(ante, Variable):
        return (body,) if ante in prem else None
    if isinstance(ante, And):
        return (Implies(ante.lhs, Implies(ante.rhs, body)),)
    if isinstance(ante, Or):
        return (Implies(ante.lhs, body), Implies(ante.rhs, body))
    return None


def _left_fact(ctx: "_Context", delta: Formula, f: Formula) -> ProofTerm:
    """A proof of f at the root, of ctx.formula -> f below it, for a
    formula f that a left rule on delta adds: a conjunct, the body of an
    implication with an atomic antecedent, or the implication that
    replaces delta's antecedent."""
    c = ctx.formula
    if isinstance(delta, And):
        a, b = delta.lhs, delta.rhs
        part = WeakeningConj(a, b) if f == a else and_elim_right(a, b)
        return _then(c, delta, ctx.fact(delta), part)
    ante, body = delta.lhs, delta.rhs
    if isinstance(ante, Variable):
        return _modus_ponens(c, ante, body, ctx.fact(ante), ctx.fact(delta))
    if isinstance(ante, And):
        if c is None:
            return Exportation(ctx.fact(delta))
        return Exportation(Exportation(Syllogism(
            and_assoc_left(c, ante.lhs, ante.rhs),
            Importation(ctx.fact(delta)))))
    # f is z -> body for a closed proof of z -> ante
    if isinstance(ante, Or):
        inject = WeakeningDisj if f.lhs == ante.lhs else or_intro_right
        closed = inject(ante.lhs, ante.rhs)
    else:
        closed = k_axiom(ante.rhs, ante.lhs)
    if c is None:
        return Syllogism(closed, ctx.fact(delta))
    return _imp_swap(f.lhs, c, body, Syllogism(
        closed, _imp_swap(c, ante, body, ctx.fact(delta))))


# Facts built on first use: a context's own hypothesis, and a premise of
# the query at the root.
_HYP, _PREMISE = object(), object()


class _Context:
    """One hypothesis chain.  The root has no formula (None) and its facts
    are proofs of f from the premises; the formula of a context below it
    is its hypothesis h at depth 1 and And(parent.formula, h) deeper, and
    its facts map a formula f to a proof of formula -> f.  built memoizes
    the replay per sequent.

    A context links to its parent only.  The replay owns its contexts:
    Prover._contexts maps (parent, hypothesis) to the child during one
    prove() call and is emptied when the call returns, so a query leaves
    no reference cycle, and reference counting frees its contexts, facts
    and replay memos then, and its witness when the caller drops it."""

    __slots__ = ("formula", "parent", "facts", "built", "_proj")

    def __init__(self, formula: Optional[Formula], parent, facts: dict):
        self.formula = formula
        self.parent = parent
        self.facts = facts
        self.built: dict = {}
        self._proj = None

    def child(self, hyp: Formula, contexts: dict) -> "_Context":
        """The context below this one whose hypothesis is hyp, made on
        first use and kept in the replay's table contexts."""
        out = contexts.get((self, hyp))
        if out is None:
            formula = hyp if self.formula is None else And(self.formula, hyp)
            out = contexts[self, hyp] = _Context(formula, self, {hyp: _HYP})
        return out

    def provides(self, f: Formula) -> bool:
        ctx = self
        while ctx is not None and f not in ctx.facts:
            ctx = ctx.parent
        return ctx is not None

    def fact(self, f: Formula) -> ProofTerm:
        """The fact for f from the nearest context on the chain that has
        one, weakened down to this one and cached on the way; below a
        context whose formula is f itself, the fact is the projection
        onto it."""
        path = []
        ctx = self
        while f not in ctx.facts:
            path.append(ctx)
            ctx = ctx.parent
        out = ctx.facts[f]
        if out is _HYP:
            out = ctx.facts[f] = identity(f) if ctx.parent.formula is None \
                else and_elim_right(ctx.formula.lhs, f)
        elif out is _PREMISE:
            out = ctx.facts[f] = Premise(f)
        for ctx in reversed(path):
            if ctx.parent.formula is None:
                out = ModusPonens(out, k_axiom(f, ctx.formula))
            else:
                if ctx._proj is None:
                    ctx._proj = WeakeningConj(ctx.formula.lhs,
                                              ctx.formula.rhs)
                out = ctx._proj if f is ctx.formula.lhs \
                    else Syllogism(ctx._proj, out)
            ctx.facts[f] = out
        return out


def _then(c: Optional[Formula], x: Formula, p: ProofTerm,
          q: ProofTerm) -> ProofTerm:
    """From p: x (at the root, c None) or c -> x, and a closed proof q of
    x -> y, a proof of y or of c -> y: q itself when x is c, so that the
    identity a depth-1 context proves its hypothesis by is never composed."""
    if c is None:
        return ModusPonens(p, q)
    return q if x is c else Syllogism(p, q)


def _modus_ponens(c: Optional[Formula], a: Formula, b: Formula,
                  p: ProofTerm, q: ProofTerm) -> ProofTerm:
    """From p: a and q: a -> b at the root (c None), or p: c -> a and
    q: c -> (a -> b) below it, a proof of b or of c -> b.  When a is c,
    q imports to c & c -> b and contraction gives c -> b in three nodes,
    without p."""
    if c is None:
        return ModusPonens(p, q)
    if a is c:
        return Syllogism(ContractionConj(c), Importation(q))
    return _s_rule(c, a, b, p, q)


def _swap_out(c, a, p) -> ProofTerm:
    """From p: c & a -> x, a proof of a -> (c -> x)."""
    return Exportation(Syllogism(PermutationConj(a, c), p))
