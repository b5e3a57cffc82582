"""Formula families with known answers, and seeded random formulas.

The named families follow the ILTP style of generated problems (Raths,
Otten & Kreitz, The ILTP Problem Library for Intuitionistic Logic, JAR
2007).  Every formula is built from the iplkit constructors; nothing here
asks the program for an answer.
"""

from __future__ import annotations

import random

from iplkit.formula import BOT, And, Bottom, Implies, Or, Variable, var


def neg(phi):
    return Implies(phi, BOT)


def schwicht_p(n: int):
    """(p0 & (p0 -> p1) & ... & (p(n-1) -> pn)) -> pn; provable."""
    body = var(0)
    for i in range(n):
        body = And(body, Implies(var(i), var(i + 1)))
    return Implies(body, var(n))


def con_p(n: int):
    """~~ of the conjunction of (pi | ~pi) over i < n; provable."""
    body = None
    for i in range(n):
        lem = Or(var(i), neg(var(i)))
        body = lem if body is None else And(body, lem)
    return neg(neg(body))


def bd(n: int):
    """Gabbay-de Jongh bounded-depth axiom: bd_1 = p0 | ~p0 and
    bd_(k+1) = p_k | (p_k -> bd_k).  bd_n fails on the (n+1)-world chain
    and holds on every shorter frame, so it is refutable and needs n+1
    worlds."""
    out = Or(var(0), neg(var(0)))
    for k in range(1, n):
        out = Or(var(k), Implies(var(k), out))
    return out


def _peirce(a, b):
    return Implies(Implies(Implies(a, b), a), a)


def mp_chain(n: int):
    """Premises p0, p0 -> p1, ..., p(n-1) -> pn and the goal pn."""
    gamma = [var(0)] + [Implies(var(i), var(i + 1)) for i in range(n)]
    return gamma, var(n)


def _dm_and(p, q):
    return Implies(neg(And(p, q)), Or(neg(p), neg(q)))


def _ip(p, q, r):
    return Implies(Implies(p, Or(q, r)), Or(Implies(p, q), Implies(p, r)))


def _kp(p, q, r):
    return Implies(Implies(neg(p), Or(q, r)),
                   Or(Implies(neg(p), q), Implies(neg(p), r)))


def provable_family() -> list:
    """(name, premises, goal) for intuitionistic theorems: textbook laws,
    and the double negations of the classical tautologies of
    kripke_family (Glivenko's theorem makes each of them provable)."""
    p0, p1, p2, p3 = var(0), var(1), var(2), var(3)
    out = [(f"schwicht_p({n})", [], schwicht_p(n)) for n in range(1, 9)]
    out += [(f"con_p({n})", [], con_p(n)) for n in (1, 2)]
    out += [(f"mp_chain({n})", *mp_chain(n)) for n in range(1, 9)]
    laws = [
        ("distributivity", Implies(And(p0, Or(p1, p2)),
                                   Or(And(p0, p1), And(p0, p2)))),
        ("distributivity_converse", Implies(Or(And(p0, p1), And(p0, p2)),
                                            And(p0, Or(p1, p2)))),
        ("currying", Implies(Implies(And(p0, p1), p2),
                             Implies(p0, Implies(p1, p2)))),
        ("uncurrying", Implies(Implies(p0, Implies(p1, p2)),
                               Implies(And(p0, p1), p2))),
        ("currying_3", Implies(Implies(And(And(p0, p1), p2), p3),
                               Implies(p0, Implies(p1, Implies(p2, p3))))),
        ("contraposition", Implies(Implies(p0, p1), Implies(neg(p1), neg(p0)))),
        ("triple_negation", Implies(neg(neg(neg(p0))), neg(p0))),
        ("hypothetical_syllogism", Implies(Implies(p0, p1), Implies(
            Implies(p1, p2), Implies(p0, p2)))),
        ("de_morgan_or", Implies(neg(Or(p0, p1)), And(neg(p0), neg(p1)))),
        ("de_morgan_or_converse", Implies(And(neg(p0), neg(p1)),
                                          neg(Or(p0, p1)))),
        ("de_morgan_and_weak", Implies(Or(neg(p0), neg(p1)),
                                       neg(And(p0, p1)))),
        ("lem_gives_dne", Implies(Or(p0, neg(p0)),
                                  Implies(neg(neg(p0)), p0))),
        ("nn_modus_ponens", Implies(neg(neg(Implies(p0, p1))),
                                    Implies(neg(neg(p0)), neg(neg(p1))))),
        ("and_assoc", Implies(And(And(p0, p1), p2), And(p0, And(p1, p2)))),
        ("or_assoc", Implies(Or(Or(p0, p1), p2), Or(p0, Or(p1, p2)))),
        ("or_comm", Implies(Or(p0, p1), Or(p1, p0))),
        ("ex_falso", Implies(And(p0, neg(p0)), p1)),
    ]
    out += [(name, [], phi) for name, phi in laws]
    out += [(f"nn_{name}", [], neg(neg(phi)))
            for name, phi, _ in kripke_family()]
    return out


def kripke_family() -> list:
    """(name, formula, worlds) for classically valid formulas that are not
    intuitionistic theorems.  `worlds` is a lower bound on the size of a
    refuting Kripke model: 2 for every one of them, since a one-world
    model is classical; 3 for Dummett's law and weak excluded middle,
    which hold on every chain; n + 1 for bd_n, which holds on every frame
    of depth at most n."""
    p0, p1, p2 = var(0), var(1), var(2)
    return [
        ("lem", Or(p0, neg(p0)), 2),
        ("dne", Implies(neg(neg(p0)), p0), 2),
        ("peirce", _peirce(p0, p1), 2),
        ("peirce_02", _peirce(p0, p2), 2),
        ("dummett", Or(Implies(p0, p1), Implies(p1, p0)), 3),
        ("weak_lem", Or(neg(p0), neg(neg(p0))), 3),
        ("bd_2", bd(2), 3),
        ("bd_3", bd(3), 4),
        ("kreisel_putnam", _kp(p0, p1, p2), 2),
        ("de_morgan_and", _dm_and(p0, p1), 2),
        ("independence_of_premise", _ip(p0, p1, p2), 2),
    ]


def deep_negation(depth: int):
    """p0 under `depth` nested negations."""
    out = var(0)
    for _ in range(depth):
        out = neg(out)
    return out


def random_formula(rng: random.Random, connectives: int, num_vars: int,
                   max_left=None):
    """A random formula with exactly `connectives` binary connectives over
    p0..p(num_vars-1) (bot appears as a leaf now and then).  With
    `max_left`, no path from the root takes more than that many left
    branches."""
    if connectives == 0:
        if rng.random() < 0.1:
            return BOT
        return var(rng.randrange(num_vars))
    left = 0 if max_left == 0 else rng.randrange(connectives)
    ctor = rng.choice((And, Or, Implies))
    return ctor(random_formula(rng, left, num_vars,
                               None if max_left is None else max_left - 1),
                random_formula(rng, connectives - 1 - left, num_vars,
                               max_left))


def render_full(phi) -> str:
    """Fully parenthesized ASCII text, written apart from iplkit.render."""
    if isinstance(phi, Variable):
        return f"p{phi.var.index}"
    if isinstance(phi, Bottom):
        return "bot"
    sym = {And: "&", Or: "|", Implies: "->"}[type(phi)]
    return f"({render_full(phi.lhs)} {sym} {render_full(phi.rhs)})"


def code_of(phi) -> int:
    """The numeric code the README defines: bot 0, p_i pairing(0, i + 1),
    a connective pairing(pairing(code(lhs), tag), code(rhs)) with tags 1
    (and), 2 (or), 3 (implies); pairing(x, y) = (x+y)(x+y+1) + 2x."""
    def pairing(x, y):
        return (x + y) * (x + y + 1) + 2 * x
    if isinstance(phi, Bottom):
        return 0
    if isinstance(phi, Variable):
        return pairing(0, phi.var.index + 1)
    tag = {And: 1, Or: 2, Implies: 3}[type(phi)]
    return pairing(pairing(code_of(phi.lhs), tag), code_of(phi.rhs))
