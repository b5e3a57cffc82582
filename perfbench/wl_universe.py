"""universe: pair saturation and quotients with one Oracle per job.

Here the oracle's cache is reused across many related queries, and most
of the time goes to building witnesses for memoized sub-sequents, the
opposite use of the one in `decide`.  Each operation is one
add_formula_to_pair step, in universe order as saturate_pair takes them,
or one whole build_quotient call.
"""

from __future__ import annotations

import random
from functools import cache

from iplkit.formula import BOT, And, Implies, Or, var
from iplkit.lindenbaum import build_quotient
from iplkit.theories import (Holds, Oracle, add_formula_to_pair,
                             canonical_universe, make_pair, pair_consistent)

import checkers
from workload import Op

U12_PREFIX = 45


def _saturation(name, universe_items, left, right) -> list:
    """One job: a fresh Oracle, then one operation per universe formula."""
    job = {}
    start = make_pair(left, right)
    ops = []
    last = len(universe_items) - 1

    def step(i, phi):
        def run():
            if i == 0:
                job["oracle"] = Oracle()
                job["pair"] = start
            before = job["pair"]
            job["pair"] = add_formula_to_pair(before, phi, job["oracle"])
            return before, job["pair"]
        return run

    def check_step(i, phi):
        def check_(out) -> list:
            before, after = out
            grew_left = after.left == before.left | {phi} and \
                after.right == before.right
            grew_right = after.right == before.right | {phi} and \
                after.left == before.left
            if not (grew_left or grew_right):
                return [f"step {i} did not add the formula to one side"]
            if i < last:
                return []
            return _final_problems(universe_items, start, after, job["oracle"])
        return check_

    for i, phi in enumerate(universe_items):
        ops.append(Op(f"{name}[{i}]", step(i, phi), check_step(i, phi)))
    return ops


def _final_problems(universe_items, start, final, oracle) -> list:
    problems = checkers.saturated_pair_problems(
        universe_items, start.left, start.right, final.left, final.right)
    verdict = pair_consistent(final, oracle)
    if not isinstance(verdict, Holds):
        return problems + ["the final pair has no countermodel"]
    model, world = verdict.evidence
    return problems + checkers.pair_countermodel_problems(
        model, world, final.left, final.right)


def _quotient(name, universe, gamma, models) -> Op:
    """`models` returns the checker's models; they and the truth vectors
    are built on first use in the untimed check, so that set-up times
    only the program's inputs."""
    @cache
    def vectors():
        return checkers.truth_vectors(models(),
                                      list(universe.items) + list(gamma))

    def check_(table) -> list:
        return checkers.quotient_problems(universe.items, gamma,
                                          table.classes, models(), vectors())
    return Op(name, lambda: build_quotient(gamma, universe, Oracle()), check_)


def build(seed: int, ctx) -> list:
    rng = random.Random(seed)
    u31 = canonical_universe(3, 1)
    u21 = canonical_universe(2, 1)
    u12 = canonical_universe(1, 2).items[:U12_PREFIX]
    p0, p1 = var(0), var(1)
    jobs = [_saturation("sat_u31_0", u31.items, [p0], [p1]),
            _saturation("sat_u31_1", u31.items, [], [And(p0, p1)]),
            _saturation("sat_u12_prefix", u12, [], [])]
    pairs = [([p0], [p1]), ([Implies(p0, p1)], [p1]),
             ([Implies(p0, BOT)], [Or(p0, p1)]), ([Or(p0, p1)], [p0])]
    small = [_saturation(f"sat_u21_{k}", u21.items, left, right)
             for k, (left, right) in enumerate(pairs)]
    # Seeded starting pairs moved latency_p50_ms by up to 15% from seed to
    # seed, and a seeded order of all jobs moved peak_rss_mb by 5%, so the
    # seed only orders these four small jobs.
    rng.shuffle(small)
    jobs += small
    models3 = cache(lambda: checkers.small_models([0, 1, 2]))
    for k, gamma in enumerate(([], [p0], [Or(p0, p1)])):
        jobs.append([_quotient(f"quotient_u31_{k}", u31, gamma, models3)])
    return [op for job in jobs for op in job]
