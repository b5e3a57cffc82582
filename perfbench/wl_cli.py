"""cli: each operation is one whole `python -m iplkit` process.

The only workload that pays for interpreter start, import, argparse,
JSON output and per-process cold caches, and the one that holds the
exit-code rules of the README's "Command line" section: 0 definitive
positive, 1 definitive negative with a witness, 2 usage or parse error,
3 inconclusive.  At most one child runs at a time.  A child that prints a
traceback has crashed: its operation counts as failed.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from functools import cache

from iplkit.formula import And, Implies, Or, parse, var
from iplkit.kripke import enumerate_models, make_model
from iplkit.theories import Oracle, canonical_universe
from iplkit.proof import proof_to_json

import checkers
import families
import refclock
from wl_algebra import product_le
from workload import Op

CHILD_TIMEOUT_S = 120
HERE = os.path.dirname(os.path.abspath(__file__))


class CliCrash(Exception):
    """The child printed a traceback."""


def child_env(src: str) -> dict:
    """The caller's environment with only the src under test on
    PYTHONPATH and no inherited IPLKIT_BUDGET."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "IPLKIT_BUDGET")}
    env["PYTHONPATH"] = src
    return env


def run_child(ctx, args) -> tuple:
    """(exit code, parsed stdout or None, stderr) of one CLI process.

    The child runs through cli_child.py, which reports the reference
    times it measured inside the process and, in the traced phase, the
    spans of the CLI's own bindings."""
    tracer = ctx.tracer
    traced = tracer is not None and tracer.active
    result_path = os.path.join(ctx.out_dir, "cli_child.json")
    cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), result_path,
           *(["--trace"] if traced else []), *args]
    proc = subprocess.run(cmd, cwd=ctx.root, env=child_env(ctx.src),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    os.remove(result_path)
    refclock.add_inner_refs(*result["refs"])
    if traced:
        tracer.add_child_spans(result)
    if "Traceback (most recent call last)" in proc.stderr:
        raise CliCrash(proc.stderr.strip().splitlines()[-1])
    try:
        payload = _loads(proc.stdout) if proc.stdout.strip() else None
    except json.JSONDecodeError:
        payload = None
    return proc.returncode, payload, proc.stderr


def _loads(text):
    """JSON with integers of any length: a code may have more digits than
    Python turns into an int from text by default."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.loads(text)
    finally:
        sys.set_int_max_str_digits(limit)


def _expect(code, check_payload=None):
    """Check the exit code, then the payload."""
    def check_(out) -> list:
        got, payload, _err = out
        if got != code:
            return [f"exit code {got}, expected {code}"]
        if payload is None:
            return ["no JSON document on stdout"]
        return check_payload(payload) if check_payload else []
    return check_


def _same_text(text, phi) -> list:
    try:
        back = parse(text)
    except ValueError as exc:
        return [f"output does not parse: {exc}"]
    return [] if checkers.same_formula(back, phi) else ["wrong formula"]


def _deep_check(answer):
    """A deep input passes with exit 0 and a payload `answer` accepts, or
    with exit 2 or 3 and a message (a traceback fails before this)."""
    def check_(out) -> list:
        code, payload, err = out
        if code == 0 and payload is not None and answer(payload):
            return []
        if code in (2, 3) and err.strip():
            return []
        return [f"deep input: exit {code} without the contract's outcome"]
    return check_


def _model_of(obj):
    val = {int(k[1:]): ws for k, ws in obj["val"].items()}
    return make_model(obj["worlds"], [tuple(p) for p in obj["rel"]], val)


def _write(path, obj) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)
    return path


def build(seed: int, ctx) -> list:
    rng = random.Random(seed)
    out_dir = ctx.out_dir
    p0, p1, p2 = var(0), var(1), var(2)
    ops = []

    def op(name, args, check_):
        ops.append(Op(name, lambda: run_child(ctx, args), check_))

    for size in (8, 16, 24):
        phi = families.random_formula(rng, size, 3)
        op(f"parse_{size}", ["parse", families.render_full(phi)],
           _expect(0, lambda p, phi=phi: _same_text(p["formula"], phi)))
    deep = "(" * 1200 + "p0" + ")" * 1200
    op("parse_deep", ["parse", deep],
       _deep_check(lambda p: p == {"formula": "p0"}))
    # A connective raises its left operand's code to about the fourth
    # power and squares its right operand's, so the digits grow with the
    # left branches on a path.  With at most four of them a 6-connective
    # code has at most about 2500 digits, below the 4300 digits Python
    # turns into text by default; encode_deep crosses that limit.
    for size in (4, 6):
        phi = families.random_formula(rng, size, 3, max_left=4)
        op(f"encode_{size}", ["encode", families.render_full(phi)],
           _expect(0, lambda p, phi=phi: [] if p["code"] == families.code_of(phi)
                   else ["wrong code"]))
    # Seven left-nested implications: a code of about 13,000 digits.
    phi = Implies(p0, p1)
    for _ in range(6):
        phi = Implies(phi, p1)
    op("encode_deep", ["encode", families.render_full(phi)],
       _deep_check(lambda p, phi=phi: p.get("code") == families.code_of(phi)))
    phi = families.random_formula(rng, 5, 2)
    op("decode", ["decode", str(families.code_of(phi))],
       _expect(0, lambda p, phi=phi: _same_text(p["formula"], phi)))
    # pairing values are even, so an odd number codes no formula
    odd = 2 * rng.randrange(10 ** 6) + 1
    op("decode_absent", ["decode", str(odd)],
       _expect(1, lambda p: [] if p["formula"] is None else ["decoded"]))

    for name, phi in (("countermodel_3vars", Or(Or(Implies(p0, p1),
                                                   Implies(p1, p0)), p2)),
                      ("countermodel_peirce", Implies(Implies(Implies(p0, p1),
                                                              p0), p0))):
        op(name, ["countermodel", families.render_full(phi)],
           _expect(1, lambda p, phi=phi: checkers.countermodel_problems(
               _model_of(p["model"]), p["world"], [], phi)))

    goal = Implies(And(p0, Or(p1, p2)), Or(And(p0, p1), And(p0, p2)))
    proof = proof_to_json(Oracle().provable([], goal).witness)
    good = _write(os.path.join(out_dir, "proof.json"), proof)
    tampered = dict(proof, subproofs=[{"rule": "premise", "formulas": ["p3"],
                                       "subproofs": []}] + proof["subproofs"][1:])
    bad = _write(os.path.join(out_dir, "proof_tampered.json"), tampered)
    op("check_proof", ["check-proof", good],
       _expect(0, lambda p: _same_text(p["conclusion"], goal)))
    op("check_proof_tampered", ["check-proof", bad],
       _expect(1, lambda p: [] if p["checked"] is False else ["accepted"]))

    algebras = {}
    for lengths in ((3, 3), (2, 2, 3), (3, 4)):
        le = product_le(lengths)
        name = "x".join(f"C{n}" for n in lengths)
        algebras[name] = (le, _write(os.path.join(out_dir, f"{name}.json"),
                                     {"size": len(le), "le": le}))
    for name in ("C3xC3", "C2xC2xC3"):
        le, path = algebras[name]
        op(f"prime_filters_{name}", ["prime-filters", path],
           _expect(0, lambda p, le=le: checkers.prime_filters_problems(
               le, p["prime_filters"])))
    # The avoided point and the frame below are fixed: what super-prime
    # and bridge k2a cost depends on them.
    le, path = algebras["C3xC4"]
    top, avoid = len(le) - 1, 0      # in product_le's order

    # Checker data is built on first use, in the untimed checks, so that
    # set-up times only the program's inputs.
    @cache
    def lat():
        return checkers.Lattice(le)

    def super_prime_check(p) -> list:
        problems = lat().prime_filter_problems(p["filter"])
        return problems + (["contains the avoided point"]
                           if avoid in p["filter"] else [])
    op("super_prime", ["super-prime", path, "--filter", str(top),
                       "--avoid", str(avoid)], _expect(0, super_prime_check))

    frame = make_model(4, {(w, w) for w in range(4)}
                       | {(0, 1), (0, 2), (0, 3)}, {})
    model_path = _write(os.path.join(out_dir, "model.json"),
                        {"worlds": frame.worlds,
                         "rel": [list(p) for p in sorted(frame.rel)],
                         "vars": 0, "val": {}})
    op("bridge_k2a", ["bridge", "k2a", model_path],
       _expect(0, lambda p: [] if p["algebra"]["size"] ==
               checkers.count_upsets(frame) else ["wrong number of up-sets"]))

    @cache
    def u21():
        return canonical_universe(2, 1).items

    @cache
    def models2():
        return checkers.small_models([0, 1])

    pairs = [((p0,), (p1,)), ((Implies(p0, p1),), (p1,))]
    for k, (left, right) in enumerate(pairs):
        def pair_check(p, left=left, right=right) -> list:
            final_left = [parse(t) for t in p["left"]]
            final_right = [parse(t) for t in p["right"]]
            problems = checkers.saturated_pair_problems(
                u21(), left, right, final_left, final_right)
            if len(p["trace"]) != len(u21()) + 1:
                problems.append("the trace has the wrong length")
            return problems
        op(f"saturate_pair_{k}",
           ["saturate-pair", "--left", families.render_full(left[0]),
            "--right", families.render_full(right[0]),
            "--vars", "2", "--depth", "1"], _expect(0, pair_check))

    @cache
    def vectors():
        return checkers.truth_vectors(models2(), u21())

    def quotient_check(p) -> list:
        classes = [[parse(t) for t in cls] for cls in p["classes"]]
        return checkers.quotient_problems(u21(), [], classes, models2(),
                                          vectors())
    op("quotient", ["quotient", "--gamma", "", "--vars", "2", "--depth", "1"],
       _expect(0, quotient_check))

    harness_formulas = [Or(p0, families.neg(p0)),
                        Implies(Implies(Implies(p0, p1), p0), p0),
                        Implies(families.BOT, p0)]

    @cache
    def harness_models():
        return list(enumerate_models(2, 1)) + list(enumerate_models(2, 2))

    def harness_check(p) -> list:
        problems = [f"discrepancy: {d}" for d in p["discrepancies"]]
        for entry, phi in zip(p["entries"], harness_formulas):
            valid = all(checkers.truth_set(m, phi) == (1 << m.worlds) - 1
                        for m in harness_models())
            if entry["kripke_valid"] != valid:
                problems.append("harness Kripke validity is wrong")
        return problems
    op("harness", ["harness"] + [a for phi in harness_formulas
                                 for a in ("--formula", families.render_full(phi))],
       _expect(0, harness_check))
    return ops
