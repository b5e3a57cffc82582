"""Batch command-line surface.

Every subcommand writes a single JSON document to stdout.  Exit codes:
0 definitive positive (valid / provable / holds), 1 definitive negative
with a witness in the output, 2 usage or parse error (reported on
stderr), 3 inconclusive within the configured budgets.  Identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from bisect import insort
from importlib import import_module

from .formula import (ParseError, decode, encode, parse, render,
                      variable_indices)

# The library names the handlers use, by home module.  A handler imports
# a module with _need on first use, which binds its names here unless
# already bound, so a wrapper set on this module is the function that runs.
_LIBRARY = {
    "bridge": "closed_set_algebra prime_filter_frame validity_harness",
    "catalog": "standard_algebras",
    "heyting": """algebra_from_json algebra_to_json consequence_over_algebras
        interpret make_interpretation prime_filters super_prime_filter""",
    "kripke": """CountermodelSearchTooLarge _candidate_count _models
        consequence_over_models find_countermodel forces model_from_json
        model_to_json""",
    "lindenbaum": "build_quotient provably_leq",
    "proof": "ProofError check proof_from_json proof_to_json",
    "theories": """Fails Holds Oracle OracleInconclusive Provable
        budget_from_env canonical_universe make_pair saturation_trace""",
}
_HOME = {name: module for module, names in _LIBRARY.items()
         for name in names.split()}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _need(_HOME[name])
    return globals()[name]


def _need(*modules) -> None:
    """Import the modules and bind the names this module uses of them."""
    for module in modules:
        library = import_module(f".{module}", __package__)
        for name in _LIBRARY[module].split():
            globals().setdefault(name, getattr(library, name))


# The most candidate valuations (kripke._candidate_count) that harness
# tries for its default models, the 1- and 2-world models over the
# formulas' variables.  There are 72,353 at 8 variables and 282,339 at 9.
# For a formula that an early model refutes, harness took 1.9-2.4 s and
# 45 MB, and 8.6-9.0 s and 138 MB, on a 2-core machine, nearly all of it
# in enumerating the models: laying out and forcing all 152,035 models
# of 9 variables takes about 0.9 s.  At 10 there are 1,108,649, and time
# and memory grow about fourfold per variable.
MAX_HARNESS_CANDIDATES = 300_000

# The most assignments, the sum of size^k over the algebras for k
# variables, that harness evaluates one formula under.  Over the standard
# ones 2,670,852 at k = 8 (`(p0 & ... & p6) -> p7 | p0` took 5.1 s on a
# 2-core machine, 3.2 s of it in the algebras) and 14,810,256 at 9 (29 s).
MAX_HARNESS_ASSIGNMENTS = 3_000_000

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3


class UsageError(Exception):
    pass


def _parse_formula(text: str):
    try:
        return parse(text)
    except ParseError as exc:
        raise UsageError(f"cannot parse formula {text!r}: {exc}") from exc


def _parse_gamma(text):
    if not text:
        return []
    return [_parse_formula(part.strip()) for part in text.split(",")
            if part.strip()]


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read JSON from {path}: {exc}") from exc


def _load_model(path: str):
    try:
        return model_from_json(_load_json(path))
    except ValueError as exc:
        raise UsageError(f"bad model in {path}: {exc}") from exc


def _load_algebra(path: str):
    try:
        return algebra_from_json(_load_json(path))
    except ValueError as exc:
        raise UsageError(f"bad algebra in {path}: {exc}") from exc


def _parse_assignment(text):
    out = {}
    if not text:
        return out
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key.startswith("p") or not key[1:].isdigit() \
                or not value.isdigit():
            raise UsageError(f"bad assignment entry {part!r}; want p<i>=<elem>")
        out[int(key[1:])] = int(value)
    return out


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (exit code, payload).  A handler first
# imports, with _need, the library modules that it and its helpers use.
# ---------------------------------------------------------------------------


def _cmd_parse(args):
    phi = _parse_formula(args.formula)
    return EXIT_POSITIVE, {"formula": render(phi)}


def _cmd_encode(args):
    phi = _parse_formula(args.formula)
    return EXIT_POSITIVE, {"code": encode(phi)}


def _cmd_decode(args):
    phi = decode(args.code)
    if phi is None:
        return EXIT_NEGATIVE, {"code": args.code, "formula": None}
    return EXIT_POSITIVE, {"code": args.code, "formula": render(phi)}


def _cmd_check_proof(args):
    _need("proof")
    proof_obj = _load_json(args.proof)
    try:
        proof = proof_from_json(proof_obj)
    except ValueError as exc:
        raise UsageError(f"bad proof JSON: {exc}") from exc
    gamma = _parse_gamma(args.gamma)
    try:
        conclusion = check(gamma, proof)
    except ProofError as exc:
        return EXIT_NEGATIVE, {
            "checked": False,
            "error": {"message": str(exc), "path": list(exc.path)},
        }
    return EXIT_POSITIVE, {
        "checked": True,
        "conclusion": render(conclusion),
        "premises": sorted(render(g) for g in gamma),
    }


def _cmd_eval(args):
    _need("kripke")
    model = _load_model(args.model)
    phi = _parse_formula(args.formula)
    value = forces(model, args.world, phi)
    code = EXIT_POSITIVE if value else EXIT_NEGATIVE
    return code, {"world": args.world, "value": value}


def _cmd_valid(args):
    _need("kripke")
    model = _load_model(args.model)
    phi = _parse_formula(args.formula)
    verdict = consequence_over_models([model], [], phi)
    if not verdict.holds:
        return EXIT_NEGATIVE, {"valid": False, "world": verdict.world}
    return EXIT_POSITIVE, {"valid": True, "world": None}


def _cmd_countermodel(args):
    _need("kripke")
    gamma = _parse_gamma(args.gamma)
    phi = _parse_formula(args.formula)
    unknown = {"model": None, "world": None, "max_worlds": args.max_worlds}
    try:
        found = find_countermodel(gamma, phi, args.max_worlds)
    except CountermodelSearchTooLarge as exc:
        unknown["reason"] = str(exc)
        found = None
    if found is None:
        # no countermodel within the bounds: a provable input is answered
        # with its certificate, anything else stays inconclusive
        _need("theories", "proof")
        verdict = Oracle(budget_from_env()).provable(gamma, phi)
        if isinstance(verdict, Provable):
            return EXIT_POSITIVE, dict(unknown,
                                       proof=proof_to_json(verdict.witness))
        return EXIT_UNKNOWN, unknown
    model, world = found
    return EXIT_NEGATIVE, {"model": model_to_json(model), "world": world,
                           "max_worlds": args.max_worlds}


def _cmd_alg_eval(args):
    _need("heyting")
    alg = _load_algebra(args.algebra)
    phi = _parse_formula(args.formula)
    try:
        interp = make_interpretation(alg, _parse_assignment(args.assign))
        element = interpret(interp, phi)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    is_top = element == alg.top
    return (EXIT_POSITIVE if is_top else EXIT_NEGATIVE,
            {"element": element, "top": is_top})


def _cmd_alg_valid(args):
    _need("heyting")
    alg = _load_algebra(args.algebra)
    phi = _parse_formula(args.formula)
    verdict = consequence_over_algebras([alg], [], phi)
    if not verdict.holds:
        witness = {f"p{v}": e for v, e in verdict.assignment}
        return EXIT_NEGATIVE, {"valid": False, "assignment": witness}
    return EXIT_POSITIVE, {"valid": True, "assignment": None}


def _cmd_filters(args):
    _need("heyting")
    alg = _load_algebra(args.algebra)
    return EXIT_POSITIVE, {"filters": [sorted(f) for f in alg.filters]}


def _cmd_prime_filters(args):
    _need("heyting")
    alg = _load_algebra(args.algebra)
    return EXIT_POSITIVE, {
        "prime_filters": [sorted(f) for f in prime_filters(alg)]}


def _cmd_super_prime(args):
    _need("heyting")
    alg = _load_algebra(args.algebra)
    try:
        base = frozenset(int(x) for x in args.filter.split(",") if x.strip())
    except ValueError as exc:
        raise UsageError(f"bad filter element list {args.filter!r}") from exc
    try:
        out = super_prime_filter(alg, base, args.avoid)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return EXIT_POSITIVE, {"filter": sorted(out), "avoids": args.avoid}


def _cmd_bridge_k2a(args):
    _need("kripke", "heyting", "bridge")
    model = _load_model(args.model)
    csa = closed_set_algebra(model)
    return EXIT_POSITIVE, {
        "algebra": algebra_to_json(csa.algebra),
        "closed_sets": [sorted(s) for s in csa.sets],
    }


def _cmd_bridge_a2k(args):
    _need("kripke", "heyting", "bridge")
    alg = _load_algebra(args.algebra)
    try:
        interp = make_interpretation(alg, _parse_assignment(args.assign))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    frame = prime_filter_frame(alg, interp)
    return EXIT_POSITIVE, {
        "model": model_to_json(frame),
        "prime_filters": [sorted(f) for f in prime_filters(alg)],
    }


def _cmd_saturate_pair(args):
    _need("theories")
    oracle = Oracle(budget_from_env())
    universe = canonical_universe(args.vars, args.depth)
    pair = make_pair(_parse_gamma(args.left), _parse_gamma(args.right))
    try:
        trace = saturation_trace(pair, universe, oracle)
    except OracleInconclusive as exc:
        return EXIT_UNKNOWN, {"error": str(exc)}
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    text = [render(f) for f in universe.items]
    # each pair's sides hold those of the pair before it, so a side keeps
    # its universe positions in order by inserting only what it gains
    left, right, steps = [], [], []
    before = make_pair((), ())
    for p in trace:
        for f in p.left - before.left:
            insort(left, universe.code(f))
        for f in p.right - before.right:
            insort(right, universe.code(f))
        before = p
        steps.append({"left": [text[i] for i in left],
                      "right": [text[i] for i in right]})
    return EXIT_POSITIVE, {
        **steps[-1],
        "universe_size": len(universe),
        "trace": steps,
    }


def _cmd_quotient(args):
    _need("theories", "lindenbaum")
    oracle = Oracle(budget_from_env())
    universe = canonical_universe(args.vars, args.depth)
    gamma = _parse_gamma(args.gamma)
    try:
        table = build_quotient(gamma, universe, oracle)
        order = []
        for rep_a in table.representatives:
            row = []
            for rep_b in table.representatives:
                verdict = provably_leq(gamma, rep_a, rep_b, oracle)
                if not isinstance(verdict, (Holds, Fails)):
                    return EXIT_UNKNOWN, {
                        "error": f"class order undecided: {verdict.reason}"}
                row.append(isinstance(verdict, Holds))
            order.append(row)
    except OracleInconclusive as exc:
        return EXIT_UNKNOWN, {"error": str(exc)}
    return EXIT_POSITIVE, {
        "classes": [[render(f) for f in members] for members in table.classes],
        "representatives": [render(f) for f in table.representatives],
        "provable_top": list(table.provable_top),
        "order": order,
    }


def _cmd_universe(args):
    _need("theories")
    universe = canonical_universe(args.vars, args.depth)
    return EXIT_POSITIVE, {
        "items": [render(f) for f in universe.items],
        "codes": [encode(f) for f in universe.items],
    }


def _cmd_harness(args):
    _need("kripke", "heyting", "catalog", "bridge")
    formulas = [_parse_formula(text) for text in args.formula]
    idx = tuple(variable_indices(formulas))
    if not args.model and sum(_candidate_count(len(idx), n)
                              for n in (1, 2)) > MAX_HARNESS_CANDIDATES:
        raise UsageError(
            f"the default models over {len(idx)} variables have more "
            f"than MAX_HARNESS_CANDIDATES = {MAX_HARNESS_CANDIDATES} "
            "candidate valuations; give models with --model")
    algebras = ([_load_algebra(path) for path in args.algebra]
                or list(standard_algebras()))
    k = max(len(variable_indices([phi])) for phi in formulas)
    if sum(alg.size ** k for alg in algebras) > MAX_HARNESS_ASSIGNMENTS:
        raise UsageError(
            f"the algebras have more than MAX_HARNESS_ASSIGNMENTS = "
            f"{MAX_HARNESS_ASSIGNMENTS} assignments of {k} variables; "
            "give smaller algebras with --algebra")
    models = ([_load_model(path) for path in args.model]
              or [m for n in (1, 2) for m in _models(idx, n)])
    report = validity_harness(formulas, models, algebras)
    payload = {
        "entries": [{
            "formula": render(e.formula),
            "kripke_valid": e.kripke_valid,
            "kripke_witness": list(e.kripke_witness) if e.kripke_witness else None,
            "algebra_valid": e.algebra_valid,
            "algebra_witness": (
                [e.algebra_witness[0],
                 {f"p{v}": x for v, x in e.algebra_witness[1]}]
                if e.algebra_witness else None),
            "bridged_algebra_refutes": e.bridged_algebra_refutes,
            "bridged_frame_refutes": e.bridged_frame_refutes,
        } for e in report.entries],
        "discrepancies": report.discrepancies,
    }
    code = EXIT_POSITIVE if not report.discrepancies else EXIT_NEGATIVE
    return code, payload


class _Retry(Exception):
    """A parser of one command met an error."""


class _OneCommandParser(argparse.ArgumentParser):
    """Raises _Retry where ArgumentParser prints its usage and exits."""

    def error(self, message):
        raise _Retry


_FORMULA = ("formula", {})
_GAMMA = ("--gamma", {"default": "", "help": "comma-separated premises"})
_MODEL = ("model", {"help": "model JSON file"})
_ALGEBRA = ("algebra", {"help": "algebra JSON file"})
_VARS = ("--vars", {"type": int, "required": True})
_DEPTH = ("--depth", {"type": int, "required": True,
                      "help": "connective depth bound; atoms have depth 0"})

# command -> (help, handler or table of subcommands, arguments), in the
# order the help lists them; an argument is (name, add_argument keywords)
_COMMANDS = {
    "parse": ("parse a formula and echo its canonical form", _cmd_parse,
              [_FORMULA]),
    "encode": ("numeric code of a formula", _cmd_encode, [_FORMULA]),
    "decode": ("formula of a numeric code, if any", _cmd_decode,
               [("code", {"type": int})]),
    "check-proof": ("check a proof JSON file", _cmd_check_proof,
                    [("proof", {}), _GAMMA]),
    "eval": ("truth of a formula at a world", _cmd_eval,
             [_MODEL, ("world", {"type": int}), _FORMULA]),
    "valid": ("truth of a formula at every world", _cmd_valid,
              [_MODEL, _FORMULA]),
    "countermodel": ("bounded countermodel search", _cmd_countermodel,
                     [_FORMULA, _GAMMA,
                      ("--max-worlds", {"type": int, "default": 4})]),
    "alg-eval": ("algebraic value of a formula", _cmd_alg_eval,
                 [_ALGEBRA, _FORMULA,
                  ("--assign", {"default": "", "help": "e.g. 'p0=1,p1=0'"})]),
    "alg-valid": ("algebraic validity over all assignments", _cmd_alg_valid,
                  [_ALGEBRA, _FORMULA]),
    "filters": ("all filters of an algebra", _cmd_filters,
                [("algebra", {})]),
    "prime-filters": ("all prime filters of an algebra", _cmd_prime_filters,
                      [("algebra", {})]),
    "super-prime": ("prime filter extending a filter and avoiding x",
                    _cmd_super_prime, [
                        ("algebra", {}),
                        ("--filter", {"required": True,
                                      "help": "comma-separated elements"}),
                        ("--avoid", {"type": int, "required": True})]),
    "bridge": ("semantic bridge constructions", {
        "k2a": ("closed-set algebra of a model", _cmd_bridge_k2a,
                [("model", {})]),
        "a2k": ("prime-filter frame of an algebra", _cmd_bridge_a2k,
                [("algebra", {}),
                 ("--assign", {"default": "", "help": "e.g. 'p0=1'"})]),
    }, []),
    "saturate-pair": ("saturate a consistent pair over a universe",
                      _cmd_saturate_pair, [
                          ("--left", {"default": "",
                                      "help": "comma-separated formulas"}),
                          ("--right", {"default": "",
                                       "help": "comma-separated formulas"}),
                          _VARS, _DEPTH]),
    "quotient": ("provable-equivalence quotient of a universe",
                 _cmd_quotient, [_GAMMA, _VARS, _DEPTH]),
    "universe": ("canonical formula universe", _cmd_universe,
                 [_VARS, _DEPTH]),
    "harness": ("cross-check Kripke and algebraic validity", _cmd_harness, [
        ("--formula", {"action": "append", "required": True}),
        ("--model", {"action": "append", "default": [],
                     "help": "model JSON file (repeatable)"}),
        ("--algebra", {"action": "append", "default": [],
                       "help": "algebra JSON file (repeatable)"})]),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The iplkit parser of _COMMANDS; given a command, one with only its
    subparser (and all of that one's subcommands) that raises _Retry
    where the full parser would report an error."""
    top = (_OneCommandParser if command else argparse.ArgumentParser)(
        prog="iplkit",
        description="Intuitionistic propositional logic toolkit. "
                    "The environment variable IPLKIT_BUDGET (e.g. "
                    "'depth=512') sets the oracle's proof search depth.")
    todo = [(top.add_subparsers(dest="command", required=True), _COMMANDS,
             command)]
    while todo:
        sub, commands, only = todo.pop()
        for name, (help_text, target, arguments) in commands.items():
            if only in (None, name):
                p = sub.add_parser(name, help=help_text)
                for flag, options in arguments:
                    p.add_argument(flag, **options)
                if isinstance(target, dict):
                    todo.append((p.add_subparsers(
                        dest="direction", required=True), target, None))
                else:
                    p.set_defaults(handler=target)
    return top


def _parse_args(argv: list) -> argparse.Namespace:
    """argv parsed by a parser with only the subparser of argv[0], when
    that names a command: building one subparser costs a process less
    than building all.  On any error the full parser parses argv again
    and reports it, so output and exit code are the full parser's."""
    if argv[:1] and argv[0] in _COMMANDS:
        try:
            return build_parser(argv[0]).parse_args(argv)
        except _Retry:
            pass
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    # Formula codes are unbounded; argparse and json convert them through
    # str, which Python 3.10.7 and later limit to 4300 digits by default.
    set_digit_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_digit_limit is not None:
        set_digit_limit(0)
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        code, payload = args.handler(args)
        text = json.dumps(payload, indent=2, sort_keys=True)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("input is nested too deeply to process", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
