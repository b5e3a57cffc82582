import importlib
import json
import os
import subprocess
import sys
import time

import pytest

import iplkit
from iplkit.cli import (MAX_HARNESS_ASSIGNMENTS, MAX_HARNESS_CANDIDATES,
                        build_parser, main)
from iplkit.formula import And, Implies, Or, neg, render, var
from iplkit.catalog import standard_algebras
from iplkit import heyting
from iplkit.heyting import algebra_to_json, chain
from iplkit.kripke import _candidate_count, model_to_json, make_model
from iplkit.proof import (Syllogism, WeakeningConj, WeakeningDisj, check,
                          proof_from_json, proof_to_json)
from iplkit.theories import Unknown


def rieger_nishimura(n):
    """The n-th formula in one variable of the Rieger-Nishimura ladder:
    p0, ~p0, then N(2k+3) = N(2k+1) | N(2k+2) and
    N(2k+4) = N(2k+3) -> N(2k+1)."""
    odd, even = var(0), neg(var(0))
    for _ in range((n - 1) // 2):
        odd, even = Or(odd, even), Implies(Or(odd, even), odd)
    return odd if n % 2 else even


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def chain2_file(tmp_path):
    model = make_model(2, {(0, 0), (1, 1), (0, 1)}, {0: [1]})
    path = tmp_path / "chain2.json"
    path.write_text(json.dumps(model_to_json(model)))
    return str(path)


@pytest.fixture
def c3_file(tmp_path):
    path = tmp_path / "c3.json"
    path.write_text(json.dumps(algebra_to_json(chain(3))))
    return str(path)


class TestBasics:
    def test_parse(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "p0&p1|p2")
        assert code == 0
        assert json.loads(out) == {"formula": "p0 & p1 | p2"}

    def test_parse_error_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "parse", "p0 &")
        assert code == 2
        assert out == ""
        assert "offset" in err

    def test_encode_bot(self, capsys):
        code, out, _ = run_cli(capsys, "encode", "bot")
        assert code == 0
        assert json.loads(out) == {"code": 0}

    def test_decode_round(self, capsys):
        code, out, _ = run_cli(capsys, "decode", "10")
        assert code == 0
        assert json.loads(out) == {"code": 10, "formula": "bot & bot"}

    def test_decode_absent_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, "decode", "1")
        assert code == 1
        assert json.loads(out) == {"code": 1, "formula": None}


class TestCheckProof:
    def test_weakening_syllogism(self, capsys, tmp_path):
        term = Syllogism(WeakeningConj(var(0), var(1)),
                         WeakeningDisj(var(0), var(2)))
        path = tmp_path / "proof.json"
        path.write_text(json.dumps(proof_to_json(term)))
        code, out, _ = run_cli(capsys, "check-proof", str(path), "--gamma", "")
        assert code == 0
        doc = json.loads(out)
        assert doc["conclusion"] == "p0 & p1 -> p0 | p2"

    def test_failing_proof_exit_1(self, capsys, tmp_path):
        doc = {"rule": "modus_ponens", "formulas": [], "subproofs": [
            {"rule": "premise", "formulas": ["p0"], "subproofs": []},
            {"rule": "exfalso", "formulas": ["p0"], "subproofs": []}]}
        path = tmp_path / "proof.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "check-proof", str(path))
        assert code == 1
        assert json.loads(out)["error"]["path"] == [0]

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "proof.json"
        path.write_text("{\"rule\": \"cut\"}")
        code, _, err = run_cli(capsys, "check-proof", str(path))
        assert code == 2 and "cut" in err


class TestMalformedInput:
    """Input JSON with members of the wrong type is a usage error."""

    @pytest.mark.parametrize("command,doc,rest", [
        ("check-proof", {"rule": "premise", "formulas": [5],
                         "subproofs": []}, []),
        ("check-proof", {"rule": ["x"], "formulas": [], "subproofs": []}, []),
        ("eval", {"worlds": 2, "rel": [], "vars": 1, "val": {"p0": 5}},
         ["0", "p0"]),
        ("alg-valid", {"size": 2, "le": 5}, ["p0"]),
        ("alg-valid", {"size": 1, "le": [[True]], "meet": [[0]],
                       "join": [[0]]}, ["p0"]),
        # containers of the wrong type, which iterating them would accept
        ("alg-valid", {"size": 1, "le": "x"}, ["p0"]),
        ("check-proof", {"rule": "premise", "formulas": {"p0": 1},
                         "subproofs": []}, []),
        ("eval", {"worlds": 2, "rel": [], "vars": 1, "val": {"p0": "01"}},
         ["0", "p0"]),
        # scalars that int() would coerce: strings, booleans, floats
        ("eval", {"worlds": "2", "rel": [], "vars": True, "val": {}},
         ["0", "p0"]),
        ("eval", {"worlds": 1.5, "rel": [], "vars": 1, "val": {}},
         ["0", "p0"]),
        ("eval", {"rel": [], "vars": 1, "val": {}}, ["0", "p0"]),
        ("alg-valid", {"size": 1.9, "le": [[True]]}, ["p0"]),
        ("alg-valid", {"size": "1", "le": [[True]]}, ["p0"]),
        ("alg-valid", {"size": 1, "le": [[True]], "meet": [[0]],
                       "join": [[0]], "bot": False, "top": 0}, ["p0"]),
        ("alg-valid", {"size": 1, "le": [[True]], "top": 0.0}, ["p0"]),
        # past the size caps, beyond which the closure or the valuation
        # of a 60-byte file could exhaust memory
        ("valid", {"worlds": 1_000_000, "rel": [], "vars": 1, "val": {}},
         ["p0"]),
        ("valid", {"worlds": 1, "rel": [], "vars": 100_000_000, "val": {}},
         ["p0"]),
        ("alg-valid", {"size": 1, "le": [[True]], "meet": [[False]],
                       "join": [[0]], "bot": 0, "top": 0}, ["p0"]),
        # a lone meet table that is not the order's meet
        ("alg-valid", {"size": 2, "le": [[True, True], [False, True]],
                       "meet": [[1, 1], [1, 1]]}, ["p0"]),
        # a negative variable count, which once loaded with no variables
        ("eval", {"worlds": 1, "vars": -3}, ["0", "p0"]),
    ])
    def test_exit_2(self, capsys, tmp_path, command, doc, rest):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, str(path), *rest)
        assert code == 2
        assert out == ""
        assert err.strip() and "Traceback" not in err

    def test_pair_out_of_range_names_the_input_pair(self, capsys, tmp_path):
        doc = {"worlds": 2, "rel": [[0, 1_000_000 + i] for i in range(5000)]}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "eval", str(path), "0", "p0")
        assert (code, out) == (2, "")
        assert err == (f"bad model in {path}: relation pair (0, 1000000) "
                       "out of range\n")

    def test_meet_out_of_range_without_himp(self, capsys, tmp_path):
        # himp_from_order would index the order table with the entry
        doc = {"size": 2, "le": [[True, True], [False, True]],
               "meet": [[0, 9], [0, 1]], "join": [[0, 1], [1, 1]],
               "bot": 0, "top": 1}
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "alg-valid", str(path), "p0")
        assert (code, out) == (2, "")
        assert err == (f"bad algebra in {path}: operation table entry out "
                       "of range\n")


# the product of the chains C2 and C3, elements in lexicographic order
C2C3 = [(a, b) for a in range(2) for b in range(3)]


def c2c3_table(op) -> list:
    return [[C2C3.index((op(a, c), op(b, d))) for c, d in C2C3]
            for a, b in C2C3]


class TestDeclaredMeetWithoutHimp:
    """An algebra given with meet and join but no himp gets the himp
    that himp_from_order derives from the declared meet: looked up when
    the meet is the order's, else summed from the meet table, with the
    himp or the error that the summed residuals always gave."""

    HIMP = ((5, 5, 5, 5, 5, 5), (3, 5, 5, 3, 5, 5), (3, 4, 5, 3, 4, 5),
            (2, 2, 2, 5, 5, 5), (0, 2, 2, 3, 5, 5), (0, 1, 2, 3, 4, 5))

    def doc(self, cell=None, value=None) -> dict:
        meet = c2c3_table(min)
        if cell is not None:
            meet[cell[0]][cell[1]] = value
        le = [[a <= c and b <= d for c, d in C2C3] for a, b in C2C3]
        return {"size": 6, "le": le, "meet": meet, "join": c2c3_table(max),
                "bot": 0, "top": 5}

    def test_lawful_meet_is_looked_up(self, capsys, tmp_path, monkeypatch):
        calls = []
        rows = heyting._himp_rows
        monkeypatch.setattr(heyting, "_himp_rows",
                            lambda *args: calls.append(1) or rows(*args))
        assert heyting.algebra_from_json(self.doc()).himp == self.HIMP
        assert calls == [1]
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(self.doc()))
        code, out, err = run_cli(capsys, "alg-valid", str(path), "p0 | ~p0")
        assert (code, json.loads(out), err) == (
            1, {"valid": False, "assignment": {"p0": 1}}, "")

    @pytest.mark.parametrize("cell,value,message", [
        ((1, 2), 5, "not a Heyting algebra: Violation(kind='meet_lower_bound'"
                    ", witness=(1, 2))"),
        ((4, 4), 0, "no relative pseudocomplement for (4, 1)"),
        ((5, 3), 5, "no relative pseudocomplement for (3, 3)"),
    ])
    def test_bogus_meet_exit_2(self, capsys, tmp_path, cell, value, message):
        with pytest.raises(ValueError) as info:
            heyting.algebra_from_json(self.doc(cell, value))
        assert str(info.value) == message
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(self.doc(cell, value)))
        code, out, err = run_cli(capsys, "alg-valid", str(path), "p0 | ~p0")
        assert (code, out) == (2, "")
        assert err == f"bad algebra in {path}: {message}\n"


def modus_ponens_chain_json(n: int) -> str:
    """The proof JSON of p_n from p0 and p_i -> p_(i+1) for i < n, n
    modus ponens steps deep, written as text: json.dumps recurses."""
    def premise(text):
        return ('{"rule": "premise", "formulas": ["' + text +
                '"], "subproofs": []}')
    opens = ['{"rule": "modus_ponens", "formulas": [], "subproofs": ['] * n
    closes = [f", {premise(f'p{i} -> p{i + 1}')}]}}" for i in range(n)]
    return "".join(opens) + premise("p0") + "".join(closes)


class TestDeepProofs:
    """A provable input whose proof is deep is answered with exit 0.  The
    proof JSON is a tree, as deep as the proof, and json recurses on it;
    these pass once proofs are written as a table of nodes."""

    @pytest.mark.xfail(strict=True, reason="json.dumps recurses on the "
                       "proof tree and the command exits 2")
    def test_countermodel_prints_a_deep_proof(self, capsys):
        body = var(0)
        for i in range(256):
            body = And(body, Implies(var(i), var(i + 1)))
        code, out, _ = run_cli(capsys, "countermodel",
                               render(Implies(body, var(256))))
        assert code == 0 and json.loads(out)["proof"]

    @pytest.mark.xfail(strict=True, reason="json.load recurses on the "
                       "proof tree and the command exits 2")
    def test_check_proof_reads_a_deep_proof(self, capsys, tmp_path):
        path = tmp_path / "proof.json"
        path.write_text(modus_ponens_chain_json(3000))
        gamma = ",".join(["p0"] + [f"p{i} -> p{i + 1}" for i in range(3000)])
        code, out, _ = run_cli(capsys, "check-proof", str(path),
                               "--gamma", gamma)
        assert code == 0 and json.loads(out)["conclusion"] == "p3000"


class TestModelCommands:
    def test_eval_true(self, capsys, chain2_file):
        code, out, _ = run_cli(capsys, "eval", chain2_file, "1", "p0")
        assert code == 0 and json.loads(out)["value"] is True

    def test_eval_false(self, capsys, chain2_file):
        code, out, _ = run_cli(capsys, "eval", chain2_file, "0", "p0 | ~p0")
        assert code == 1 and json.loads(out)["value"] is False

    def test_valid(self, capsys, chain2_file):
        code, out, _ = run_cli(capsys, "valid", chain2_file, "p0 -> p0")
        assert code == 0 and json.loads(out)["valid"] is True
        code, out, _ = run_cli(capsys, "valid", chain2_file, "p0 | ~p0")
        assert code == 1
        assert json.loads(out) == {"valid": False, "world": 0}

    def test_countermodel_found(self, capsys):
        code, out, _ = run_cli(capsys, "countermodel", "p0 | ~p0",
                               "--max-worlds", "2")
        assert code == 1
        doc = json.loads(out)
        assert doc["world"] == 0
        assert doc["model"]["worlds"] == 2
        assert doc["model"]["val"] == {"p0": [1]}

    def test_countermodel_absent_exit_3(self, capsys):
        # refutable, but every countermodel has three or more worlds
        code, out, _ = run_cli(capsys, "countermodel", "~p0 | ~~p0",
                               "--max-worlds", "2")
        assert code == 3
        assert json.loads(out) == {"model": None, "world": None,
                                   "max_worlds": 2}

    @pytest.mark.parametrize("max_worlds", ["4", "7"])
    def test_countermodel_of_provable_input_exit_0(self, capsys, max_worlds):
        # at 7 worlds the search stops at its frame cap first
        code, out, _ = run_cli(capsys, "countermodel", "p1 -> p0",
                               "--gamma", "p0", "--max-worlds", max_worlds)
        assert code == 0
        doc = json.loads(out)
        assert doc["model"] is None and doc["world"] is None
        assert ("reason" in doc) == (max_worlds == "7")
        proof = proof_from_json(doc["proof"])
        assert check([var(0)], proof) == Implies(var(1), var(0))

    def test_countermodel_past_the_cap_exit_3(self, capsys):
        # 2^18 valuations on one world are past the search's fixed cap
        lem = " & ".join(f"(p{i} -> p{i})" for i in range(1, 18))
        code, out, _ = run_cli(capsys, "countermodel", lem + " & (p0 | ~p0)",
                               "--max-worlds", "4")
        assert code == 3
        doc = json.loads(out)
        assert doc["model"] is None
        assert doc["reason"].startswith(
            "countermodel search stopped at world count 1 of 4: 18 variables "
            "exceed MAX_COUNTERMODEL_VALUATIONS = ")

    def test_countermodel_past_the_frame_cap_exit_3(self, capsys):
        # 6 worlds have more labeled preorders than the cap, so the search
        # stops there instead of building them; the formula is refutable,
        # but by no model of 5 or fewer worlds
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "countermodel",
                               render(rieger_nishimura(11)),
                               "--max-worlds", "7")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert json.loads(out)["reason"].startswith(
            "countermodel search stopped at world count 6 of 7: its labeled "
            "preorders exceed MAX_COUNTERMODEL_VALUATIONS = ")

    def test_countermodel_with_gamma(self, capsys):
        code, out, _ = run_cli(capsys, "countermodel", "p1", "--gamma", "p0",
                               "--max-worlds", "1")
        assert code == 1


class TestAlgebraCommands:
    def test_alg_eval(self, capsys, c3_file):
        code, out, _ = run_cli(capsys, "alg-eval", c3_file, "p0 | ~p0",
                               "--assign", "p0=1")
        assert code == 1
        assert json.loads(out) == {"element": 1, "top": False}

    def test_alg_valid(self, capsys, c3_file):
        code, out, _ = run_cli(capsys, "alg-valid", c3_file, "p0 -> p0")
        assert code == 0
        code, out, _ = run_cli(capsys, "alg-valid", c3_file, "p0 | ~p0")
        assert code == 1
        assert json.loads(out)["assignment"] == {"p0": 1}

    def test_filters(self, capsys, c3_file):
        code, out, _ = run_cli(capsys, "filters", c3_file)
        assert code == 0
        assert json.loads(out)["filters"] == [[2], [1, 2], [0, 1, 2]]

    def test_prime_filters(self, capsys, c3_file):
        code, out, _ = run_cli(capsys, "prime-filters", c3_file)
        assert code == 0
        assert json.loads(out)["prime_filters"] == [[2], [1, 2]]

    def test_super_prime(self, capsys, c3_file):
        code, out, _ = run_cli(capsys, "super-prime", c3_file,
                               "--filter", "2", "--avoid", "1")
        assert code == 0
        assert json.loads(out)["filter"] == [2]

    def test_super_prime_bad_precondition(self, capsys, c3_file):
        code, _, err = run_cli(capsys, "super-prime", c3_file,
                               "--filter", "2", "--avoid", "2")
        assert code == 2 and "outside" in err

    @pytest.mark.parametrize("flt, avoid, message", [
        ("99", "0", "filter element 99 is not an element"),
        ("2", "99", "avoided point 99 is not an element"),
        ("2", "-1", "avoided point -1 is not an element"),
    ])
    def test_super_prime_point_outside_the_algebra(self, capsys, c3_file,
                                                   flt, avoid, message):
        code, out, err = run_cli(capsys, "super-prime", c3_file,
                                 "--filter", flt, "--avoid", avoid)
        assert code == 2 and out == "" and message in err


class TestBridgeCommands:
    def test_k2a(self, capsys, chain2_file):
        code, out, _ = run_cli(capsys, "bridge", "k2a", chain2_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["algebra"]["size"] == 3
        assert doc["closed_sets"] == [[], [1], [0, 1]]

    def test_k2a_on_a_long_chain(self, capsys, tmp_path):
        # 101 up-sets among 2^100 world sets, which a scan cannot visit
        path = tmp_path / "chain100.json"
        path.write_text(json.dumps(
            {"worlds": 100, "rel": [[w, w + 1] for w in range(99)]}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "bridge", "k2a", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 0, err
        doc = json.loads(out)
        assert doc["algebra"]["size"] == 101
        assert doc["closed_sets"][:3] == [[], [99], [98, 99]]

    def test_k2a_past_the_closed_set_cap(self, capsys, tmp_path):
        # all 4,096 world sets of a 12-world antichain are closed
        path = tmp_path / "antichain12.json"
        path.write_text(json.dumps({"worlds": 12, "rel": []}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "bridge", "k2a", str(path))
        assert time.perf_counter() - start < 2.0
        assert code == 2 and out == ""
        assert err.strip() == "more than MAX_CLOSED_SETS = 512 up-closed " \
            "world sets"

    def test_a2k(self, capsys, c3_file):
        code, out, _ = run_cli(capsys, "bridge", "a2k", c3_file,
                               "--assign", "p0=1")
        assert code == 0
        doc = json.loads(out)
        assert doc["model"]["worlds"] == 2
        assert doc["model"]["val"] == {"p0": [1]}


class TestPipelines:
    def test_universe(self, capsys):
        code, out, _ = run_cli(capsys, "universe", "--vars", "0",
                               "--depth", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["items"] == ["bot", "bot & bot", "bot | bot", "bot -> bot"]
        assert doc["codes"] == sorted(doc["codes"])

    def test_saturate_pair(self, capsys):
        code, out, _ = run_cli(capsys, "saturate-pair", "--left", "p0",
                               "--right", "p1", "--vars", "2", "--depth", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["left"] == ["p0"]
        assert doc["right"] == ["bot", "p1"]
        assert len(doc["trace"]) == 4

    def test_saturate_pair_rejects_inconsistent(self, capsys):
        code, _, err = run_cli(capsys, "saturate-pair", "--left", "bot",
                               "--right", "", "--vars", "0", "--depth", "0")
        assert code == 2

    def test_saturate_pair_outside_the_universe(self, capsys):
        code, out, err = run_cli(capsys, "saturate-pair", "--left", "p5",
                                 "--vars", "1", "--depth", "1")
        assert code == 2
        assert out == "" and "subsets of the universe" in err

    def test_quotient(self, capsys):
        code, out, _ = run_cli(capsys, "quotient", "--vars", "0",
                               "--depth", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["classes"] == [["bot", "bot & bot", "bot | bot"],
                                  ["bot -> bot"]]
        assert doc["provable_top"] == [False, True]
        assert doc["order"] == [[True, True], [False, True]]

    def test_quotient_undecided_names_the_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("IPLKIT_BUDGET", "depth=1")
        code, out, _ = run_cli(capsys, "quotient", "--vars", "1",
                               "--depth", "1")
        assert code == 3
        assert json.loads(out) == {
            "error": "equivalence of bot & bot and bot undecided: proof "
                     "search depth budget exhausted (depth=1)"}

    def test_quotient_class_order_undecided(self, capsys, monkeypatch):
        monkeypatch.setattr(iplkit.cli, "provably_leq",
                            lambda *args: Unknown("stub reason"))
        code, out, _ = run_cli(capsys, "quotient", "--vars", "0",
                               "--depth", "1")
        assert code == 3
        assert json.loads(out) == {
            "error": "class order undecided: stub reason"}

    def test_harness_clean(self, capsys):
        code, out, _ = run_cli(capsys, "harness", "--formula", "p0 | ~p0",
                               "--formula", "bot -> p0")
        assert code == 0
        doc = json.loads(out)
        assert doc["discrepancies"] == []
        lem, exf = doc["entries"]
        assert not lem["kripke_valid"] and not lem["algebra_valid"]
        assert lem["bridged_algebra_refutes"] and lem["bridged_frame_refutes"]
        assert exf["kripke_valid"] and exf["algebra_valid"]

    def test_harness_default_models_are_capped(self, capsys):
        def formulas(k):
            return [a for i in range(k) for a in ("--formula", f"p{i}")]
        code, out, err = run_cli(capsys, "harness", *formulas(2))
        assert code == 0, err
        assert len(json.loads(out)["entries"]) == 2
        # nine variables stay under the cap (they run in about 8 s)
        def candidates(k):
            return sum(_candidate_count(k, n) for n in (1, 2))
        assert candidates(9) <= MAX_HARNESS_CANDIDATES < candidates(10)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "harness", *formulas(10))
        assert time.perf_counter() - start < 2.0
        assert code == 2 and out == ""
        assert "give models with --model" in err

    def test_harness_algebras_are_capped(self, capsys):
        """Nine variables pass the cap on the default models but not the
        one on the assignments over the standard algebras; eight pass
        both."""
        def assignments(k):
            return sum(alg.size ** k for alg in standard_algebras())
        assert assignments(8) <= MAX_HARNESS_ASSIGNMENTS < assignments(9)
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "harness", "--formula",
            "(p0 & p1 & p2 & p3 & p4 & p5 & p6 & p7) -> p8 | p0")
        assert time.perf_counter() - start < 2.0
        assert code == 2 and out == ""
        assert "MAX_HARNESS_ASSIGNMENTS" in err and "--algebra" in err


# the directory that holds the iplkit package this suite imported
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(iplkit.__file__)))


def child_env(budget=None):
    """Environment for a `python -m iplkit` child process.

    The child imports the same iplkit as this suite, whether that is
    installed or only on PYTHONPATH.  An IPLKIT_BUDGET inherited from the
    caller's shell is dropped; `budget` sets one explicitly.
    """
    env = dict(os.environ)
    env.pop("IPLKIT_BUDGET", None)
    if budget is not None:
        env["IPLKIT_BUDGET"] = budget
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return env


class TestDeterminism:
    def run_child(self, *argv, budget=None):
        return subprocess.run([sys.executable, "-m", "iplkit", *argv],
                              capture_output=True, env=child_env(budget))

    def run_bytes(self, *argv):
        out = self.run_child(*argv)
        return out.returncode, out.stdout

    def test_byte_identical_runs(self):
        for argv in (["countermodel", "p0 | ~p0", "--max-worlds", "2"],
                     ["universe", "--vars", "1", "--depth", "1"],
                     ["quotient", "--vars", "0", "--depth", "1"]):
            first = self.run_bytes(*argv)
            second = self.run_bytes(*argv)
            assert first == second

    def test_output_is_json_for_non_usage_exits(self):
        code, out = self.run_bytes("countermodel", "~p0 | ~~p0",
                                   "--max-worlds", "2")
        assert code == 3
        json.loads(out)

    def test_budget_env_applies(self):
        argv = ("saturate-pair", "--vars", "1", "--depth", "1")
        out = self.run_child(*argv, budget="depth=1")
        assert out.returncode == 3, out.stderr.decode()
        assert "depth budget exhausted (depth=1)" in \
            json.loads(out.stdout)["error"]
        # control: the default depth budget saturates the pair
        control = self.run_child(*argv)
        assert control.returncode == 0, control.stderr.decode()
        # the oracle has no worlds budget any more
        stale = self.run_child(*argv, budget="worlds=1")
        assert stale.returncode == 2
        assert stale.stdout == b"" and b"IPLKIT_BUDGET" in stale.stderr


class TestUniverseSizes:
    """The universe commands reject a negative size, and a universe past
    theories.MAX_UNIVERSE before building it, as usage errors."""

    @pytest.mark.parametrize("argv", [
        ["saturate-pair", "--vars", "1", "--depth", "-1"],
        ["quotient", "--vars", "-1", "--depth", "1"],
        ["universe", "--vars", "-3", "--depth", "0"],
        ["universe", "--vars", "3", "--depth", "3"],
        ["saturate-pair", "--vars", "2", "--depth", "3"],
        ["quotient", "--vars", "7", "--depth", "2"],
    ])
    def test_exit_2(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.strip() and "Traceback" not in err


def run_module(*argv):
    """A `python -m iplkit` child: its own interpreter, with its defaults."""
    return subprocess.run([sys.executable, "-m", "iplkit", *argv],
                          capture_output=True, text=True, env=child_env())


class TestLargeInputs:
    def test_encode_code_over_4300_digits_round_trips(self):
        formula = "((((((p0 -> p1) -> p1) -> p1) -> p1) -> p1) -> p1) -> p1"
        out = run_module("encode", formula)
        assert out.returncode == 0, out.stderr
        # parse_int=str: this interpreter still has the default limit
        code = json.loads(out.stdout, parse_int=str)["code"]
        assert len(code) > 4300
        back = run_module("decode", code)
        assert back.returncode == 0, back.stderr
        assert json.loads(back.stdout, parse_int=str)["formula"] == formula

    @pytest.mark.parametrize("text,formula", [
        ("(" * 1200 + "p0" + ")" * 1200, "p0"),
        ("~" * 1200 + "p0", "(" * 1199 + "p0 -> bot" + ") -> bot" * 1199),
    ], ids=["parentheses", "negations"])
    def test_deep_input_parses(self, capsys, text, formula):
        code, out, err = run_cli(capsys, "parse", text)
        assert code == 0, err
        assert json.loads(out) == {"formula": formula}

    def test_too_deep_encode_is_a_usage_error(self, capsys):
        # encode recurses once per connective: each level doubles the
        # code's bits, so no formula this deep has a computable code
        code, out, err = run_cli(capsys, "encode", "~" * 1200 + "p0")
        assert code == 2
        assert out == ""
        assert err.strip() == "input is nested too deeply to process"


# Every name that iplkit/__init__.py imported from its modules before the
# package imported lazily, by home module.
PUBLIC_NAMES = {
    "formula": """And BOT Bottom Formula Implies Or TOP Var Variable
        all_formulas decode depth encode iff neg order_key pairing parse
        render subformulas unpairing var variable_indices variables""",
    "proof": """CATALOG ProofTerm check deduction_theorem derived
        infer_conclusion proof_from_json proof_to_json weaken""",
    "kripke": """CountermodelSearchTooLarge KripkeModel
        consequence_over_models enumerate_models find_countermodel
        first_refutation forces forces_all forcing_is_monotone make_model
        model_from_json model_to_json truth_mask valid_in_model
        validate_model""",
    "heyting": """FiniteHeytingAlgebra Interpretation algebra_from_json
        algebra_from_le algebra_to_json chain consequence_over_algebras
        generated_filter himp_from_order himp_not_mem_check interpret
        is_filter is_prime_filter is_proper_filter join_bound_witness
        make_algebra make_interpretation meet_bound_witness
        prime_filter_avoiding prime_filters prime_intersection
        product_algebra super_prime_filter true_in_algebra valid_in_algebra
        validate_algebra""",
    "theories": """Budget Fails FormulaPair FormulaUniverse Holds Oracle
        OracleInconclusive Provable Refuted Unknown add_formula_to_pair
        budget_from_env canonical_universe conj_fold disj_fold
        family_increasing_check is_consistent is_ded_closed is_disjunctive
        make_pair make_universe pair_consistent saturate_pair
        saturation_trace""",
    "lindenbaum": """OutOfUniverse QuotientTable build_quotient class_of
        provably_equivalent provably_leq quotient_ops_well_defined
        truth_matches_provability""",
    "bridge": """ClosedSetAlgebra HarnessReport algebra_model_agreement
        algebras_isomorphic closed_set_algebra closed_sets
        model_algebra_agreement models_isomorphic prime_filter_frame
        truth_set validity_harness""",
    "catalog": "chain_model fork_model identity_model standard_algebras",
}
# The eager imports also bound each module, and theories' import of the
# prover bound that one, so a star import brought the modules in too.
SUBMODULES = [*PUBLIC_NAMES, "prover"]

# Runs iplkit.cli.main on the arguments with its output discarded, then
# prints the iplkit modules the process has loaded.
DIET_CHILD = """
import contextlib, io, json, sys
import iplkit.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        iplkit.cli.main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("iplkit"))))
"""


def loaded_modules(*argv) -> set:
    out = subprocess.run([sys.executable, "-c", DIET_CHILD, *argv],
                         capture_output=True, text=True, env=child_env(),
                         check=True)
    return {m.removeprefix("iplkit.") for m in json.loads(out.stdout)}


class TestLazyImports:
    def test_importing_the_cli_loads_only_formula(self):
        assert loaded_modules() == {"iplkit", "cli", "formula"}

    def test_parse_leaves_the_library_unloaded(self):
        left_out = {"proof", "prover", "theories", "kripke", "heyting",
                    "bridge", "lindenbaum", "catalog"}
        assert not loaded_modules("parse", "p0") & left_out

    def test_check_proof_loads_only_the_kernel(self, tmp_path):
        path = tmp_path / "proof.json"
        path.write_text(json.dumps(proof_to_json(
            WeakeningConj(var(0), var(1)))))
        loaded = loaded_modules("check-proof", str(path))
        assert "proof" in loaded
        assert not loaded & {"theories", "prover", "heyting", "bridge"}

    @pytest.mark.parametrize("module", PUBLIC_NAMES)
    def test_public_names_are_their_modules_objects(self, module):
        home = importlib.import_module(f"iplkit.{module}")
        for name in PUBLIC_NAMES[module].split():
            assert getattr(iplkit, name) is getattr(home, name), name

    def test_all_dir_and_star_import_list_the_same_names(self):
        names = {n for text in PUBLIC_NAMES.values() for n in text.split()}
        public = names | set(SUBMODULES)
        assert sorted(iplkit.__all__) == sorted(public)
        assert public <= set(dir(iplkit))
        assert {"__version__", "__doc__"} <= set(dir(iplkit))
        namespace = {}
        exec("from iplkit import *", namespace)
        assert set(namespace) - {"__builtins__"} == public
        for module in SUBMODULES:
            assert namespace[module] is \
                importlib.import_module(f"iplkit.{module}")

    def test_unknown_names_raise_attribute_error(self):
        for owner in (iplkit, iplkit.cli):
            with pytest.raises(AttributeError):
                owner.no_such_name


class TestTracedBindings:
    """A wrapper set on iplkit.cli, as the benchmark's tracer sets one, is
    the function that the subcommand runs."""

    @pytest.mark.parametrize("name,argv", [
        ("parse", ["parse", "p0"]),
        ("encode", ["encode", "p0"]),
        ("check", ["check-proof", "{proof}"]),
        ("find_countermodel", ["countermodel", "p0 | ~p0",
                               "--max-worlds", "2"]),
        ("build_quotient", ["quotient", "--vars", "1", "--depth", "0"]),
        ("prime_filters", ["prime-filters", "{algebra}"]),
        ("super_prime_filter", ["super-prime", "{algebra}", "--filter", "2",
                                "--avoid", "1"]),
        ("closed_set_algebra", ["bridge", "k2a", "{model}"]),
        ("validity_harness", ["harness", "--formula", "p0 -> p0"]),
        ("Oracle", ["countermodel", "p0 -> p0", "--max-worlds", "1"]),
        ("proof_to_json", ["countermodel", "p0 -> p0", "--max-worlds", "1"]),
    ])
    def test_wrapper_runs(self, monkeypatch, capsys, tmp_path, c3_file,
                          chain2_file, name, argv):
        proof = tmp_path / "proof.json"
        proof.write_text(json.dumps(proof_to_json(
            WeakeningConj(var(0), var(1)))))
        files = {"proof": str(proof), "algebra": c3_file,
                 "model": chain2_file}
        calls = []
        real = getattr(iplkit.cli, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(iplkit.cli, name, counting)
        code, _, err = run_cli(capsys, *(a.format(**files) for a in argv))
        assert code in (0, 1), err
        assert calls


def parse_outcome(capsys, parse, argv):
    """(namespace or exit code, stdout, stderr) of one parse of argv."""
    try:
        result = vars(parse(list(argv)))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


# one valid call per command; the files need not exist to parse
VALID_CALLS = [
    ["parse", "p0"],
    ["encode", "p0 -> p1"],
    ["decode", "5"],
    ["check-proof", "proof.json", "--gamma", "p0"],
    ["eval", "model.json", "0", "p0"],
    ["valid", "model.json", "p0"],
    ["countermodel", "p0", "--gamma", "p1", "--max-worlds", "2"],
    ["alg-eval", "alg.json", "p0", "--assign", "p0=1"],
    ["alg-valid", "alg.json", "p0"],
    ["filters", "alg.json"],
    ["prime-filters", "alg.json"],
    ["super-prime", "alg.json", "--filter", "2", "--avoid", "1"],
    ["bridge", "k2a", "model.json"],
    ["bridge", "a2k", "alg.json", "--assign", "p0=1"],
    ["saturate-pair", "--left", "p0", "--right", "p1", "--vars", "1",
     "--depth", "1"],
    ["quotient", "--gamma", "p0", "--vars", "1", "--depth", "1"],
    ["universe", "--vars", "1", "--depth", "1"],
    ["harness", "--formula", "p0", "--model", "model.json",
     "--algebra", "alg.json"],
]


class TestParserFastPath:
    """main parses with a parser built for argv[0] alone and lets the
    full parser parse again on any error: what either prints, and how it
    exits, must be what the full parser alone gives."""

    @pytest.mark.parametrize("argv", [
        ["parse", "p0", "extra"], ["parse"], ["parse", "-h"], ["-h"], [],
        ["no-such-command", "p0"], ["bridge"], ["bridge", "k2a", "-h"],
        ["bridge", "k2b", "model.json"], ["decode", "x"],
        ["countermodel", "p0", "--max-worlds", "x"], ["harness"],
        ["harness", "--model", "model.json"], ["super-prime", "alg.json"],
        ["countermodel", "p0", "--no-such-option"], ["--version"],
        *VALID_CALLS,
    ], ids=" ".join)
    def test_same_as_the_full_parser(self, capsys, argv):
        fast = parse_outcome(capsys, iplkit.cli._parse_args, argv)
        full = parse_outcome(capsys, build_parser().parse_args, argv)
        assert fast == full
        if argv == ["parse", "p0", "extra"]:
            # the usage line of the full parser names every command
            assert "{parse,encode,decode," in fast[2]

    @pytest.mark.parametrize("argv", VALID_CALLS, ids=" ".join)
    def test_a_valid_call_needs_one_subparser(self, argv):
        one = build_parser(argv[0])
        commands = one._subparsers._group_actions[0].choices
        assert list(commands) == [argv[0]]
        assert one.parse_args(argv) == build_parser().parse_args(argv)

    def test_the_table_lists_every_command_in_help_order(self, capsys):
        code, out, _ = parse_outcome(capsys, build_parser().parse_args,
                                     ["-h"])
        assert code == 0
        assert "{" + ",".join(iplkit.cli._COMMANDS) + "}" in out
