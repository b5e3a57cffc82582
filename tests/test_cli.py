import json
import os
import subprocess
import sys

import pytest

import iplkit
from iplkit.cli import main
from iplkit.formula import var
from iplkit.heyting import algebra_to_json, chain
from iplkit.kripke import model_to_json, make_model
from iplkit.proof import (Syllogism, WeakeningConj, WeakeningDisj,
                          proof_to_json)


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
        code, out, _ = run_cli(capsys, "countermodel", "p0 -> p0",
                               "--max-worlds", "4")
        assert code == 3
        assert json.loads(out)["model"] is None

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


class TestBridgeCommands:
    def test_k2a(self, capsys, chain2_file):
        code, out, _ = run_cli(capsys, "bridge", "k2a", chain2_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["algebra"]["size"] == 3
        assert doc["closed_sets"] == [[], [1], [0, 1]]

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

    def test_quotient(self, capsys):
        code, out, _ = run_cli(capsys, "quotient", "--vars", "0",
                               "--depth", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["classes"] == [["bot", "bot & bot", "bot | bot"],
                                  ["bot -> bot"]]
        assert doc["provable_top"] == [False, True]
        assert doc["order"] == [[True, True], [False, True]]

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
        code, out = self.run_bytes("countermodel", "p0 -> p0",
                                   "--max-worlds", "2")
        assert code == 3
        json.loads(out)

    def test_budget_env_applies(self):
        argv = ("countermodel", "p0 | ~p0")
        out = self.run_child(*argv, budget="worlds=1")
        assert out.returncode == 3, out.stderr.decode()
        assert json.loads(out.stdout)["max_worlds"] == 1
        # control: the default budget of 4 worlds finds the countermodel
        control = self.run_child(*argv)
        assert control.returncode == 1, control.stderr.decode()
        assert json.loads(control.stdout)["model"] is not None


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
