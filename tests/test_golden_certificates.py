"""The oracle's certificates against tests/golden/oracle_certificates.jsonl.

The file holds the proof JSON of every Provable witness, and the model
JSON and world of every Refuted certificate, from a fresh oracle for the
named laws and the seeded queries of test_witnesses.py, then the sides
of the saturation trace of the empty pair over canonical_universe(2, 1).
The oracle must reproduce it byte for byte.  A change that moves a
witness on purpose regenerates the file, from the repository root, with

    PYTHONPATH=src python tests/test_golden_certificates.py

and records that it did.
"""

import json
import os

from test_witnesses import named_laws, seeded_queries

from iplkit.formula import render
from iplkit.kripke import model_to_json
from iplkit.proof import proof_to_json
from iplkit.theories import (Oracle, Provable, Refuted, canonical_universe,
                             make_pair, saturation_trace)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "oracle_certificates.jsonl")


def certificate(gamma, phi) -> dict:
    verdict = Oracle().provable(gamma, phi)
    entry = {"gamma": [render(f) for f in gamma], "phi": render(phi),
             "verdict": type(verdict).__name__}
    if isinstance(verdict, Provable):
        entry["proof"] = proof_to_json(verdict.witness)
    elif isinstance(verdict, Refuted):
        entry["model"] = model_to_json(verdict.model)
        entry["world"] = verdict.world
    else:
        entry["reason"] = verdict.reason
    return entry


def golden_text() -> str:
    """One JSON value per line: the query certificates, then each step
    of the saturation trace with both sides in universe order."""
    lines = [certificate(gamma, phi)
             for gamma, phi in list(named_laws()) + seeded_queries()]
    universe = canonical_universe(2, 1)
    for pair in saturation_trace(make_pair([], []), universe, Oracle()):
        lines.append({side: [render(f) for f in sorted(fs, key=universe.code)]
                      for side, fs in (("left", pair.left),
                                       ("right", pair.right))})
    return "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)


def test_certificates_match_golden_file():
    with open(GOLDEN, encoding="utf-8") as f:
        want = f.read()
    assert golden_text() == want


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as f:
        f.write(golden_text())
