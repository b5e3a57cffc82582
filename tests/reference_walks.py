"""The recursive proof_from_json and class_of, kept as test references
for the explicit-stack walks in iplkit.proof and iplkit.lindenbaum.

Each reads one subproof or subformula per recursive call, so both stop
at the interpreter's recursion limit; the differential tests stay well
inside it.
"""

from __future__ import annotations

from iplkit.formula import And, Formula, Implies, Or, parse, render
from iplkit.lindenbaum import OutOfUniverse, QuotientTable
from iplkit.proof import _BY_RULE, NODE_KINDS, ProofTerm


def proof_from_json(obj) -> ProofTerm:
    if not isinstance(obj, dict) or "rule" not in obj:
        raise ValueError("proof node must be an object with a 'rule' field")
    rule = obj["rule"]
    texts = obj.get("formulas", [])
    subs = obj.get("subproofs", [])
    if not isinstance(texts, list) or not isinstance(subs, list):
        raise ValueError(f"rule {rule!r}: formulas and subproofs must be "
                         f"lists")
    if not all(isinstance(text, str) for text in texts):
        raise ValueError(f"rule {rule!r}: formulas must be strings")
    formulas = [parse(text) for text in texts]
    subs = [proof_from_json(s) for s in subs]
    cls = _BY_RULE.get(rule) if isinstance(rule, str) else None
    if cls is None:
        raise ValueError(f"unknown rule {rule!r}")
    kind = NODE_KINDS[cls]
    if len(formulas) != len(kind.formulas) or len(subs) != len(kind.subproofs):
        raise ValueError(f"rule {rule!r} takes {len(kind.formulas)} formulas "
                         f"and {len(kind.subproofs)} subproofs")
    return cls(*formulas, *subs)


def class_of(table: QuotientTable, phi: Formula) -> int:
    if phi in table.universe:
        return table.class_index(phi)
    if isinstance(phi, (And, Or, Implies)):
        i = class_of(table, phi.lhs)
        j = class_of(table, phi.rhs)
        ctor = type(phi)
        for m1 in table.classes[i]:
            for m2 in table.classes[j]:
                combo = ctor(m1, m2)
                if combo in table.universe:
                    return table.class_index(combo)
        raise OutOfUniverse(
            f"no {ctor.__name__} combination of classes {i} and {j} "
            "lies in the universe")
    raise OutOfUniverse(f"{render(phi)} is not in the universe")
