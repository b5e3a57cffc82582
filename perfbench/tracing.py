"""Spans at the boundaries between iplkit's modules, from outside them.

The tracer replaces a function by a timing wrapper where one module (or
the benchmark, or the CLI) binds a function of another: in the calling
module's namespace, or on the class for the two methods every caller
goes through.  Nothing under src/iplkit changes.  Spans (name, start,
end, parent) are kept in memory and written out when the run ends; a
span's self time is its duration minus the time its child spans cover.

Wrappers record only while `active` is set, which the runner does around
each timed operation, so checks and set-up leave no spans.
"""

from __future__ import annotations

import json
import sys
import time
import weakref

from iplkit.kripke import enumerate_models

from checkers import var_indices

# (module, attribute or Class.method, span name, result handler)
LIBRARY_SPECS = [
    ("iplkit.theories", "Oracle.provable", "theories.provable", "provable"),
    ("iplkit.prover", "Prover.prove", "prover.prove", None),
    ("iplkit.theories", "find_countermodel", "kripke.find_countermodel",
     "countermodel"),
    ("iplkit.theories", "check", "proof.check", None),
    ("iplkit.theories", "forces", "kripke.forces", None),
    ("iplkit.theories", "forces_all", "kripke.forces", None),
    ("iplkit.lindenbaum", "forces", "kripke.forces", None),
    ("iplkit.lindenbaum", "provably_equivalent",
     "lindenbaum.provably_equivalent", None),
    ("iplkit.bridge", "prime_filters", "heyting.prime_filters", None),
] + [
    (module, "encode", "formula.encode", None)
    for module in ("iplkit.prover", "iplkit.theories", "iplkit.kripke",
                   "iplkit.lindenbaum")
] + [
    ("iplkit.prover", helper, "proof.witness_build", None)
    for helper in ("_and_intro", "_conclusion_map", "_deduce", "_or_elim",
                   "and_elim_right", "k_axiom", "or_intro_right",
                   "subst_premise")
]

# Functions the benchmark's workloads call, as bound in their modules.
WORKLOAD_SPECS = [
    ("wl_universe", "build_quotient", "lindenbaum.build_quotient", None),
    ("wl_algebra", "algebra_from_le", "heyting.completion", None),
    ("wl_algebra", "validate_algebra", "heyting.completion", None),
    ("wl_algebra", "prime_filters", "heyting.prime_filters", None),
    ("wl_algebra", "prime_filter_avoiding", "heyting.prime_filter_avoiding",
     None),
    ("wl_algebra", "generated_filter", "heyting.generated_filter", None),
    ("wl_algebra", "closed_set_algebra", "bridge.closed_set_algebra", None),
    ("wl_algebra", "prime_filter_frame", "bridge.prime_filter_frame", None),
    ("wl_algebra", "validity_harness", "bridge.harness", None),
]

# The CLI's own bindings, wrapped inside each traced CLI child.
CLI_SPECS = [
    ("iplkit.cli", "parse", "formula.parse", None),
    ("iplkit.cli", "encode", "formula.encode", None),
    ("iplkit.cli", "check", "proof.check", None),
    ("iplkit.cli", "find_countermodel", "kripke.find_countermodel",
     "countermodel"),
    ("iplkit.cli", "build_quotient", "lindenbaum.build_quotient", None),
    ("iplkit.cli", "prime_filters", "heyting.prime_filters", None),
    ("iplkit.cli", "super_prime_filter", "heyting.prime_filter_avoiding",
     None),
    ("iplkit.cli", "closed_set_algebra", "bridge.closed_set_algebra", None),
    ("iplkit.cli", "validity_harness", "bridge.harness", None),
]

# Per-layer metric: (name, unit, kind, span name or counter).
#   count: spans per operation; total: inclusive ms per operation;
#   self: exclusive ms per operation; counter: counter per operation.
METRICS = [
    ("formula.encode_calls", "count/op", "count", "formula.encode"),
    ("formula.encode_ms", "ms/op", "total", "formula.encode"),
    ("formula.parse_ms", "ms/op", "total", "formula.parse"),
    ("proof.check_ms", "ms/op", "total", "proof.check"),
    ("proof.witness_build_ms", "ms/op", "total", "proof.witness_build"),
    ("proof.witness_build_calls", "count/op", "count", "proof.witness_build"),
    ("proof.witness_nodes", "count/op", "counter", "witness_nodes"),
    ("prover.search_ms", "ms/op", "self", "prover.prove"),
    ("prover.prove_calls", "count/op", "count", "prover.prove"),
    ("kripke.countermodel_ms", "ms/op", "total", "kripke.find_countermodel"),
    ("kripke.models_tried", "count/op", "counter", "models_tried"),
    ("kripke.forces_ms", "ms/op", "total", "kripke.forces"),
    ("theories.oracle_self_ms", "ms/op", "self", "theories.provable"),
    ("theories.oracle_calls", "count/op", "count", "theories.provable"),
    ("lindenbaum.quotient_ms", "ms/op", "total", "lindenbaum.build_quotient"),
    ("lindenbaum.equivalence_queries", "count/op", "count",
     "lindenbaum.provably_equivalent"),
    ("heyting.completion_ms", "ms/op", "total", "heyting.completion"),
    ("heyting.prime_filters_ms", "ms/op", "total", "heyting.prime_filters"),
    ("heyting.prime_filter_avoiding_ms", "ms/op", "total",
     "heyting.prime_filter_avoiding"),
    ("heyting.generated_filter_ms", "ms/op", "total",
     "heyting.generated_filter"),
    ("bridge.closed_set_algebra_ms", "ms/op", "total",
     "bridge.closed_set_algebra"),
    ("bridge.prime_filter_frame_ms", "ms/op", "total",
     "bridge.prime_filter_frame"),
    ("bridge.harness_ms", "ms/op", "total", "bridge.harness"),
]


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list = []
        self.op_ranges: list = []   # (first span, end span, time factor)
        self.counters = {"witness_nodes": 0, "models_tried": 0,
                         "oracle_calls": 0, "oracle_repeats": 0}
        self._stack: list = []
        self._payloads: list = []
        self._op_start = 0
        self._keys_by_oracle = weakref.WeakKeyDictionary()

    # -- installation ------------------------------------------------------

    def install(self, specs) -> None:
        """Wrap every spec whose module is loaded; others are skipped."""
        for module_name, attr, name, handler in specs:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner = module
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                continue
            setattr(owner, leaf, self._wrap(fn, name, handler))

    def _wrap(self, fn, name, handler):
        tracer, spans, stack = self, self.spans, self._stack
        payloads, clock = self._payloads, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if handler is not None:
                payloads.append((handler, args, out))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per operation -----------------------------------------------------

    def begin_op(self) -> None:
        self._op_start = len(self.spans)
        self.active = True

    def end_op(self, factor: float) -> None:
        """Close the operation; `factor` turns its raw times into times at
        the reference speed.  Result handlers run here, untimed."""
        self.active = False
        self._stack.clear()
        self.op_ranges.append((self._op_start, len(self.spans), factor))
        seen_nodes: set = set()
        for handler, args, out in self._payloads:
            if handler == "provable":
                self._on_provable(args, out, seen_nodes)
            else:
                self.counters["models_tried"] += _models_tried(args, out)
        self._payloads.clear()
        self.counters["witness_nodes"] += len(seen_nodes)

    def _on_provable(self, args, verdict, seen_nodes) -> None:
        oracle, gamma, phi = args[0], args[1], args[2]
        self.counters["oracle_calls"] += 1
        keys = self._keys_by_oracle.setdefault(oracle, set())
        try:
            key = (frozenset(gamma), phi)
            if key in keys:
                self.counters["oracle_repeats"] += 1
            else:
                keys.add(key)
        except RecursionError:
            pass
        witness = getattr(verdict, "witness", None)
        if witness is not None and type(verdict).__name__ == "Provable":
            _collect_nodes(witness, seen_nodes)

    def add_child_spans(self, dump: dict) -> None:
        """Merge the spans and counters a traced CLI child wrote."""
        offset = len(self.spans)
        for name, t0, t1, parent in dump["spans"]:
            self.spans.append((name, t0, t1,
                               parent + offset if parent >= 0 else -1))
        for key, value in dump["counters"].items():
            self.counters[key] += value

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values per traced operation, times at reference speed."""
        ops = max(len(self.op_ranges), 1)
        count, total, self_ns = {}, {}, {}
        child_ns = [0.0] * len(self.spans)
        factor = [1.0] * len(self.spans)
        for first, end, f in self.op_ranges:
            for i in range(first, end):
                factor[i] = f
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            name, t0, t1, parent = span
            dur = (t1 - t0) * factor[i]
            count[name] = count.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            self_ns[name] = self_ns.get(name, 0.0) + dur
            if parent >= 0 and self.spans[parent] is not None:
                pname = self.spans[parent][0]
                self_ns[pname] = self_ns.get(pname, 0.0) - dur
        out = {}
        for name, unit, kind, key in METRICS:
            if kind == "count":
                value = count.get(key, 0) / ops
            elif kind == "total":
                value = total.get(key, 0.0) / ops / 1e6
            elif kind == "self":
                value = self_ns.get(key, 0.0) / ops / 1e6
            else:
                value = self.counters[key] / ops
            out[name] = (value, unit)
        calls = self.counters["oracle_calls"]
        out["theories.oracle_repeat_ratio"] = (
            self.counters["oracle_repeats"] / calls if calls else 0.0, "ratio")
        return out

    def dump_dict(self) -> dict:
        return {"spans": [s for s in self.spans if s is not None],
                "ops": self.op_ranges, "counters": self.counters}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.dump_dict(), handle, separators=(",", ":"))


def _collect_nodes(proof, seen: set) -> None:
    stack = [proof]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for value in vars(node).values():
            if hasattr(value, "__dataclass_fields__") and \
                    type(value).__module__ == "iplkit.proof":
                stack.append(value)


def _models_tried(args, found) -> int:
    """Models before the returned one in enumerate_models order, counted
    here: find_countermodel enumerates the models of each size in turn
    over the query's variables, in the order enumerate_models gives for
    as many variables."""
    gamma, phi, max_worlds = list(args[0]), args[1], args[2]
    indices = var_indices(gamma + [phi])
    rename = {v: i for i, v in enumerate(indices)}
    tried = 0
    for n in range(1, max_worlds + 1):
        models = list(enumerate_models(len(indices), n))
        if found is not None and found[0].worlds == n:
            want = (found[0].rel, tuple((rename[v], ws)
                                        for v, ws in found[0].valuation))
            for k, model in enumerate(models):
                if (model.rel, model.valuation) == want:
                    return tried + k
            return tried + len(models)
        tried += len(models)
    return tried
