"""Finite Kripke models and the intuitionistic forcing relation.

Worlds are dense integer indices, the accessibility relation is an
explicit pair set (reflexive and transitive), and valuations are
monotone truth sets per variable.  The module also enumerates all valid
models of a given size up to world relabeling and searches them for
countermodels, all models of one size at once as a disjoint union.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import permutations, product
from typing import Iterable, Iterator, Mapping, Optional

from .formula import And, Bottom, Formula, Or, Variable, variable_indices


# Candidate valuations that find_countermodel may enumerate for one world
# count.  Refutations in the tests and the benchmark need up to 14,906
# (three variables on four worlds).  A search whose sizes all stay under
# the cap takes at most about 1.5 s on a 2-core machine, while the count
# grows without bound in the number of variables: 2^k on one world,
# 157,886 for four variables on four worlds.
MAX_COUNTERMODEL_VALUATIONS = 20_000


class EvalError(ValueError):
    """Evaluation against an unknown world or undeclared variable."""


class CountermodelSearchTooLarge(Exception):
    """The next world count of a countermodel search has more candidate
    valuations than MAX_COUNTERMODEL_VALUATIONS."""


@dataclass(frozen=True)
class KripkeModel:
    worlds: int
    rel: frozenset
    valuation: tuple  # ((var_index, frozenset of worlds), ...), sorted

    @cached_property
    def masks(self) -> tuple:
        """(atoms, full, down) for truth_mask: each variable's truth set
        and the set of all worlds as bitmasks (bit w for world w), and
        down(s), the worlds that see some world of s."""
        return ({v: sum(1 << w for w in ws) for v, ws in self.valuation},
                (1 << self.worlds) - 1, _frame_down(self.rel, self.worlds))

    def var_indices(self) -> tuple:
        return tuple(v for v, _ in self.valuation)

    def true_worlds(self, index: int) -> frozenset:
        for v, ws in self.valuation:
            if v == index:
                return ws
        raise EvalError(f"variable p{index} is not declared in this model")


@lru_cache(maxsize=4096)
def _frame_down(rel: frozenset, worlds: int):
    """down from per-world predecessor masks, shared by a frame's models."""
    pred = [0] * worlds
    for i, j in rel:
        pred[j] |= 1 << i
    return partial(_down, tuple(pred))


def _down(pred: tuple, mask: int) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= pred[low.bit_length() - 1]
        mask ^= low
    return out


def make_model(worlds: int, rel: Iterable, valuation: Mapping) -> KripkeModel:
    """Normalize raw pieces into a KripkeModel (no closure, no validation)."""
    if worlds < 1:
        raise ValueError("a model needs at least one world")
    pairs = frozenset((int(i), int(j)) for i, j in rel)
    for i, j in pairs:
        if not (0 <= i < worlds and 0 <= j < worlds):
            raise ValueError(f"relation pair ({i}, {j}) out of range")
    val = []
    for v in sorted(valuation):
        ws = frozenset(int(w) for w in valuation[v])
        if any(not 0 <= w < worlds for w in ws):
            raise ValueError(f"valuation of p{v} mentions an unknown world")
        val.append((int(v), ws))
    return KripkeModel(worlds, pairs, tuple(val))


@dataclass(frozen=True)
class Violation:
    kind: str  # "reflexivity" | "transitivity" | "monotonicity"
    witness: tuple


def validate_model(model: KripkeModel) -> list:
    """Empty list iff reflexivity, transitivity and monotonicity all hold."""
    out = []
    rel = model.rel
    for w in range(model.worlds):
        if (w, w) not in rel:
            out.append(Violation("reflexivity", (w,)))
    for a, b in sorted(rel):
        for c in range(model.worlds):
            if (b, c) in rel and (a, c) not in rel:
                out.append(Violation("transitivity", (a, b, c)))
    for v, ws in model.valuation:
        for a, b in sorted(rel):
            if a in ws and b not in ws:
                out.append(Violation("monotonicity", (v, a, b)))
    return out


def truth_mask(phi: Formula, atoms: Mapping, full: int, down,
               memo: Optional[dict] = None) -> int:
    """The worlds forcing phi as a bitmask (bit w for world w), found
    by an iterative walk, so nesting depth is not bounded by the stack.

    atoms maps a variable index to its truth mask, full masks all worlds
    and down(s) is the set of worlds that see some world of s.  With the
    identity as down (a discrete frame) each world is a classical
    assignment.  memo maps id(subformula) to its mask; formulas sharing
    a memo share subformulas and must stay alive while it is in use.
    """
    memo = {} if memo is None else memo
    stack = [phi]
    while stack:
        f = stack[-1]
        if id(f) in memo:
            stack.pop()
            continue
        kind = type(f)
        if kind is Variable:
            mask = atoms.get(f.var.index)
            if mask is None:
                raise EvalError(
                    f"variable p{f.var.index} is not declared in this model")
        elif kind is Bottom:
            mask = 0
        else:
            a = memo.get(id(f.lhs))
            b = memo.get(id(f.rhs))
            if a is None or b is None:
                if a is None:
                    stack.append(f.lhs)
                if b is None:
                    stack.append(f.rhs)
                continue
            if kind is And:
                mask = a & b
            elif kind is Or:
                mask = a | b
            else:
                mask = full & ~down(a & ~b)
        memo[id(f)] = mask
        stack.pop()
    return memo[id(phi)]


def first_refutation(gamma, phi: Formula, atoms: Mapping, full: int,
                     down) -> Optional[int]:
    """The lowest world forcing all of gamma but not phi, or None, with
    truth_mask's frame arguments; phi is skipped once no world is left."""
    gamma = list(gamma)
    memo: dict = {}
    mask = full
    for g in gamma:
        mask &= truth_mask(g, atoms, full, down, memo)
        if not mask:
            return None
    mask &= ~truth_mask(phi, atoms, full, down, memo)
    return (mask & -mask).bit_length() - 1 if mask else None


def forces(model: KripkeModel, world: int, phi: Formula) -> bool:
    """Intuitionistic truth of phi at a world of a valid model."""
    if not 0 <= world < model.worlds:
        raise EvalError(f"unknown world {world}")
    return bool(truth_mask(phi, *model.masks) >> world & 1)


def valid_in_model(model: KripkeModel, phi: Formula) -> bool:
    return truth_mask(phi, *model.masks) == (1 << model.worlds) - 1


def forces_all(model: KripkeModel, world: int, gamma) -> bool:
    """True iff every member of gamma holds at the world."""
    if not 0 <= world < model.worlds:
        raise EvalError(f"unknown world {world}")
    memo: dict = {}
    return all(truth_mask(g, *model.masks, memo) >> world & 1
               for g in list(gamma))


@dataclass(frozen=True)
class ConsequenceVerdict:
    holds: bool
    model_index: Optional[int] = None
    world: Optional[int] = None


def consequence_over_models(models, gamma, phi: Formula) -> ConsequenceVerdict:
    """Local semantic consequence restricted to the supplied model family."""
    gamma = list(gamma)
    for i, model in enumerate(models):
        world = first_refutation(gamma, phi, *model.masks)
        if world is not None:
            return ConsequenceVerdict(False, i, world)
    return ConsequenceVerdict(True)


def forcing_is_monotone(model: KripkeModel, formulas) -> bool:
    """Exhaustive persistence check over the supplied formula family: no
    world forcing a formula sees a world that does not."""
    formulas = list(formulas)
    atoms, full, down = model.masks
    memo: dict = {}
    for phi in formulas:
        mask = truth_mask(phi, atoms, full, down, memo)
        if mask & down(full & ~mask):
            return False
    return True


# ---------------------------------------------------------------------------
# Enumeration of all valid models up to world relabeling.
# ---------------------------------------------------------------------------


def _preorders(n: int) -> tuple:
    """All reflexive transitive relations on range(n), labeled.

    Built point by point: every preorder on the points below x is
    extended with x by picking a down-closed predecessor set P and an
    up-closed successor set S with P x S inside the old relation.
    """
    rels = [frozenset()]
    for x in range(n):
        out = []
        for rel in rels:
            downsets = _closed_subsets(rel, x, up=False)
            upsets = _closed_subsets(rel, x, up=True)
            for pred in downsets:
                for succ in upsets:
                    if all((a, b) in rel for a in pred for b in succ):
                        new = set(rel)
                        new.add((x, x))
                        new.update((a, x) for a in pred)
                        new.update((x, b) for b in succ)
                        out.append(frozenset(new))
        rels = out
    return tuple(rels)


def _closed_subsets(rel: frozenset, n: int, up: bool) -> list:
    """The up-closed (or down-closed) subsets of range(n), in mask order."""
    pairs = rel if up else [(b, a) for a, b in rel]
    return [frozenset(i for i in range(n) if mask >> i & 1)
            for mask in range(1 << n)
            if all(mask >> b & 1 for a, b in pairs if mask >> a & 1)]


def _rel_key(rel: frozenset) -> tuple:
    return tuple(sorted((i, j) for i, j in rel if i != j))


def _relabel_rel(rel: frozenset, perm) -> frozenset:
    return frozenset((perm[i], perm[j]) for i, j in rel)


@lru_cache(maxsize=None)
def _canonical_preorders(n: int) -> tuple:
    """Preorders on range(n) whose edge list is lexicographically minimal
    within their relabeling class, sorted by that edge list."""
    perms = list(permutations(range(n)))
    out = []
    for rel in _preorders(n):
        key = _rel_key(rel)
        if all(key <= _rel_key(_relabel_rel(rel, p)) for p in perms):
            out.append(rel)
    return tuple(sorted(out, key=_rel_key))


def _val_key(valuation: tuple) -> tuple:
    return tuple(tuple(sorted(ws)) for _, ws in valuation)


@lru_cache(maxsize=None)
def _models(var_indices: tuple, n: int) -> tuple:
    """All valid models on n worlds over the given variables, one per
    isomorphism class, in deterministic order."""
    out = []
    for rel in _canonical_preorders(n):
        auts = [p for p in permutations(range(n))
                if _relabel_rel(rel, p) == rel]
        upsets = sorted(_closed_subsets(rel, n, up=True),
                        key=lambda s: tuple(sorted(s)))
        for choice in product(upsets, repeat=len(var_indices)):
            valuation = tuple(zip(var_indices, choice))
            key = _val_key(valuation)
            if all(key <= _val_key(tuple(
                    (v, frozenset(p[w] for w in ws)) for v, ws in valuation))
                    for p in auts):
                out.append(KripkeModel(n, rel, valuation))
    return tuple(out)


@lru_cache(maxsize=None)
def _family(var_indices: tuple, n: int) -> tuple:
    """(models, atoms, full, down) for the disjoint union of _models:
    world w of the t-th model is bit t*n + w, so one truth_mask call
    evaluates a formula in every model of n worlds at once.

    Masks are filled through bytearrays, linear in their bits.  down
    groups each non-reflexive edge (i, j) of every model into one column
    mask, the bits t*n + j of the models holding it, and moves s & col
    from world j to world i; reflexive edges keep s itself.
    """
    models = _models(var_indices, n)
    size = (len(models) * n + 7) // 8
    atom_bits = {v: bytearray(size) for v in var_indices}
    col_bits: dict = {}
    for t, model in enumerate(models):
        base = t * n
        for v, ws in model.valuation:
            bits = atom_bits[v]
            for w in ws:
                bits[(base + w) >> 3] |= 1 << ((base + w) & 7)
        for i, j in model.rel:
            if i != j:
                bits = col_bits.get((i, j))
                if bits is None:
                    bits = col_bits[(i, j)] = bytearray(size)
                bits[(base + j) >> 3] |= 1 << ((base + j) & 7)
    atoms = {v: int.from_bytes(bits, "little")
             for v, bits in atom_bits.items()}
    right, left = [], []
    for (i, j), bits in sorted(col_bits.items()):
        col = int.from_bytes(bits, "little")
        (right if j > i else left).append((col, abs(j - i)))
    full = (1 << len(models) * n) - 1
    return models, atoms, full, partial(_union_down, tuple(right), tuple(left))


def _union_down(right: tuple, left: tuple, mask: int) -> int:
    out = mask
    for col, k in right:
        out |= (mask & col) >> k
    for col, k in left:
        out |= (mask & col) << k
    return out


def enumerate_models(num_vars: int, num_worlds: int) -> Iterator[KripkeModel]:
    """Every valid model on exactly num_worlds worlds over p0..p(num_vars-1),
    up to world relabeling, in deterministic order."""
    if num_worlds < 1:
        raise ValueError("num_worlds must be at least 1")
    return iter(_models(tuple(range(num_vars)), num_worlds))


@lru_cache(maxsize=None)
def _up_set_counts(n: int) -> tuple:
    """The number of up-sets of each canonical preorder on n worlds."""
    return tuple(len(_closed_subsets(rel, n, up=True))
                 for rel in _canonical_preorders(n))


def find_countermodel(gamma, phi: Formula, max_worlds: int) -> Optional[tuple]:
    """First (model, world) in enumeration order with at most max_worlds
    worlds that forces gamma but not phi; None if there is none.  Absence
    is not a provability certificate.  Each size is one first_refutation
    over its _family, whose lowest refuting bit lies in the first such
    model, at its lowest refuting world.  Raises CountermodelSearchTooLarge
    before a size whose candidate valuations, the sum over its preorders
    of (up-sets)^k for k variables, exceed MAX_COUNTERMODEL_VALUATIONS."""
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    gamma = list(gamma)
    var_indices = tuple(variable_indices(gamma + [phi]))
    k = len(var_indices)
    for n in range(1, max_worlds + 1):
        count = sum(u ** k for u in _up_set_counts(n))
        if count > MAX_COUNTERMODEL_VALUATIONS:
            raise CountermodelSearchTooLarge(
                f"countermodel search stopped at world count {n} of "
                f"{max_worlds}: {k} variables exceed "
                f"MAX_COUNTERMODEL_VALUATIONS = {MAX_COUNTERMODEL_VALUATIONS} "
                "candidate valuations")
        models, atoms, full, down = _family(var_indices, n)
        bit = first_refutation(gamma, phi, atoms, full, down)
        if bit is not None:
            t, world = divmod(bit, n)
            return models[t], world
    return None


# ---------------------------------------------------------------------------
# JSON wire format.
# ---------------------------------------------------------------------------


def model_to_json(model: KripkeModel) -> dict:
    indices = model.var_indices()
    num_vars = max(indices) + 1 if indices else 0
    return {
        "worlds": model.worlds,
        "rel": [[i, j] for i, j in sorted(model.rel)],
        "vars": num_vars,
        "val": {f"p{v}": sorted(ws) for v, ws in model.valuation},
    }


def model_from_json(obj) -> KripkeModel:
    """Load a model, take the reflexive-transitive closure of the given
    relation, and reject valuations that are not monotone over it."""
    if not isinstance(obj, dict):
        raise ValueError("model JSON must be an object")
    try:
        worlds = int(obj["worlds"])
        rel = [(int(i), int(j)) for i, j in obj.get("rel", [])]
        num_vars = int(obj.get("vars", 0))
        val = dict(obj.get("val", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed model JSON: {exc}") from exc
    closure = set(rel)
    closure.update((w, w) for w in range(worlds))
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    valuation = {}
    for v in range(num_vars):
        valuation[v] = [int(w) for w in val.pop(f"p{v}", [])]
    if val:
        raise ValueError(f"valuation keys {sorted(val)} exceed declared vars")
    model = make_model(worlds, closure, valuation)
    bad = validate_model(model)
    if bad:
        raise ValueError(f"model violates monotonicity: {bad[0]}")
    return model
