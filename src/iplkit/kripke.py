"""Finite Kripke models and the intuitionistic forcing relation.

Worlds are dense integer indices, the accessibility relation is an
explicit pair set (reflexive and transitive), and valuations are
monotone truth sets per variable.  The module also enumerates all valid
models of a given size up to world relabeling and searches them for
minimal countermodels, forcing each formula once over a whole family of
models.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property, lru_cache, partial
from itertools import permutations, product
from typing import Iterable, Iterator, Mapping, Optional

from .formula import (And, Bottom, Formula, Or, Variable, _ones, _record,
                      _union, variable_indices)


# Candidate valuations that find_countermodel may enumerate for one world
# count.  Refutations in the tests and the benchmark need up to 14,906
# (three variables on four worlds).  A search whose sizes all stay under
# the cap takes at most about 1.5 s on a 2-core machine, while the count
# grows without bound in the number of variables: 2^k on one world,
# 157,886 for four variables on four worlds.
MAX_COUNTERMODEL_VALUATIONS = 20_000

# The most worlds and variables model_from_json accepts.  The closure it
# takes may hold every pair of worlds, and the valuation one entry per
# variable; at these caps they stay near a million pairs and 65,536 sets.
MAX_JSON_WORLDS = 1 << 10
MAX_JSON_VARS = 1 << 16

# The most closed world sets _closed_masks returns: an n-world model has
# at most 2^n, so every model of up to 9 worlds stays under the cap.
# `iplkit bridge k2a`, which builds and validates closed_set_algebra's
# tables, took on a 2-core machine 0.15 s for the 101 sets of a 100-world
# chain, 0.27 s for the 256 of an 8-world antichain, 1.3 s and 123 MB for
# the 512 of a 9-world one and 3.1-4.0 s and 161 MB for the 512 of a
# 511-world chain (1.4 s and 5.7 s with frozenset tables).
MAX_CLOSED_SETS = 512

# Labeled preorders on 1, 2, ... worlds: _canonical_preorders builds each
# and tests it against every relabeling before a world count is searched.
_LABELED_PREORDERS = (1, 4, 29, 355, 6942, 209_527)


class EvalError(ValueError):
    """Evaluation against an unknown world or undeclared variable."""


class CountermodelSearchTooLarge(Exception):
    """The next world count of a countermodel search has more labeled
    preorders or candidate valuations than MAX_COUNTERMODEL_VALUATIONS."""


@_record
class KripkeModel:
    """A model on the worlds range(worlds).  Construction raises
    ValueError unless there is a world, rel and valuation name only those
    worlds, and the variable indices are nonnegative, sorted and distinct;
    reflexivity, transitivity and monotonicity are validate_model's."""

    worlds: int
    rel: frozenset
    valuation: tuple  # ((var_index, frozenset of worlds), ...), sorted

    def __post_init__(self):
        if self.worlds < 1:
            raise ValueError("a model needs at least one world")
        _frame(self.rel, self.worlds)  # checks the pairs, once per frame
        inside, last = _world_set(self.worlds), -1
        for v, ws in self.valuation:
            if v <= last:
                raise ValueError(f"valuation variable index {v} is negative, "
                                 "repeated or out of order")
            if not inside.issuperset(ws):
                raise ValueError(
                    f"valuation of p{v} mentions an unknown world")
            last = v

    @cached_property
    def masks(self) -> tuple:
        """(atoms, full, down) for truth_mask: each variable's truth set
        and the set of all worlds as bitmasks (bit w for world w), and
        down(s), the worlds that see some world of s."""
        return ({v: sum(1 << w for w in ws) for v, ws in self.valuation},
                (1 << self.worlds) - 1, _frame(self.rel, self.worlds)[1])

    @cached_property
    def memo(self) -> dict:
        """id(formula) -> its truth mask in this model, shared by forces,
        forces_all and valid_in_model.  Keys are ids, which is safe only
        because formula._TABLE never evicts a node, so no id is reused."""
        return {}

    def __reduce__(self):
        # copies and pickles start with cold caches: ids in a memo do not
        # name the same formulas in another process
        return KripkeModel, (self.worlds, self.rel, self.valuation)

    def var_indices(self) -> tuple:
        return tuple(v for v, _ in self.valuation)

    def true_worlds(self, index: int) -> frozenset:
        for v, ws in self.valuation:
            if v == index:
                return ws
        raise EvalError(f"variable p{index} is not declared in this model")


@lru_cache(maxsize=64)
def _world_set(worlds: int) -> frozenset:
    return frozenset(range(worlds))


def make_model(worlds: int, rel: Iterable, valuation: Mapping) -> KripkeModel:
    """A KripkeModel of raw pieces, made ints in frozensets and sorted by
    variable; no closure, and no validation past KripkeModel's own."""
    return KripkeModel(
        worlds, frozenset((int(i), int(j)) for i, j in rel),
        tuple((int(v), frozenset(map(int, valuation[v])))
              for v in sorted(valuation)))


@_record
class Violation:
    kind: str  # "reflexivity" | "transitivity" | "monotonicity"
    witness: tuple


def validate_model(model: KripkeModel) -> list:
    """Empty list iff reflexivity, transitivity and monotonicity all hold,
    checked on per-world successor bitmasks.  Violations come in the
    order of loops over range(worlds), sorted(rel) and then the third
    world."""
    succ, _, out = _frame(model.rel, model.worlds)
    out = list(out)
    for v, truth in model.masks[0].items():
        for a in _ones(truth):
            bad = succ[a] & ~truth
            if bad:
                out += [Violation("monotonicity", (v, a, b))
                        for b in _ones(bad)]
    return out


@lru_cache(maxsize=4096)
def _frame(rel: frozenset, worlds: int) -> tuple:
    """(succ, down, violations) of a frame, shared by its models: succ[a]
    has bit b set when (a, b) is in rel, down(s) is the set of worlds that
    see one in s, and violations lists the reflexivity and transitivity
    violations.  Raises ValueError for a pair outside range(worlds)."""
    succ = [0] * worlds
    pred = [0] * worlds
    for a, b in rel:
        if not (0 <= a < worlds and 0 <= b < worlds):
            raise ValueError(f"relation pair ({a}, {b}) out of range")
        succ[a] |= 1 << b
        pred[b] |= 1 << a
    out = [Violation("reflexivity", (w,)) for w in range(worlds)
           if not succ[w] >> w & 1]
    for a, row in enumerate(succ):
        for b in _ones(row):
            out += [Violation("transitivity", (a, b, c))
                    for c in _ones(succ[b] & ~row)]
    return succ, partial(_union, tuple(pred)), tuple(out)


def truth_mask(phi: Formula, atoms: Mapping, full: int, down,
               memo: Optional[dict] = None) -> int:
    """The worlds forcing phi as a bitmask (bit w for world w), found
    by an iterative walk, so nesting depth is not bounded by the stack.

    atoms maps a variable index to its truth mask, full masks all worlds
    and down(s) is the set of worlds that see some world of s.  With the
    identity as down (a discrete frame) each world is a classical
    assignment.  memo maps id(subformula) to its mask in this frame and
    valuation; it holds only finished masks, so a walk stopped by an
    EvalError leaves it correct.  Keys are ids, which is safe only because
    formula._TABLE never evicts a node, so no id is reused.
    """
    if memo is None:
        memo = {}
    elif id(phi) in memo:
        return memo[id(phi)]
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
                     down, memo: Optional[dict] = None) -> Optional[int]:
    """The lowest world forcing all of gamma but not phi, or None, with
    truth_mask's frame arguments and memo (a fresh one if None); phi is
    skipped once no world is left."""
    gamma = list(gamma)
    if memo is None:
        memo = {}
    known = memo.get
    mask = full
    for g in gamma:
        truth = known(id(g))
        mask &= truth_mask(g, atoms, full, down, memo) if truth is None \
            else truth
        if not mask:
            return None
    mask &= ~truth_mask(phi, atoms, full, down, memo)
    return (mask & -mask).bit_length() - 1 if mask else None


def forces(model: KripkeModel, world: int, phi: Formula) -> bool:
    """Intuitionistic truth of phi at a world of a valid model."""
    if not 0 <= world < model.worlds:
        raise EvalError(f"unknown world {world}")
    return bool(truth_mask(phi, *model.masks, model.memo) >> world & 1)


def valid_in_model(model: KripkeModel, phi: Formula) -> bool:
    atoms, full, down = model.masks
    return truth_mask(phi, atoms, full, down, model.memo) == full


def forces_all(model: KripkeModel, world: int, gamma) -> bool:
    """True iff every member of gamma holds at the world."""
    if not 0 <= world < model.worlds:
        raise EvalError(f"unknown world {world}")
    atoms, full, down = model.masks
    memo = model.memo
    for g in list(gamma):
        truth = memo.get(id(g))
        if truth is None:
            truth = truth_mask(g, atoms, full, down, memo)
        if not truth >> world & 1:
            return False
    return True


@_record
class ConsequenceVerdict:
    holds: bool
    model_index: Optional[int] = None
    world: Optional[int] = None


def consequence_over_models(models, gamma, phi: Formula) -> ConsequenceVerdict:
    """Local semantic consequence restricted to the supplied model family:
    the first model, in the order given, with a world forcing gamma but
    not phi, at its lowest such world."""
    gamma = list(gamma)
    family = _ModelFamily(models, variable_indices(gamma + [phi]))
    return family.consequence(gamma, phi)


# The models in the first block of a _ModelFamily.  A refutation among
# them costs no more layout, while 64 models of a few worlds still make
# ints short enough that a walk costs about what it costs on one model.
_FIRST_BLOCK = 64


class _ModelFamily:
    """A list of models laid out in blocks, each one frame for
    truth_mask (see _layout), so that one walk forces a formula in every
    model of a block, and the lowest refuting bit of the first block with
    one lies in the first refuting model, at its lowest refuting world.

    Blocks are laid out when a walk needs them, each as large as all
    before it together, so a refutation among the first models lays out
    few of them, and a formula that holds in every model costs about two
    walks over the whole family.  Each block keeps one forcing memo.  The
    blocks cover the longest prefix of the models that declare each
    variable of var_indices; consequence forces the models after it one
    at a time, so an EvalError is raised where a model-by-model loop
    raises it."""

    __slots__ = ("models", "var_indices", "blocks", "covered")

    def __init__(self, models, var_indices) -> None:
        self.models = list(models)
        self.var_indices = tuple(var_indices)
        # (first model, starts, atoms, full, down, memo) per block
        self.blocks: list = []
        self.covered = 0  # the models laid out so far

    def _grow(self) -> bool:
        """Lay out the next block; False if its first model cannot be."""
        first = self.covered
        starts, atoms, full, down = _layout(
            self.models[first:first + max(_FIRST_BLOCK, first)],
            self.var_indices)
        if not starts:
            return False
        self.blocks.append((first, starts, atoms, full, down, {}))
        self.covered += len(starts)
        return True

    def consequence(self, gamma, phi: Formula) -> ConsequenceVerdict:
        """consequence_over_models over the family's models, for gamma and
        phi over the variables the family was built for."""
        gamma = list(gamma)
        blocks = self.blocks
        k = 0
        while k < len(blocks) or self._grow():
            first, starts, atoms, full, down, memo = blocks[k]
            bit = first_refutation(gamma, phi, atoms, full, down, memo)
            if bit is not None:
                t = bisect_right(starts, bit) - 1
                return ConsequenceVerdict(False, first + t, bit - starts[t])
            k += 1
        models = self.models
        for i in range(self.covered, len(models)):
            world = first_refutation(gamma, phi, *models[i].masks)
            if world is not None:
                return ConsequenceVerdict(False, i, world)
        return ConsequenceVerdict(True)


def _layout(models: list, var_indices: tuple) -> tuple:
    """(starts, atoms, full, down) of the longest prefix of the models
    that declare each variable of var_indices, laid out as one frame:
    world w of the t-th model is bit starts[t] + w.  atoms holds the
    variables of var_indices.

    down works frame by frame, (worlds, rel): the models that share their
    frame with another move the set's bits along each pair (a, b) of it
    by one masked shift of b - a places, pairs of one shift sharing a
    column mask, and a model alone in its frame keeps _frame's own down
    on its slice.  Masks are filled through bytearrays, linear in their
    bits."""
    wanted = set(var_indices)
    frames: dict = {}  # (worlds, rel) -> the starts of its models
    starts: list = []
    end = 0
    for model in models:
        if not wanted.issubset(dict(model.valuation)):
            break
        frames.setdefault((model.worlds, model.rel), []).append(end)
        starts.append(end)
        end += model.worlds
    size = (end + 7) >> 3
    rows = {v: bytearray(size) for v in var_indices}
    for model, start in zip(models, starts):
        for v, ws in model.valuation:
            row = rows.get(v)
            if row is not None:
                for w in ws:
                    w += start
                    row[w >> 3] |= 1 << (w & 7)
    cols: dict = {}      # b - a -> the bits b of the models with (a, b)
    alone = []
    for (n, rel), members in frames.items():
        if len(members) == 1:
            alone.append((members[0], (1 << n) - 1, _frame(rel, n)[1]))
            continue
        for a, b in rel:
            col = cols.get(b - a)
            if col is None:
                col = cols[b - a] = bytearray(size)
            for start in members:
                w = start + b
                col[w >> 3] |= 1 << (w & 7)
    atoms = {v: int.from_bytes(row, "little") for v, row in rows.items()}
    if not cols and len(alone) == 1 and alone[0][0] == 0:
        down = alone[0][2]
    else:
        down = partial(_family_down, tuple(
            (int.from_bytes(col, "little"), max(shift, 0), max(-shift, 0))
            for shift, col in sorted(cols.items())), tuple(alone))
    return starts, atoms, (1 << end) - 1, down


def _family_down(shifts: tuple, alone: tuple, mask: int) -> int:
    """down(mask) over a _layout: each (col, right, left) moves the bits
    of mask & col right places towards bit 0 and left places away from
    it, one of them 0, and each (start, full, down) of a model alone in
    its frame applies that down to the model's slice."""
    out = 0
    for col, right, left in shifts:
        out |= (mask & col) >> right << left
    for start, full, down in alone:
        part = mask >> start & full
        if part:
            out |= down(part) << start
    return out


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
    """The sets of worlds of _closed_masks(rel, n, up)."""
    return [frozenset(_ones(mask)) for mask in _closed_masks(rel, n, up)]


def _closed_masks(rel: frozenset, n: int, up: bool) -> list:
    """The up-closed (or down-closed) subsets of range(n) as sorted masks:
    the unions of the worlds' principal up-sets (or down-sets) under the
    reflexive-transitive closure of rel, a relation on range(n) as a
    model's or a preorder's is.  Raises ValueError once the family passes
    MAX_CLOSED_SETS."""
    succ = [1 << w for w in range(n)]
    for a, b in rel:
        if not up:
            a, b = b, a
        succ[a] |= 1 << b
    _warshall(succ)
    found = {0}     # after world w: the unions of the sets of worlds <= w
    for row in succ:
        found |= {mask | row for mask in found}
        if len(found) > MAX_CLOSED_SETS:
            raise ValueError(
                f"more than MAX_CLOSED_SETS = {MAX_CLOSED_SETS} "
                f"{'up' if up else 'down'}-closed world sets")
    return sorted(found)


def _rel_key(rel: frozenset) -> tuple:
    return tuple(sorted((i, j) for i, j in rel if i != j))


def _relabelings(n: int) -> list:
    """(p, (i, j) -> (p[i], p[j])) for each permutation p, identity first."""
    return [(p, {(i, j): (p[i], p[j]) for i in range(n)
                 for j in range(n)}.__getitem__)
            for p in permutations(range(n))]


@lru_cache(maxsize=None)
def _canonical_preorders(n: int) -> tuple:
    """Preorders on range(n) whose edge list is lexicographically minimal
    within their relabeling class, sorted by that edge list: each class
    is relabeled once, its members marked seen and the least one kept."""
    maps = [pairs for _, pairs in _relabelings(n)]
    labeled = {rel: rel for rel in _preorders(n)}  # keeps their objects
    seen: set = set()
    out = []
    for rel in labeled:
        if rel not in seen:
            orbit = {frozenset(map(pairs, rel)) for pairs in maps}
            seen |= orbit
            out.append(labeled[min(orbit, key=_rel_key)])
    return tuple(sorted(out, key=_rel_key))


@lru_cache(maxsize=None)
def _models(var_indices: tuple, n: int) -> tuple:
    """All valid models on n worlds over the given variables, one per
    isomorphism class, in deterministic order.  A valuation is a tuple of
    indices into the up-sets sorted by their sorted worlds, kept when no
    automorphism but the identity, as a map of the indices (which are in
    the order of the sorted worlds), makes it smaller."""
    out = []
    relabelings = _relabelings(n)[1:]
    for rel in _canonical_preorders(n):
        upsets = sorted(_closed_subsets(rel, n, up=True),
                        key=lambda s: tuple(sorted(s)))
        index = {s: i for i, s in enumerate(upsets)}
        maps = [tuple(index[frozenset(p[w] for w in s)] for s in upsets)
                for p, pairs in relabelings if rel.issuperset(map(pairs, rel))]
        for choice in product(range(len(upsets)), repeat=len(var_indices)):
            for m in maps:
                if tuple(map(m.__getitem__, choice)) < choice:
                    break
            else:
                out.append(KripkeModel(n, rel, tuple(
                    zip(var_indices, map(upsets.__getitem__, choice)))))
    return tuple(out)


def enumerate_models(num_vars: int, num_worlds: int) -> Iterator[KripkeModel]:
    """Every valid model on exactly num_worlds worlds over p0..p(num_vars-1),
    up to world relabeling, in deterministic order."""
    if num_worlds < 1:
        raise ValueError("num_worlds must be at least 1")
    return iter(_models(tuple(range(num_vars)), num_worlds))


@lru_cache(maxsize=None)
def _up_set_counts(n: int) -> tuple:
    """The number of up-sets of each canonical preorder on n worlds."""
    return tuple(len(_closed_masks(rel, n, up=True))
                 for rel in _canonical_preorders(n))


def _candidate_count(k: int, n: int) -> int:
    """The valuations of k variables that _models tries on n worlds: the
    sum over the canonical preorders of (up-sets)^k."""
    return sum(u ** k for u in _up_set_counts(n))


def find_countermodel(gamma, phi: Formula, max_worlds: int) -> Optional[tuple]:
    """First (model, world) in enumeration order with at most max_worlds
    worlds that forces gamma but not phi, at the model's lowest refuting
    world; None if there is none.  Absence is not a provability
    certificate.  Raises CountermodelSearchTooLarge before a size whose
    labeled preorders, or whose candidate valuations (the sum over its
    canonical preorders of (up-sets)^k for k variables), exceed
    MAX_COUNTERMODEL_VALUATIONS."""
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    gamma = list(gamma)
    var_indices = tuple(variable_indices(gamma + [phi]))
    k = len(var_indices)
    for n in range(1, max_worlds + 1):
        if n > len(_LABELED_PREORDERS) or \
                _LABELED_PREORDERS[n - 1] > MAX_COUNTERMODEL_VALUATIONS:
            too_many = "its labeled preorders"
        elif _candidate_count(k, n) > MAX_COUNTERMODEL_VALUATIONS:
            too_many = f"{k} variables"
        else:
            models = _models(var_indices, n)
            verdict = consequence_over_models(models, gamma, phi)
            if not verdict.holds:
                return models[verdict.model_index], verdict.world
            continue
        raise CountermodelSearchTooLarge(
            f"countermodel search stopped at world count {n} of {max_worlds}: "
            f"{too_many} exceed MAX_COUNTERMODEL_VALUATIONS = "
            f"{MAX_COUNTERMODEL_VALUATIONS}")
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


def _closure(pairs: list, worlds: int) -> set:
    """The transitive closure of the pairs with (w, w) added for each
    world w < worlds, by Warshall over successor bitmasks of the worlds
    that the pairs name; model_from_json rejects worlds out of range
    before it runs."""
    nodes = list(dict.fromkeys(w for pair in pairs for w in pair))
    bit = {w: k for k, w in enumerate(nodes)}
    succ = [0] * len(nodes)
    for i, j in pairs:
        succ[bit[i]] |= 1 << bit[j]
    _warshall(succ)
    return {(w, w) for w in range(worlds)} | {
        (nodes[i], nodes[j]) for i, row in enumerate(succ)
        for j in range(len(nodes)) if row >> j & 1}


def _warshall(succ: list) -> None:
    """Close successor bitmasks under transitivity, in place."""
    for k in range(len(succ)):
        mask, through = 1 << k, succ[k]
        for i, row in enumerate(succ):
            if row & mask:
                succ[i] = row | through


def _ints(value, what: str) -> list:
    """A JSON list of integers as it is; ValueError for any other value,
    so that a string or an object is not read through its iteration."""
    if not isinstance(value, list) or \
            not all(type(x) is int for x in value):
        raise ValueError(f"malformed model JSON: {what} must be a list of "
                         "integers")
    return value


def model_from_json(obj) -> KripkeModel:
    """Load a model, take the reflexive-transitive closure of the given
    relation, and reject valuations that are not monotone over it."""
    if not isinstance(obj, dict):
        raise ValueError("model JSON must be an object")
    worlds, num_vars = obj.get("worlds"), obj.get("vars", 0)
    # json.load gives bool for true and false, which int() would take
    if type(worlds) is not int or type(num_vars) is not int or num_vars < 0:
        raise ValueError("malformed model JSON: worlds and vars must be "
                         "integers, and vars not negative")
    if worlds > MAX_JSON_WORLDS or num_vars > MAX_JSON_VARS:
        raise ValueError(f"model JSON too large: at most {MAX_JSON_WORLDS} "
                         f"worlds and {MAX_JSON_VARS} vars")
    rel = obj.get("rel", [])
    val = obj.get("val", {})
    if not isinstance(rel, list) or not isinstance(val, dict):
        raise ValueError("malformed model JSON: rel must be a list and val "
                         "an object")
    pairs = [_ints(pair, "each pair of rel") for pair in rel]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError("malformed model JSON: each pair of rel must name "
                         "two worlds")
    for i, j in pairs:
        # before the closure, which would take time quadratic in them
        if not (0 <= i < worlds and 0 <= j < worlds):
            raise ValueError(f"relation pair ({i}, {j}) out of range")
    closure = _closure(pairs, worlds)
    val = dict(val)
    valuation = {v: _ints(val.pop(f"p{v}", []), f"the valuation of p{v}")
                 for v in range(num_vars)}
    if val:
        raise ValueError(f"valuation keys {sorted(val, key=str)} exceed "
                         f"declared vars")
    model = make_model(worlds, closure, valuation)
    bad = validate_model(model)
    if bad:
        raise ValueError(f"model violates monotonicity: {bad[0]}")
    return model
