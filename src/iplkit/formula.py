"""Propositional formulas over falsity, conjunction, disjunction and implication.

Negation, truth and equivalence are abbreviations, not constructors:
``~a`` is ``a -> bot``, ``top`` is ``bot -> bot`` and ``a <-> b`` is
``(a -> b) & (b -> a)``.  The module also provides the concrete ASCII
syntax (parser and minimal-parenthesization renderer), a deterministic
total order on formulas, and an injective encoding of formulas into
natural numbers based on a pairing function.  Formulas are hash-consed:
there is one node per structure, so equal formulas are identical.
Formula nodes and the proof terms of iplkit.proof share one node
protocol, _Frozen: one copy rule, one pickle program and one repr.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Union


# Structure key -> the one node: (class, id(lhs), id(rhs)), (Variable,
# index) or Bottom.  Entries are never removed, so nodes live as long as
# the process and no id in a key is reused while the key is in the table.
_TABLE: dict = {}

# A Variable's rank is its bit in the _vars masks: ranks are handed out
# in creation order, so a large index costs one bit.  Ranks depend on
# the order a process builds its variables and never appear in output.
_RANKS = itertools.count()
_INDEX_OF_RANK: dict = {}


class _Frozen:
    """The node protocol that formulas and proof terms share.  A node's
    __match_args__ are its fields, in constructor order, and a field
    value that is a _Frozen is a child.  A copy is the node itself, a
    pickle is a _program, and the repr is the dataclass text."""

    __slots__ = ()
    __match_args__: tuple = ()

    # imported when raised: dataclasses costs a process more than this module
    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __deepcopy__(self, memo=None):
        return self

    __copy__ = __deepcopy__

    def __reduce__(self):
        return _replay, (_program(self),)

    def __repr__(self):
        return _dataclass_text(self)


def _methods(cls, source: str, **scope) -> None:
    """Set on cls, as methods, the functions that the def statements of
    source define, run in one exec with scope and _set as its globals."""
    found: dict = {}
    exec(source, {"__name__": cls.__module__, "_set": object.__setattr__,
                  **scope}, found)
    for name, function in found.items():
        function.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, function)


def _init_source(names: tuple, defaults) -> str:
    """An __init__ with a parameter per name, in order, defaulting to
    _defaults[name] for a name in defaults, that stores each with _set,
    object.__setattr__, so that no instance __dict__ object is made."""
    params = "".join(f"{n}=_defaults[{n!r}], " if n in defaults else f"{n}, "
                     for n in names)
    return f"def __init__(self, {params}):\n" + "".join(
        f"    _set(self, {n!r}, {n})\n" for n in names)


def _record(cls=None, *, hidden: tuple = ()):
    """cls as a frozen record, as @dataclass(frozen=True) makes it from
    the annotated fields and class defaults: __init__, which calls the
    class's __post_init__ last if it has one, __match_args__, and ==, hash
    and repr with the dataclass results, less the hidden fields in == and
    hash, from one exec.  Setting or deleting raises FrozenInstanceError;
    a copy or pickle is that of a plain object."""
    def build(cls):
        names = tuple(cls.__annotations__)
        keys = [n for n in names if n not in hidden]
        mine, theirs = ("(" + "".join(f"{obj}.{n}," for n in keys) + ")"
                        for obj in ("self", "other"))
        text = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
        post = "    self.__post_init__()\n" * ("__post_init__" in cls.__dict__)
        _methods(cls, _init_source(names, cls.__dict__) + post + f"""
def __eq__(self, other):
    return ({mine} == {theirs} if other.__class__ is self.__class__
            else NotImplemented)
def __hash__(self):
    return hash({mine})
def __repr__(self):
    return self.__class__.__qualname__ + f"({text})"
""", _defaults=cls.__dict__)
        cls.__match_args__ = names
        cls.__setattr__ = _Frozen.__setattr__
        cls.__delattr__ = _Frozen.__delattr__
        return cls
    return build if cls is None else build(cls)


@_record
class Var:
    """A propositional variable, identified by a nonnegative index."""

    index: int


def _fields(node) -> list:
    return [getattr(node, name) for name in type(node).__match_args__]


def _program(root) -> tuple:
    """root as a post-order program over its distinct nodes.  A step is
    (class, args): an int arg names the result of an earlier step, and
    (value,) is a field value that is not a node.  Linear in the number
    of distinct nodes, also where the tree is exponential."""
    nodes = postorder([root], lambda node: [
        v for v in _fields(node) if isinstance(v, _Frozen)])
    step = {id(node): i for i, node in enumerate(nodes)}
    return tuple((type(node), tuple(
        step[id(v)] if isinstance(v, _Frozen) else (v,)
        for v in _fields(node))) for node in nodes)


def _replay(program: tuple):
    """The node of a _program, built through the constructors."""
    built: list = []
    for cls, args in program:
        built.append(cls(*(built[a] if type(a) is int else a[0]
                           for a in args)))
    return built[-1]


def _dataclass_text(root) -> str:
    """Class(field=value, ...), the text a dataclass __repr__ gives for
    root, from a stack of pieces so that a value of any depth has one.
    A field value that is not a node is written with repr.  A piece is
    text or a node."""
    out, stack = [], [root]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        pieces = [f"{type(item).__qualname__}("]
        for i, name in enumerate(type(item).__match_args__):
            value = getattr(item, name)
            pieces += [f"{', ' if i else ''}{name}=",
                       value if isinstance(value, _Frozen) else repr(value)]
        pieces.append(")")
        stack += reversed(pieces)
    return "".join(out)


class _Node(_Frozen):
    """An immutable, hash-consed formula node.  Constructors return the
    one node per structure, so == is identity.  The hash is set at
    construction and equals the dataclass hash of the fields, so sets of
    formulas iterate in the same order in every process.  _vars is the
    bitmask of the ranks of the variables below the node."""

    __slots__ = ("_hash", "_order", "_vars")

    def __hash__(self):
        return self._hash


def _intern(cls, key, values: tuple, hash_value: int, vars_mask: int):
    """A new node of cls with the given field values, recorded under key
    with setdefault, so that threads racing on one key get one node."""
    node = object.__new__(cls)
    for name, value in zip(cls.__match_args__, values):
        object.__setattr__(node, name, value)
    object.__setattr__(node, "_hash", hash_value)
    object.__setattr__(node, "_order", None)
    object.__setattr__(node, "_vars", vars_mask)
    return _TABLE.setdefault(key, node)


class Variable(_Node):
    __slots__ = __match_args__ = ("var",)

    def __new__(cls, var: Var):
        key = (cls, var.index)
        node = _TABLE.get(key)
        if node is None:
            if var.index < 0:
                raise ValueError(f"variable index {var.index} is negative")
            # a thread that loses the race to intern leaves an unused rank
            rank = next(_RANKS)
            _INDEX_OF_RANK[rank] = var.index
            node = _intern(cls, key, (var,), hash((var,)), 1 << rank)
        return node


class Bottom(_Node):
    __slots__ = ()

    def __new__(cls):
        return _TABLE.get(cls) or _intern(cls, cls, (), hash(()), 0)


class _Binary(_Node):
    __slots__ = __match_args__ = ("lhs", "rhs")

    def __new__(cls, lhs: "Formula", rhs: "Formula"):
        key = (cls, id(lhs), id(rhs))
        return _TABLE.get(key) or _intern(cls, key, (lhs, rhs),
                                          hash((lhs, rhs)),
                                          lhs._vars | rhs._vars)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


_BINARY = (And, Or, Implies)


Formula = Union[Variable, Bottom, And, Or, Implies]

BOT: Formula = Bottom()
TOP: Formula = Implies(BOT, BOT)


def var(index: int) -> Variable:
    return Variable(Var(index))


def neg(phi: Formula) -> Formula:
    return Implies(phi, BOT)


def iff(phi: Formula, psi: Formula) -> Formula:
    return And(Implies(phi, psi), Implies(psi, phi))


def postorder(roots, children=None) -> list:
    """The distinct nodes (by identity) reachable from the roots, each
    after its children and those left to right, from one explicit stack.
    children(node) lists a node's children; by default they are a
    formula's operands."""
    out = []
    seen = set()
    stack = [(f, False) for f in reversed(list(roots))]
    while stack:
        f, expanded = stack.pop()
        if expanded:
            out.append(f)
        elif id(f) not in seen:
            seen.add(id(f))
            stack.append((f, True))
            if children is not None:
                stack += [(k, False) for k in reversed(children(f))]
            elif type(f) in _BINARY:
                stack += ((f.rhs, False), (f.lhs, False))
    return out


def subformulas(phi: Formula) -> frozenset:
    """All subtrees of phi, including phi itself."""
    return frozenset(postorder([phi]))


def variables(phi: Formula) -> frozenset:
    """The set of Var occurring in phi."""
    return frozenset(map(Var, variable_indices([phi])))


def _ones(mask: int):
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union(table, mask: int) -> int:
    """The union of table[i] over the set bits i of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def variable_indices(formulas) -> list:
    """Sorted indices of the variables occurring in any of the formulas,
    read from the nodes' variable masks without a walk."""
    mask = 0
    for f in formulas:
        mask |= f._vars
    return sorted(map(_INDEX_OF_RANK.__getitem__, _ones(mask)))


def depth(phi: Formula) -> int:
    """Tree depth; leaves (variables and bot) have depth 1."""
    below: dict = {}
    for f in postorder([phi]):
        below[id(f)] = 1 + max(below[id(f.lhs)], below[id(f.rhs)]) \
            if type(f) in _BINARY else 1
    return below[id(phi)]


# ---------------------------------------------------------------------------
# Concrete syntax.
#
# formula := iff ; iff := imp ("<->" imp)*  (right-assoc, sugar)
# imp  := disj ("->" imp)?                  (right-assoc)
# disj := conj ("|" conj)*                  (left-assoc)
# conj := neg ("&" neg)*                    (left-assoc)
# neg  := "~" neg | atom
# atom := "bot" | "top" | VAR | "(" formula ")" ; VAR := "p" [0-9]+
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    """Syntax error in the concrete formula syntax; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


_SYMBOLS = ("<->", "->", "&", "|", "~", "(", ")")


def _tokenize(text: str) -> list:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append((sym, None, i))
                i += len(sym)
                break
        else:
            if text.startswith("bot", i) and not _ident_continues(text, i + 3):
                tokens.append(("bot", None, i))
                i += 3
            elif text.startswith("top", i) and not _ident_continues(text, i + 3):
                tokens.append(("top", None, i))
                i += 3
            elif c == "p" and i + 1 < n and text[i + 1].isdigit():
                j = i + 1
                while j < n and text[j].isdigit():
                    j += 1
                if _ident_continues(text, j):
                    raise ParseError(f"unknown token {text[i:j + 1]!r}", i)
                tokens.append(("var", int(text[i + 1:j]), i))
                i = j
            else:
                raise ParseError(f"unknown token {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


def _ident_continues(text: str, pos: int) -> bool:
    return pos < len(text) and (text[pos].isalnum() or text[pos] == "_")


_PREC_IMP, _PREC_OR, _PREC_AND, _PREC_ATOM = 1, 2, 3, 4

# Binary operator tokens: precedence, whether they group to the right,
# and the constructor.  "<->" binds loosest.
_INFIX = {"<->": (0, True, iff), "->": (_PREC_IMP, True, Implies),
          "|": (_PREC_OR, False, Or), "&": (_PREC_AND, False, And)}
_ATOMS = {"bot": lambda _: BOT, "top": lambda _: TOP, "var": var}


def parse(text: str) -> Formula:
    """Parse the ASCII syntax into a Formula.

    One operator-precedence loop over the tokens, with an operand stack,
    an operator stack (binary operators, "~" and "(") and a count of open
    parentheses, so nesting depth is not bounded by the Python stack.
    """
    operands: list = []
    ops: list = []
    open_parens = 0
    want_operand = True
    for kind, value, offset in _tokenize(text):
        if want_operand:
            if kind in ("~", "("):
                ops.append(kind)
                open_parens += kind == "("
                continue
            if kind not in _ATOMS:
                raise ParseError(f"expected a formula, found {kind!r}", offset)
            operands.append(_ATOMS[kind](value))
            want_operand = False
        elif kind in _INFIX:
            prec, right, _ = _INFIX[kind]
            _reduce(operands, ops, prec + 1 if right else prec)
            ops.append(kind)
            want_operand = True
            continue
        elif kind == ")" and open_parens:
            _reduce(operands, ops, 0)
            ops.pop()
            open_parens -= 1
        elif kind == "end" and not open_parens:
            _reduce(operands, ops, 0)
            return operands[0]
        elif open_parens:
            raise ParseError(f"expected ')', found {kind!r}", offset)
        else:
            raise ParseError(f"trailing input {kind!r}", offset)
        # an operand is complete: apply the negations in front of it
        while ops and ops[-1] == "~":
            ops.pop()
            operands.append(neg(operands.pop()))


def _reduce(operands: list, ops: list, min_prec: int) -> None:
    """Apply the binary operators on top of ops that bind at least as
    tightly as min_prec, down to the nearest "("."""
    while ops and ops[-1] in _INFIX and _INFIX[ops[-1]][0] >= min_prec:
        build = _INFIX[ops.pop()][2]
        rhs = operands.pop()
        operands.append(build(operands.pop(), rhs))


# Connective: text between the operands, its precedence, and the least
# precedence that the left and the right operand may have unparenthesized.
_RENDER = {Implies: (" -> ", _PREC_IMP, _PREC_OR, _PREC_IMP),
           Or: (" | ", _PREC_OR, _PREC_OR, _PREC_AND),
           And: (" & ", _PREC_AND, _PREC_AND, _PREC_ATOM)}


def render(phi: Formula) -> str:
    """Minimal-parenthesization text; parse(render(phi)) == phi.

    Emitted from an explicit stack of (node, minimum precedence) entries,
    where a string in place of a node is text between operands.
    """
    out = []
    stack = [(phi, 0)]
    while stack:
        f, min_prec = stack.pop()
        kind = type(f)
        if kind is str:
            out.append(f)
        elif kind is Variable:
            out.append(f"p{f.var.index}")
        elif kind is Bottom:
            out.append("bot")
        else:
            text, prec, left, right = _RENDER[kind]
            if prec < min_prec:
                out.append("(")
                stack.append((")", 0))
            stack += ((f.rhs, right), (text, 0), (f.lhs, left))
    return "".join(out)


def order_key(phi: Formula) -> tuple:
    """(len(text), text) for text = render(phi): a strict total order on
    formulas, since render is injective, that is the same in every
    process and grows linearly with the formula, cached on the node on
    first use.  A flat pair, so comparing two keys never recurses."""
    key = phi._order
    if key is None:
        text = render(phi)
        key = (len(text), text)
        object.__setattr__(phi, "_order", key)
    return key


# ---------------------------------------------------------------------------
# Encoding into natural numbers.
# ---------------------------------------------------------------------------


def pairing(x: int, y: int) -> int:
    """(x + y) * (x + y + 1) + 2 * x; injective on pairs of naturals."""
    if x < 0 or y < 0:
        raise ValueError("pairing is defined on naturals only")
    return (x + y) * (x + y + 1) + 2 * x


def unpairing(n: int) -> Optional[tuple]:
    """Inverse of pairing where defined: the unique (x, y), else None.

    Finds the diagonal d with d*(d+1) <= n < (d+1)*(d+2); n is in the
    image of pairing exactly when n - d*(d+1) is even.
    """
    if n < 0:
        return None
    d = (math.isqrt(4 * n + 1) - 1) // 2
    while (d + 1) * (d + 2) <= n:
        d += 1
    while d * (d + 1) > n:
        d -= 1
    r = n - d * (d + 1)
    if r % 2:
        return None
    x = r // 2
    return (x, d - x)


_TAG_AND, _TAG_OR, _TAG_IMP = 1, 2, 3


def encode(phi: Formula) -> int:
    """Injective encoding: bot -> 0, variables via pairing(0, index + 1),
    connectives via pairing(pairing(code(lhs), tag), code(rhs)) with tags
    1 (and), 2 (or), 3 (implies)."""
    if isinstance(phi, Bottom):
        return 0
    if isinstance(phi, Variable):
        return pairing(0, phi.var.index + 1)
    tag = {And: _TAG_AND, Or: _TAG_OR, Implies: _TAG_IMP}[type(phi)]
    return pairing(pairing(encode(phi.lhs), tag), encode(phi.rhs))


def decode(n: int) -> Optional[Formula]:
    """Left inverse of encode: decode(encode(phi)) == phi; None off the image."""
    if n < 0:
        return None
    if n == 0:
        return BOT
    pair = unpairing(n)
    if pair is None:
        return None
    head, rest = pair
    if head == 0:
        return var(rest - 1) if rest >= 1 else None
    inner = unpairing(head)
    if inner is None:
        return None
    lhs_code, tag = inner
    ctor = {_TAG_AND: And, _TAG_OR: Or, _TAG_IMP: Implies}.get(tag)
    if ctor is None:
        return None
    lhs = decode(lhs_code)
    rhs = decode(rest)
    if lhs is None or rhs is None:
        return None
    return ctor(lhs, rhs)


def all_formulas(num_vars: int, max_depth: int) -> list:
    """Every formula over p0..p(num_vars-1) of depth <= max_depth,
    ordered by encode value.  This is the canonical universe order."""
    if max_depth < 1:
        return []
    atoms = [BOT] + [var(i) for i in range(num_vars)]
    layer = list(atoms)
    seen = set(layer)
    for _ in range(max_depth - 1):
        new = []
        for a in layer:
            for b in layer:
                for ctor in (And, Or, Implies):
                    f = ctor(a, b)
                    if f not in seen:
                        seen.add(f)
                        new.append(f)
        layer.extend(new)
    return sorted(seen, key=encode)
