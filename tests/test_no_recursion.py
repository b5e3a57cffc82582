"""Every walk over formulas, sequents and proofs in iplkit runs on an
explicit stack, so input depth is bounded by memory and by the prover's
depth budget, never by the interpreter's recursion limit.  This test
fails when a function in the package calls itself, as name(...) or as
self.name(...)."""

import ast
import pathlib

import iplkit

# module.function -> why its recursion is kept
RECURSIVE_BY_DESIGN = {
    "formula.encode": "each nesting level doubles the code's bits, so no "
                      "formula deep enough to reach the recursion limit has "
                      "a computable code",
    "formula.decode": "the inverse of encode: a code nested that deep has "
                      "more bits than memory holds",
}


def self_calls(tree: ast.Module, module: str) -> set:
    """module.[Class.]function for each function that calls itself."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                for call in ast.walk(child):
                    if not isinstance(call, ast.Call):
                        continue
                    f = call.func
                    direct = (owner is None and isinstance(f, ast.Name)
                              and f.id == name)
                    method = (owner is not None
                              and isinstance(f, ast.Attribute)
                              and f.attr == name
                              and isinstance(f.value, ast.Name)
                              and f.value.id in ("self", "cls"))
                    if direct or method:
                        qual = f"{owner}.{name}" if owner else name
                        found.add(f"{module}.{qual}")
                visit(child, None)
            else:
                visit(child, owner)

    visit(tree, None)
    return found


def package_self_calls() -> set:
    root = pathlib.Path(iplkit.__file__).parent
    found = set()
    for path in sorted(root.glob("*.py")):
        found |= self_calls(ast.parse(path.read_text()), path.stem)
    return found


def test_no_function_calls_itself():
    found = package_self_calls()
    assert sorted(found - set(RECURSIVE_BY_DESIGN)) == []
    # an entry made iterative leaves the list
    assert sorted(set(RECURSIVE_BY_DESIGN) - found) == []


def test_detects_direct_and_method_recursion():
    tree = ast.parse(
        "def f(n):\n    return f(n - 1)\n"
        "class P:\n    def g(self):\n        return self.g()\n"
        "    def h(self):\n        return h()\n")
    assert self_calls(tree, "m") == {"m.f", "m.P.g"}
