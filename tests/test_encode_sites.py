"""encode's code doubles its bits at each nesting level, so sorting by it
costs time exponential in formula depth and recurses once per level.
Internal orders use formula.order_key instead; encode stays a sort key
only where its order is the output.  This test fails when key=encode, or
a key lambda that calls encode, appears anywhere else in the package."""

import ast
import pathlib

import iplkit

# module.function -> why its order must stay the encode order
ENCODE_ORDER_BY_DESIGN = {
    "formula.all_formulas": "the documented canonical universe order, which "
                            "universe positions and codes follow",
    "lindenbaum.build_quotient": "the class order and each class's "
                                 "minimal-encode representative are part "
                                 "of the quotient table and the CLI output",
}


def _uses_encode(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "encode"
    if isinstance(node, ast.Lambda):
        return any(isinstance(n, ast.Name) and n.id == "encode"
                   for n in ast.walk(node.body))
    return False


def encode_key_sites(tree: ast.Module, module: str) -> set:
    """module.function for each function with a key=encode argument, or a
    key lambda over encode, in a call."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, owner or child.name)
                continue
            if isinstance(child, ast.keyword) and child.arg == "key" \
                    and _uses_encode(child.value):
                found.add(f"{module}.{owner}")
            visit(child, owner)

    visit(tree, None)
    return found


def package_encode_key_sites() -> set:
    root = pathlib.Path(iplkit.__file__).parent
    found = set()
    for path in sorted(root.glob("*.py")):
        found |= encode_key_sites(ast.parse(path.read_text()), path.stem)
    return found


def test_encode_orders_only_where_the_order_is_output():
    found = package_encode_key_sites()
    assert sorted(found - set(ENCODE_ORDER_BY_DESIGN)) == []
    # a site that no longer sorts by encode leaves the list
    assert sorted(set(ENCODE_ORDER_BY_DESIGN) - found) == []


def test_detects_name_and_lambda_keys():
    tree = ast.parse(
        "def f(xs):\n    return sorted(xs, key=encode)\n"
        "def g(xs):\n    xs.sort(key=lambda m: encode(m[0]))\n"
        "def h(xs):\n    def inner(ys):\n        return min(ys, key=encode)\n"
        "    return inner\n"
        "def k(xs):\n    return sorted(xs, key=order_key)\n")
    assert encode_key_sites(tree, "m") == {"m.f", "m.g", "m.h"}
