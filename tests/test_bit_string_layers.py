"""Above he, an n-bit string is an int. In `commitment` and `symcrypto`
only two places spell one out bit by bit: `prg`, whose hash input is one
byte per seed bit, and `SECircuit.evaluate`, which takes and returns
he.eval_named's bits. Everywhere else `int_to_bits` and `bits_uint` stay
out, so that these layers do not drift back to tuples of bits."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tabverify"
CONVERTERS = {"int_to_bits", "bits_uint"}
BOUNDARIES = {"prg", "SECircuit.evaluate"}


def converter_uses(tree):
    """(scope, name) of each use of a converter: scope is the dotted name
    of the enclosing classes and functions, "" at module level. An import
    is not a use."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name in CONVERTERS:
            found.append((scope, name))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_the_guard_sees_a_converter_in_any_scope():
    tree = ast.parse("from .tables import bits_uint, int_to_bits\n"
                     "x = int_to_bits(1, 2)\n"
                     "class CodeSpec:\n"
                     "    def encode(self, d):\n"
                     "        return tables.bits_uint(d)\n"
                     "def prg(s, k, n):\n"
                     "    return f(int_to_bits)\n")
    assert converter_uses(tree) == [("", "int_to_bits"),
                                    ("CodeSpec.encode", "bits_uint"),
                                    ("prg", "int_to_bits")]


def test_only_prg_and_the_se_circuit_convert_bits():
    uses = {name: converter_uses(ast.parse((SRC / name).read_text()))
            for name in ("commitment.py", "symcrypto.py")}
    outside = {name: [u for u in found if u[0] not in BOUNDARIES]
               for name, found in uses.items()}
    assert outside == {"commitment.py": [], "symcrypto.py": []}
    # both boundaries convert, so the guard looks where the conversions are
    assert {scope for scope, _ in uses["symcrypto.py"]} == BOUNDARIES
