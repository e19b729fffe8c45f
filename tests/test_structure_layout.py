"""The JSON layout of the published structure lives in one class,
`protocol.Structure`: no other code in the package subscripts a value with
one of its keys, so a reader of the structure reads the typed value."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tabverify"
LAYOUT_KEYS = {"tables", "ports", "external_inputs", "external"}


def layout_subscripts(tree):
    """(line, key) of each subscript by a constant layout key outside a
    class named Structure."""
    found = []

    def visit(node):
        if isinstance(node, ast.ClassDef) and node.name == "Structure":
            return
        if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
                and node.slice.value in LAYOUT_KEYS):
            found.append((node.lineno, node.slice.value))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_the_guard_sees_a_layout_key_outside_structure():
    tree = ast.parse('n = len(s["tables"])\n'
                     'class Structure:\n'
                     '    k = d["ports"]\n'
                     'def f(t):\n'
                     '    return t["external"], t[0], t["outputs"]\n')
    assert layout_subscripts(tree) == [(1, "tables"), (5, "external")]


def test_only_structure_subscripts_by_a_structure_key():
    found = {path.name: layout_subscripts(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert "protocol.py" in found and "vga.py" in found
    assert {name: hits for name, hits in found.items() if hits} == {}
