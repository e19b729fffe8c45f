"""Text format for table-graph designs.

    width: 16;
    table DL {
      inputs: a;
      outputs: z;
      rows: [
        (a > 45, a - 20),
        (35 <= a and a <= 45, a - 5),
      ];
    }
    edges:
      Input.a -> DL.a;
      DL.z -> Output.z;

Input ports default to int; write `b: bool` to override. A table has one
output port; `outputs` may be omitted for one named `out` (type inferred
from the first row). `Input` and `Output` are the reserved boundary nodes.
The design rules themselves are TableGraph.validate's, except two that only
this text can break: a `Table` holds one output port and rows of
(predicate, function), so the parser itself refuses a table that lists two
outputs, and then a row that lists two functions.
"""

from . import expr as _expr
from .expr import (MAX_DEPTH, TOO_DEEP, ExprError, ExprTypeError, infer_type,
                   to_text, walk)
from .tables import GraphError, Table, TableGraph


class _GraphParser(_expr._Parser):
    def name(self, what):
        tok = self.take()
        if not isinstance(tok, str) or not (tok[0].isalpha() or tok[0] == "_"):
            raise GraphError(f"expected {what}, got {tok!r}")
        return tok

    def maybe(self, tok):
        if self.peek() == tok:
            self.take()
            return True
        return False


def strip_comments(text):
    lines = []
    for line in text.splitlines():
        if "//" in line:
            line = line[: line.index("//")]
        lines.append(line)
    return "\n".join(lines)


def parse_graph(text):
    """Parse design source into a validated TableGraph, 16 bits wide unless
    a `width:` line says otherwise."""
    try:
        tokens = _expr.tokenize(strip_comments(text))
    except ExprError as exc:
        raise GraphError(str(exc)) from exc
    p = _GraphParser(tokens)
    tables = {}
    edges = []
    m = 16

    try:
        if p.peek() == "width":
            p.take()
            p.take(":")
            m = p.take()
            if not isinstance(m, int):  # its value is validate's to check
                raise GraphError(f"expected a width, got {m!r}")
            p.maybe(";")

        while p.peek() == "table":
            name, table = _parse_table(p)
            if name in tables:
                raise GraphError(f"duplicate table name '{name}'")
            tables[name] = table

        if p.peek() != "edges":
            raise GraphError(f"expected 'edges', got {p.peek()!r}")
        p.take("edges")
        p.take(":")
        while p.peek() is not None:
            src = _parse_endpoint(p)
            p.take("->")
            dst = _parse_endpoint(p)
            p.maybe(";")
            edges.append((src, dst))
    except ExprError as exc:
        raise GraphError(str(exc)) from exc

    return TableGraph(tables=tables, edges=edges, m=m)


def _parse_endpoint(p):
    node = p.name("node name")
    p.take(".")
    port = p.name("port name")
    return (node, port)


def _parse_ports(p):
    ports = []
    while True:
        name = p.name("port name")
        ptype = "int"
        if p.maybe(":"):
            ptype = p.name("port type")
            if ptype not in ("int", "bool"):
                raise GraphError(f"unknown port type '{ptype}'")
        ports.append((name, ptype))
        if not p.maybe(","):
            break
    p.maybe(";")
    return tuple(ports)


def _parse_table(p):
    p.take("table")
    name = p.name("table name")
    p.take("{")
    inputs = outputs = None
    rows = ()
    while p.peek() != "}":
        section = p.take()
        p.take(":")
        if section == "inputs":
            inputs = _parse_ports(p)
        elif section == "outputs":
            outputs = _parse_ports(p)
        elif section == "rows":
            rows = _parse_rows(p)
        else:
            raise GraphError(f"unknown section '{section}' in table '{name}'")
    p.take("}")

    if inputs is None:
        raise GraphError(f"table '{name}' has no inputs section")
    if outputs is not None and len(outputs) != 1:
        raise GraphError(f"table '{name}' has {len(outputs)} outputs; "
                         "a table has one output port")
    for _, funcs in rows:
        if len(funcs) != 1:
            raise GraphError(f"table '{name}': row has {len(funcs)} "
                             "functions for 1 outputs")
    rows = tuple((pred, func) for pred, (func,) in rows)
    output = outputs[0] if outputs else None  # None: validate refuses no rows
    if outputs is None and rows:
        if max(depth for _, depth in walk(rows[0][1])) > MAX_DEPTH:
            raise GraphError(TOO_DEEP)  # before infer_type, which recurses
        try:
            output = ("out", infer_type(rows[0][1], dict(inputs)))
        except ExprTypeError as exc:
            raise GraphError(f"table '{name}': {exc}") from exc
    return name, Table(name=name, inputs=inputs, output=output, rows=rows)


def _parse_rows(p):
    p.take("[")
    rows = []
    while p.peek() != "]":
        p.take("(")
        pred = p.parse_expr()
        p.take(",")
        funcs = [p.parse_expr()]
        while p.maybe(","):
            funcs.append(p.parse_expr())
        p.take(")")
        rows.append((pred, tuple(funcs)))
        if not p.maybe(","):
            break
    p.take("]")
    p.maybe(";")
    return tuple(rows)


def serialize_graph(g):
    """Canonical text form; parse_graph(serialize_graph(g)) reproduces g."""
    out = [f"width: {g.m};"]
    for name in sorted(g.tables):
        t = g.tables[name]
        out.append(f"table {name} {{")
        out.append("  inputs: " + ", ".join(f"{p}: {ty}" for p, ty in t.inputs) + ";")
        out.append(f"  outputs: {t.output[0]}: {t.output[1]};")
        out.append("  rows: [")
        for pred, func in t.rows:
            out.append(f"    ({to_text(pred)}, {to_text(func)}),")
        out.append("  ];")
        out.append("}")
    out.append("edges:")
    for (src, sport), (dst, dport) in sorted(g.edges, key=str):
        out.append(f"  {src}.{sport} -> {dst}.{dport};")
    return "\n".join(out) + "\n"
