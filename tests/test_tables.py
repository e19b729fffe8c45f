from types import SimpleNamespace

import pytest

from helpers import bits_to_int, bits_to_tagged, tagged_to_bits
from tabverify.demo import (
    DEMO_DOMAINS,
    chain_graph,
    demo_graph,
    diamond_graph,
)
from tabverify.expr import (MAX_DEPTH, Binary, Const, IfThenElse, Ref, Unary,
                            parse_expr, walk)
from tabverify.graphtext import parse_graph, serialize_graph
from tabverify.tables import (
    BOT,
    GraphError,
    Table,
    TableGraph,
    Tagged,
    evaluate_original,
    evaluate_plain,
    int_to_bits,
    sibling_group,
    tagged_word,
    transform,
)


def test_bit_round_trip():
    for v in range(-128, 128):
        assert bits_to_int(int_to_bits(v, 8)) == v


def test_tagged_encoding():
    m = 16
    word = tagged_to_bits(Tagged(True, 26), m)
    assert len(word) == m
    assert word[:8] == (1, 0, 0, 0, 0, 0, 0, 0)
    assert bits_to_int(word[8:]) == 26
    assert bits_to_tagged(word) == Tagged(True, 26)
    assert tagged_to_bits(BOT, m) == (0,) * m
    assert bits_to_tagged((0,) * m) == BOT
    # as an int: tag 1 in bit 0, the payload from bit 8, two's complement
    assert tagged_word(Tagged(True, 26), m) == 1 | 26 << 8
    assert tagged_word(Tagged(True, -2), m) == 1 | 0xfe << 8
    assert tagged_word(BOT, m) == 0


def test_tagged_bool_payload():
    word = tagged_to_bits(Tagged(True, True), 16)
    assert bits_to_tagged(word, "bool") == Tagged(True, True)
    assert bits_to_tagged(tagged_to_bits(Tagged(True, False), 16), "bool") == Tagged(
        True, False
    )


def test_bot_payload_must_be_zero():
    with pytest.raises(ValueError):
        Tagged(False, 3)


def test_parse_demo_graph():
    g = demo_graph()
    assert set(g.tables) == {"DL", "CT", "OP"}
    assert len(g.tables["DL"].rows) == 4
    pred, func = g.tables["DL"].rows[0]
    assert pred == parse_expr("a > 45")
    assert func == parse_expr("a - 20")
    assert dict(g.external_inputs) == {"a": "int", "b": "bool"}


def test_parse_errors():
    with pytest.raises(GraphError, match="no tables"):
        parse_graph("edges:\n")
    with pytest.raises(GraphError, match="cycle detected.*: T1, T2$"):
        parse_graph(
            """
            table T1 { inputs: x; outputs: y; rows: [(true, x)]; }
            table T2 { inputs: y; outputs: x; rows: [(true, y)]; }
            edges:
              T1.y -> T2.y;
              T2.x -> T1.x;
            """
        )
    with pytest.raises(GraphError, match="duplicate"):
        parse_graph(
            """
            table T { inputs: x; rows: [(true, x)]; }
            table T { inputs: x; rows: [(true, x)]; }
            edges:
              Input.x -> T.x;
            """
        )
    with pytest.raises(GraphError, match="dangling|unknown"):
        parse_graph(
            """
            table T { inputs: x; rows: [(true, x)]; }
            edges:
              Input.x -> T.x;
              Nope.y -> T.x;
            """
        )
    with pytest.raises(GraphError, match="unknown input reference"):
        parse_graph(
            """
            table T { inputs: x; rows: [(y > 0, x)]; }
            edges:
              Input.x -> T.x;
            """
        )


def test_serialize_round_trip():
    for g in (demo_graph(), chain_graph(), diamond_graph()):
        g2 = parse_graph(serialize_graph(g))
        assert set(g2.tables) == set(g.tables)
        for name in g.tables:
            assert g2.tables[name] == g.tables[name]
        assert sorted(g2.edges, key=str) == sorted(g.edges, key=str)
        assert g2.m == g.m


def test_transform_demo_shape():
    g = demo_graph()
    tg = transform(g)
    assert set(tg.tables) == {
        "DL#1",
        "DL#2",
        "DL#3",
        "DL#4",
        "CT#1",
        "CT#2",
        "OP#1",
        "OP#2",
    }
    for tt in tg.tables.values():
        assert (tt.pred, tt.func) == g.tables[tt.origin].rows[tt.row]
    # sibling rows all feed the threshold tables
    assert sorted(tg.producers[("CT#1", "z")]) == [
        "DL#1",
        "DL#2",
        "DL#3",
        "DL#4",
    ]
    assert ("OP#1", "c") in tg.external_outputs
    assert ("CT#2", "w") in tg.external_outputs


def test_levels_and_consistent_order():
    tg = transform(demo_graph())
    order = tg.order
    pos = {n: i for i, n in enumerate(order)}
    for k in range(1, 5):
        assert pos[f"DL#{k}"] < pos["CT#1"]
        assert pos[f"DL#{k}"] < pos["CT#2"]
    assert tg.levels["DL#1"] == 1
    assert tg.levels["CT#1"] == 2
    assert tg.levels["OP#1"] == 1
    levels = [tg.levels[n] for n in order]
    assert levels == sorted(levels)


def test_transform_levels_a_long_chain_declared_consumer_first():
    # T0 reads the input and each T<k> reads T<k-1>; declared from the last
    # table down, the chain is deeper than a recursive walk of it can go
    n = 1100
    row = ((parse_expr("true"), parse_expr("a + 1")),)
    tables = {f"T{k}": Table(f"T{k}", (("a", "int"),), ("y", "int"), row)
              for k in reversed(range(n))}
    edges = ([(("Input", "x"), ("T0", "a"))]
             + [((f"T{k - 1}", "y"), (f"T{k}", "a")) for k in range(1, n)]
             + [((f"T{n - 1}", "y"), ("Output", "y"))])
    tg = transform(TableGraph(tables=tables, edges=edges))
    for name, tt in tg.tables.items():
        producers = [src for port, _ in tt.inputs
                     if not isinstance(tg.producers[(name, port)], str)
                     for src in tg.producers[(name, port)]]
        assert tg.levels[name] == 1 + max(map(tg.levels.get, producers), default=0)
    assert tg.levels[f"T{n - 1}#1"] == n
    assert tg.order == [f"T{k}#1" for k in range(n)]


def test_chain_order():
    tg = transform(chain_graph())
    order = tg.order
    pos = {n: i for i, n in enumerate(order)}
    assert pos["A#1"] < pos["B#1"] < pos["C#1"]


def test_single_row_transform_semantics():
    tg = transform(demo_graph())
    outputs = evaluate_plain(tg, {"a": 46, "b": True})
    assert outputs["DL#1"] == Tagged(True, 26)
    for k in (2, 3, 4):
        assert outputs[f"DL#{k}"] == BOT


def test_demo_evaluation_a46():
    tg = transform(demo_graph())
    outputs = evaluate_plain(tg, {"a": 46, "b": True})
    # z = 26 is not above the threshold, so CT row 2 fires
    assert outputs["CT#1"] == BOT
    assert outputs["CT#2"] == Tagged(True, False)
    assert outputs["OP#1"] == Tagged(True, 2)
    assert outputs["OP#2"] == BOT
    z = sibling_group([outputs[s] for s in tg.producers[("CT#1", "z")]])
    assert z == [Tagged(True, 26)]


def test_demo_evaluation_b_true():
    tg = transform(demo_graph())
    outputs = evaluate_plain(tg, {"a": 50, "b": True})
    assert outputs["OP#1"] == Tagged(True, 2)
    assert outputs["OP#2"] == BOT


def test_demo_evaluation_high_z():
    tg = transform(demo_graph())
    outputs = evaluate_plain(tg, {"a": 60, "b": False})
    # z = 40 > 30
    assert outputs["CT#1"] == Tagged(True, True)
    assert outputs["CT#2"] == BOT
    assert outputs["OP#1"] == BOT
    assert outputs["OP#2"] == Tagged(True, 3)


def test_null_propagation():
    g = parse_graph(
        """
        table P { inputs: a; outputs: y; rows: [(a > 0, a)]; }
        table Q { inputs: y; outputs: z; rows: [(true, y + 1)]; }
        edges:
          Input.a -> P.a;
          P.y -> Q.y;
          Q.z -> Output.z;
        """
    )
    tg = transform(g)
    outputs = evaluate_plain(tg, {"a": -3})
    # P's only row misses, its bot output makes Q null
    assert outputs["P#1"] == BOT
    assert outputs["Q#1"] is None


def test_evaluate_plain_deterministic():
    tg = transform(diamond_graph())
    a = evaluate_plain(tg, {"x": 33})
    b = evaluate_plain(tg, {"x": 33})
    assert a == b


def test_missing_external_input():
    tg = transform(demo_graph())
    with pytest.raises(GraphError):
        evaluate_plain(tg, {"a": 1})


def test_transform_matches_original_evaluation():
    cases = [
        (demo_graph(), [{"a": a, "b": b} for a in range(0, 101, 7) for b in (False, True)]),
        (chain_graph(), [{"x": x} for x in range(-60, 61, 5)]),
        (diamond_graph(), [{"x": x} for x in range(-60, 61, 5)]),
    ]
    for g, inputs in cases:
        tg = transform(g)
        for X in inputs:
            outputs = evaluate_plain(tg, X)
            ref = evaluate_original(g, X)
            for tname, _ in tg.external_outputs:
                tt = tg.tables[tname]
                got = outputs[tname]
                want = ref[tt.origin][tt.output[0]]
                if got is not None and got.tag:
                    assert got.payload == want
    # at least one case exercised per graph
    assert all(inputs for _, inputs in cases)


def test_exactly_one_top_among_siblings():
    tg = transform(demo_graph())
    for a in range(0, 101, 3):
        outputs = evaluate_plain(tg, {"a": a, "b": bool(a % 2)})
        tops = [
            k for k in range(1, 5) if outputs[f"DL#{k}"].tag
        ]
        assert len(tops) == 1


def test_constant_width_overflow():
    with pytest.raises(GraphError, match="payload width"):
        parse_graph(
            """
            table T { inputs: a; rows: [(a > 200, a)]; }
            edges:
              Input.a -> T.a;
              T.out -> Output.out;
            """
        )


def design(*tables, edges=(), m=16):
    """A design's parts as (m, tables, edges), unvalidated: each table is
    (name, inputs, output, rows), a port "p" or "p: bool" and a row a
    (predicate, function) pair of expression texts; each edge "A.p -> B.q"."""
    def port(p):
        return (p.split(":")[0].strip(), "bool" if ": bool" in p else "int")

    built = {name: Table(name, tuple(map(port, ins)), port(out), tuple(
        (parse_expr(pred), parse_expr(func)) for pred, func in rows))
        for name, ins, out, rows in tables}
    wires = [tuple(tuple(end.strip().split(".")) for end in e.split("->"))
             for e in edges]
    return m, built, wires


A = ("A", ["x"], "y", [("x > 0", "x"), ("x <= 0", "0")])
A_EDGES = ("Input.x -> A.x", "A.y -> Output.y")
DESIGN_RULES = {
    "bad width 0": design(A, edges=A_EDGES, m=0),
    "bad width 5": design(A, edges=A_EDGES, m=5),
    "no tables": design(),
    "'Output' is a reserved node name": design(
        ("Output", ["x"], "y", [("true", "x")]), edges=("Input.x -> Output.x",)),
    "table 'A' has no rows": design(("A", ["x"], "y", []), edges=A_EDGES),
    # a Table built in code has one output port and one function a row, so
    # only text can spell these two, and the parser refuses them itself
    "table 'A' has 2 outputs; a table has one output port": (
        "table A { inputs: x; outputs: y, z; rows: [(true, x, x)]; }\n"
        "edges: Input.x -> A.x; A.y -> Output.y; A.z -> Output.z;"),
    "table 'A': row has 2 functions for 1 outputs": (
        "table A { inputs: x; outputs: y; rows: [(true, x, x)]; }\n"
        "edges: Input.x -> A.x; A.y -> Output.y;"),
    # the parser refuses a text that nests deeper than it may recurse; a
    # design built in code holds no parentheses
    "expression nests deeper than 64 levels": (
        "table A { inputs: x; outputs: y; rows: [(" + "(" * 65 + "x > 0"
        + ")" * 65 + ", x)]; }\nedges: Input.x -> A.x; A.y -> Output.y;"),
    "edge Input.x -> Output.z passes through no table": design(
        A, edges=A_EDGES + ("Input.x -> Output.z",)),
    "dangling edge: unknown producer 'B'": design(
        A, edges=A_EDGES + ("B.y -> Output.z",)),
    "'A' has no input port 'w'": design(A, edges=A_EDGES + ("Input.x -> A.w",)),
    "port A.x has two producers": design(A, edges=A_EDGES + ("Input.w -> A.x",)),
    "port A.x has no producer": design(A, edges=("A.y -> Output.y",)),
    "external input 'x' used at two types": design(
        A, ("B", ["b: bool"], "y", [("b", "1"), ("not b", "0")]),
        edges=A_EDGES + ("Input.x -> B.b", "B.y -> Output.z")),
    "table 'A': predicate is not boolean": design(
        ("A", ["x"], "y", [("x", "x")]), edges=A_EDGES),
    "table 'A': function for 'y' is bool, port declared int": design(
        ("A", ["x"], "y", [("true", "x > 0")]), edges=A_EDGES),
    "table 'A': unknown input reference 'w'": design(
        ("A", ["x"], "y", [("w > 0", "x"), ("w <= 0", "0")]), edges=A_EDGES),
    # a 33-term sum is 33 nodes deep, and its text nests only 32 levels
    "expression is more than 32 nodes deep": design(
        ("A", ["x"], "y", [("true", " + ".join(["x"] * 33))]), edges=A_EDGES),
    "constant 200 exceeds 8-bit payload width": design(
        ("A", ["x"], "y", [("x > 200", "x"), ("x <= 200", "0")]), edges=A_EDGES),
    "type mismatch on edge A.y -> B.b": design(
        A, ("B", ["b: bool"], "y", [("b", "1"), ("not b", "0")]),
        edges=A_EDGES + ("A.y -> B.b", "B.y -> Output.z")),
    "cycle detected: tables on or after a cycle: A, B": design(
        ("A", ["x"], "y", [("true", "x")]), ("B", ["x"], "y", [("true", "x")]),
        edges=("A.y -> B.x", "B.y -> A.x")),
}


@pytest.mark.parametrize("message", list(DESIGN_RULES))
def test_parsed_and_built_designs_are_refused_alike(message):
    # TableGraph.validate holds every rule a design built in code can break:
    # a design built in code and its text form are refused with the same
    # message; a design that only text can spell is refused by the parser
    case = DESIGN_RULES[message]
    if isinstance(case, str):
        with pytest.raises(GraphError) as parsed:
            parse_graph(case)
        assert str(parsed.value) == message
        return
    m, tables, edges = case
    with pytest.raises(GraphError) as built:
        TableGraph(tables=tables, edges=edges, m=m)
    text = serialize_graph(SimpleNamespace(m=m, tables=tables, edges=edges))
    with pytest.raises(GraphError) as parsed:
        parse_graph(text)
    assert str(built.value).startswith(message)
    assert str(parsed.value) == str(built.value)


@pytest.mark.parametrize("kind", ["not", "neg", "if-cond", "if-then", "if-else",
                                  "sub"])
def test_the_deepest_expressions_survive_their_text(kind):
    # serialize_graph writes up to two levels of nesting per node, as in
    # `not (` and `(if`, so the parser takes twice MAX_DEPTH levels, and a
    # design that validate accepts reads back from its text, as an audit
    # reads the spec; one node deeper, the design is refused
    x, p, q = Ref("x"), parse_expr("x > 0"), parse_expr("x <= 0")
    step = {"not": lambda e: Unary("not", e),
            "neg": lambda e: Unary("neg", e),
            "if-cond": lambda e: IfThenElse(e, p, q),
            "if-then": lambda e: IfThenElse(p, e, Const(1)),
            "if-else": lambda e: IfThenElse(q, x, e),
            "sub": lambda e: Binary("-", Const(1), e)}[kind]
    leaf = p if kind in ("not", "if-cond") else x
    e = leaf
    while max(depth for _, depth in walk(step(e))) <= MAX_DEPTH:
        e = step(e)

    def parts(e):
        row = (e, x) if leaf is p else (p, e)
        return ({"A": Table("A", (("x", "int"),), ("y", "int"), (row,))},
                [(("Input", "x"), ("A", "x")), (("A", "y"), ("Output", "y"))])

    g = TableGraph(*parts(e))
    assert parse_graph(serialize_graph(g)).tables == g.tables
    with pytest.raises(GraphError, match="more than 32 nodes deep"):
        TableGraph(*parts(step(e)))
