import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    bits_to_tagged,
    random_bits,
    random_circuit,
    simulate_batch,
    tagged_to_bits,
)
from tabverify import he
from tabverify.circuit import (
    TT_AND,
    TT_NOT,
    TT_OR,
    TT_XNOR,
    TT_XOR,
    Builder,
    Circuit,
    CircuitError,
    UC_CONSTRUCTION,
    UniversalCircuit,
    budget_for,
    compile_table,
    encode_program,
    simulate,
)
from tabverify.demo import chain_graph, demo_graph, diamond_graph
from tabverify.expr import (
    Binary,
    Const,
    IfThenElse,
    Ref,
    Unary,
    evaluate,
    parse_expr,
    to_text,
)
from tabverify.tables import BOT, Tagged, TTable, transform

M = 16
H = M // 2


def tt_of(graph_name="DL", row=1):
    tg = transform(demo_graph())
    return tg.tables[f"{graph_name}#{row}"]


def test_simulate_and_gate():
    c = Circuit(2, ((0, 1, TT_AND),), (2,))
    assert simulate(c, (1, 1)) == (1,)
    assert simulate(c, (1, 0)) == (0,)


def test_simulate_parity_chain():
    gates = [(0, 1, TT_XOR)]
    for i in range(2, 8):
        gates.append((6 + i, i, TT_XOR))
    c = Circuit(8, tuple(gates), (14,))
    assert simulate(c, (1, 0, 1, 0, 1, 0, 1, 0)) == (0,)
    assert simulate(c, (1, 0, 1, 0, 1, 0, 1, 1)) == (1,)


def test_circuit_validation():
    with pytest.raises(CircuitError):
        Circuit(2, ((0, 5, TT_AND),), (2,))
    with pytest.raises(CircuitError):
        Circuit(2, ((0, 1, 99),), (2,))
    with pytest.raises(CircuitError):
        Circuit(2, (), (7,))
    with pytest.raises(CircuitError):
        simulate(Circuit(2, (), (0,)), (1, 0, 1))


def test_simulate_batch_matches_loop():
    rng = random.Random(7)
    for _ in range(20):
        c = random_circuit(rng, 6, 30, n_outputs=3)
        cases = [random_bits(rng, 6) for _ in range(50)]
        cols = [
            sum(case[i] << k for k, case in enumerate(cases)) for i in range(6)
        ]
        batched = simulate_batch(c, cols, len(cases))
        for k, case in enumerate(cases):
            want = simulate(c, case)
            got = tuple((col >> k) & 1 for col in batched)
            assert got == want


def test_builder_folds_constants():
    b = Builder(2)
    one = b.constant(1)
    zero = b.constant(0)
    assert b.and_(one, zero) == zero
    assert b.xor(0, 0) == zero  # same wire xor itself
    assert b.and_(0, one) == 0  # identity collapses to the input wire
    assert b.not_(b.not_(0)) == 0
    n_before = len(b.gates)
    b.and_(0, 1)
    b.and_(1, 0)  # symmetric, shared
    assert len(b.gates) == n_before + 1


def test_builder_word_arithmetic():
    rng = random.Random(3)
    b = Builder(16)
    A = list(range(8))
    B = list(range(8, 16))
    s, _ = b.add_words(A, B)
    d = b.sub_words(A, B)
    p = b.mul_words(A, B)
    lt = b.lt_signed(A, B)
    eq = b.eq_words(A, B)
    c = b.finish(s + d + p + [lt, eq])
    for _ in range(200):
        x = rng.randrange(-128, 128)
        y = rng.randrange(-128, 128)
        bits = tuple(((x & 0xFF) >> i) & 1 for i in range(8)) + tuple(
            ((y & 0xFF) >> i) & 1 for i in range(8)
        )
        out = simulate(c, bits)

        def word(k):
            v = sum(out[k + i] << i for i in range(8))
            return v - 256 if v >= 128 else v

        assert word(0) == ((x + y + 128) % 256) - 128
        assert word(8) == ((x - y + 128) % 256) - 128
        assert word(16) == ((x * y + 128) % 256) - 128
        assert out[24] == int(x < y)
        assert out[25] == int(x == y)


def encode_input(tagged_values, m=M):
    bits = ()
    for tv in tagged_values:
        bits += tagged_to_bits(tv, m)
    return bits


def test_compile_demo_rows():
    tg = transform(demo_graph())
    c1 = compile_table(tg.tables["DL#1"], M)
    out = simulate(c1, encode_input([Tagged(True, 46)]))
    assert bits_to_tagged(out) == Tagged(True, 26)
    out = simulate(c1, encode_input([Tagged(True, 30)]))
    assert bits_to_tagged(out).tag is False
    c7 = compile_table(tg.tables["OP#1"], M)
    out = simulate(c7, encode_input([Tagged(True, True)]))
    assert bits_to_tagged(out) == Tagged(True, 2)
    out = simulate(c7, encode_input([Tagged(True, False)]))
    assert bits_to_tagged(out).tag is False


def test_compile_bot_input_gives_bot_output():
    tg = transform(demo_graph())
    c = compile_table(tg.tables["CT#1"], M)
    out = simulate(c, (0,) * M)
    assert out == (0,) * M


def test_compile_matches_interpreter_on_random_exprs():
    rng = random.Random(11)
    ops = ["+", "-", "*"]
    cmps = ["<", "<=", "==", ">", ">="]
    from tabverify.graphtext import parse_graph

    for trial in range(60):
        a_op = rng.choice(ops)
        cmp_op = rng.choice(cmps)
        k1, k2 = rng.randrange(-20, 21), rng.randrange(-20, 21)
        pred = f"a {cmp_op} {k1}"
        func = f"a {a_op} {k2}"
        g = parse_graph(
            f"""
            table T {{ inputs: a; rows: [({pred}, {func}), (not ({pred}), 0)]; }}
            edges:
              Input.a -> T.a;
              T.out -> Output.out;
            """
        )
        tg = transform(g)
        c = compile_table(tg.tables["T#1"], M)
        for _ in range(10):
            x = rng.randrange(-128, 128)
            out = bits_to_tagged(simulate(c, encode_input([Tagged(True, x)])))
            env = {"a": x}
            if evaluate(parse_expr(pred), env, H):
                assert out == Tagged(True, evaluate(parse_expr(func), env, H))
            else:
                assert out.tag is False


# every operator _compile_expr handles; "==b" is == on bools
INT_OPS = ("+", "-", "*", "neg", "if")
BOOL_OPS = ("<", "<=", ">", ">=", "==", "==b", "not", "and", "or", "if")


def random_expr(rng, env, want, depth, seen):
    """A random expression of type want ("int" or "bool") over the inputs
    env (name -> type), at most depth operators deep; adds the operators
    it uses to seen."""
    refs = [name for name, t in env.items() if t == want]
    if depth == 0 or rng.random() < 0.2:
        if refs and rng.random() < 0.7:
            return Ref(rng.choice(refs))
        return Const(rng.randrange(-20, 21) if want == "int" else rng.random() < 0.5)
    op = rng.choice(INT_OPS if want == "int" else BOOL_OPS)
    seen.add(op)

    def sub(t):
        return random_expr(rng, env, t, depth - 1, seen)

    if op in ("neg", "not"):
        return Unary(op, sub(want))
    if op == "if":
        return IfThenElse(sub("bool"), sub(want), sub(want))
    operand = "bool" if op in ("and", "or", "==b") else "int"
    return Binary(op.rstrip("b"), sub(operand), sub(operand))


@pytest.mark.parametrize("ports", [1, 2, 3])
def test_compiled_random_trees_match_the_interpreter(ports):
    # random well-typed trees up to depth 3 over int and bool inputs, as a
    # predicate and as the row function, on every input of up to two ports
    # at width 8 (a 4-bit payload), and on up to 64 sampled inputs of
    # three; the compiled circuit's tagged word must be the interpreter's.
    # Each tree also survives its own text, as a certificate's g_spec must:
    # a negative constant is written -(n), which parses back to that text
    # and, on every input below, to the same value
    rng = random.Random(400 + ports)
    m, h = 8, 4
    seen = set()
    for _ in range(250):
        env = {f"x{k}": rng.choice(("int", "bool")) for k in range(ports)}
        otype = rng.choice(("int", "bool"))
        pred = Const(True)
        if rng.random() < 0.7:
            pred = random_expr(rng, env, "bool", 3, seen)
        func = random_expr(rng, env, otype, 3, seen)
        reparsed = [(e, parse_expr(to_text(e))) for e in (pred, func)]
        for e, r in reparsed:
            assert to_text(r) == to_text(e)
        c = compile_table(TTable("T#1", "T", 1, tuple(env.items()), ("y", otype),
                                 pred, func), m)
        domains = [range(-8, 8) if t == "int" else (False, True) for t in env.values()]
        points = list(itertools.product(*domains))
        if ports > 2:
            points = rng.sample(points, min(64, len(points)))
        inputs = [encode_input([Tagged(True, v) for v in point], m) for point in points]
        columns = [sum(bits[i] << k for k, bits in enumerate(inputs))
                   for i in range(c.n_inputs)]
        outs = simulate_batch(c, columns, len(points))
        assert simulate(c, inputs[0]) == tuple(o & 1 for o in outs)
        for k, point in enumerate(points):
            values = dict(zip(env, point))
            want = (Tagged(True, evaluate(func, values, h))
                    if evaluate(pred, values, h) else BOT)
            got = bits_to_tagged(tuple(o >> k & 1 for o in outs), otype)
            assert got == want, (to_text(pred), to_text(func), values)
            for e, r in reparsed:
                assert evaluate(r, values, h) == evaluate(e, values, h), to_text(e)
    assert seen == set(INT_OPS) | set(BOOL_OPS)


def assert_compiled_structure(c):
    """Every gate is read by a later gate or by an output, no gate reads a
    NOT gate's output, no gate reads a wire together with a gate that reads
    that wire, and no two-operand gate's table ignores an operand: the
    Builder reads through NOT gates, composes such a pair into one gate and
    folds such a table to a gate of one operand, and finish keeps only the
    gates some output depends on."""
    n = c.n_inputs
    read = set(c.outputs)
    nots = set()
    operands = {}  # a two-operand gate's wire -> the wires it reads
    for j, (l, r, tt) in enumerate(c.gates):
        assert l not in nots and r not in nots, f"gate {j} reads a NOT gate"
        if l != r:
            assert (l not in operands.get(r, ()) and r not in operands.get(l, ())), (
                f"gate {j} reads a wire and a gate of that wire")
            assert (tt ^ tt >> 1) & 0b0101 and (tt ^ tt >> 2) & 0b0011, (
                f"gate {j} ignores an operand")
            operands[n + j] = (l, r)
        read.update((l, r))
        if l == r and tt == TT_NOT:
            nots.add(n + j)
    assert read >= set(range(n, n + len(c.gates))), "a gate no output reads"


@pytest.mark.parametrize("ports", [1, 2, 3])
def test_compiled_random_trees_have_no_dead_gate_and_read_no_not_gate(ports):
    rng, seen = random.Random(500 + ports), set()
    for _ in range(250):
        env = {f"x{k}": rng.choice(("int", "bool")) for k in range(ports)}
        otype = rng.choice(("int", "bool"))
        pred = Const(True)
        if rng.random() < 0.7:
            pred = random_expr(rng, env, "bool", 3, seen)
        func = random_expr(rng, env, otype, 3, seen)
        assert_compiled_structure(compile_table(
            TTable("T#1", "T", 1, tuple(env.items()), ("y", otype), pred, func), 8))
    assert seen == set(INT_OPS) | set(BOOL_OPS)


def test_builder_reads_through_not_gates():
    b = Builder(2)
    na = b.not_(0)
    assert b.gates == [(0, 0, TT_NOT)]
    # x1 and not x0 is one gate over the inputs: the NOT folds into its tt
    w = b.and_(1, na)
    assert b.gates[-1] == (0, 1, 0b0010)
    assert b.xor(na, 1) == b.gate(0, 1, TT_XNOR)
    c = b.finish([w])
    assert c.gates == ((0, 1, 0b0010),)
    assert [simulate(c, (x, y)) for x in (0, 1) for y in (0, 1)] == [
        (0,), (1,), (0,), (0,)]


@pytest.mark.parametrize("x", [0, 1])  # the shared wire, the lower input or the higher
def test_a_gate_of_x_and_a_gate_that_reads_x_is_one_gate(x):
    # every outer and inner truth table, x on either side of the inner gate
    # and the inner gate on either side of the outer one: the result is at
    # most one gate, over the two inputs when it reads two, equal to the
    # two gates composed. A composition that ignores an input folds further,
    # to one input, its NOT or a constant
    y = 1 - x
    for outer, inner, x_first, inner_first in itertools.product(
            range(16), range(16), (True, False), (True, False)):
        b = Builder(2)
        w = b.gate(x, y, inner) if x_first else b.gate(y, x, inner)
        out = b.gate(w, x, outer) if inner_first else b.gate(x, w, outer)
        c = b.finish([out])
        assert len(c.gates) <= 1, (outer, inner)
        assert all(l == r or (l, r) == (0, 1) for l, r, _ in c.gates), (outer, inner)
        for bits in itertools.product((0, 1), repeat=2):
            xv, yv = bits[x], bits[y]
            wv = inner >> ((xv << 1 | yv) if x_first else (yv << 1 | xv)) & 1
            want = outer >> ((wv << 1 | xv) if inner_first else (xv << 1 | wv)) & 1
            assert simulate(c, bits) == (want,), (outer, inner, bits)


def test_a_gate_read_elsewhere_is_kept_and_no_gate_is_added():
    # the carry at a zero bit of a constant, a or (not a and c), is a or c;
    # where another output reads the inner gate, it stays, and the pair
    # still costs two gates
    b = Builder(2)
    inner = b.gate(0, 1, 0b0010)  # not a and c
    carry = b.or_(0, inner)
    assert b.finish([carry]).gates == ((0, 1, TT_OR),)
    assert b.finish([carry, inner]).gates == ((0, 1, 0b0010), (0, 1, TT_OR))


def test_finish_drops_dead_gates_and_renumbers():
    b = Builder(3)
    dead = b.and_(0, 1)
    x = b.xor(0, 1)
    y = b.or_(x, 2)
    b.and_(dead, y)  # read by nothing
    c = b.finish([y, x, 1])
    assert c.gates == ((0, 1, TT_XOR), (2, 3, TT_OR))
    assert c.outputs == (4, 3, 1)


# each built-in design's universal-circuit budget and program length
BUILT_IN_BUDGETS = {
    "demo": ((16, 37, 16), 688),
    "diamond": ((32, 70, 16), 1372),
    "chain": ((16, 28, 16), 544),
}


@pytest.mark.parametrize("design", list(BUILT_IN_BUDGETS))
def test_built_in_budgets_are_pinned(design):
    make = {"demo": demo_graph, "diamond": diamond_graph, "chain": chain_graph}
    tg = transform(make[design]())
    budget = budget_for([compile_table(t, tg.m) for t in tg.tables.values()])
    assert (budget, UniversalCircuit(*budget).program_length) == (
        BUILT_IN_BUDGETS[design])


def test_compile_multi_output_rejected():
    # the design rule refuses a two-output table before any circuit is built
    from tabverify.graphtext import parse_graph
    from tabverify.tables import GraphError

    with pytest.raises(GraphError, match="'T' has 2 outputs; a table has one"):
        parse_graph(
            """
            table T { inputs: a; outputs: y, z; rows: [(true, a, a + 1)]; }
            edges:
              Input.a -> T.a;
              T.y -> Output.y;
              T.z -> Output.z;
            """
        )


def test_universal_one_slot_and():
    u = UniversalCircuit(2, 1, 1)
    c = Circuit(2, ((0, 1, TT_AND),), (2,))
    prog = encode_program(c, u)
    for x in range(4):
        bits = (x & 1, (x >> 1) & 1)
        assert simulate(u.circuit, tuple(prog) + tuple(bits)) == simulate(c, bits)


def test_universal_random_circuits():
    rng = random.Random(23)
    u = UniversalCircuit(6, 20, 2)
    for _ in range(40):
        c = random_circuit(rng, rng.randrange(2, 7), rng.randrange(1, 21), 2)
        prog = encode_program(c, u)
        for _ in range(5):
            x = random_bits(rng, c.n_inputs)
            padded = tuple(x) + tuple(
                x[i % c.n_inputs] for i in range(u.n_data - c.n_inputs)
            )
            assert (
                simulate(u.circuit, tuple(prog) + tuple(padded))
                == simulate(c, x)
            )


def test_universal_exhaustive_small():
    rng = random.Random(5)
    u = UniversalCircuit(4, 8, 1)
    for _ in range(10):
        c = random_circuit(rng, 4, 8, 1)
        prog = encode_program(c, u)
        for x in range(16):
            bits = tuple((x >> i) & 1 for i in range(4))
            assert simulate(u.circuit, tuple(prog) + tuple(bits)) == simulate(
                c, bits
            )


def test_projection_consistency():
    rng = random.Random(9)
    u = UniversalCircuit(4, 10, 3)
    c = random_circuit(rng, 4, 10, 3)
    prog = encode_program(c, u)
    for _ in range(10):
        x = random_bits(rng, 4)
        full = simulate(u.circuit, tuple(prog) + tuple(x))
        parts = tuple(
            simulate(Circuit(u.circuit.n_inputs, u.circuit.gates,
                             (u.circuit.outputs[k],)), tuple(prog) + tuple(x))[0]
            for k in range(3)
        )
        assert parts == full


@st.composite
def universal_inputs(draw):
    """A small universal circuit and an input vector for it. The program
    bits are random, so some selectors point past the bus: at a later
    slot's line, or past the last line."""
    u = UniversalCircuit(draw(st.integers(1, 6)), draw(st.integers(1, 12)),
                         draw(st.integers(1, 4)))
    bits = draw(st.lists(st.integers(0, 1), min_size=u.n_inputs,
                         max_size=u.n_inputs))
    return u, tuple(bits)


TR_KEYS = he.keygen(rng=random.Random(31))


@settings(max_examples=200, deadline=None)
@given(universal_inputs())
def test_slot_evaluator_matches_gate_list(case):
    # the slot evaluator is the prepared program's, so run it through
    # he.prepare on transparent ciphertexts of the program and data bits
    u, bits = case
    word = he.enc_word(TR_KEYS.hpk, bits, random.Random(32))
    program = he.cut_word(TR_KEYS.hpk, word, 0, u.program_length)
    data = he.cut_word(TR_KEYS.hpk, word, u.program_length)
    out = he.prepare(TR_KEYS.hpk, u, program).run(data)
    assert he.dec_word(TR_KEYS.hsk, out) == simulate(u.circuit, bits)


# sha256 of the UC's gate list, as the Builder makes it, per budget: the
# smallest and the built-in demo's and diamond's. Nonces and certificates
# name a UC by UniversalCircuit.name, the construction tag and the budget,
# not by this list, and he runs a program by the slot semantics of
# uc_layout and he._Program. A change to those renames UC_CONSTRUCTION and
# bumps the certificate format; a change to the Builder re-records these.
UC_GATE_DIGESTS = {
    (1, 1, 1): "26b576f25609b18e3a08f4fa72c65b686f81f287a0d1e6c7935f81b41eeb3970",
    (16, 37, 16): "f4de6a6ce7a76f35ece7867cf598598602132fefb57f25bd18dc2afabb6aa68f",
    (32, 70, 16): "d7c0d3887b70d00daf8f39eeebe341d81afa7c18b6feee0f5a4cebb0d8132327",
}


@pytest.mark.parametrize("budget", list(UC_GATE_DIGESTS))
def test_uc_gate_list_is_pinned_to_its_construction(budget):
    u = UniversalCircuit(*budget)
    assert u.circuit.gates_digest() == UC_GATE_DIGESTS[budget], (
        "the UC gate list changed: if the slot semantics changed, change "
        "UC_CONSTRUCTION and bump the certificate format")
    assert u.name == f"{UC_CONSTRUCTION}:{budget[0]},{budget[1]},{budget[2]}"
    assert u.circuit.n_inputs == u.n_inputs


def test_program_length_uniform():
    u = UniversalCircuit(16, 40, M)
    c_small = random_circuit(random.Random(1), 3, 2, M)
    c_big = random_circuit(random.Random(2), 16, 40, M)
    assert len(encode_program(c_small, u)) == len(encode_program(c_big, u))
    assert len(encode_program(c_small, u)) == u.program_length


def test_encode_rejects_over_budget():
    u = UniversalCircuit(4, 5, 1)
    too_many_gates = random_circuit(random.Random(4), 4, 6, 1)
    with pytest.raises(CircuitError, match="budget"):
        encode_program(too_many_gates, u)
    too_wide = random_circuit(random.Random(4), 5, 3, 1)
    with pytest.raises(CircuitError, match="budget"):
        encode_program(too_wide, u)
    wrong_outputs = random_circuit(random.Random(4), 4, 3, 2)
    with pytest.raises(CircuitError, match="output"):
        encode_program(wrong_outputs, u)


def test_demo_tables_share_one_budget():
    tg = transform(demo_graph())
    circuits = [compile_table(t, M) for t in tg.tables.values()]
    nd, g, m = budget_for(circuits)
    u = UniversalCircuit(nd, g, m)
    progs = [encode_program(c, u) for c in circuits]
    assert len({len(p) for p in progs}) == 1


def test_mult_depth():
    c = Circuit(2, ((0, 1, TT_XOR),), (2,))
    assert c.mult_depth == 0
    c = Circuit(2, ((0, 1, TT_AND), (2, 0, TT_AND)), (3,))
    assert c.mult_depth == 2
    # a gate multiplies iff its operands differ and its truth table has an
    # odd number of ones: 0b0001 is NOR on two wires and NOT on one
    assert Circuit(2, ((0, 1, 0b0001),), (2,)).mult_depth == 1
    assert Circuit(2, ((0, 0, 0b0001),), (2,)).mult_depth == 0
    assert Circuit(2, ((0, 1, 0b0011),), (2,)).mult_depth == 0
    assert Circuit(2, ((0, 0, TT_AND),), (2,)).mult_depth == 0
