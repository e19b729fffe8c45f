"""Boolean circuit IR, a compiler from row functions, and a universal
circuit with per-circuit program strings.

A circuit is a flat gate list; each gate is (left, right, tt) where tt is a
4-bit truth table indexed by (left_value << 1) | right_value. Wires 0..n-1
are inputs, wire n+j is gate j's output. Words are lists of wires, least
significant bit first.

Every gate list, of a table, of the SE circuit or of the universal
circuit, is built by a Builder, which folds constants, shares equal gates,
reads through NOT gates and makes a gate of x and a gate that reads x one
gate, and whose finish keeps only the gates some output depends on. A
program's length is set by the largest table's gate count, so each gate
the Builder saves there shortens every program.
"""

import hashlib
from array import array
from dataclasses import dataclass
from functools import cached_property, reduce

from .expr import Binary, Const, IfThenElse, Ref, Unary

TT_AND = 0b1000
TT_OR = 0b1110
TT_XOR = 0b0110
TT_XNOR = 0b1001
TT_NOT = 0b0001  # unary via (w, w): index 0 -> 1, index 3 -> 0
UC_CONSTRUCTION = "gate-slot-v1"  # UniversalCircuit's; change it with its gates


class CircuitError(Exception):
    pass


@dataclass(frozen=True)
class Circuit:
    n_inputs: int
    gates: tuple  # ((left, right, tt), ...)
    outputs: tuple  # wire indices

    def __post_init__(self):
        n = self.n_inputs
        for j, (l, r, tt) in enumerate(self.gates):
            if not (0 <= l < n + j and 0 <= r < n + j):
                raise CircuitError(f"gate {j} references a later wire")
            if not 0 <= tt < 16:
                raise CircuitError(f"gate {j} has invalid truth table {tt}")
        for w in self.outputs:
            if not 0 <= w < n + len(self.gates):
                raise CircuitError(f"output wire {w} out of range")
        object.__setattr__(self, "_gd", None)

    def gates_digest(self):
        if self._gd is None:
            h = hashlib.sha256()
            h.update(str(self.n_inputs).encode())
            for g in self.gates:
                h.update(b"%d,%d,%d;" % g)
            object.__setattr__(self, "_gd", h.hexdigest())
        return self._gd

    @property
    def mult_depth(self):
        """Depth counting only nonlinear gates (the AND depth)."""
        depth = [0] * self.n_inputs
        for l, r, tt in self.gates:
            d = max(depth[l], depth[r])
            # a gate multiplies iff its algebraic normal form has the term
            # l*r: its operands differ and tt has an odd number of ones
            depth.append(d + (l != r and tt.bit_count() % 2))
        if not self.outputs:
            return 0
        return max(depth[w] for w in self.outputs)


def simulate(c, bits):
    """Evaluate gate by gate; bits is the input vector, LSB-first per word."""
    if len(bits) != c.n_inputs:
        raise CircuitError(f"expected {c.n_inputs} input bits, got {len(bits)}")
    wires = list(bits)
    for l, r, tt in c.gates:
        wires.append((tt >> ((wires[l] << 1) | wires[r])) & 1)
    return tuple(wires[w] for w in c.outputs)


class Builder:
    """Gate-list builder.

    - Constant folding: a gate with a constant operand becomes a constant,
      its other operand or that operand's NOT; so does a gate whose truth
      table ignores one operand, which absorption can leave.
    - Sharing: a gate with the operands and truth table of an earlier one,
      in either operand order, is that gate.
    - NOT read-through: a gate whose operand is a NOT gate reads the wire
      that gate negates and flips that operand's index bit in its truth
      table, so a NOT gate costs a slot only where an output reads it.
    - Absorption: a gate of x and a two-operand gate that reads x is one
      gate, of the composed truth table on x and that gate's other operand
      (two-level AIG rewriting; Mishchenko, Chatterjee & Brayton, DAC
      2006). The gate it read stays only where something else reads it,
      so no circuit grows.
    - Dead-gate removal: finish keeps only the gates some output depends on.
    """

    def __init__(self, n_inputs):
        self.n_inputs = n_inputs
        self.gates = []
        self._cache = {}
        self._const = {}  # 0/1 -> wire
        self._value = {}  # wire -> known constant
        self._neg = {}  # NOT gate's wire -> the wire it negates

    def constant(self, v):
        v = int(bool(v))
        if v not in self._const:
            w = self._raw(0, 0, 15 if v else 0)
            self._const[v] = w
            self._value[w] = v
        return self._const[v]

    def _raw(self, l, r, tt):
        key = (l, r, tt)
        if key in self._cache:
            return self._cache[key]
        self.gates.append(key)
        w = self.n_inputs + len(self.gates) - 1
        self._cache[key] = w
        return w

    def gate(self, l, r, tt):
        # read through NOT gates: flip the operand's index bit in tt
        if l in self._neg:
            l, tt = self._neg[l], (tt >> 2 & 0b0011) | (tt & 0b0011) << 2
        if r in self._neg:
            r, tt = self._neg[r], (tt >> 1 & 0b0101) | (tt & 0b0101) << 1
        va, vb = self._value.get(l), self._value.get(r)
        if va is not None and vb is not None:
            return self.constant((tt >> ((va << 1) | vb)) & 1)
        if va is not None:
            # unary in r: g(b) = tt at (va, b)
            g0 = (tt >> (va << 1)) & 1
            g1 = (tt >> ((va << 1) | 1)) & 1
            return self._unary(r, g0, g1)
        if vb is not None:
            g0 = (tt >> vb) & 1
            g1 = (tt >> (2 | vb)) & 1
            return self._unary(l, g0, g1)
        if l == r:
            return self._unary(l, tt & 1, (tt >> 3) & 1)
        # canonicalize symmetric operand order
        if l > r:
            l, r = r, l
            tt = (tt & 0b1001) | ((tt & 0b0100) >> 1) | ((tt & 0b0010) << 1)
        return self._absorb(l, r, tt)

    def _absorb(self, l, r, tt):
        """The gate tt(l, r), l < r, neither a constant nor a NOT gate, as
        gate leaves them. When r is a gate, it reads two distinct wires;
        when l is one of them, tt(l, r) is a function of l and r's other
        operand y alone: the gate of the composed truth table on (l, y). y
        is a wire earlier than r, so the recursion through gate ends, and
        finish drops r when nothing else reads it. A table that ignores an
        operand, as a composed one can, is a function of the other alone."""
        if r >= self.n_inputs:
            a, b, inner = self.gates[r - self.n_inputs]
            if l == a or l == b:
                y, composed = (b if l == a else a), 0
                for i in range(4):  # i = (value of l << 1) | value of y
                    x, v = i >> 1, i & 1
                    rv = inner >> ((x << 1 | v) if l == a else (v << 1 | x)) & 1
                    composed |= (tt >> (x << 1 | rv) & 1) << i
                return self.gate(l, y, composed)
        if not (tt ^ tt >> 1) & 0b0101:
            return self._unary(l, tt & 1, tt >> 2 & 1)
        if not (tt ^ tt >> 2) & 0b0011:
            return self._unary(r, tt & 1, tt >> 1 & 1)
        return self._raw(l, r, tt)

    def _unary(self, w, g0, g1):
        if g0 == g1:
            return self.constant(g0)
        if (g0, g1) == (0, 1):
            return w
        nw = self._raw(w, w, TT_NOT)
        self._neg[nw] = w
        return nw

    # single-bit helpers
    def and_(self, a, b):
        return self.gate(a, b, TT_AND)

    def or_(self, a, b):
        return self.gate(a, b, TT_OR)

    def xor(self, a, b):
        return self.gate(a, b, TT_XOR)

    def not_(self, a):
        return self.gate(a, a, TT_NOT)

    def mux(self, s, hi, lo):
        """3-gate multiplexer: lo xor (s and (lo xor hi))."""
        return self.xor(lo, self.and_(s, self.xor(lo, hi)))

    def and_all(self, wires):
        return reduce(self.and_, wires)

    def or_all(self, wires):
        return reduce(self.or_, wires)

    # word helpers, LSB-first wire lists
    def add_words(self, A, B, carry_in=None):
        carry = self.constant(0) if carry_in is None else carry_in
        out = []
        for a, b in zip(A, B):
            axb = self.xor(a, b)
            out.append(self.xor(axb, carry))
            carry = self.or_(self.and_(a, b), self.and_(carry, axb))
        return out, carry

    def sub_words(self, A, B):
        nb = [self.not_(b) for b in B]
        out, _ = self.add_words(A, nb, carry_in=self.constant(1))
        return out

    def neg_word(self, A):
        zero = [self.constant(0)] * len(A)
        return self.sub_words(zero, A)

    def mul_words(self, A, B):
        width = len(A)
        acc = [self.constant(0)] * width
        for i, b in enumerate(B):
            partial = [self.constant(0)] * i
            partial += [self.and_(a, b) for a in A[: width - i]]
            acc, _ = self.add_words(acc, partial)
        return acc

    def sign_extend(self, A, width):
        return list(A) + [A[-1]] * (width - len(A))

    def lt_signed(self, A, B):
        """A < B over two's complement: sign of (A - B) at width+1."""
        w = len(A) + 1
        d = self.sub_words(self.sign_extend(A, w), self.sign_extend(B, w))
        return d[-1]

    def eq_words(self, A, B):
        diff = [self.xor(a, b) for a, b in zip(A, B)]
        return self.not_(self.or_all(diff))

    def mux_word(self, s, HI, LO):
        return [self.mux(s, h, l) for h, l in zip(HI, LO)]

    def finish(self, outputs):
        """The circuit of the gates some output depends on, renumbered in
        order."""
        n, gates, outputs = self.n_inputs, self.gates, tuple(outputs)
        live = bytearray(n + len(gates))
        for w in outputs:
            live[w] = 1
        for j in range(len(gates) - 1, -1, -1):
            if live[n + j]:
                l, r, _ = gates[j]
                live[l] = live[r] = 1
        remap = array("l", range(n + len(gates)))
        kept = []
        for j, (l, r, tt) in enumerate(gates):
            if live[n + j]:
                remap[n + j] = n + len(kept)
                kept.append((remap[l], remap[r], tt))
        return Circuit(n, tuple(kept), tuple(remap[w] for w in outputs))


# --- compiling expressions and row tables ------------------------------------


def _compile_expr(b, expr, env, h):
    """Return ('int', word) or ('bool', wire)."""
    if isinstance(expr, Const):
        if isinstance(expr.value, bool):
            return ("bool", b.constant(expr.value))
        bits = expr.value & ((1 << h) - 1)
        return ("int", [b.constant((bits >> i) & 1) for i in range(h)])
    if isinstance(expr, Ref):
        return env[expr.name]
    if isinstance(expr, Unary):
        t, v = _compile_expr(b, expr.operand, env, h)
        if expr.op == "not":
            return ("bool", b.not_(v))
        return ("int", b.neg_word(v))
    if isinstance(expr, Binary):
        lt, lv = _compile_expr(b, expr.left, env, h)
        rt, rv = _compile_expr(b, expr.right, env, h)
        op = expr.op
        if op == "+":
            return ("int", b.add_words(lv, rv)[0])
        if op == "-":
            return ("int", b.sub_words(lv, rv))
        if op == "*":
            return ("int", b.mul_words(lv, rv))
        if op == "<":
            return ("bool", b.lt_signed(lv, rv))
        if op == ">":
            return ("bool", b.lt_signed(rv, lv))
        if op == "<=":
            return ("bool", b.not_(b.lt_signed(rv, lv)))
        if op == ">=":
            return ("bool", b.not_(b.lt_signed(lv, rv)))
        if op == "==":
            if lt == "bool":
                return ("bool", b.gate(lv, rv, TT_XNOR))
            return ("bool", b.eq_words(lv, rv))
        if op == "and":
            return ("bool", b.and_(lv, rv))
        if op == "or":
            return ("bool", b.or_(lv, rv))
        raise CircuitError(f"unknown operator '{op}'")
    if isinstance(expr, IfThenElse):
        _, c = _compile_expr(b, expr.cond, env, h)
        tt, tv = _compile_expr(b, expr.then, env, h)
        _, ev = _compile_expr(b, expr.other, env, h)
        if tt == "bool":
            return ("bool", b.mux(c, tv, ev))
        return ("int", b.mux_word(c, tv, ev))
    raise CircuitError(f"not an expression: {expr!r}")


def compile_table(tt, m):
    """Compile a single-row table to a circuit over tagged words.

    Input: the table's input words concatenated in port order, m bits each.
    Output: the m-bit tagged result; the bot branch yields the all-zero word.
    """
    h = m // 2
    b = Builder(len(tt.inputs) * m)
    env = {}
    tags = []
    for i, (port, ptype) in enumerate(tt.inputs):
        base = i * m
        tags.append(base)  # low bit of the tag half
        if ptype == "bool":
            env[port] = ("bool", base + h)
        else:
            env[port] = ("int", list(range(base + h, base + m)))
    ptyp, pred = _compile_expr(b, tt.pred, env, h)
    if ptyp != "bool":
        raise CircuitError(f"table '{tt.name}': predicate is not boolean")
    live = b.and_all([pred] + tags)

    otype = tt.output[1]
    ftyp, fval = _compile_expr(b, tt.func, env, h)
    if ftyp != otype:
        raise CircuitError(f"table '{tt.name}': function type mismatch")
    if otype == "bool":
        payload = [b.and_(live, fval)] + [b.constant(0)] * (h - 1)
    else:
        payload = [b.and_(live, v) for v in fval]
    tag_half = [live] + [b.constant(0)] * (h - 1)
    return b.finish(tag_half + payload)


# --- universal circuit --------------------------------------------------------


def _mux_tree(b, sels, entries):
    ents = list(entries)
    ents += [b.constant(0)] * ((1 << len(sels)) - len(ents))
    for s in sels:
        ents = [b.mux(s, ents[i + 1], ents[i]) for i in range(0, len(ents), 2)]
    return ents[0]


def uc_layout(n_data, g, m):
    """(bus width, selector bits, program length) of the universal circuit
    with budget (n_data, g, m)."""
    bus_width = n_data + 1 + g
    sel_bits = (bus_width - 1).bit_length()  # fewest bits that address the bus
    return bus_width, sel_bits, g * (2 * sel_bits + 4) + m * sel_bits


@dataclass(frozen=True)
class UniversalCircuit:
    """Gate-slot universal circuit: g programmable slots over a shared bus.

    Its inputs are the program bits, then the data bits. The bus holds the
    data inputs, a constant-zero line, then each slot's output. A program
    supplies two bus selectors and a 4-bit truth table per slot plus one
    selector per output; its length depends only on (n_data, g, m). The
    construction and that budget fix the circuit: `name` names it, and
    `he.prepare` decodes a program into its slots once and then runs it slot
    by slot, a selector past the bus as it stands reading 0. Only `circuit`
    builds the gate list.
    """

    n_data: int
    g: int
    m: int

    def __post_init__(self):
        if self.n_data < 1 or self.g < 1 or self.m < 1:
            raise CircuitError("universal circuit budget must be positive")

    @property
    def name(self):
        return f"{UC_CONSTRUCTION}:{self.n_data},{self.g},{self.m}"

    @property
    def bus_width(self):
        return uc_layout(self.n_data, self.g, self.m)[0]

    @property
    def sel_bits(self):
        return uc_layout(self.n_data, self.g, self.m)[1]

    @property
    def program_length(self):
        return uc_layout(self.n_data, self.g, self.m)[2]

    @property
    def n_inputs(self):
        return self.program_length + self.n_data

    @cached_property
    def circuit(self):
        """The gate list: a mux tree per slot operand and per output."""
        _, sb, plen = uc_layout(self.n_data, self.g, self.m)
        b = Builder(plen + self.n_data)
        bus = list(range(plen, plen + self.n_data)) + [b.constant(0)]
        pos = 0
        for _ in range(self.g):
            sel_l = list(range(pos, pos + sb))
            sel_r = list(range(pos + sb, pos + 2 * sb))
            ttp = list(range(pos + 2 * sb, pos + 2 * sb + 4))
            pos += 2 * sb + 4
            a = _mux_tree(b, sel_l, bus)
            c = _mux_tree(b, sel_r, bus)
            # programmable gate: pick tt bit (a << 1) | c
            hi = b.mux(c, ttp[3], ttp[2])
            lo = b.mux(c, ttp[1], ttp[0])
            bus.append(b.mux(a, hi, lo))
        outs = []
        for _ in range(self.m):
            sel = list(range(pos, pos + sb))
            pos += sb
            outs.append(_mux_tree(b, sel, bus))
        return b.finish(outs)


def encode_program(c, u):
    """Program string making the universal circuit compute c."""
    if c.n_inputs > u.n_data:
        raise CircuitError(f"circuit needs {c.n_inputs} inputs, budget {u.n_data}")
    if len(c.gates) > u.g:
        raise CircuitError(f"circuit has {len(c.gates)} gates, budget {u.g}")
    if len(c.outputs) != u.m:
        raise CircuitError(f"circuit has {len(c.outputs)} outputs, budget {u.m}")
    bus_width, sb, _ = uc_layout(u.n_data, u.g, u.m)
    zero_pos = u.n_data  # the constant bus line

    def bus_pos(wire, slot):
        pos = wire if wire < c.n_inputs else u.n_data + 1 + (wire - c.n_inputs)
        if wire >= c.n_inputs and wire - c.n_inputs >= slot:
            raise CircuitError("gate references a later slot")
        return pos

    def sel(pos):
        if pos >= bus_width:
            raise CircuitError(f"selector {pos} out of bus range")
        return [(pos >> i) & 1 for i in range(sb)]

    bits = []
    for j in range(u.g):
        if j < len(c.gates):
            l, r, tt = c.gates[j]
            bits += sel(bus_pos(l, j)) + sel(bus_pos(r, j))
            bits += [(tt >> i) & 1 for i in range(4)]
        else:
            bits += sel(zero_pos) + sel(zero_pos) + [0, 0, 0, 0]
    for w in c.outputs:
        bits += sel(bus_pos(w, len(c.gates) + 1))
    return tuple(bits)


def budget_for(circuits, floor=None):
    """Shared (n_data, g, m) universal-circuit size covering every circuit.

    floor, an (n_data, g) pair, raises the size so that unrelated designs
    can share one universal circuit.
    """
    if not circuits:
        raise CircuitError("no circuits to budget")
    m = len(circuits[0].outputs)
    if any(len(c.outputs) != m for c in circuits):
        raise CircuitError("circuits disagree on output width")
    n_data = max(c.n_inputs for c in circuits)
    g = max(len(c.gates) for c in circuits)
    if floor is not None:
        n_data, g = max(n_data, floor[0]), max(g, floor[1])
    return (n_data, g, m)
