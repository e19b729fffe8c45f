"""Shared test utilities: random circuit generation, bit conversions, batch
simulation, certificate mutation and two small designs."""

import copy
import random

from tabverify.audit import json_leaves
from tabverify.channel import canonical_json
from tabverify.circuit import Circuit, CircuitError
from tabverify.tables import BOT, Tagged, int_to_bits, tagged_word

# the truth tables with an even number of ones: no product term, so no
# multiplication (XOR, XNOR, the constants and the single-operand projections)
LINEAR_TTS = (0b0110, 0b1001, 0b0000, 0b1111, 0b0011, 0b0101, 0b1010, 0b1100)

# a design of width 6: its 3-bit half word is too narrow for general mode
NARROW_TEXT = """\
width: 6;
table T {
  inputs: x;
  outputs: y;
  rows: [
    (x > 0, x - 1),
    (x <= 0, 0 - x),
  ];
}
edges:
  Input.x -> T.x;
  T.y -> Output.y;
"""
NARROW_DOMAINS = {"x": list(range(-3, 4))}

# the same table feeding a second one, C, so that T's rows are
# intermediate: a checker round on one of them covers its 3-bit tag half
NARROW_PAIR_TEXT = """\
width: 6;
table T {
  inputs: x;
  outputs: y;
  rows: [
    (x > 0, x - 1),
    (x <= 0, 0 - x),
  ];
}
table C {
  inputs: y;
  outputs: z;
  rows: [
    (true, y),
  ];
}
edges:
  Input.x -> T.x;
  T.y -> C.y;
  C.z -> Output.z;
"""

# that pair at width 12: a 12-bit word is one 16-bit commitment block
# padded by 4 bits, and a 6-bit tag half one block padded by 10, so every
# checker round ends in padding
WIDTH12_TEXT = NARROW_PAIR_TEXT.replace("width: 6;", "width: 12;")


def random_circuit(rng, n_inputs, n_gates, n_outputs=1, max_mult_depth=None):
    """Random topologically valid circuit, optionally depth-capped."""
    gates = []
    depth = [0] * n_inputs
    for j in range(n_gates):
        l = rng.randrange(n_inputs + j)
        r = rng.randrange(n_inputs + j)
        tt = rng.randrange(16)
        d = max(depth[l], depth[r])
        if l != r and tt not in LINEAR_TTS:
            if max_mult_depth is not None and d + 1 > max_mult_depth:
                tt = rng.choice(LINEAR_TTS)
            else:
                d += 1
        gates.append((l, r, tt))
        depth.append(d)
    outputs = tuple(rng.randrange(n_inputs + n_gates) for _ in range(n_outputs))
    return Circuit(n_inputs, tuple(gates), outputs)


def random_bits(rng, n):
    return tuple(rng.randrange(2) for _ in range(n))


def fresh_rng(seed):
    return random.Random(seed)


def bits_to_int(bits):
    """Signed integer from least-significant-first bits."""
    v = sum(b << i for i, b in enumerate(bits))
    if bits and bits[-1]:
        v -= 1 << len(bits)
    return v


def tagged_to_bits(tv, m):
    """The bits of tables.tagged_word, least significant first."""
    return int_to_bits(tagged_word(tv, m), m)


def bits_to_tagged(bits, ptype="int"):
    """Inverse of tagged_to_bits: tag half first, then the payload."""
    h = len(bits) // 2
    if not any(bits[:h]):
        return BOT
    if ptype == "bool":
        return Tagged(True, bool(bits[h]))
    return Tagged(True, bits_to_int(bits[h:]))


def simulate_batch(c, columns, width):
    """Evaluate many assignments at once.

    columns[i] is an int whose bit k is input i of assignment k; returns one
    int per output wire. Python bignum bitwise ops make this fast enough for
    exhaustive sweeps.
    """
    if len(columns) != c.n_inputs:
        raise CircuitError("column count mismatch")
    mask = (1 << width) - 1
    wires = list(columns)
    for l, r, tt in c.gates:
        a, b = wires[l], wires[r]
        out = 0
        if tt & 1:
            out |= ~a & ~b
        if tt & 2:
            out |= ~a & b
        if tt & 4:
            out |= a & ~b
        if tt & 8:
            out |= a & b
        wires.append(out & mask)
    return [wires[w] & mask for w in c.outputs]


def scalar_leaves(cert):
    """(path, value) of every scalar leaf of cert, in json_leaves order."""
    return [(p, v) for p, v in json_leaves(cert) if not isinstance(v, (dict, list))]


def mutate_certificate(cert, rng, leaves):
    """Copy of cert with one randomly chosen scalar leaf perturbed.

    leaves is scalar_leaves(cert), listed once for all the mutations of
    cert; the leaf is drawn from it. Only the dicts and lists on the path to
    the chosen leaf are copied; the rest is shared with cert, which is left
    unchanged.
    """
    path, value = leaves[rng.randrange(len(leaves))]
    if isinstance(value, bool):
        new = not value
    elif isinstance(value, int):
        new = value + rng.choice([1, -1, 7])
    elif isinstance(value, str) and value:
        i = rng.randrange(len(value))
        alphabet = "0123456789abcdefABCDEF+/xyz"
        repl = rng.choice([c for c in alphabet if c != value[i]])
        new = value[:i] + repl + value[i + 1:]
    elif value is None:
        new = 0
    else:
        new = "mutated"
    assert canonical_json(new) != canonical_json(value)
    doc = node = copy.copy(cert)
    for step in path[:-1]:
        node[step] = copy.copy(node[step])
        node = node[step]
    node[path[-1]] = new
    return doc
