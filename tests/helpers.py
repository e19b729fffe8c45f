"""Shared test utilities: random circuit generation, bit conversions and a
narrow design."""

import random

from tabverify.circuit import Circuit

LINEAR_TTS = (0b0110, 0b1001, 0b0001, 0b0000, 0b1111)

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


def random_circuit(rng, n_inputs, n_gates, n_outputs=1, max_mult_depth=None):
    """Random topologically valid circuit, optionally depth-capped."""
    gates = []
    depth = [0] * n_inputs
    for j in range(n_gates):
        l = rng.randrange(n_inputs + j)
        r = rng.randrange(n_inputs + j)
        tt = rng.randrange(16)
        d = max(depth[l], depth[r])
        if tt not in LINEAR_TTS:
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
