"""Deterministic symmetric encryption and the pseudorandom generator.

SE is a balanced Feistel network with a quadratic (single-AND) round
function, so its encryption map has a small circuit: 8 rounds give
multiplicative depth 8, inside the integer backend's budget. One Feistel
routine, parameterized over bit operations (constant, xor, and_: those of
_PlainOps or of a circuit.Builder), produces the plain evaluation and the
circuit, which keeps the two extensionally equal by construction.

The PRG is SHAKE128 (FIPS 202): output bit i is bit i % 8 of byte i // 8
of the SHAKE128 output over the seed, one byte per seed bit.
"""

import hashlib
import operator

from .circuit import Builder
from .tables import int_to_bits

ROUNDS = 8
_RC = 0x9E3779B97F4A7C15  # round-constant bit source


class SymError(Exception):
    pass


class _PlainOps:
    """Evaluation on bits, with the bit operations of a circuit.Builder."""

    constant = staticmethod(int)
    xor = staticmethod(operator.xor)
    and_ = staticmethod(operator.and_)


def _rc_bit(i, j):
    return (_RC >> ((i * 13 + j) % 64)) & 1


def _round_keys(ops, key, w, rounds):
    folded = [ops.constant(0)] * w
    for t, k in enumerate(key):
        folded[t % w] = ops.xor(folded[t % w], k)
    rks = []
    for i in range(rounds):
        rks.append(
            [ops.xor(folded[(j + i) % w], ops.constant(_rc_bit(i, j))) for j in range(w)]
        )
    return rks

def _round_fn(ops, R, rk, w):
    s = max(2, w // 2)
    return [
        ops.xor(
            ops.xor(ops.and_(R[(j + 1) % w], R[(j + s) % w]), R[(j + 2) % w]),
            rk[j],
        )
        for j in range(w)
    ]


def _feistel_enc(ops, key, block, rounds=ROUNDS):
    w = len(block) // 2
    L, R = list(block[:w]), list(block[w:])
    for rk in _round_keys(ops, key, w, rounds):
        f = _round_fn(ops, R, rk, w)
        L, R = R, [ops.xor(a, b) for a, b in zip(L, f)]
    return tuple(L + R)


def _feistel_dec(key, block, rounds=ROUNDS):
    w = len(block) // 2
    L, R = list(block[:w]), list(block[w:])
    for rk in reversed(_round_keys(_PlainOps, key, w, rounds)):
        f = _round_fn(_PlainOps, L, rk, w)
        L, R = [a ^ b for a, b in zip(R, f)], L
    return tuple(L + R)


# --- public SE interface -----------------------------------------------------


def se_keygen(K, rng):
    if K < 8:
        raise SymError("key size too small (need K >= 8)")
    return tuple(rng.getrandbits(1) for _ in range(K))


def se_enc(sk, M):
    """Deterministic permutation of the |M|-bit block under sk."""
    _check_block(M)
    return _feistel_enc(_PlainOps, tuple(sk), tuple(int(b) for b in M))


def se_dec(sk, C):
    _check_block(C)
    return _feistel_dec(tuple(sk), tuple(int(b) for b in C))


def _check_width(width):
    if width < 4 or width % 2:
        raise SymError(f"block width {width} unsupported (need even >= 4)")


def _check_block(M):
    _check_width(len(M))
    if any(b not in (0, 1, True, False) for b in M):
        raise SymError("block must be bits")


def se_enc_circuit(key_bits, width):
    """Circuit over (key || message) computing se_enc; |key| = key_bits."""
    _check_width(width)
    b = Builder(key_bits + width)
    key = list(range(key_bits))
    block = list(range(key_bits, key_bits + width))
    return b.finish(list(_feistel_enc(b, key, block)))


# --- PRG -----------------------------------------------------------------------


def prg(s, n):
    """First n output bits for seed s; prefixes are consistent."""
    if n < 1:
        raise SymError("length must be positive")
    out = hashlib.shake_128(bytes(int(b) for b in s)).digest((n + 7) // 8)
    return int_to_bits(int.from_bytes(out, "little"), n)
