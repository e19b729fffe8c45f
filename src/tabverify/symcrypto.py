"""Deterministic symmetric encryption and the pseudorandom generator.

SE is a balanced Feistel network whose round function is SIMON's
(Beaulieu et al., "The SIMON and SPECK families of lightweight block
ciphers", 2013): f(R) = (R<<<1 & R<<<s) ^ R<<<2 ^ rk, where R<<<k reads bit
j + k of R at bit j and s = max(2, w // 2) for w-bit halves. The key is
ROUNDS chunks of w bits, ROUNDS * w = 4 * width bits for a block of width
bits (se_key_bits), and round key i is the key's chunk i XOR the round
constant: bits of _RC rotated by 13 * i mod 64. No two rounds share key
bits, so one block and its encryption leave 2^(6w) of the 2^(8w) keys
possible. f has a single AND in depth and the key enters only through
XOR, so 8 rounds give multiplicative depth 8, inside the budget of the
toy integer scheme (she), on which the tests evaluate the gate list.

One Feistel routine, written over word operations (rot, xor, and_,
constant), gives both evaluations: _Ints holds a w-bit int, for se_enc,
se_dec and SECircuit.evaluate, and _Wires a list of circuit.Builder wires,
for SECircuit.gates. The two are extensionally equal by construction.
SECircuit names the encryption circuit by its construction and block
width, as the universal circuit is named, so he evaluates it without
building its gate list.

The PRG is SHAKE128 (FIPS 202): output bit i is bit i % 8 of byte i // 8
of the SHAKE128 output over the seed, one byte per seed bit.

Above he, an n-bit string is an int whose bit i is bit i of the string,
and n comes from the caller: se_enc and se_dec take the block's width,
prg the seed's size. Only SECircuit.evaluate, at he.eval_named's
boundary, and prg's hash input spell the bits out.
"""

import functools
import hashlib
import operator
from dataclasses import dataclass

from .circuit import Builder
from .tables import bits_uint, int_to_bits

ROUNDS = 8
SE_CONSTRUCTION = "se-feistel-v3"  # SECircuit's; change it with the Feistel
_RC = 0x9E3779B97F4A7C15  # round-constant bit source


class SymError(Exception):
    pass


class _Ints:
    """Word operations on w-bit ints, bit j of a word being bit j of the int."""

    def __init__(self, w):
        self.w, self.mask = w, (1 << w) - 1

    def rot(self, x, k):  # bit j reads bit (j + k) mod w
        k %= self.w
        return (x >> k | x << (self.w - k)) & self.mask

    xor = staticmethod(operator.xor)
    and_ = staticmethod(operator.and_)

    def constant(self, c):
        return c


class _Wires:
    """The same operations on lists of w wires of a circuit.Builder."""

    def __init__(self, b, w):
        self.b, self.w = b, w

    def rot(self, x, k):
        k %= self.w
        return x[k:] + x[:k]

    def xor(self, x, y):
        return [self.b.xor(a, c) for a, c in zip(x, y)]

    def and_(self, x, y):
        return [self.b.and_(a, c) for a, c in zip(x, y)]

    def constant(self, c):
        return [self.b.constant(c >> j & 1) for j in range(self.w)]


# round i's constant source: _RC rotated by 13 * i mod 64
_RC_ROT = tuple((_RC >> r | _RC << (64 - r)) & ((1 << 64) - 1)
                for r in (13 * i % 64 for i in range(ROUNDS)))


def _round_constant(i, w):
    """Bit j is bit (13 * i + j) mod 64 of _RC: _RC rotated by 13 * i mod
    64, repeated to w bits."""
    rc, n = _RC_ROT[i], 64
    while n < w:
        rc, n = rc | rc << n, 2 * n
    return rc & ((1 << w) - 1)


def _feistel(ops, key, L, R, decrypt=False):
    """The Feistel network on halves L and R, under key, the list of the
    key's w-bit chunks, one per round; (L, R) after all rounds, or before
    them when decrypt. SymError unless the key is ROUNDS chunks."""
    if len(key) != ROUNDS:
        raise SymError(f"an SE key is {ROUNDS} chunks of {ops.w} bits, "
                       f"got {len(key)}")
    w, rot, xor, and_ = ops.w, ops.rot, ops.xor, ops.and_
    rks = [xor(k, ops.constant(_round_constant(i, w))) for i, k in enumerate(key)]
    s = max(2, w // 2)
    for rk in reversed(rks) if decrypt else rks:
        x = L if decrypt else R
        f = xor(xor(and_(rot(x, 1), rot(x, s)), rot(x, 2)), rk)
        L, R = (xor(R, f), L) if decrypt else (R, xor(L, f))
    return L, R


def _block(key, m, width, decrypt):
    """se_enc, or se_dec when decrypt, of the width-bit block m under key."""
    _check_width(width)
    if m >> width or key >> se_key_bits(width):
        raise SymError(f"a block or key sets a bit past its size ({width}-bit blocks)")
    w, mask = width // 2, (1 << width // 2) - 1
    L, R = _feistel(_Ints(w), [key >> t & mask for t in range(0, ROUNDS * w, w)],
                    m & mask, m >> w, decrypt)
    return L | R << w


# --- public SE interface -----------------------------------------------------


def se_keygen(K, rng):
    """A K-bit key whose bit i is the i-th of K one-bit draws from rng. A
    random.Random's one-bit draw is the top bit of one 32-bit output, and
    its draw of 32K bits is K outputs, the first lowest, so the key is
    every 32nd bit of one such draw: the same key, and the same rng state,
    as K one-bit draws."""
    if K < 8:
        raise SymError("key size too small (need K >= 8)")
    return int(format(rng.getrandbits(32 * K), f"0{32 * K}b")[::32], 2)


def se_key_bits(width):
    """The size of an SE key for blocks of width bits: ROUNDS chunks of
    half a block."""
    return ROUNDS * (width // 2)


def se_enc(sk, M, width):
    """Deterministic permutation of the width-bit block M under sk, a key
    of se_key_bits(width) bits; SymError when either sets a bit past its
    size."""
    return _block(sk, M, width, False)


def se_dec(sk, C, width):
    return _block(sk, C, width, True)


def block_width_ok(width):
    """Whether SE encrypts blocks of width bits: an even number, at least 4."""
    return width >= 4 and width % 2 == 0


def _check_width(width):
    if not block_width_ok(width):
        raise SymError(f"block width {width} unsupported (need even >= 4)")


@dataclass(frozen=True)
class SECircuit:
    """The circuit of se_enc over (key || message) for blocks of width
    bits, key_bits + width input bits, named by its construction and block
    width. evaluate runs the word Feistel; gates builds the gate list,
    which only the tests read: they check evaluate against it, and run it
    on she within the scheme's depth budget."""

    width: int

    def __post_init__(self):
        _check_width(self.width)

    @property
    def key_bits(self):
        return se_key_bits(self.width)

    @property
    def name(self):
        return f"{SE_CONSTRUCTION}:{self.width}"

    @property
    def n_inputs(self):
        return self.key_bits + self.width

    def evaluate(self, bits):
        """The bits of se_enc of the message under the key, bits being the
        key's then the message's: he.eval_named's bits, read once into an
        int and the result spelled out once."""
        x, k = bits_uint(bits), self.key_bits
        return int_to_bits(se_enc(x & ((1 << k) - 1), x >> k, self.width), self.width)

    @functools.cached_property
    def labels(self):
        """The nonce label of each output, name:k, built once per circuit."""
        return tuple(f"{self.name}:{k}".encode() for k in range(self.width))

    @functools.cached_property
    def gates(self):
        """The gate list, from the Feistel routine on wire lists."""
        k, w = self.key_bits, self.width // 2
        b = Builder(self.n_inputs)
        L, R = _feistel(_Wires(b, w), [list(range(t, t + w)) for t in range(0, k, w)],
                        list(range(k, k + w)), list(range(k + w, k + 2 * w)))
        return b.finish(L + R)


# --- PRG -----------------------------------------------------------------------


def prg(s, k, n):
    """The first n output bits, as an int, for the k-bit seed s; prefixes
    are consistent. SymError when s sets a bit past its k bits."""
    if n < 1:
        raise SymError("length must be positive")
    if s >> k:
        raise SymError(f"a {k}-bit seed sets a bit past its {k} bits")
    out = hashlib.shake_128(bytes(int_to_bits(s, k))).digest((n + 7) // 8)
    return int.from_bytes(out, "little") & ((1 << n) - 1)
