"""Commit-to-many-bits protocol over a pseudorandom generator.

The committer encodes an m_c-bit block with a random linear code whose
minimum distance is brute-force verified, expands its seed into a 2q-bit
PRG stream, and splits the stream by the receiver's weight-q challenge R:
the bits at R's one-positions mask the codeword, and the bits at its
zero-positions are exposed, in position order. Revealing the seed and the
data lets the receiver rerun the commit and compare; changing the data
afterwards would require a seed matching q exposed bits and a codeword
within masked distance, which the verified distance rules out (Naor, "Bit
commitment using pseudorandomness", J. Cryptology 1991).

Longer data is one commitment too, of one seed: each m_c-bit block, the
last one padded with zeros, takes its q bits of the codeword and its
weight-q part of R. The protocol's code, PROTOCOL_CODE, holds 16 data bits
per block with q = 256, so every checker round of a 16-bit design, a word
or an 8-bit half word, is one block under a 512-bit R. The length bound on
q does not depend on the block size, so a 16-bit block costs what an 8-bit
one did. Checking the distance covers all 2^16 - 1 nonzero codewords; the
code is a constant of the certificate format, so it is written into the
source, and a test derives it again with gen_code.

Above he, an n-bit string is an int whose bit i is bit i of the string,
and n comes from the caller: the data is an n-bit int, its challenge a
2q-bit int per block, a seed a COMMIT_SEED_BITS-bit int, and e and
exposed commit_bits(n)-bit ints.
"""

import itertools
import math
import random
from dataclasses import dataclass

from .symcrypto import SymError, prg

EPSILON = (1, 4)  # relative distance target
MAX_CODE_RETRIES = 64
COMMIT_SEED_BITS = 16  # each commitment's PRG seed


class CommitError(Exception):
    pass


@dataclass(frozen=True)
class CodeSpec:
    m_c: int  # message bits per block
    q: int  # code length
    eps: tuple  # relative distance (num, den)
    K: int  # security parameter the length constraint used
    rows: tuple  # generator matrix rows, each a q-bit int
    d_min: int  # verified minimum distance
    seed: int  # regeneration seed, recorded for replay

    def encode(self, data):
        """The q-bit codeword of the m_c-bit data: the XOR of the rows at
        data's ones."""
        if data >> self.m_c:
            raise CommitError(f"data sets a bit past its {self.m_c} bits")
        word = 0
        for i, row in enumerate(self.rows):
            if data >> i & 1:
                word ^= row
        return word


def required_length(m_c, eps, K):
    num, den = eps
    per_bit = math.log2(2 / (2 - num / den))
    q_min = math.ceil(3 * K / per_bit)
    c = max(4, math.ceil(q_min / m_c))
    return c * m_c


def gen_code(m_c, eps=EPSILON, K=16, seed=0):
    """Random linear code with verified distance >= eps * q."""
    if not 1 <= m_c <= 16:
        raise CommitError("message block must be 1..16 bits")
    num, den = eps
    if not 0 < num / den < 1:
        raise CommitError(f"relative distance {num}/{den} unsatisfiable")
    q = required_length(m_c, eps, K)
    need = math.ceil(q * num / den)
    rng = random.Random(seed)
    for _ in range(MAX_CODE_RETRIES):
        rows = tuple(rng.getrandbits(q) for _ in range(m_c))
        # every nonzero codeword in Gray-code order: codeword k differs from
        # codeword k - 1 by the row of k's lowest set bit, one XOR each
        d_min, word = q, 0
        for k in range(1, 1 << m_c):
            word ^= rows[(k & -k).bit_length() - 1]
            d_min = min(d_min, word.bit_count())
            if d_min < need:
                break
        if d_min >= need:
            return CodeSpec(
                m_c=m_c, q=q, eps=eps, K=K, rows=rows, d_min=d_min, seed=seed
            )
    raise CommitError("could not generate a code with the required distance")


# the code every party commits with: gen_code(m_c=16, seed=0), whose
# distance check is too slow for every set-up
PROTOCOL_CODE = CodeSpec(
    m_c=16,
    q=256,
    eps=(1, 4),
    K=16,
    rows=(
        0xF728B4FA42485E3A0A5D2F346BAA9455E3E70682C2094CAC629F6FBED82C07CD,
        0xF7C1BD874DA5E709D4713D60C8A70639EB1167B367A9C3787C65C1E582E2E662,
        0x23A7711A8133287637EBDCD9E87A1613E443DF789558867F5BA91FAF7A024204,
        0xFCBD04C340212EF7CCA5A5A19E4D6E3C1846D424C17C627923C6612F48268673,
        0x259F4329E6F4590B9A164106CF6A659EB4862B21FB97D43588561712E8E5216A,
        0x5487CE1EAF19922AD9B8A714E61A441C12E0C8B2BAD640FB19488DEC4F65D4D9,
        0xA3F2C9BF9C6316B950F244556F25E2A25A92118719C78DF48F4FF31E78DE5857,
        0x85776E9ADD84F39E71545A137A1D50068D723104F77383C13458A748E9BB17BC,
        0x17E0AA3C03983CA8EA7E9D498C778EA6EB2083E6CE164DBA0FF18E0242AF9FC3,
        0xA0116BE5AB0C1681C8F8E3D0D3290A4CB5D32B1666194CB1D71037D1B83E90EC,
        0xBAF3897A3E70F16A55485822DE1B372AD3FBF47A7E5B1E7F9CA5499D004AE545,
        0x38C1962E9148624FEAC1C14F30E9C5CC101FBCCCDED733E8B421EAEB534097CA,
        0x1759EDC372AE22448B0163C1CD9D2B7D247A8333F7B0B7D2CDA8056C3D15EEF7,
        0x7D41E602EECE328BFF7B118E820865D6E005B86051EF1922FE43C49E149818D1,
        0x552F233A8C25166A1FF39849B4E1357D4A84EB038D1FD9B74D2B9DEB1BEB3711,
        0x8C1745A79A6A5F92CCA74147F6BE1F723405095C8A5006C1EC188EFBD080E66E,
    ),
    d_min=97,
    seed=0,
)


_FLAG_ONES = bytes.maketrans(b"01", b"\0\1")  # a binary digit to its flag
_FLAG_ZEROS = bytes.maketrans(b"01", b"\1\0")


def choose_challenge(q, rng):
    """Uniform weight-q vector of length 2q, as a 2q-bit int. Position i
    starts as bit i of 2q random bits; then a uniform sample of the ones
    beyond q is cleared, or of the zeros short of q set. Both steps commute
    with every permutation of the positions, and the weight-q vectors are
    one orbit of those, so each is equally likely. The sample is of about
    |weight - q| positions (9 on average at q = 256), not of q."""
    n = 2 * q
    R = rng.getrandbits(n)
    excess = R.bit_count() - q
    if excess:
        # the positions to sample from: byte i of the digits is bit i of R
        flags = format(R, f"0{n}b")[::-1].encode().translate(
            _FLAG_ONES if excess > 0 else _FLAG_ZEROS)
        pool = list(itertools.compress(range(n), flags))
        for i in rng.sample(pool, abs(excess)):
            R ^= 1 << i
    return R


_AT_ONES = str.maketrans("13", "01", "02")  # hex digit 2s + r to s, where r = 1
_AT_ZEROS = str.maketrans("02", "01", "13")  # and where r = 0


def _split(stream, R, n):
    """The bits of the n-bit stream at R's one-positions and at its
    zero-positions, each in position order, as two ints. A number's binary
    digits read as hex put its bit i at hex digit i, so hex digit i of the
    sum below is 2 * stream's bit i + R's bit i."""
    spread = int(format(stream, "b"), 16) * 2 + int(format(R, "b"), 16)
    digits = format(spread, f"0{n}x")
    return int(digits.translate(_AT_ONES), 2), int(digits.translate(_AT_ZEROS), 2)


# --- commitments to n bits --------------------------------------------------------


def split_blocks(value, n, m_c):
    """The n-bit value as ceil(n / m_c) blocks of m_c bits, the last one
    padded with zeros: block k holds bits k * m_c to (k + 1) * m_c - 1."""
    return [value >> i & ((1 << m_c) - 1) for i in range(0, n, m_c)]


def commit_bits(n, code=PROTOCOL_CODE):
    """The length of e, and of exposed, in a commitment to n bits."""
    return -(-n // code.m_c) * code.q


def challenge(n, rng, code=PROTOCOL_CODE):
    """The receiver's challenge to a commitment to n bits: one weight-q
    part of 2q bits per block, part k at bits 2qk to 2q(k + 1) - 1, drawn
    from rng in block order."""
    return sum(choose_challenge(code.q, rng) << 2 * code.q * k
               for k in range(-(-n // code.m_c)))


def commit_respond(D, n, R, s, code=PROTOCOL_CODE):
    """Committer's message (e, exposed) for the n-bit data D under the
    challenge R and the seed s: block k's codeword, at bits qk of e, is
    masked by the stream at the ones of R's part k. CommitError unless D is
    n bits and R one 2q-bit part of weight q per block; SymError unless s
    is COMMIT_SEED_BITS bits."""
    q = code.q
    blocks = split_blocks(D, n, code.m_c)
    size = 2 * q * len(blocks)
    if D >> n:
        raise CommitError(f"data sets a bit past its {n} bits")
    if R >> size or any(part.bit_count() != q for part in split_blocks(R, size, 2 * q)):
        raise CommitError("challenge must be one 2q-bit part of weight q per block")
    word = sum(code.encode(b) << k * q for k, b in enumerate(blocks))
    mask, exposed = _split(prg(s, COMMIT_SEED_BITS, size), R, size)
    return word ^ mask, exposed


def verify_reveal(e, exposed, D, n, R, s, code=PROTOCOL_CODE):
    """Accept iff the seed s and the n-bit data D, committed under R, give
    exactly the commitment (e, exposed): the commit rule rerun, not
    restated."""
    try:
        return commit_respond(D, n, R, s, code) == (e, exposed)
    except (CommitError, SymError):  # a malformed challenge, data or seed
        return False
