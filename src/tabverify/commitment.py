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

Longer data is split into independently committed blocks, the last one
padded with zeros. The protocol's code, gen_code(), holds 8 data bits per
block with q = 256, so R is 512 bits: a 16-bit word takes two blocks and a
half word one. The length bound on q does not depend on the block size,
so larger blocks mean fewer of them; 16 bits would halve them again, but
the distance check covers all 2^m_c - 1 nonzero codewords, and at 16 bits
that costs each party tens of milliseconds in every set-up.
"""

import itertools
import math
import operator
import random
from dataclasses import dataclass

from .symcrypto import prg
from .tables import int_to_bits

EPSILON = (1, 4)  # relative distance target
MAX_CODE_RETRIES = 64


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

    def encode(self, bits):
        if len(bits) != self.m_c:
            raise CommitError(f"expected {self.m_c} data bits, got {len(bits)}")
        word = 0
        for b, row in zip(bits, self.rows):
            if b:
                word ^= row
        return int_to_bits(word, self.q)


@dataclass(frozen=True)
class CommitMessage:
    e: tuple  # q masked codeword bits
    exposed: tuple  # q PRG bits at the challenge's zeros, in position order


@dataclass(frozen=True)
class RevealMessage:
    seed: tuple  # PRG seed bits
    data: tuple  # the m_c committed bits


def required_length(m_c, eps, K):
    num, den = eps
    per_bit = math.log2(2 / (2 - num / den))
    q_min = math.ceil(3 * K / per_bit)
    c = max(4, math.ceil(q_min / m_c))
    return c * m_c


def gen_code(m_c=8, eps=EPSILON, K=16, seed=0):
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


_FLIP = bytes.maketrans(b"\0\1", b"\1\0")  # a challenge's complement
_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


def choose_challenge(q, rng):
    """Uniform weight-q vector of length 2q. Position i starts as bit i of
    2q random bits; then a uniform sample of the ones beyond q is cleared, or
    of the zeros short of q set. Both steps commute with every permutation
    of the positions, and the weight-q vectors are one orbit of those, so
    each is equally likely. The sample is of about |weight - q| positions
    (9 on average at q = 256), not of q."""
    n = 2 * q
    R = bytearray(format(rng.getrandbits(n), f"0{n}b")[::-1].encode("ascii")
                  .translate(_DIGIT_BITS))
    excess = R.count(1) - q
    if excess:
        pool = R if excess > 0 else R.translate(_FLIP)
        for i in rng.sample(list(itertools.compress(range(n), pool)), abs(excess)):
            R[i] ^= 1
    return tuple(R)


def _check_challenge(R, q):
    """R as one byte per bit, once it is checked to be 2q bits of weight q."""
    try:
        r = bytes(R)
    except (TypeError, ValueError):  # an entry that is no int in 0..255
        raise CommitError("challenge must be bits") from None
    if len(r) != 2 * q or r.count(1) != q or r.count(0) != q:
        raise CommitError("challenge must be 2q bits of weight q")
    return r


def commit_respond(D, R, s, code):
    """Committer's message: the codeword masked by the stream at R's
    one-positions, and the stream at its zero-positions exposed."""
    r = _check_challenge(R, code.q)
    stream = prg(s, 2 * code.q)
    mask = itertools.compress(stream, r)
    e = tuple(map(operator.xor, code.encode(tuple(D)), mask))
    exposed = tuple(itertools.compress(stream, r.translate(_FLIP)))
    return CommitMessage(e=e, exposed=exposed)


def verify_reveal(commit, reveal, R, code):
    """Accept iff the revealed seed and data, committed under R, give
    exactly the commit message: the commit rule rerun, not restated."""
    try:
        expect = commit_respond(reveal.data, R, reveal.seed, code)
    except CommitError:  # a malformed challenge or data of the wrong length
        return False
    return (tuple(commit.e), tuple(commit.exposed)) == (expect.e, expect.exposed)


# --- multi-block commitments --------------------------------------------------


def split_blocks(bits, m_c):
    bits = tuple(int(b) for b in bits)
    blocks = []
    for i in range(0, len(bits), m_c):
        chunk = bits[i : i + m_c]
        blocks.append(chunk + (0,) * (m_c - len(chunk)))
    return blocks

