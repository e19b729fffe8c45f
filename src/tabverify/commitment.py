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

Above he, an n-bit string is an int whose bit i is bit i of the string,
and n comes from the caller: a challenge is a 2q-bit int, a block's data
an m_c-bit int, a seed a COMMIT_SEED_BITS-bit int, and e and exposed
q-bit ints.
"""

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


@dataclass(frozen=True)
class CommitMessage:
    e: int  # q masked codeword bits
    exposed: int  # q PRG bits at the challenge's zeros, in position order


@dataclass(frozen=True)
class RevealMessage:
    seed: int  # COMMIT_SEED_BITS PRG seed bits
    data: int  # the m_c committed bits


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
        digit = "1" if excess > 0 else "0"  # the positions to sample from
        pool = [i for i, c in enumerate(format(R, f"0{n}b")[::-1]) if c == digit]
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


def commit_respond(D, R, s, code):
    """Committer's message for the data D under the challenge R and the
    seed s: the codeword masked by the stream at R's one-positions, and the
    stream at its zero-positions exposed. CommitError unless R is 2q bits
    of weight q and D is m_c bits; SymError unless s is COMMIT_SEED_BITS
    bits."""
    n = 2 * code.q
    if R >> n or R.bit_count() != code.q:
        raise CommitError("challenge must be 2q bits of weight q")
    mask, exposed = _split(prg(s, COMMIT_SEED_BITS, n), R, n)
    return CommitMessage(e=code.encode(D) ^ mask, exposed=exposed)


def verify_reveal(commit, reveal, R, code):
    """Accept iff the revealed seed and data, committed under R, give
    exactly the commit message: the commit rule rerun, not restated."""
    try:
        expect = commit_respond(reveal.data, R, reveal.seed, code)
    except (CommitError, SymError):  # a malformed challenge, data or seed
        return False
    return (commit.e, commit.exposed) == (expect.e, expect.exposed)


# --- multi-block commitments --------------------------------------------------


def split_blocks(value, n, m_c):
    """The n-bit value as ceil(n / m_c) blocks of m_c bits, the last one
    padded with zeros: block k holds bits k * m_c to (k + 1) * m_c - 1."""
    return [value >> i & ((1 << m_c) - 1) for i in range(0, n, m_c)]
