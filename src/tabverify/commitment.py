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

Longer data is split into independently committed blocks.
"""

import itertools
import math
import random
from dataclasses import dataclass

from .symcrypto import prg

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
        return tuple((word >> i) & 1 for i in range(self.q))


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


def gen_code(m_c=4, eps=EPSILON, K=16, seed=0):
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
        d_min = q
        for msg in range(1, 1 << m_c):
            word = 0
            for i in range(m_c):
                if (msg >> i) & 1:
                    word ^= rows[i]
            d_min = min(d_min, bin(word).count("1"))
            if d_min < need:
                break
        if d_min >= need:
            return CodeSpec(
                m_c=m_c, q=q, eps=eps, K=K, rows=rows, d_min=d_min, seed=seed
            )
    raise CommitError("could not generate a code with the required distance")


def choose_challenge(q, rng):
    """Uniform weight-q vector of length 2q."""
    ones = set(rng.sample(range(2 * q), q))
    return tuple(1 if i in ones else 0 for i in range(2 * q))


def _check_challenge(R, q):
    if len(R) != 2 * q or sum(R) != q:
        raise CommitError("challenge must have length 2q and weight q")


def commit_respond(D, R, s, code):
    """Committer's message: the codeword masked by the stream at R's
    one-positions, and the stream at its zero-positions exposed."""
    _check_challenge(R, code.q)
    stream = prg(s, 2 * code.q)
    mask = itertools.compress(stream, R)
    e = tuple(c ^ g for c, g in zip(code.encode(tuple(D)), mask))
    exposed = tuple(g for g, r in zip(stream, R) if not r)
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

