"""Commit-to-many-bits protocol over a pseudorandom generator.

The committer encodes an m_c-bit block with a random linear code whose
minimum distance is brute-force verified, masks the codeword with PRG bits
selected by the receiver's weight-q challenge over 2q generator positions,
and exposes the PRG bits at unselected positions. Revealing the seed and the
data lets the receiver recheck everything; changing the data afterwards
would require a seed matching q exposed bits and a codeword within masked
distance, which the verified distance rules out.

Each commit or check expands the seed once into the 2q-bit PRG stream and
reads the mask and the exposed bits from it.

Longer data is split into independently committed blocks.
"""

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
    exposed: tuple  # ((position, prg bit), ...) for challenge zeros


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


def _mask_bits(R, stream):
    """PRG stream bits at the challenge's one-positions, in order."""
    return tuple(g for g, r in zip(stream, R) if r)


def commit_respond(D, R, s, code):
    """Committer's message: masked codeword plus exposed PRG bits."""
    _check_challenge(R, code.q)
    stream = prg(s, 2 * code.q)
    mask = _mask_bits(R, stream)
    e = tuple(c ^ g for c, g in zip(code.encode(tuple(D)), mask))
    exposed = tuple((i, g) for i, (g, r) in enumerate(zip(stream, R)) if not r)
    return CommitMessage(e=e, exposed=exposed)


def verify_reveal(commit, reveal, R, code):
    """Accept iff the seed reproduces the exposed bits and the masking."""
    try:
        _check_challenge(R, code.q)
    except CommitError:
        return False
    if len(commit.exposed) != code.q or len(commit.e) != code.q:
        return False
    zero_positions = tuple(i for i, r in enumerate(R) if not r)
    if tuple(i for i, _ in commit.exposed) != zero_positions:
        return False
    # the compare above keeps every exposed position inside the stream
    stream = prg(reveal.seed, 2 * code.q)
    if any(stream[i] != b for i, b in commit.exposed):
        return False
    if len(reveal.data) != code.m_c:
        return False
    mask = _mask_bits(R, stream)
    expect = tuple(c ^ g for c, g in zip(code.encode(tuple(reveal.data)), mask))
    return expect == tuple(commit.e)


# --- multi-block commitments --------------------------------------------------


def split_blocks(bits, m_c):
    bits = tuple(int(b) for b in bits)
    blocks = []
    for i in range(0, len(bits), m_c):
        chunk = bits[i : i + m_c]
        blocks.append(chunk + (0,) * (m_c - len(chunk)))
    return blocks

