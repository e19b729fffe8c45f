"""The bit helpers against the per-bit generator forms they replaced.

Each reference below is the earlier per-bit definition. Certificates for
fixed seeds depend on these exact bits, so the helpers must agree with the
references everywhere, not only on the golden seeds.
"""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from tabverify.commitment import choose_challenge, commit_respond, gen_code
from tabverify.protocol import ProtocolError, bits_str, str_bits
from tabverify.symcrypto import prg
from tabverify.tables import int_to_bits

CODE = gen_code(m_c=4, eps=(1, 4), K=16, seed=0)


def ref_bits_str(bits):
    return "".join("1" if b else "0" for b in bits)


def ref_str_bits(s):
    return tuple(int(ch) for ch in s)


def ref_int_to_bits(value, width):
    v = value & ((1 << width) - 1)
    return tuple((v >> i) & 1 for i in range(width))


def ref_prg(s, n):
    out = hashlib.shake_128(bytes(int(b) for b in s)).digest((n + 7) // 8)
    word = int.from_bytes(out, "little")
    return tuple((word >> i) & 1 for i in range(n))


def ref_choose_challenge(q, rng):
    ones = set(rng.sample(range(2 * q), q))
    return tuple(1 if i in ones else 0 for i in range(2 * q))


def ref_commit_respond(D, R, s, code):
    word = 0
    for b, row in zip(D, code.rows):
        if b:
            word ^= row
    codeword = tuple((word >> i) & 1 for i in range(code.q))
    stream = ref_prg(s, 2 * code.q)
    mask = itertools.compress(stream, R)
    e = tuple(c ^ g for c, g in zip(codeword, mask))
    exposed = tuple(g for g, r in zip(stream, R) if not r)
    return e, exposed


@given(st.text(alphabet="01", max_size=600))
def test_str_bits_and_bits_str_match_the_reference(s):
    bits = str_bits(s)
    assert bits == ref_str_bits(s)
    assert bits_str(bits) == s == ref_bits_str(bits)


@given(st.lists(st.sampled_from([0, 1, False, True, 2, 255]), max_size=100))
def test_bits_str_reads_each_bit_by_truth(bits):
    assert bits_str(bits) == ref_bits_str(bits)
    assert bits_str(tuple(bits)) == ref_bits_str(bits)


def test_str_bits_of_the_empty_string():
    assert str_bits("") == ()
    assert bits_str(()) == ""


@pytest.mark.parametrize("bad", [
    "１",  # fullwidth digit one
    "١",  # Arabic-Indic digit one
    "01０", "2", "0b1", " 0", "01\n", "a", "-1",
    None, 5, 1.0, b"01", ["0", "1"], ("0",)])
def test_str_bits_refuses_what_is_not_a_bit_string(bad):
    with pytest.raises(ProtocolError):
        str_bits(bad)


@given(st.integers(min_value=-(1 << 700), max_value=1 << 700),
       st.integers(min_value=0, max_value=600))
def test_int_to_bits_matches_the_reference(value, width):
    assert int_to_bits(value, width) == ref_int_to_bits(value, width)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=32),
       st.integers(min_value=1, max_value=1100))
def test_prg_matches_the_reference(seed, n):
    assert prg(seed, n) == ref_prg(seed, n)


@pytest.mark.parametrize("q", [1, 3, CODE.q])
def test_choose_challenge_draws_like_the_reference(q):
    for seed in range(100):
        fast, ref = random.Random(seed), random.Random(seed)
        assert choose_challenge(q, fast) == ref_choose_challenge(q, ref)
        assert fast.getstate() == ref.getstate()


def test_commit_respond_matches_the_reference():
    rng = random.Random(31)
    for _ in range(200):
        D = tuple(rng.getrandbits(1) for _ in range(CODE.m_c))
        R = choose_challenge(CODE.q, rng)
        s = tuple(rng.getrandbits(1) for _ in range(16))
        commit = commit_respond(D, R, s, CODE)
        assert (commit.e, commit.exposed) == ref_commit_respond(D, R, s, CODE)
