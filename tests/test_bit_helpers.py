"""The bit helpers against the per-bit generator forms they replaced.

Each reference below is the earlier per-bit definition, or for the hex
spelling of bit strings a digit-at-a-time one. Certificates for fixed seeds
depend on these exact bits, and on which spellings are refused, so the
helpers must agree with the references everywhere, not only on the golden
seeds. The helpers take and return an n-bit string as an int; the
references work bit by bit, so each comparison spells the int out with
int_to_bits(value, n).
"""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from tabverify.commitment import PROTOCOL_CODE, choose_challenge, commit_respond, gen_code
from tabverify.protocol import ProtocolError, bits_hex, hex_bits
from tabverify.symcrypto import prg
from tabverify.tables import bits_uint, int_to_bits

CODE = gen_code(m_c=4, eps=(1, 4), K=16, seed=0)


HEX = "0123456789abcdef"


def ref_bits_hex(bits):
    """Digit k, counted from the right, spells bits 4k to 4k + 3, each read
    by its truth."""
    return "".join(HEX[sum(1 << j for j, b in enumerate(bits[k:k + 4]) if b)]
                   for k in reversed(range(0, len(bits), 4)))


def ref_hex_bits(text, n):
    """The n bits text spells, or None when it is not their one spelling."""
    if not isinstance(text, str) or len(text) != (n + 3) // 4:
        return None
    if any(ch not in HEX for ch in text):
        return None
    bits = [HEX.index(ch) >> j & 1 for ch in reversed(text) for j in range(4)]
    return tuple(bits[:n]) if not any(bits[n:]) else None


def ref_int_to_bits(value, width):
    v = value & ((1 << width) - 1)
    return tuple((v >> i) & 1 for i in range(width))


def ref_prg(s, n):
    out = hashlib.shake_128(bytes(int(b) for b in s)).digest((n + 7) // 8)
    word = int.from_bytes(out, "little")
    return tuple((word >> i) & 1 for i in range(n))


def ref_choose_challenge(q, rng):
    draw = rng.getrandbits(2 * q)
    R = [(draw >> i) & 1 for i in range(2 * q)]
    excess = sum(R) - q
    if excess > 0:  # clear a uniform sample of the ones beyond q
        for i in rng.sample([i for i in range(2 * q) if R[i]], excess):
            R[i] = 0
    elif excess < 0:  # set a uniform sample of the zeros short of q
        for i in rng.sample([i for i in range(2 * q) if not R[i]], -excess):
            R[i] = 1
    return tuple(R)


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


@given(st.lists(st.integers(0, 1), max_size=600))
def test_hex_bits_and_bits_hex_match_the_reference(bits):
    n = len(bits)
    s = bits_hex(bits_uint(bits), n)
    assert s == ref_bits_hex(bits)
    assert int_to_bits(hex_bits(s, n), n) == tuple(bits) == ref_hex_bits(s, n)


@given(st.lists(st.sampled_from([0, 1, False, True, 2, 255]), max_size=100))
def test_bits_hex_reads_each_bit_by_truth(bits):
    # bits_uint reads each item by its truth, as the reference does
    assert bits_hex(bits_uint(bits), len(bits)) == ref_bits_hex(bits)
    assert bits_hex(bits_uint(tuple(bits)), len(bits)) == ref_bits_hex(bits)


def test_hex_bits_of_the_empty_string():
    assert hex_bits("", 0) == 0
    assert bits_hex(0, 0) == ""
    with pytest.raises(ProtocolError):
        hex_bits("", 1)


@pytest.mark.parametrize("bad", [
    "１",  # fullwidth digit one
    "١",  # Arabic-Indic digit one
    "01０", "2", "0b1", " 0", "01\n", "a", "-1",
    None, 5, 1.0, b"01", ["0", "1"], ("0",)])
def test_str_bits_refuses_what_is_not_a_bit_string(bad):
    # none of these is the one spelling of a single bit, "0" or "1"
    with pytest.raises(ProtocolError):
        hex_bits(bad, 1)


@given(st.text(alphabet="0123456789abcdefABF x\n_+-", max_size=10),
       st.integers(min_value=0, max_value=40))
def test_hex_bits_on_fuzzed_strings(text, n):
    want = ref_hex_bits(text, n)
    if want is None:
        with pytest.raises(ProtocolError):
            hex_bits(text, n)
    else:
        assert int_to_bits(hex_bits(text, n), n) == want
        assert bits_hex(hex_bits(text, n), n) == text


def test_hex_bits_padding_at_every_width():
    # every width from 1 to 16, spelled with digits 0 and 8: an 8 first sets
    # the top digit's top bit, a padding bit unless the width is a multiple of 4
    for n in range(1, 17):
        digits = (n + 3) // 4
        for text in map("".join, itertools.product("08", repeat=digits)):
            want = ref_hex_bits(text, n)
            assert (want is not None) == (n % 4 == 0 or text[0] == "0")
            if want is None:
                with pytest.raises(ProtocolError):
                    hex_bits(text, n)
            else:
                assert int_to_bits(hex_bits(text, n), n) == want


@pytest.mark.parametrize("text, n", [
    ("A5", 8),  # uppercase
    ("aB", 8),
    ("0x5", 8),  # a prefix
    ("0x", 8),
    (" 5", 8),  # whitespace
    ("5 ", 8),
    ("\n5", 8),
    ("5", 8),  # one digit short
    ("005", 8),  # one digit over
    ("4", 2),  # a padding bit set: 2 bits are one digit, 0-3
    ("40", 6),
    ("2000", 13),
    ("8", 3),
    ("1_0", 12),  # what int() would also read
    ("+5", 8),
    (None, 8),  # not a str
    (b"a5", 8),
    (165, 8),
    (["a", "5"], 8),
])
def test_hex_bits_refuses_every_other_spelling(text, n):
    with pytest.raises(ProtocolError):
        hex_bits(text, n)


@given(st.integers(min_value=-(1 << 700), max_value=1 << 700),
       st.integers(min_value=0, max_value=600))
def test_int_to_bits_matches_the_reference(value, width):
    assert int_to_bits(value, width) == ref_int_to_bits(value, width)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=32),
       st.integers(min_value=1, max_value=1100))
def test_prg_matches_the_reference(seed, n):
    assert int_to_bits(prg(bits_uint(seed), len(seed), n), n) == ref_prg(seed, n)


@pytest.mark.parametrize("q", [1, 3, CODE.q, PROTOCOL_CODE.q])
def test_choose_challenge_draws_like_the_reference(q):
    for seed in range(100):
        fast, ref = random.Random(seed), random.Random(seed)
        R = choose_challenge(q, fast)
        assert int_to_bits(R, 2 * q) == ref_choose_challenge(q, ref)
        assert fast.getstate() == ref.getstate()


def test_commit_respond_matches_the_reference():
    rng = random.Random(31)
    for code in (CODE, PROTOCOL_CODE):  # 4 data bits per block, and 16
        for _ in range(200):
            D = tuple(rng.getrandbits(1) for _ in range(code.m_c))
            R = choose_challenge(code.q, rng)
            s = tuple(rng.getrandbits(1) for _ in range(16))
            e, exposed = commit_respond(bits_uint(D), code.m_c, R, bits_uint(s), code)
            assert ((int_to_bits(e, code.q), int_to_bits(exposed, code.q))
                    == ref_commit_respond(D, int_to_bits(R, 2 * code.q), s, code))
