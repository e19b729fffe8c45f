"""The ciphertext word helpers against the per-ciphertext forms they replaced.

Each reference below is the earlier per-ciphertext definition. Certificates
for fixed seeds depend on these exact bytes and on which ciphertexts are
refused, so the word forms must agree with the references everywhere, not
only on the golden seeds.
"""

import base64
import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from helpers import random_bits
from tabverify import he
from tabverify.circuit import uc_layout
from tabverify.demo import DEMO_GRAPH_TEXT, diamond_graph
from tabverify.graphtext import parse_graph
from tabverify.protocol import Developer, ProtocolError, b64_cts, cts_b64


@pytest.fixture(scope="module", params=["transparent", "integer-she"])
def keys(request):
    return he.keygen(16, request.param, rng=random.Random(1))


def ref_unpack(h, ct):
    want_tag = he.TAG_TRANSPARENT if h.kind == "transparent" else he.TAG_SHE
    if not isinstance(ct, (bytes, bytearray)):
        raise he.HeError("ciphertext must be bytes")
    if len(ct) != h.lam_bytes:
        raise he.HeError("malformed ciphertext length")
    if ct[0] != want_tag:
        raise he.HeError("malformed ciphertext (backend tag)")
    if ct[1:9] != h.key_id:
        raise he.HeError("ciphertext does not match this key pair")
    return bytes(ct[9:])


def ref_check_word(h, cts):
    for ct in cts:
        ref_unpack(h, ct)
    return b"".join(cts)


def ref_enc_transparent(hpk, bit, rng):
    nonce = rng.getrandbits(24 * 8).to_bytes(24, "big")
    return bytes([he.TAG_TRANSPARENT]) + hpk.key_id + bytes([bit]) + nonce


def outcome(check, h, cts):
    try:
        return "accept", check(h, cts)
    except he.HeError as exc:
        return "refuse", str(exc)


def faults(ct, other_tag):
    """One bad stand-in for ct per check: type, length, tag and key id."""
    yield from (ct.decode("latin-1"), 5, None, list(ct), memoryview(ct))
    yield from (ct[:-1], ct + b"\0", b"")
    yield bytes([other_tag]) + ct[1:]
    for k in range(1, 9):
        yield ct[:k] + bytes([ct[k] ^ 1]) + ct[k + 1:]


def test_check_word_accepts_and_refuses_as_the_reference(keys):
    rng = random.Random(2)
    word = he.enc_word(keys.hpk, random_bits(rng, 5), rng)
    other_tag = he.TAG_SHE if keys.hpk.kind == "transparent" else he.TAG_TRANSPARENT
    assert outcome(he._check_word, keys.hpk, []) == ("accept", b"")
    for h in (keys.hpk, keys.hsk):
        assert outcome(he._check_word, h, word) == ("accept", b"".join(word))
        mixed = [bytearray(ct) if k % 2 else ct for k, ct in enumerate(word)]
        assert outcome(he._check_word, h, mixed) == ("accept", b"".join(word))
        for pos in (0, 2, 4):  # first, middle and last
            for bad in faults(word[pos], other_tag):
                cts = word[:pos] + [bad] + word[pos + 1:]
                got = outcome(he._check_word, h, cts)
                assert got[0] == "refuse"
                assert got == outcome(ref_check_word, h, cts)
                assert not he.well_formed(h, cts)
                with pytest.raises(he.HeError):
                    he.dec_word(keys.hsk, cts)


@pytest.mark.parametrize("n", [0, 1, 16, 2308])
def test_enc_word_draws_like_one_enc_per_bit(n):
    hpk = he.keygen(16, rng=random.Random(5)).hpk
    bits = random_bits(random.Random(n), n)
    fast, per_bit, ref = (random.Random(60 + n) for _ in range(3))
    word = he.enc_word(hpk, bits, fast)
    assert word == [he.enc(hpk, b, per_bit) for b in bits]
    assert word == [ref_enc_transparent(hpk, b, ref) for b in bits]
    assert fast.getstate() == per_bit.getstate() == ref.getstate()


def test_enc_word_draws_like_one_enc_per_bit_she():
    hpk = he.keygen(16, "integer-she", rng=random.Random(6)).hpk
    bits = random_bits(random.Random(7), 16)
    fast, per_bit = random.Random(8), random.Random(8)
    assert he.enc_word(hpk, bits, fast) == [he.enc(hpk, b, per_bit) for b in bits]
    assert fast.getstate() == per_bit.getstate()


def test_enc_word_without_an_rng(keys):
    bits = random_bits(random.Random(9), 40)
    word = he.enc_word(keys.hpk, bits)
    assert he.well_formed(keys.hpk, word)
    assert he.dec_word(keys.hsk, word) == bits
    assert len(set(word)) == len(word)  # fresh nonces, no two alike
    assert he.dec_word(keys.hsk, [he.enc(keys.hpk, b) for b in bits]) == bits


@pytest.mark.parametrize("bits", [
    (0, 2), (1, -1), (0, "1"), (None,), ([1],), (0.5,), ((0,),)])
def test_enc_word_refuses_what_is_not_a_bit(keys, bits):
    with pytest.raises(he.HeError):
        he.enc_word(keys.hpk, bits, random.Random(10))
    with pytest.raises(he.HeError):
        he.enc(keys.hpk, bits[-1], random.Random(10))


def test_enc_word_reads_bools_and_integral_values_as_bits(keys):
    # enc accepted anything equal to 0 or 1; so does the word form
    rng = random.Random(11)
    word = he.enc_word(keys.hpk, (True, False, 1.0, 0), rng)
    assert he.dec_word(keys.hsk, word) == (1, 0, 1, 0)


# --- base64 ---------------------------------------------------------------------


def ref_cts_b64(cts):
    return [base64.b64encode(ct).decode("ascii") for ct in cts]


def ref_b64_cts(items):
    try:
        out = [base64.b64decode(x, validate=True) for x in items]
    except Exception as exc:
        raise ProtocolError(f"bad ciphertext encoding: {exc}") from exc
    if ref_cts_b64(out) != list(items):
        raise ProtocolError("non-canonical ciphertext encoding")
    return out


def same_decode(items):
    try:
        want = ref_b64_cts(items)
    except ProtocolError:
        with pytest.raises(ProtocolError):
            b64_cts(items)
        return False
    assert b64_cts(items) == want
    return True


@given(st.lists(st.binary(max_size=40), max_size=4))
def test_cts_b64_matches_the_reference(cts):
    assert cts_b64(cts) == ref_cts_b64(cts)
    assert b64_cts(cts_b64(cts)) == cts


@given(st.lists(st.text(alphabet="AQgwBb9+/=\n é\0", max_size=10), max_size=3))
def test_b64_cts_accepts_exactly_what_the_reference_accepts(items):
    same_decode(items)


def test_b64_cts_on_fuzzed_short_strings():
    rng = random.Random(12)
    alphabet = "ABQgwz09+/=-_ \né"
    accepted = 0
    for _ in range(20000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(9)))
        accepted += same_decode([s])
    assert accepted > 100  # the fuzz reaches canonical spellings too


@pytest.mark.parametrize("item", [
    "AB==", "AA==", "AAA=", "AAB=", "AAAA", "AA", "AA=", "AA===", "A===",
    "AA==AA==", "AAAA\n", " AAAA", "AA-_", "AAé=", "ÿÿÿÿ", "",
    b"AA==", bytearray(b"AAAA"), 5, None, ["AA=="], 1.5])
def test_b64_cts_edge_cases(item):
    same_decode([item])
    same_decode(["AAAA", item])


# --- prepared programs ----------------------------------------------------------


def ref_run(hpk, u, program_cts, data_cts):
    """The earlier per-ciphertext decode and run of one table step."""
    _, sb, plen = uc_layout(u.n_data, u.g, u.m)
    bits = [ref_unpack(hpk, ct)[0] & 1 for ct in program_cts]
    zero = u.n_data

    def line(pos, lines):
        sel = sum(bits[pos + k] << k for k in range(sb))
        return sel if sel < lines else zero

    width = 2 * sb + 4
    slots = [(line(pos, zero + 1 + j), line(pos + sb, zero + 1 + j),
              sum(bits[pos + 2 * sb + k] << k for k in range(4)))
             for j, pos in enumerate(range(0, u.g * width, width))]
    outs = [line(pos, zero + 1 + u.g) for pos in range(u.g * width, plen, sb)]
    bus = [ref_unpack(hpk, ct)[0] & 1 for ct in data_cts] + [0]
    for l, r, tt in slots:
        bus.append((tt >> ((bus[l] << 1) | bus[r])) & 1)
    inputs = hashlib.sha256(b"".join(program_cts) + b"".join(data_cts)).digest()
    prefix = b"tr-eval-v2" + hpk.key_id + inputs
    return [bytes([he.TAG_TRANSPARENT]) + hpk.key_id + bytes([bus[s]])
            + hashlib.sha256(prefix + f"{u.name}:{k}".encode()).digest()[:24]
            for k, s in enumerate(outs)]


@pytest.mark.parametrize("design", ["demo", "diamond"])
def test_prepared_programs_match_the_reference_decode(design):
    graph = parse_graph(DEMO_GRAPH_TEXT) if design == "demo" else diamond_graph()
    dev = Developer(graph, rng=random.Random(13))
    rng = random.Random(14)
    assert len(dev.pp.programs) == 8
    for i, program in dev.pp.programs.items():
        prepared = he.prepare(dev.hpk, dev.u, program)
        for _ in range(50):
            data = he.enc_word(dev.hpk, random_bits(rng, dev.u.n_data), rng)
            assert prepared.run(data) == ref_run(dev.hpk, dev.u, program, data)
