"""The ciphertext word helpers against per-ciphertext references.

A word is one bytes value: the backend tag and key id once, then one payload
per ciphertext; and one base64 string on the wire and in the certificate.
Each reference below works on the word's ciphertexts one at a time, each a
whole ciphertext with its own tag and key id, as the earlier per-ciphertext
layout had them; strip turns such ciphertexts into a word. Certificates for
fixed seeds depend on these exact bytes and on which words are refused, so
the word forms must agree with the references everywhere, not only on the
golden seeds.
"""

import base64
import copy
import hashlib
import random
import re
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from helpers import random_bits
from tabverify import he
from tabverify.audit import audit
from tabverify.circuit import uc_layout
from tabverify.demo import DEMO_GRAPH_TEXT, DIAMOND_DOMAINS, diamond_graph
from tabverify.graphtext import parse_graph
from tabverify.protocol import (
    Developer,
    ProtocolError,
    Verifier,
    b64_cts,
    cts_b64,
    session_binding,
    verify_session,
)

DEMO = parse_graph(DEMO_GRAPH_TEXT)


KEYS = he.keygen(rng=random.Random(1))
OTHER_TAG = 2  # the tag byte of no backend


def cut(word):
    """The ciphertexts of a word, each whole: the word's header and one
    payload."""
    size = he.LAM_BYTES - 9
    return [word[:9] + word[o:o + size] for o in range(9, len(word), size)]


def strip(h, cts):
    """The word of whole ciphertexts of h's key pair: its header once, then
    each ciphertext's payload."""
    header = bytes([he.TAG_TRANSPARENT]) + h.key_id
    assert all(ct[:9] == header for ct in cts)
    return header + b"".join(ct[9:] for ct in cts)


def ref_unpack(h, ct):
    if ct[0] != he.TAG_TRANSPARENT:
        raise he.HeError("malformed ciphertext (backend tag)")
    if ct[1:9] != h.key_id:
        raise he.HeError("ciphertext does not match this key pair")
    return ct[9:]


def ref_check_word(h, word):
    if not isinstance(word, bytes):
        raise he.HeError("ciphertext word must be bytes")
    if len(word) < 9:
        raise he.HeError("malformed ciphertext word (short header)")
    if (len(word) - 9) % (he.LAM_BYTES - 9):
        raise he.HeError("malformed ciphertext length")
    cts = cut(word)
    for ct in [word[:9]] + cts:  # the header alone, and each ciphertext
        ref_unpack(h, ct)
    return len(cts)


def ref_enc_transparent(hpk, bit, rng):
    nonce = rng.getrandbits(16 * 8).to_bytes(16, "big")
    return bytes([he.TAG_TRANSPARENT]) + hpk.key_id + bytes([bit]) + nonce


def outcome(check, h, word):
    try:
        return "accept", check(h, word)
    except he.HeError as exc:
        return "refuse", str(exc)


def faults(word, pos, size, other_tag):
    """Bad stand-ins for word: of another type, too short for a header, of
    a ragged length (one byte short in payload pos, among others), and with
    a bad tag or key-id byte."""
    yield from (word.decode("latin-1"), 5, None, list(word), memoryview(word),
                bytearray(word), [word])
    yield from (b"", word[:1], word[:8])
    o = 9 + pos * size  # where payload pos starts
    yield from (word[:-1], word + b"\0", word[:o] + word[o + 1:])
    yield bytes([other_tag]) + word[1:]
    for k in range(1, 9):
        yield word[:k] + bytes([word[k] ^ 1]) + word[k + 1:]


def test_check_word_accepts_and_refuses_as_the_reference():
    rng = random.Random(2)
    word = he.enc_word(KEYS.hpk, random_bits(rng, 5), rng)
    size = he.LAM_BYTES - 9
    # the word of no ciphertexts is the header alone
    assert outcome(he.check_word, KEYS.hpk, word[:9]) == ("accept", 0)
    assert he.enc_word(KEYS.hpk, ()) == word[:9]
    for h in (KEYS.hpk, KEYS.hsk):
        assert outcome(he.check_word, h, word) == ("accept", 5)
        for pos in (0, 2, 4):  # first, middle and last
            for bad in faults(word, pos, size, OTHER_TAG):
                got = outcome(he.check_word, h, bad)
                assert got[0] == "refuse"
                assert got == outcome(ref_check_word, h, bad)
                if isinstance(bad, bytes):  # a word a base64 string spells
                    with pytest.raises(ProtocolError, match=re.escape(got[1])):
                        b64_cts(cts_b64(bad), h)
                with pytest.raises(he.HeError):
                    he.dec_word(KEYS.hsk, bad)


def test_cut_and_join_by_ciphertext_index():
    rng = random.Random(4)
    bits = random_bits(rng, 7)
    word = he.enc_word(KEYS.hpk, bits, rng)
    cts = cut(word)
    for start, stop in ((0, 7), (0, 3), (3, None), (2, 5), (4, 4), (6, None)):
        part = he.cut_word(KEYS.hpk, word, start, stop)
        assert part == strip(KEYS.hpk, cts[start:stop])
        assert he.dec_word(KEYS.hsk, part) == bits[start:stop]
    assert he.cut_word(KEYS.hsk, word, 1, 2) == cts[1]  # a word of one
    halves = [he.cut_word(KEYS.hpk, word, 0, 3), he.cut_word(KEYS.hpk, word, 3)]
    assert he.join_words(KEYS.hpk, halves) == word
    assert he.join_words(KEYS.hpk, [word, word]) == strip(KEYS.hpk, cts + cts)
    assert he.join_words(KEYS.hpk, []) == word[:9]


def test_cut_and_join_refuse_a_word_under_another_key():
    rng = random.Random(5)
    word = he.enc_word(KEYS.hpk, (0, 1, 1), rng)
    other = he.keygen(rng=random.Random(6)).hpk
    foreign = he.enc_word(other, (1, 0), rng)
    with pytest.raises(he.HeError, match="key pair"):
        he.cut_word(KEYS.hpk, foreign, 0, 1)
    for words in ([foreign], [word, foreign], [foreign, word]):
        with pytest.raises(he.HeError, match="key pair"):
            he.join_words(KEYS.hpk, words)
    with pytest.raises(he.HeError, match="length"):
        he.join_words(KEYS.hpk, [word, word[:-1]])


@pytest.mark.parametrize("n", [0, 1, 16, 2308])
def test_enc_word_draws_like_one_enc_per_bit(n):
    hpk = he.keygen(rng=random.Random(5)).hpk
    bits = random_bits(random.Random(n), n)
    fast, ref = (random.Random(60 + n) for _ in range(2))
    word = he.enc_word(hpk, bits, fast)
    assert word == strip(hpk, [ref_enc_transparent(hpk, b, ref) for b in bits])
    assert fast.getstate() == ref.getstate()


def test_enc_word_without_an_rng():
    bits = random_bits(random.Random(9), 40)
    word = he.enc_word(KEYS.hpk, bits)
    assert he.check_word(KEYS.hpk, word) == 40
    assert he.dec_word(KEYS.hsk, word) == bits
    assert len(set(cut(word))) == 40  # fresh nonces, no two alike
    one_each = [he.enc_word(KEYS.hpk, (b,)) for b in bits]
    assert he.dec_word(KEYS.hsk, strip(KEYS.hpk, one_each)) == bits


@pytest.mark.parametrize("bits", [
    (0, 2), (1, -1), (0, "1"), (None,), ([1],), (0.5,), ((0,),)])
def test_enc_word_refuses_what_is_not_a_bit(bits):
    with pytest.raises(he.HeError):
        he.enc_word(KEYS.hpk, bits, random.Random(10))
    with pytest.raises(he.HeError):
        he.enc_word(KEYS.hpk, (bits[-1],), random.Random(10))


def test_enc_word_reads_bools_and_integral_values_as_bits():
    # enc accepted anything equal to 0 or 1; so does the word form
    rng = random.Random(11)
    word = he.enc_word(KEYS.hpk, (True, False, 1.0, 0), rng)
    assert he.dec_word(KEYS.hsk, word) == (1, 0, 1, 0)


# --- base64 ---------------------------------------------------------------------


def ref_cts_b64(word):
    return base64.b64encode(word).decode("ascii")


def ref_b64_cts(text, h, n=None):
    if not isinstance(text, str) or not text.isascii():
        raise ProtocolError("not ASCII text")
    try:
        word = base64.b64decode(text, validate=True)
    except Exception as exc:
        raise ProtocolError(f"bad ciphertext encoding: {exc}") from exc
    if ref_cts_b64(word) != text:
        raise ProtocolError("non-canonical ciphertext encoding")
    try:
        count = ref_check_word(h, word)
    except he.HeError as exc:
        raise ProtocolError(f"bad ciphertext word: {exc}") from exc
    if n is not None and count != n:
        raise ProtocolError("wrong count")
    return word


def head(h):
    """The spelling of h's header, 9 bytes: 12 characters, a whole number of
    base64 groups."""
    return cts_b64(he.enc_word(h, ()))


def same_decode(h, text, size=1, n=None):
    """Whether b64_cts accepts text, for h's key pair with payloads of size
    bytes, as the reference does, and decodes it to the same word. The
    payload size is he's constant, set to size for the call, so that short
    strings reach whole words."""
    with mock.patch.object(he, "LAM_BYTES", 9 + size):
        try:
            want = ref_b64_cts(text, h, n)
        except ProtocolError:
            with pytest.raises(ProtocolError):
                b64_cts(text, h, n)
            return False
        assert b64_cts(text, h, n) == want
    return True


@given(st.binary(max_size=120))
def test_cts_b64_matches_the_reference(word):
    assert cts_b64(word) == ref_cts_b64(word)
    same_decode(KEYS.hpk, cts_b64(word))
    assert same_decode(KEYS.hpk, cts_b64(he.enc_word(KEYS.hpk, ()) + word))


@given(st.text(alphabet="AQgwBb9+/=\n é\0", max_size=16))
def test_b64_cts_accepts_exactly_what_the_reference_accepts(text):
    for size in (1, 2, 3):
        same_decode(KEYS.hpk, text, size)
        same_decode(KEYS.hpk, head(KEYS.hpk) + text, size)


def test_b64_cts_on_fuzzed_short_strings():
    rng = random.Random(12)
    alphabet = "ABQgwz09+/=-_ \né"
    accepted, prefix = 0, head(KEYS.hpk)
    for _ in range(20000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(13)))
        same_decode(KEYS.hpk, s)
        accepted += same_decode(KEYS.hpk, prefix + s)
        same_decode(KEYS.hpk, prefix + s, 2, 3)
    assert accepted > 100  # the fuzz reaches canonical spellings too


@pytest.mark.parametrize("item", [
    "AB==", "AA==", "AAA=", "AAB=", "AAAA", "AA", "AA=", "AA===", "A===",
    "AA==AA==", "AAAA\n", " AAAA", "AA-_", "AAé=", "ÿÿÿÿ", "",
    b"AA==", bytearray(b"AAAA"), 5, None, ["AA=="], 1.5])
def test_b64_cts_edge_cases(item):
    same_decode(KEYS.hpk, item)
    same_decode(KEYS.hpk, item, 3)
    if isinstance(item, str):
        h = head(KEYS.hpk)
        same_decode(KEYS.hpk, h + item)
        same_decode(KEYS.hpk, h + item, 3, 1)
        same_decode(KEYS.hpk, h + "AAAA" + item, 3, 1)


def test_b64_cts_counts_ciphertexts():
    # (length - 9) / payload ciphertexts
    rng = random.Random(14)
    size = he.LAM_BYTES - 9
    for n in range(6):
        word = he.enc_word(KEYS.hpk, random_bits(rng, n), rng)
        assert len(word) == 9 + n * size
        text = cts_b64(word)
        assert b64_cts(text, KEYS.hpk) == word
        for k in range(6):
            if k == n:
                assert b64_cts(text, KEYS.hpk, k) == word
            else:
                with pytest.raises(ProtocolError, match=f"hold {k} ciphertexts, got {n}$"):
                    b64_cts(text, KEYS.hpk, k)


def test_b64_cts_refuses_a_word_of_the_wrong_type_or_length():
    # the type and length faults, and a header of another backend or key
    h = KEYS.hpk
    word = he.enc_word(h, (0, 1, 1), random.Random(15))
    text = cts_b64(word)
    assert b64_cts(text, h) == b64_cts(text, h, 3) == word
    header = cts_b64(word[:9])  # the word of no ciphertexts
    assert b64_cts(header, h) == b64_cts(header, h, 0) == word[:9]
    for bad in (word, bytearray(word), None, 5, [text], text.encode("ascii")):
        with pytest.raises(ProtocolError, match="ASCII text"):
            b64_cts(bad, h)
    with pytest.raises(ProtocolError, match="ASCII text"):
        b64_cts(text[:-4] + "é===", h)
    # off by one byte, a short header, and no header
    for bad, why in ((word[:-1], "length"), (word + b"\0", "length"),
                     (word[:8], "short header"), (b"", "short header")):
        with pytest.raises(ProtocolError, match=f"bad ciphertext word: .*{why}"):
            b64_cts(cts_b64(bad), h)
    # another backend's tag, and another key pair's key id
    for bad, why in ((bytes([OTHER_TAG]) + word[1:], "backend tag"),
                     (word[:8] + bytes([word[8] ^ 1]) + word[9:], "key pair")):
        with pytest.raises(ProtocolError, match=f"bad ciphertext word: .*{why}"):
            b64_cts(cts_b64(bad), h)
    for n in (0, 2, 4):  # a whole number of ciphertexts, but not n
        with pytest.raises(ProtocolError, match=f"hold {n} ciphertexts, got 3"):
            b64_cts(text, h, n)
    with pytest.raises(ProtocolError, match="hold 1 ciphertexts, got 0"):
        b64_cts(header, h, 1)  # the empty word where one ciphertext is due


B64_ALPHABET = ("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                "0123456789+/=")


@pytest.fixture(scope="module")
def diamond_cert():
    # the diamond's programs, of 1,372 ciphertexts, are the built-in designs'
    # longest
    graph = diamond_graph()
    dev = Developer(graph, rng=random.Random(16))
    v = Verifier(dev.pp.to_dict(), graph, DIAMOND_DOMAINS, [], seed=17,
                 vga_budget=2, rng=random.Random(18))
    verdict, cert = verify_session(dev, v)
    assert verdict == "accept" and audit(cert)[0] == 1
    return cert


def test_one_character_change_to_a_long_program_word(diamond_cert):
    # every change of one character, at the first, middle and last places
    # of a program's string, is refused as a spelling that is not
    # canonical, as another backend's tag, as a wrong length, or decodes to
    # another word; the audit of a certificate carrying such a change, bound
    # again, is 0 in each way
    text = diamond_cert["public_params"]["programs"][0]
    hpk = he.hpk_from_dict(diamond_cert["public_params"]["hpk"])
    plen = he.check_word(hpk, b64_cts(text, hpk))
    assert plen > 1000 and text.endswith("=")
    ways = {"spelling": 0, "header": 0, "length": 0, "word": 0}
    for pos in (0, len(text) // 2, len(text) - 3, len(text) - 2, len(text) - 1):
        audited = set()
        for c in B64_ALPHABET.replace(text[pos], ""):
            changed = text[:pos] + c + text[pos + 1:]
            try:
                word = b64_cts(changed, hpk, plen)
            except ProtocolError as exc:
                why = str(exc)
                way = ("spelling" if "encoding" in why else
                       "length" if "length" in why else "header")
                assert way != "header" or "backend tag" in why
            else:
                way = "word"
                assert word != b64_cts(text, hpk)
            ways[way] += 1
            if way not in audited:  # one audit per way and place
                audited.add(way)
                cert = copy.deepcopy(diamond_cert)
                cert["public_params"]["programs"][0] = changed
                cert["binding"] = session_binding(cert)
                ok, report = audit(cert)
                assert ok == 0 and report["reason"] != "session binding mismatch"
    assert all(ways.values()), ways


# --- prepared programs ----------------------------------------------------------


def ref_run(hpk, u, program, data):
    """The earlier per-ciphertext decode and run of one table step."""
    _, sb, plen = uc_layout(u.n_data, u.g, u.m)
    bits = [ref_unpack(hpk, ct)[0] & 1 for ct in cut(program)]
    zero = u.n_data

    def line(pos, lines):
        sel = sum(bits[pos + k] << k for k in range(sb))
        return sel if sel < lines else zero

    width = 2 * sb + 4
    slots = [(line(pos, zero + 1 + j), line(pos + sb, zero + 1 + j),
              sum(bits[pos + 2 * sb + k] << k for k in range(4)))
             for j, pos in enumerate(range(0, u.g * width, width))]
    outs = [line(pos, zero + 1 + u.g) for pos in range(u.g * width, plen, sb)]
    bus = [ref_unpack(hpk, ct)[0] & 1 for ct in cut(data)] + [0]
    for l, r, tt in slots:
        bus.append((tt >> ((bus[l] << 1) | bus[r])) & 1)
    # the nonces hash the program and data ciphertexts as one word
    joined = strip(hpk, cut(program) + cut(data))
    prefix = b"tr-eval-v2" + hpk.key_id + hashlib.sha256(joined).digest()
    return strip(hpk, [
        bytes([he.TAG_TRANSPARENT]) + hpk.key_id + bytes([bus[s]])
        + hashlib.sha256(prefix + f"{u.name}:{k}".encode()).digest()[:16]
        for k, s in enumerate(outs)])


@pytest.mark.parametrize("design", ["demo", "diamond"])
def test_prepared_programs_match_the_reference_decode(design):
    graph = DEMO if design == "demo" else diamond_graph()
    dev = Developer(graph, rng=random.Random(13))
    rng = random.Random(14)
    assert len(dev.pp.programs) == 8
    for program in dev.pp.programs:
        prepared = he.prepare(dev.hpk, dev.u, program)
        for _ in range(50):
            data = he.enc_word(dev.hpk, random_bits(rng, dev.u.n_data), rng)
            assert prepared.run(data) == ref_run(dev.hpk, dev.u, program, data)
