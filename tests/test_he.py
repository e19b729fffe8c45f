import json
import random

import pytest

from helpers import random_bits, random_circuit
from tabverify import he
from tabverify.circuit import TT_AND, TT_XOR, Circuit, UniversalCircuit


@pytest.fixture(scope="module")
def tr_keys():
    return he.keygen(rng=random.Random(1))


def test_published_key_round_trips(tr_keys):
    # the ciphertext length is not published: both ends derive it
    assert tr_keys.hpk == tr_keys.hsk
    d = he.hpk_to_dict(tr_keys.hpk)
    assert d == {"kind": "transparent", "key_id": tr_keys.hpk.key_id.hex()}
    assert he.hpk_from_dict(json.loads(json.dumps(d))) == tr_keys.hpk


@pytest.mark.parametrize("edit", [
    {"kind": "integer-she"}, {"kind": None}, {"config": {"eta": 8}},
    {"key_id": "00" * 7}],
    ids=["integer-she", "no-kind", "extra-field", "short-key-id"])
def test_published_key_of_another_shape_is_refused(tr_keys, edit):
    # the transparent key is the only one: another kind, a key with an
    # extra field and a short key id are all refused
    d = {**he.hpk_to_dict(tr_keys.hpk), **edit}
    with pytest.raises(he.HeError):
        he.hpk_from_dict(d)


def test_round_trip(tr_keys):
    rng = random.Random(3)
    for _ in range(300):
        b = rng.randrange(2)
        assert he.dec_word(tr_keys.hsk, he.enc_word(tr_keys.hpk, (b,), rng)) == (b,)


def test_enc_probabilistic(tr_keys):
    rng = random.Random(4)
    a = he.enc_word(tr_keys.hpk, (1,), rng)
    b = he.enc_word(tr_keys.hpk, (1,), rng)
    assert a != b
    assert he.dec_word(tr_keys.hsk, a) == he.dec_word(tr_keys.hsk, b) == (1,)


def test_ciphertext_fixed_length(tr_keys):
    # a word is the 9-byte header once and a fixed-length payload per
    # ciphertext; a word of one ciphertext is LAM_BYTES long
    rng = random.Random(5)
    assert he.LAM_BYTES == 9 + 17
    word = he.enc_word(tr_keys.hpk, (0, 1, 1, 0), rng)
    assert isinstance(word, bytes) and len(word) == 9 + 4 * 17
    assert len(he.enc_word(tr_keys.hpk, (1,), rng)) == he.LAM_BYTES


def test_dec_malformed(tr_keys):
    rng = random.Random(6)
    ct = he.enc_word(tr_keys.hpk, (1,), rng)
    with pytest.raises(he.HeError):
        he.dec_word(tr_keys.hsk, ct[:-4])
    with pytest.raises(he.HeError):
        he.dec_word(tr_keys.hsk, b"\x07" + ct[1:])
    # a ciphertext from a different key pair is refused
    other = he.keygen(rng=random.Random(7))
    ct = he.enc_word(other.hpk, (1,), random.Random(8))
    with pytest.raises(he.HeError):
        he.dec_word(tr_keys.hsk, ct)


def test_eval_basic_gates(tr_keys):
    rng = random.Random(9)
    and_c = Circuit(2, ((0, 1, TT_AND),), (2,))
    xor_c = Circuit(2, ((0, 1, TT_XOR),), (2,))
    for a in (0, 1):
        for b in (0, 1):
            cts = he.enc_word(tr_keys.hpk, (a, b), rng)
            assert he.dec_word(tr_keys.hsk, he.eval_word(tr_keys.hpk, and_c, cts)) == (a & b,)
            assert he.dec_word(tr_keys.hsk, he.eval_word(tr_keys.hpk, xor_c, cts)) == (a ^ b,)


def test_eval_deterministic(tr_keys):
    rng = random.Random(11)
    c = random_circuit(rng, 4, 12, 2)
    cts = he.enc_word(tr_keys.hpk, (1, 0, 1, 1), rng)
    assert he.eval_word(tr_keys.hpk, c, cts) == he.eval_word(tr_keys.hpk, c, cts)


def test_eval_compactness(tr_keys):
    rng = random.Random(12)
    small = random_circuit(rng, 3, 2, 1)
    big = random_circuit(rng, 3, 200, 1, max_mult_depth=6)
    cts = he.enc_word(tr_keys.hpk, (1, 0, 1), rng)
    assert len(he.eval_word(tr_keys.hpk, small, cts)) == he.LAM_BYTES
    assert len(he.eval_word(tr_keys.hpk, big, cts)) == he.LAM_BYTES


def test_prepare_checks_every_program_ciphertext(tr_keys):
    # a program ciphertext is checked for length, backend tag and key id
    # as eval_word checks any ciphertext; so is a data ciphertext, per step
    rng = random.Random(21)
    u = UniversalCircuit(2, 2, 1)
    other = he.keygen(rng=random.Random(22))
    word = he.enc_word(tr_keys.hpk, random_bits(rng, u.n_inputs), rng)
    prog = he.cut_word(tr_keys.hpk, word, 0, u.program_length)
    data = he.cut_word(tr_keys.hpk, word, u.program_length)
    foreign = he.enc_word(other.hpk, random_bits(rng, u.program_length), rng)
    prepared = he.prepare(tr_keys.hpk, u, prog)

    def faults(good):  # ragged, a bad tag, another key pair's header, short
        return (good[:-1], b"\x09" + good[1:], foreign[:9] + good[9:],
                he.cut_word(tr_keys.hpk, good, 1))

    for bad in faults(prog):
        with pytest.raises(he.HeError):
            he.prepare(tr_keys.hpk, u, bad)
    for bad in faults(data):
        with pytest.raises(he.HeError):
            prepared.run(bad)


def test_projection_byte_identity(tr_keys):
    rng = random.Random(18)
    c = random_circuit(rng, 4, 10, 3)
    cts = he.enc_word(tr_keys.hpk, (0, 1, 1, 0), rng)
    full = he.eval_word(tr_keys.hpk, c, cts)
    for k in range(3):
        proj = Circuit(c.n_inputs, c.gates, (c.outputs[k],))
        assert he.eval_word(tr_keys.hpk, proj, cts) == he.cut_word(tr_keys.hpk, full,
                                                                   k, k + 1)
