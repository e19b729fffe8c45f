import json
import random

import pytest

from helpers import random_bits, random_circuit
from tabverify import he
from tabverify.circuit import TT_AND, TT_XOR, Circuit, UniversalCircuit, simulate


@pytest.fixture(scope="module")
def tr_keys():
    return he.keygen(16, "transparent", rng=random.Random(1))


@pytest.fixture(scope="module")
def she_keys():
    return he.keygen(16, "integer-she", rng=random.Random(2))


def test_keygen_errors():
    with pytest.raises(he.HeError):
        he.keygen(0)
    with pytest.raises(he.HeError):
        he.keygen(16, "nonsense")
    with pytest.raises(he.HeError):
        he.keygen(16, "integer-she", config=he.BackendConfig(eta=16, rho=16))


def test_published_key_round_trips_both_backends(tr_keys, she_keys):
    # the ciphertext length is not published: both ends derive it
    assert set(he.hpk_to_dict(tr_keys.hpk)) == {"kind", "key_id"}
    for keys in (tr_keys, she_keys):
        d = json.loads(json.dumps(he.hpk_to_dict(keys.hpk)))
        assert he.hpk_from_dict(d) == keys.hpk


def test_round_trip_both_backends(tr_keys, she_keys):
    rng = random.Random(3)
    for keys in (tr_keys, she_keys):
        for _ in range(300):
            b = rng.randrange(2)
            assert he.dec(keys.hsk, he.enc(keys.hpk, b, rng)) == b


def test_enc_probabilistic(tr_keys, she_keys):
    rng = random.Random(4)
    for keys in (tr_keys, she_keys):
        a = he.enc(keys.hpk, 1, rng)
        b = he.enc(keys.hpk, 1, rng)
        assert a != b
        assert he.dec(keys.hsk, a) == he.dec(keys.hsk, b) == 1


def test_ciphertext_fixed_length(tr_keys, she_keys):
    # a word is the 9-byte header once and a fixed-length payload per
    # ciphertext; a word of one ciphertext is lam_bytes long
    rng = random.Random(5)
    assert tr_keys.hpk.lam_bytes == 9 + 17
    for keys in (tr_keys, she_keys):
        lam = keys.hpk.lam_bytes
        word = he.enc_word(keys.hpk, (0, 1, 1, 0), rng)
        assert isinstance(word, bytes) and len(word) == 9 + 4 * (lam - 9)
        assert len(he.enc(keys.hpk, 1, rng)) == lam


def test_dec_malformed(tr_keys, she_keys):
    rng = random.Random(6)
    for keys in (tr_keys, she_keys):
        ct = he.enc(keys.hpk, 1, rng)
        with pytest.raises(he.HeError):
            he.dec(keys.hsk, ct[:-4])
        with pytest.raises(he.HeError):
            he.dec(keys.hsk, b"\x07" + ct[1:])
    # a ciphertext from a different key pair is refused
    other = he.keygen(16, "transparent", rng=random.Random(7))
    ct = he.enc(other.hpk, 1, random.Random(8))
    with pytest.raises(he.HeError):
        he.dec(tr_keys.hsk, ct)


def test_eval_basic_gates(tr_keys, she_keys):
    rng = random.Random(9)
    and_c = Circuit(2, ((0, 1, TT_AND),), (2,))
    xor_c = Circuit(2, ((0, 1, TT_XOR),), (2,))
    for keys in (tr_keys, she_keys):
        for a in (0, 1):
            for b in (0, 1):
                cts = he.enc_word(keys.hpk, (a, b), rng)
                assert he.dec(keys.hsk, he.eval_word(keys.hpk, and_c, cts)) == (a & b)
                assert he.dec(keys.hsk, he.eval_word(keys.hpk, xor_c, cts)) == (a ^ b)


def test_eval_random_circuits_she(she_keys):
    rng = random.Random(10)
    budget = she_keys.hpk.config.depth_budget
    assert budget >= 8
    for _ in range(40):
        c = random_circuit(rng, 5, 25, 2, max_mult_depth=budget)
        x = random_bits(rng, 5)
        cts = he.enc_word(she_keys.hpk, x, rng)
        out = he.eval_word(she_keys.hpk, c, cts)
        assert he.dec_word(she_keys.hsk, out) == simulate(c, x)


def test_eval_deterministic(tr_keys, she_keys):
    rng = random.Random(11)
    c = random_circuit(rng, 4, 12, 2)
    for keys in (tr_keys, she_keys):
        cts = he.enc_word(keys.hpk, (1, 0, 1, 1), rng)
        assert he.eval_word(keys.hpk, c, cts) == he.eval_word(keys.hpk, c, cts)


def test_eval_compactness(tr_keys, she_keys):
    rng = random.Random(12)
    small = random_circuit(rng, 3, 2, 1)
    big = random_circuit(rng, 3, 200, 1, max_mult_depth=6)
    for keys in (tr_keys, she_keys):
        cts = he.enc_word(keys.hpk, (1, 0, 1), rng)
        assert len(he.eval_word(keys.hpk, small, cts)) == keys.hpk.lam_bytes
        assert len(he.eval_word(keys.hpk, big, cts)) == keys.hpk.lam_bytes


def test_depth_budget_enforced(she_keys):
    rng = random.Random(13)
    # a long chain of binary ANDs accumulates noise linearly past the modulus
    n_gates = she_keys.hpk.config.eta // she_keys.hpk.config.fresh_noise_bits + 8
    gates = [(0, 1, TT_AND)]
    for j in range(1, n_gates):
        gates.append((1 + j, 1, TT_AND))
    c = Circuit(2, tuple(gates), (1 + n_gates,))
    cts = he.enc_word(she_keys.hpk, (1, 1), rng)
    with pytest.raises(he.DepthBudgetError):
        he.eval_word(she_keys.hpk, c, cts)


def test_backends_agree(tr_keys, she_keys):
    rng = random.Random(14)
    budget = she_keys.hpk.config.depth_budget
    for _ in range(15):
        c = random_circuit(rng, 4, 15, 3, max_mult_depth=budget)
        x = random_bits(rng, 4)
        results = []
        for keys in (tr_keys, she_keys):
            cts = he.enc_word(keys.hpk, x, rng)
            results.append(he.dec_word(keys.hsk, he.eval_word(keys.hpk, c, cts)))
        assert results[0] == results[1] == simulate(c, x)


def test_she_evaluates_a_universal_circuit_by_its_gate_list(she_keys):
    # an integer-she prepared program runs u.circuit; the smallest UC has
    # AND depth 6, within the budget of 8
    rng = random.Random(20)
    u = UniversalCircuit(1, 1, 1)
    assert u.circuit.mult_depth <= she_keys.hpk.config.depth_budget
    for _ in range(20):
        x = random_bits(rng, u.n_inputs)
        word = he.enc_word(she_keys.hpk, x, rng)
        program = he.cut_word(she_keys.hpk, word, 0, u.program_length)
        data = he.cut_word(she_keys.hpk, word, u.program_length)
        out = he.prepare(she_keys.hpk, u, program).run(data)
        assert he.dec_word(she_keys.hsk, out) == simulate(u.circuit, x)


def test_prepare_checks_every_program_ciphertext(tr_keys, she_keys):
    # a program ciphertext is checked for length, backend tag and key id
    # as eval_word checks any ciphertext; so is a data ciphertext, per step
    rng = random.Random(21)
    u = UniversalCircuit(2, 2, 1)
    other = he.keygen(16, "transparent", rng=random.Random(22))
    for keys in (tr_keys, she_keys):
        word = he.enc_word(keys.hpk, random_bits(rng, u.n_inputs), rng)
        prog = he.cut_word(keys.hpk, word, 0, u.program_length)
        data = he.cut_word(keys.hpk, word, u.program_length)
        foreign = he.enc_word(other.hpk, random_bits(rng, u.program_length), rng)
        prepared = he.prepare(keys.hpk, u, prog)

        def faults(good):  # ragged, a bad tag, another key pair's header, short
            return (good[:-1], b"\x09" + good[1:], foreign[:9] + good[9:],
                    he.cut_word(keys.hpk, good, 1))

        for bad in faults(prog):
            with pytest.raises(he.HeError):
                he.prepare(keys.hpk, u, bad)
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


def test_she_linear_distinguisher_smoke(she_keys):
    # fixed distinguisher: parity of the ciphertext value; its advantage in
    # telling enc(0) from enc(1) should be small
    rng = random.Random(19)
    n = 2000
    hits = 0
    for _ in range(n):
        b = rng.randrange(2)
        ct = he.enc(she_keys.hpk, b, rng)
        guess = ct[-1] & 1
        hits += guess == b
    assert abs(hits / n - 0.5) < 0.1
