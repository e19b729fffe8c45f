"""The toy integer scheme (she) on its own: round trips, gates, the noise
budget, and the circuits within it."""

import random

import pytest

from helpers import random_bits, random_circuit
from tabverify import he, she
from tabverify.circuit import TT_AND, TT_XOR, Circuit, UniversalCircuit, simulate


@pytest.fixture(scope="module")
def she_keys():
    return she.keygen(random.Random(2))


def enc_all(pk, bits, rng):
    return [she.enc(pk, b, rng) for b in bits]


def test_keygen_refuses_a_parameter_set_without_a_level():
    with pytest.raises(ValueError):
        she.keygen(random.Random(1), she.Params(eta=16, rho=16))


def test_round_trip(she_keys):
    pk, p = she_keys
    rng = random.Random(3)
    for _ in range(300):
        b = rng.randrange(2)
        assert she.dec(p, she.enc(pk, b, rng)) == b


def test_enc_probabilistic(she_keys):
    pk, p = she_keys
    rng = random.Random(4)
    a, b = she.enc(pk, 1, rng), she.enc(pk, 1, rng)
    assert a != b
    assert she.dec(p, a) == she.dec(p, b) == 1


@pytest.mark.parametrize("bit", [2, -1, "1", None, [1], 0.5, (0,)])
def test_enc_refuses_what_is_not_a_bit(she_keys, bit):
    with pytest.raises(ValueError):
        she.enc(she_keys[0], bit, random.Random(10))


def test_eval_basic_gates(she_keys):
    pk, p = she_keys
    rng = random.Random(9)
    and_c = Circuit(2, ((0, 1, TT_AND),), (2,))
    xor_c = Circuit(2, ((0, 1, TT_XOR),), (2,))
    for a in (0, 1):
        for b in (0, 1):
            cts = enc_all(pk, (a, b), rng)
            assert [she.dec(p, ct) for ct in she.eval_circuit(pk, and_c, cts)] == [a & b]
            assert [she.dec(p, ct) for ct in she.eval_circuit(pk, xor_c, cts)] == [a ^ b]


def test_eval_random_circuits_she(she_keys):
    pk, p = she_keys
    rng = random.Random(10)
    budget = pk.params.depth_budget
    assert budget >= 8
    for _ in range(40):
        c = random_circuit(rng, 5, 25, 2, max_mult_depth=budget)
        x = random_bits(rng, 5)
        out = she.eval_circuit(pk, c, enc_all(pk, x, rng))
        assert tuple(she.dec(p, ct) for ct in out) == simulate(c, x)


def test_eval_deterministic_and_compact(she_keys):
    # the same inputs give the same outputs, and every value stays below x0
    pk, _ = she_keys
    rng = random.Random(12)
    c = random_circuit(rng, 3, 200, 2, max_mult_depth=6)
    cts = enc_all(pk, (1, 0, 1), rng)
    out = she.eval_circuit(pk, c, cts)
    assert out == she.eval_circuit(pk, c, cts)
    assert all(0 <= value < pk.x0 for value, _ in out)


def test_eval_refuses_the_wrong_number_of_inputs(she_keys):
    pk, _ = she_keys
    c = Circuit(2, ((0, 1, TT_AND),), (2,))
    with pytest.raises(ValueError):
        she.eval_circuit(pk, c, enc_all(pk, (1,), random.Random(13)))


def test_depth_budget_enforced(she_keys):
    pk, _ = she_keys
    rng = random.Random(13)
    # a long chain of binary ANDs accumulates noise linearly past the modulus
    n_gates = pk.params.eta // pk.params.fresh_noise_bits + 8
    gates = [(0, 1, TT_AND)]
    for j in range(1, n_gates):
        gates.append((1 + j, 1, TT_AND))
    c = Circuit(2, tuple(gates), (1 + n_gates,))
    with pytest.raises(she.DepthBudgetError):
        she.eval_circuit(pk, c, enc_all(pk, (1, 1), rng))


def test_backends_agree(she_keys):
    # the sessions' transparent backend and the integer scheme give the
    # same bits as the plaintext simulation
    pk, p = she_keys
    tr = he.keygen(rng=random.Random(1))
    rng = random.Random(14)
    for _ in range(15):
        c = random_circuit(rng, 4, 15, 3, max_mult_depth=pk.params.depth_budget)
        x = random_bits(rng, 4)
        word = he.eval_word(tr.hpk, c, he.enc_word(tr.hpk, x, rng))
        cts = she.eval_circuit(pk, c, enc_all(pk, x, rng))
        assert (he.dec_word(tr.hsk, word) == tuple(she.dec(p, ct) for ct in cts)
                == simulate(c, x))


def test_she_evaluates_a_universal_circuit_by_its_gate_list(she_keys):
    # the smallest UC has AND depth 6, within the budget of 8
    pk, p = she_keys
    rng = random.Random(20)
    u = UniversalCircuit(1, 1, 1)
    assert u.circuit.mult_depth <= pk.params.depth_budget
    for _ in range(20):
        x = random_bits(rng, u.n_inputs)
        out = she.eval_circuit(pk, u.circuit, enc_all(pk, x, rng))
        assert tuple(she.dec(p, ct) for ct in out) == simulate(u.circuit, x)


def test_she_linear_distinguisher_smoke(she_keys):
    # fixed distinguisher: parity of the ciphertext value; its advantage in
    # telling enc(0) from enc(1) should be small
    pk, _ = she_keys
    rng = random.Random(19)
    n = 2000
    hits = 0
    for _ in range(n):
        b = rng.randrange(2)
        value, _ = she.enc(pk, b, rng)
        hits += (value & 1) == b
    assert abs(hits / n - 0.5) < 0.1
