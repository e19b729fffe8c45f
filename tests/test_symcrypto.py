import hashlib
import operator
import random

import pytest

from tabverify import he, she
from tabverify.circuit import simulate
from tabverify.protocol import checker_value
from tabverify.symcrypto import (
    ROUNDS,
    SECircuit,
    SymError,
    _feistel,
    _Ints,
    _round_constant,
    prg,
    se_dec,
    se_enc,
    se_key_bits,
    se_keygen,
)
from tabverify.tables import bits_uint, int_to_bits

# --- the bit-level Feistel that the word Feistel replaced, with the unfolded
# key schedule: the reference --------------------------------------------------


_RC = 0x9E3779B97F4A7C15


class _PlainOps:
    constant = staticmethod(int)
    xor = staticmethod(operator.xor)
    and_ = staticmethod(operator.and_)


def _rc_bit(i, j):
    return (_RC >> ((i * 13 + j) % 64)) & 1


def _round_keys(ops, key, w, rounds):
    # round key i is the key's bits i * w to (i + 1) * w, XOR the round
    # constant
    return [[ops.xor(key[i * w + j], ops.constant(_rc_bit(i, j))) for j in range(w)]
            for i in range(rounds)]


def _round_fn(ops, R, rk, w):
    s = max(2, w // 2)
    return [
        ops.xor(
            ops.xor(ops.and_(R[(j + 1) % w], R[(j + s) % w]), R[(j + 2) % w]),
            rk[j],
        )
        for j in range(w)
    ]


def _feistel_enc(ops, key, block, rounds=ROUNDS):
    w = len(block) // 2
    L, R = list(block[:w]), list(block[w:])
    for rk in _round_keys(ops, key, w, rounds):
        f = _round_fn(ops, R, rk, w)
        L, R = R, [ops.xor(a, b) for a, b in zip(L, f)]
    return tuple(L + R)


def _feistel_dec(key, block, rounds=ROUNDS):
    w = len(block) // 2
    L, R = list(block[:w]), list(block[w:])
    for rk in reversed(_round_keys(_PlainOps, key, w, rounds)):
        f = _round_fn(_PlainOps, L, rk, w)
        L, R = [a ^ b for a, b in zip(R, f)], L
    return tuple(L + R)


def ref_se_enc(sk, M):
    return _feistel_enc(_PlainOps, tuple(sk), tuple(M))


def ref_se_dec(sk, C):
    return _feistel_dec(tuple(sk), tuple(C))


@pytest.mark.parametrize("width", range(4, 33, 2))
def test_word_feistel_matches_the_bit_reference(width):
    rng = random.Random(width)
    se = SECircuit(width)
    assert se.key_bits == 4 * width == ROUNDS * width // 2
    gates = se.gates
    assert gates.mult_depth <= ROUNDS
    for _ in range(100):
        sk = se_keygen(se.key_bits, rng)
        M = tuple(rng.getrandbits(1) for _ in range(width))
        key, m = int_to_bits(sk, se.key_bits), bits_uint(M)
        C = se_enc(sk, m, width)
        assert int_to_bits(C, width) == ref_se_enc(key, M)
        assert int_to_bits(se_dec(sk, m, width), width) == ref_se_dec(key, M)
        assert se_dec(sk, C, width) == m
        assert se.evaluate(key + M) == int_to_bits(C, width) == simulate(gates, key + M)


@pytest.mark.parametrize("key_bits", [8, 12, 16, 40])
def test_word_feistel_takes_keys_of_rounds_chunks_only(key_bits):
    # a key is ROUNDS chunks of half a block: 16 bits for 4-bit blocks and
    # 40 for 10-bit ones. A key is an int, so a shorter one is that key
    # with its top bits clear; a key that sets a bit past them, in a
    # partial chunk or beyond, is refused, not folded
    rng = random.Random(key_bits)
    for width in (4, 6, 10, 16):
        sk = tuple(rng.getrandbits(1) for _ in range(key_bits))
        M = tuple(rng.getrandbits(1) for _ in range(width))
        full, k, m = se_key_bits(width), bits_uint(sk), bits_uint(M)
        if key_bits <= full:
            se, key = SECircuit(width), int_to_bits(k, full)
            assert (int_to_bits(se_enc(k, m, width), width)
                    == ref_se_enc(key, M) == simulate(se.gates, key + M))
            assert int_to_bits(se_dec(k, m, width), width) == ref_se_dec(key, M)
            continue
        past = k | 1 << (key_bits - 1)  # its top bit set
        with pytest.raises(SymError):
            se_enc(past, m, width)
        with pytest.raises(SymError):
            se_dec(past, m, width)
    w = 4
    with pytest.raises(SymError, match=f"{ROUNDS} chunks"):
        _feistel(_Ints(w), [0] * (key_bits // w), 0, 0)


def test_se_circuit_is_named_by_its_sizes():
    # the key size is the circuit's rule, ROUNDS chunks of half a block
    se = SECircuit(8)
    assert se.name == "se-feistel-v3:8"
    assert se.key_bits == 32 and se.n_inputs == 40
    assert SECircuit(8) == se and SECircuit(10) != se


@pytest.mark.parametrize("width", [4, 8, 16])
def test_transparent_checker_value_is_the_gate_list_evaluated(width):
    # the same bits as he.eval_word on the gate list; only the nonces'
    # labels differ: name:k instead of the gate-list digest and wire
    rng = random.Random(40 + width)
    keys = he.keygen(rng=rng)

    class PP:
        hpk = keys.hpk
        se_circuit = staticmethod(SECircuit)

    se = SECircuit(width)
    for _ in range(30):
        sk = se_keygen(se.key_bits, rng)
        M = tuple(rng.getrandbits(1) for _ in range(width))
        ct_sk = he.enc_word(keys.hpk, int_to_bits(sk, se.key_bits), rng)
        p = he.enc_word(keys.hpk, M, rng)
        y = checker_value(PP, ct_sk, p)
        gate_list = he.eval_word(keys.hpk, se.gates, he.join_words(keys.hpk, (ct_sk, p)))
        assert (he.dec_word(keys.hsk, y) == he.dec_word(keys.hsk, gate_list)
                == int_to_bits(se_enc(sk, bits_uint(M), width), width))
        assert y != gate_list
        assert y == checker_value(PP, ct_sk, p)  # deterministic
    # a word one ciphertext short of the circuit's inputs is refused
    word = he.join_words(keys.hpk, (ct_sk, p))
    with pytest.raises(he.HeError):
        he.eval_named(keys.hpk, se, he.cut_word(keys.hpk, word, 1))


def consistent_key(rng, w, x, c):
    """A key drawn uniformly among the keys that encrypt the block x to c:
    its first ROUNDS - 2 chunks at random, the last two solved for. After
    round ROUNDS - 2 the halves are (L, R); the last two rounds must give
    (cl, cr), c's halves, so R' = cl and the two round keys follow."""
    ops, s = _Ints(w), max(2, w // 2)

    def f(v):  # the round function before its round key
        return ops.rot(v, 1) & ops.rot(v, s) ^ ops.rot(v, 2)

    L, R = x & ((1 << w) - 1), x >> w
    chunks = [rng.getrandbits(w) for _ in range(ROUNDS - 2)]
    for i, chunk in enumerate(chunks):
        L, R = R, L ^ f(R) ^ chunk ^ _round_constant(i, w)
    cl, cr = c & ((1 << w) - 1), c >> w
    chunks.append(L ^ f(R) ^ cl ^ _round_constant(ROUNDS - 2, w))
    chunks.append(R ^ f(cl) ^ cr ^ _round_constant(ROUNDS - 1, w))
    return sum(chunk << (i * w) for i, chunk in enumerate(chunks))


def test_one_known_pair_rarely_opens_a_chosen_false_answer():
    # a developer that knows a slice x and its encryption c under the
    # round's key, but not the key itself, takes a key among those that map
    # x to c and opens its false claim x2 as x2's encryption under that key;
    # the verifier decrypts the opening under the true key. With the key
    # unfolded, 2^(6w) keys fit the pair, and on 8-bit slices the opening
    # decrypts to x2 about as often as a guess of the block, 2^-8. A key
    # folded to w bits opened it in 291 of 300 cases
    rng = random.Random(2113)
    width, trials, opened = 8, 3000, 0
    for _ in range(trials):
        k = se_keygen(se_key_bits(width), rng)
        x, x2 = rng.sample(range(1 << width), 2)
        c = se_enc(k, x, width)
        forged = consistent_key(rng, width // 2, x, c)
        assert se_enc(forged, x, width) == c
        opened += se_dec(k, se_enc(forged, x2, width), width) == x2
    print(f"forged openings: {opened}/{trials}")
    assert opened * 32 <= trials


def test_keygen():
    rng = random.Random(1)
    sk = se_keygen(16, rng)
    assert sk >> 16 == 0
    # one one-bit draw per key bit, bit i from draw i, and the generator
    # left where those draws leave it, at every key size a round uses
    ref = random.Random(1)
    assert int_to_bits(sk, 16) == tuple(ref.getrandbits(1) for _ in range(16))
    assert rng.getstate() == ref.getstate()
    for K in (se_key_bits(8), se_key_bits(16), 33):
        assert se_keygen(K, rng) == bits_uint([ref.getrandbits(1) for _ in range(K)])
        assert rng.getstate() == ref.getstate()
    assert se_keygen(16, rng) != sk  # overwhelmingly
    with pytest.raises(SymError):
        se_keygen(4, rng)


def test_round_trip():
    rng = random.Random(2)
    for width in (8, 16):
        sk = se_keygen(se_key_bits(width), rng)
        for _ in range(300):
            m = bits_uint(tuple(rng.getrandbits(1) for _ in range(width)))
            assert se_dec(sk, se_enc(sk, m, width), width) == m


def test_deterministic():
    sk = se_keygen(se_key_bits(8), random.Random(3))
    m = bits_uint((1, 0, 1, 1, 0, 0, 1, 0))
    assert se_enc(sk, m, 8) == se_enc(sk, m, 8)


def test_permutation_exhaustive_8bit():
    sk = se_keygen(se_key_bits(8), random.Random(4))
    images = {se_enc(sk, v, 8) for v in range(256)}
    assert len(images) == 256


def test_width_checks():
    sk = se_keygen(16, random.Random(5))
    with pytest.raises(SymError):
        se_enc(sk, 0b101, 3)  # odd width
    with pytest.raises(SymError):
        se_enc(sk, 0b01, 2)  # too narrow
    with pytest.raises(SymError):
        SECircuit(7)
    with pytest.raises(SymError):
        SECircuit(2)


def test_se_refuses_a_block_or_key_past_its_width():
    # a block is width bits and its key se_key_bits(width): a bit at or
    # past either size, or a negative int, is refused
    sk = se_keygen(se_key_bits(8), random.Random(15))
    for key, block in ((sk, 1 << 8), (sk, 0xff | 1 << 20), (sk, -1),
                       (sk | 1 << 32, 0), (1 << 40, 0x12), (-1, 0x12)):
        with pytest.raises(SymError):
            se_enc(key, block, 8)
        with pytest.raises(SymError):
            se_dec(key, block, 8)
    assert se_dec(sk, se_enc(sk, 0xff, 8), 8) == 0xff


def test_circuit_matches_function():
    rng = random.Random(6)
    for width in (8, 16):
        c = SECircuit(width).gates
        for _ in range(100):
            sk = se_keygen(se_key_bits(width), rng)
            M = tuple(rng.getrandbits(1) for _ in range(width))
            assert (simulate(c, int_to_bits(sk, se_key_bits(width)) + M)
                    == int_to_bits(se_enc(sk, bits_uint(M), width), width))


def test_circuit_all_zero_consistency():
    c = SECircuit(8).gates
    assert simulate(c, (0,) * 40) == int_to_bits(se_enc(0, 0, 8), 8)


def test_circuit_depth_within_default_budget():
    budget = she.Params().depth_budget
    for width in (8, 16):
        # the key enters only through XOR: the depth is the rounds'
        assert SECircuit(width).gates.mult_depth == ROUNDS <= budget


def test_circuit_evaluates_homomorphically():
    # one round trip through the integer scheme at full depth
    rng = random.Random(7)
    pk, p = she.keygen(rng)
    c = SECircuit(8).gates
    sk = se_keygen(se_key_bits(8), rng)
    M = tuple(rng.getrandbits(1) for _ in range(8))
    cts = [she.enc(pk, b, rng) for b in int_to_bits(sk, se_key_bits(8)) + M]
    out = tuple(she.dec(p, ct) for ct in she.eval_circuit(pk, c, cts))
    assert out == int_to_bits(se_enc(sk, bits_uint(M), 8), 8)


def test_avalanche_smoke():
    rng = random.Random(8)
    flips = 0
    trials = 300
    width = 16
    for _ in range(trials):
        sk = se_keygen(se_key_bits(width), rng)
        M = list(rng.getrandbits(1) for _ in range(width))
        base = se_enc(sk, bits_uint(M), width)
        i = rng.randrange(width)
        M[i] ^= 1
        other = se_enc(sk, bits_uint(M), width)
        flips += (base ^ other).bit_count()
    assert flips / (trials * width) >= 0.30


def test_prg_prefix_consistency():
    rng = random.Random(9)
    s = se_keygen(16, rng)
    assert prg(s, 16, 8) == prg(s, 16, 64) & (1 << 8) - 1
    assert prg(s, 16, 33) == prg(s, 16, 100) & (1 << 33) - 1


def test_prg_is_shake128():
    # reference: SHAKE128 over the seed, one byte per seed bit; output bit i
    # is bit i % 8 of output byte i // 8
    rng = random.Random(10)
    for n in (1, 31, 32, 33, 100, 504, 1000):
        s = se_keygen(16, rng)
        out = hashlib.shake_128(bytes(int_to_bits(s, 16))).digest(n // 8 + 1)
        assert int_to_bits(prg(s, 16, n), n) == tuple((out[i // 8] >> (i % 8)) & 1
                                                      for i in range(n))


def test_prg_golden_digest():
    # fixed digest: certificates for fixed seeds depend on these exact bits
    s = se_keygen(16, random.Random(2024))
    assert int_to_bits(s, 16) == tuple(int(c) for c in "0011001101110101")
    bits = "".join(map(str, int_to_bits(prg(s, 16, 504), 504)))
    assert hashlib.sha256(bits.encode()).hexdigest() == (
        "caca1303a486bc3a5c08d2ebcfaaf5d49298083f32b719acc0acff9a9bebe88c"
    )


def test_prg_deterministic_and_seed_sensitive():
    s1 = se_keygen(16, random.Random(11))
    s2 = se_keygen(16, random.Random(12))
    assert prg(s1, 16, 64) == prg(s1, 16, 64)
    assert prg(s1, 16, 64) != prg(s2, 16, 64)


def test_prg_monobit():
    s = se_keygen(16, random.Random(13))
    ones = prg(s, 16, 10_000).bit_count()
    assert abs(ones / 10_000 - 0.5) < 0.05


def test_prg_errors():
    s = se_keygen(16, random.Random(14))
    with pytest.raises(SymError):
        prg(s, 16, 0)
    for past in (s | 1 << 16, -1):  # a seed with a bit past its 16 bits
        with pytest.raises(SymError):
            prg(past, 16, 8)
