import hashlib
import random

import pytest

from tabverify import he
from tabverify.circuit import simulate
from tabverify.symcrypto import (
    SymError,
    prg,
    se_dec,
    se_enc,
    se_enc_circuit,
    se_keygen,
)


def test_keygen():
    rng = random.Random(1)
    sk = se_keygen(16, rng)
    assert len(sk) == 16 and set(sk) <= {0, 1}
    assert se_keygen(16, rng) != sk  # overwhelmingly
    with pytest.raises(SymError):
        se_keygen(4, rng)


def test_round_trip():
    rng = random.Random(2)
    for width in (8, 16):
        sk = se_keygen(16, rng)
        for _ in range(300):
            M = tuple(rng.getrandbits(1) for _ in range(width))
            assert se_dec(sk, se_enc(sk, M)) == M


def test_deterministic():
    sk = se_keygen(16, random.Random(3))
    M = (1, 0, 1, 1, 0, 0, 1, 0)
    assert se_enc(sk, M) == se_enc(sk, M)


def test_permutation_exhaustive_8bit():
    sk = se_keygen(16, random.Random(4))
    images = {se_enc(sk, tuple((v >> i) & 1 for i in range(8))) for v in range(256)}
    assert len(images) == 256


def test_width_checks():
    sk = se_keygen(16, random.Random(5))
    with pytest.raises(SymError):
        se_enc(sk, (1, 0, 1))  # odd width
    with pytest.raises(SymError):
        se_enc(sk, (1, 0))  # too narrow
    with pytest.raises(SymError):
        se_enc_circuit(16, 7)


def test_circuit_matches_function():
    rng = random.Random(6)
    for width in (8, 16):
        c = se_enc_circuit(16, width)
        for _ in range(100):
            sk = se_keygen(16, rng)
            M = tuple(rng.getrandbits(1) for _ in range(width))
            assert simulate(c, sk + M) == se_enc(sk, M)


def test_circuit_all_zero_consistency():
    c = se_enc_circuit(16, 8)
    assert simulate(c, (0,) * 24) == se_enc((0,) * 16, (0,) * 8)


def test_circuit_depth_within_default_budget():
    budget = he.BackendConfig(kind="integer-she").depth_budget
    for width in (8, 16):
        assert se_enc_circuit(16, width).mult_depth <= budget


def test_circuit_evaluates_homomorphically():
    # one round trip through the integer backend at full depth
    rng = random.Random(7)
    keys = he.keygen(16, "integer-she", rng=rng)
    c = se_enc_circuit(16, 8)
    sk = se_keygen(16, rng)
    M = tuple(rng.getrandbits(1) for _ in range(8))
    cts = he.enc_word(keys.hpk, sk + M, rng)
    out = he.eval_word(keys.hpk, c, cts)
    assert he.dec_word(keys.hsk, out) == se_enc(sk, M)


def test_avalanche_smoke():
    rng = random.Random(8)
    flips = 0
    trials = 300
    width = 16
    for _ in range(trials):
        sk = se_keygen(16, rng)
        M = list(rng.getrandbits(1) for _ in range(width))
        base = se_enc(sk, tuple(M))
        i = rng.randrange(width)
        M[i] ^= 1
        other = se_enc(sk, tuple(M))
        flips += sum(a != b for a, b in zip(base, other))
    assert flips / (trials * width) >= 0.30


def test_prg_prefix_consistency():
    rng = random.Random(9)
    s = se_keygen(16, rng)
    assert prg(s, 8) == prg(s, 64)[:8]
    assert prg(s, 33) == prg(s, 100)[:33]


def test_prg_is_shake128():
    # reference: SHAKE128 over the seed, one byte per seed bit; output bit i
    # is bit i % 8 of output byte i // 8
    rng = random.Random(10)
    for n in (1, 31, 32, 33, 100, 504, 1000):
        s = se_keygen(16, rng)
        out = hashlib.shake_128(bytes(s)).digest(n // 8 + 1)
        assert prg(s, n) == tuple((out[i // 8] >> (i % 8)) & 1 for i in range(n))


def test_prg_golden_digest():
    # fixed digest: certificates for fixed seeds depend on these exact bits
    s = se_keygen(16, random.Random(2024))
    assert s == tuple(int(c) for c in "0011001101110101")
    bits = "".join(map(str, prg(s, 504)))
    assert hashlib.sha256(bits.encode()).hexdigest() == (
        "caca1303a486bc3a5c08d2ebcfaaf5d49298083f32b719acc0acff9a9bebe88c"
    )


def test_prg_deterministic_and_seed_sensitive():
    s1 = se_keygen(16, random.Random(11))
    s2 = se_keygen(16, random.Random(12))
    assert prg(s1, 64) == prg(s1, 64)
    assert prg(s1, 64) != prg(s2, 64)


def test_prg_monobit():
    s = se_keygen(16, random.Random(13))
    bits = prg(s, 10_000)
    ones = sum(bits)
    assert abs(ones / 10_000 - 0.5) < 0.05


def test_prg_errors():
    s = se_keygen(16, random.Random(14))
    with pytest.raises(SymError):
        prg(s, 0)
