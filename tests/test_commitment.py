import hashlib
import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from tabverify.commitment import (
    MAX_CODE_RETRIES,
    PROTOCOL_CODE,
    CodeSpec,
    CommitError,
    CommitMessage,
    RevealMessage,
    choose_challenge,
    commit_respond,
    gen_code,
    required_length,
    split_blocks,
    verify_reveal,
)
from tabverify.symcrypto import se_keygen
from tabverify.tables import bits_uint, int_to_bits


CODE = gen_code(m_c=4, eps=(1, 4), K=16, seed=0)


def test_code_constraints():
    per_bit = math.log2(2 / (2 - 0.25))
    assert CODE.q * per_bit >= 3 * 16
    assert CODE.q % CODE.m_c == 0
    assert CODE.d_min >= CODE.q // 4
    assert len(CODE.rows) == 4


def test_code_repetition_single_bit():
    code = gen_code(m_c=1, eps=(1, 4), K=16, seed=1)
    assert code.d_min >= code.q // 4


def test_code_unsatisfiable():
    with pytest.raises(CommitError):
        gen_code(m_c=4, eps=(1, 1), K=16, seed=0)


def ref_gen_code(m_c, eps=(1, 4), K=16, seed=0):
    """gen_code as it was before the Gray-code order: every codeword built
    from its message bits, in message order."""
    num, den = eps
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
            return CodeSpec(m_c=m_c, q=q, eps=eps, K=K, rows=rows,
                            d_min=d_min, seed=seed)
    raise CommitError("could not generate a code with the required distance")


@pytest.mark.parametrize("m_c", range(1, 11))
def test_gray_code_distance_check_matches_the_nested_loop(m_c):
    for seed in range(21):
        assert gen_code(m_c=m_c, seed=seed) == ref_gen_code(m_c, seed=seed)


def test_protocol_code_is_the_generated_16_bit_code():
    # the code every party commits with is written into the source: it must
    # be the one gen_code derives, with the distance checked over all 2^16 - 1
    # nonzero codewords. A constant of the certificate format, so its rows
    # are pinned here
    code = PROTOCOL_CODE
    assert gen_code(m_c=16, seed=0) == code
    assert (code.m_c, code.q, code.eps, code.K, code.seed) == (16, 256, (1, 4), 16, 0)
    assert code.d_min >= code.q // 4
    rows = ",".join(map(str, code.rows)).encode()
    assert hashlib.sha256(rows).hexdigest() == (
        "dddb76b64793b6fb9d380f91709196a820dee3aeba7d28f83568055960c9bba6"
    )


def test_code_deterministic_in_seed():
    assert gen_code(m_c=8, seed=5) == gen_code(m_c=8, seed=5)
    assert gen_code(m_c=8, seed=5) != gen_code(m_c=8, seed=6)


def test_challenge_weight():
    rng = random.Random(2)
    for _ in range(100):
        R = choose_challenge(CODE.q, rng)
        assert R >> 2 * CODE.q == 0
        assert R.bit_count() == CODE.q


def test_challenge_small_distribution():
    rng = random.Random(3)
    seen = {choose_challenge(1, rng) for _ in range(100)}
    assert seen == {0b10, 0b01}


def test_challenge_is_uniform_over_weight_q_vectors():
    # at q = 3 there are 20 weight-3 vectors of length 6; 200,000 draws hit
    # each about 10,000 times (one standard deviation is about 97)
    rng = random.Random(4)
    counts = Counter(choose_challenge(3, rng) for _ in range(200_000))
    assert len(counts) == math.comb(6, 3) == 20
    assert all(R >> 6 == 0 and R.bit_count() == 3 for R in counts)
    assert all(9600 <= n <= 10400 for n in counts.values()), counts


def test_honest_round_trip():
    rng = random.Random(4)
    for _ in range(20):
        D = bits_uint(tuple(rng.getrandbits(1) for _ in range(4)))
        s = se_keygen(16, rng)
        R = choose_challenge(CODE.q, rng)
        commit = commit_respond(D, R, s, CODE)
        assert commit.exposed >> CODE.q == 0 and commit.e >> CODE.q == 0
        assert verify_reveal(commit, RevealMessage(seed=s, data=D), R, CODE)


def test_reject_wrong_data():
    rng = random.Random(5)
    D = bits_uint((1, 0, 1, 0))
    s = se_keygen(16, rng)
    R = choose_challenge(CODE.q, rng)
    commit = commit_respond(D, R, s, CODE)
    wrong = bits_uint((1, 0, 1, 1))
    assert not verify_reveal(commit, RevealMessage(seed=s, data=wrong), R, CODE)


def test_reject_tampered_exposed_bit():
    rng = random.Random(6)
    D = bits_uint((0, 1, 1, 0))
    s = se_keygen(16, rng)
    R = choose_challenge(CODE.q, rng)
    commit = commit_respond(D, R, s, CODE)
    tampered = type(commit)(e=commit.e, exposed=commit.exposed ^ 1 << 3)
    assert not verify_reveal(tampered, RevealMessage(seed=s, data=D), R, CODE)


def test_commit_golden_digest():
    # fixed digest: certificates for fixed seeds depend on these exact bits
    # (recorded at certificate version 6)
    rng = random.Random(77)
    s = se_keygen(16, rng)
    R = choose_challenge(CODE.q, rng)
    commit = commit_respond(bits_uint((1, 0, 1, 1)), R, s, CODE)
    text = ("".join(map(str, int_to_bits(commit.e, CODE.q))) + ";"
            + "".join(map(str, int_to_bits(commit.exposed, CODE.q))))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f24d8ade8c0eb7cfdc2bf5dc4d107d47609053b87c65164439c5e6ad513df4c2"
    )


def _honest_opening(seed):
    rng = random.Random(seed)
    D = bits_uint(tuple(rng.getrandbits(1) for _ in range(4)))
    s = se_keygen(16, rng)
    R = choose_challenge(CODE.q, rng)
    return commit_respond(D, R, s, CODE), RevealMessage(seed=s, data=D), R


def test_reject_wrong_seed():
    commit, reveal, R = _honest_opening(10)
    wrong = RevealMessage(seed=reveal.seed ^ 1, data=reveal.data)
    past = RevealMessage(seed=reveal.seed | 1 << 16, data=reveal.data)  # 17 bits
    assert verify_reveal(commit, reveal, R, CODE)
    assert not verify_reveal(commit, wrong, R, CODE)
    assert verify_reveal(commit, past, R, CODE) is False


def test_reject_flipped_masked_bit():
    commit, reveal, R = _honest_opening(11)
    for k in (0, CODE.q - 1):
        tampered = CommitMessage(e=commit.e ^ 1 << k, exposed=commit.exposed)
        assert not verify_reveal(tampered, reveal, R, CODE)


def test_reject_exposed_of_wrong_length_or_not_bits():
    # exposed is q bits: one that also sets a bit at q or beyond, or a
    # negative int equal to it mod 2^q, does not open
    commit, reveal, R = _honest_opening(12)
    q = CODE.q
    for exposed in (commit.exposed | 1 << q, commit.exposed | 1 << 2 * q,
                    commit.exposed - (1 << q)):
        tampered = CommitMessage(e=commit.e, exposed=exposed)
        assert verify_reveal(tampered, reveal, R, CODE) is False


def test_reject_malformed_challenge():
    rng = random.Random(7)
    s = se_keygen(16, rng)
    bad = (1 << 2 * CODE.q) - 1  # wrong weight
    with pytest.raises(CommitError):
        commit_respond(bits_uint((1, 0, 0, 0)), bad, s, CODE)


def test_reject_challenge_with_entries_that_are_not_bits():
    # a challenge is 2q bits: one of weight q that reaches past them, a
    # one moved from its lowest position to position 2q or above, is
    # refused, as is a negative int
    commit, reveal, R = _honest_opening(13)
    low = R & -R
    n = 2 * CODE.q
    for bad in (R ^ low | 1 << n, R ^ low | 1 << n + 7, -R, R - (1 << n)):
        with pytest.raises(CommitError):
            commit_respond(reveal.data, bad, reveal.seed, CODE)
        assert verify_reveal(commit, reveal, bad, CODE) is False


def test_reject_data_past_the_block():
    # a block's data is m_c bits: a bit at m_c or above is refused
    commit, reveal, R = _honest_opening(14)
    for data in (reveal.data | 1 << CODE.m_c, 1 << 40, -1):
        with pytest.raises(CommitError):
            CODE.encode(data)
        with pytest.raises(CommitError):
            commit_respond(data, R, reveal.seed, CODE)
        assert verify_reveal(commit, RevealMessage(reveal.seed, data), R, CODE) is False


def test_binding_adversarial_reopen():
    # committed to D, then search seeds trying to open a different D'
    rng = random.Random(8)
    accepted = 0
    trials = 200
    for _ in range(trials):
        D = bits_uint(tuple(rng.getrandbits(1) for _ in range(4)))
        s = se_keygen(16, rng)
        R = choose_challenge(CODE.q, rng)
        commit = commit_respond(D, R, s, CODE)
        D2 = D ^ 1 << rng.randrange(4)
        for _ in range(25):
            s2 = se_keygen(16, rng)
            if verify_reveal(commit, RevealMessage(seed=s2, data=D2), R, CODE):
                accepted += 1
                break
    assert accepted == 0


def test_hiding_smoke():
    # fixed linear distinguisher (parity of e) between commitments to two
    # adversary-chosen data blocks
    rng = random.Random(9)
    n = 1000
    hits = 0
    for _ in range(n):
        b = rng.getrandbits(1)
        D = 0b1111 if b else 0b0000
        s = se_keygen(16, rng)
        R = choose_challenge(CODE.q, rng)
        commit = commit_respond(D, R, s, CODE)
        guess = commit.e.bit_count() & 1
        hits += guess == b
    assert abs(hits / n - 0.5) < 0.1


def test_split_join_blocks():
    bits = (1, 0, 1, 1, 0, 0, 1)
    blocks = split_blocks(bits_uint(bits), len(bits), 4)
    assert [int_to_bits(b, 4) for b in blocks] == [(1, 0, 1, 1), (0, 0, 1, 0)]


@given(st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=16),
       st.data())
def test_split_blocks_reassemble_to_the_value(n, m_c, data):
    value = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    blocks = split_blocks(value, n, m_c)
    assert len(blocks) == math.ceil(n / m_c)
    assert all(0 <= b < 1 << m_c for b in blocks)
    assert sum(b << k * m_c for k, b in enumerate(blocks)) == value
