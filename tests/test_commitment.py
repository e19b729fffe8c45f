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
    challenge,
    choose_challenge,
    commit_bits,
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
        e, exposed = commit_respond(D, 4, R, s, CODE)
        assert exposed >> CODE.q == 0 and e >> CODE.q == 0
        assert verify_reveal(e, exposed, D, 4, R, s, CODE)


def test_reject_wrong_data():
    rng = random.Random(5)
    D = bits_uint((1, 0, 1, 0))
    s = se_keygen(16, rng)
    R = choose_challenge(CODE.q, rng)
    e, exposed = commit_respond(D, 4, R, s, CODE)
    wrong = bits_uint((1, 0, 1, 1))
    assert not verify_reveal(e, exposed, wrong, 4, R, s, CODE)


def test_reject_tampered_exposed_bit():
    rng = random.Random(6)
    D = bits_uint((0, 1, 1, 0))
    s = se_keygen(16, rng)
    R = choose_challenge(CODE.q, rng)
    e, exposed = commit_respond(D, 4, R, s, CODE)
    assert not verify_reveal(e, exposed ^ 1 << 3, D, 4, R, s, CODE)


def test_commit_golden_digest():
    # fixed digest: certificates for fixed seeds depend on these exact bits
    # (recorded at certificate version 6)
    rng = random.Random(77)
    s = se_keygen(16, rng)
    R = choose_challenge(CODE.q, rng)
    e, exposed = commit_respond(bits_uint((1, 0, 1, 1)), 4, R, s, CODE)
    text = ("".join(map(str, int_to_bits(e, CODE.q))) + ";"
            + "".join(map(str, int_to_bits(exposed, CODE.q))))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f24d8ade8c0eb7cfdc2bf5dc4d107d47609053b87c65164439c5e6ad513df4c2"
    )


def test_a_single_block_commit_is_pinned():
    # a checker round of a 16-bit design is one block of the protocol's
    # code: the sha256 of e and exposed, 64 hex digits each, of one such
    # commit, recorded with version 19's one-block commit and kept by
    # version 20's one commitment
    rng = random.Random(78)
    s = se_keygen(16, rng)
    R = challenge(16, rng)
    assert commit_bits(16) == commit_bits(8) == PROTOCOL_CODE.q == 256
    e, exposed = commit_respond(0xB5A3, 16, R, s)
    assert hashlib.sha256(f"{e:064x};{exposed:064x}".encode()).hexdigest() == (
        "eee1a451b451271eaf5f46bc973edabea60405af5c1682ad377f39be23ff8375")


def _honest_opening(seed):
    """(e, exposed, D, s, R) of an honest commit to 4 bits under CODE."""
    rng = random.Random(seed)
    D = bits_uint(tuple(rng.getrandbits(1) for _ in range(4)))
    s = se_keygen(16, rng)
    R = choose_challenge(CODE.q, rng)
    return (*commit_respond(D, 4, R, s, CODE), D, s, R)


def test_reject_wrong_seed():
    e, exposed, D, s, R = _honest_opening(10)
    assert verify_reveal(e, exposed, D, 4, R, s, CODE)
    assert not verify_reveal(e, exposed, D, 4, R, s ^ 1, CODE)
    assert verify_reveal(e, exposed, D, 4, R, s | 1 << 16, CODE) is False  # 17 bits


def test_reject_flipped_masked_bit():
    e, exposed, D, s, R = _honest_opening(11)
    for k in (0, CODE.q - 1):
        assert not verify_reveal(e ^ 1 << k, exposed, D, 4, R, s, CODE)


def test_reject_exposed_of_wrong_length_or_not_bits():
    # exposed is q bits: one that also sets a bit at q or beyond, or a
    # negative int equal to it mod 2^q, does not open
    e, exposed, D, s, R = _honest_opening(12)
    q = CODE.q
    for bad in (exposed | 1 << q, exposed | 1 << 2 * q, exposed - (1 << q)):
        assert verify_reveal(e, bad, D, 4, R, s, CODE) is False


def test_reject_malformed_challenge():
    rng = random.Random(7)
    s = se_keygen(16, rng)
    bad = (1 << 2 * CODE.q) - 1  # wrong weight
    with pytest.raises(CommitError):
        commit_respond(bits_uint((1, 0, 0, 0)), 4, bad, s, CODE)


def test_reject_challenge_with_entries_that_are_not_bits():
    # a challenge is 2q bits: one of weight q that reaches past them, a
    # one moved from its lowest position to position 2q or above, is
    # refused, as is a negative int
    e, exposed, D, s, R = _honest_opening(13)
    low = R & -R
    n = 2 * CODE.q
    for bad in (R ^ low | 1 << n, R ^ low | 1 << n + 7, -R, R - (1 << n)):
        with pytest.raises(CommitError):
            commit_respond(D, 4, bad, s, CODE)
        assert verify_reveal(e, exposed, D, 4, bad, s, CODE) is False


def test_reject_data_past_the_block():
    # a block's data is m_c bits, and a commitment's n: a bit at m_c, or
    # at n, or above is refused
    e, exposed, D, s, R = _honest_opening(14)
    for data in (D | 1 << CODE.m_c, 1 << 40, -1):
        with pytest.raises(CommitError):
            CODE.encode(data)
        with pytest.raises(CommitError):
            commit_respond(data, 4, R, s, CODE)
        assert verify_reveal(e, exposed, data, 4, R, s, CODE) is False


def two_block_opening(seed):
    """(e, exposed, D, s, R) of an honest commit to 7 bits under CODE: two
    blocks, the second padded by one bit."""
    rng = random.Random(seed)
    D = rng.getrandbits(7)
    s = se_keygen(16, rng)
    R = challenge(7, rng, CODE)
    return (*commit_respond(D, 7, R, s, CODE), D, s, R)


def test_a_commitment_to_two_blocks_is_one_seed_and_one_challenge():
    # 7 bits are two 4-bit blocks: e and exposed are 2q bits each, and R
    # one weight-q part of 2q bits per block, drawn as two challenges
    e, exposed, D, s, R = two_block_opening(15)
    q = CODE.q
    assert commit_bits(7, CODE) == 2 * q
    assert e >> 2 * q == 0 and exposed >> 2 * q == 0
    stream = random.Random(15)
    stream.getrandbits(7), se_keygen(16, stream)
    first = choose_challenge(q, stream)
    assert R == first | choose_challenge(q, stream) << 2 * q
    assert verify_reveal(e, exposed, D, 7, R, s, CODE)
    # the first block alone, under the first part, is the commitment's low half
    low = commit_respond(D & 0xF, 4, first, s, CODE)
    assert low == (e & ((1 << q) - 1), exposed & ((1 << q) - 1))


def test_a_wrong_weight_in_the_second_part_of_a_challenge_is_refused():
    e, exposed, D, s, R = two_block_opening(16)
    q = CODE.q
    second = R >> 2 * q
    for bad in (second ^ (second & -second), second | (1 << 2 * q) - 1, 0):
        moved = R & ((1 << 2 * q) - 1) | bad << 2 * q
        with pytest.raises(CommitError):
            commit_respond(D, 7, moved, s, CODE)
        assert verify_reveal(e, exposed, D, 7, moved, s, CODE) is False


def test_a_changed_second_block_does_not_open():
    e, exposed, D, s, R = two_block_opening(17)
    for bit in range(4, 7):
        assert not verify_reveal(e, exposed, D ^ 1 << bit, 7, R, s, CODE)
    # the padding bit past the 7 bits is no data at all
    assert verify_reveal(e, exposed, D | 1 << 7, 7, R, s, CODE) is False


def test_binding_adversarial_reopen():
    # committed to D, then search seeds trying to open a different D'
    rng = random.Random(8)
    accepted = 0
    trials = 200
    for _ in range(trials):
        D = bits_uint(tuple(rng.getrandbits(1) for _ in range(4)))
        s = se_keygen(16, rng)
        R = choose_challenge(CODE.q, rng)
        e, exposed = commit_respond(D, 4, R, s, CODE)
        D2 = D ^ 1 << rng.randrange(4)
        for _ in range(25):
            s2 = se_keygen(16, rng)
            if verify_reveal(e, exposed, D2, 4, R, s2, CODE):
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
        e, _ = commit_respond(D, 4, R, s, CODE)
        guess = e.bit_count() & 1
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
