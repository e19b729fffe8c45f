import hashlib
import math
import random

import pytest

from tabverify.commitment import (
    CommitError,
    CommitMessage,
    RevealMessage,
    choose_challenge,
    commit_respond,
    gen_code,
    split_blocks,
    verify_reveal,
)
from tabverify.symcrypto import se_keygen


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


def test_code_deterministic_in_seed():
    assert gen_code(seed=5) == gen_code(seed=5)
    assert gen_code(seed=5) != gen_code(seed=6)


def test_challenge_weight():
    rng = random.Random(2)
    for _ in range(100):
        R = choose_challenge(CODE.q, rng)
        assert len(R) == 2 * CODE.q
        assert sum(R) == CODE.q


def test_challenge_small_distribution():
    rng = random.Random(3)
    seen = {choose_challenge(1, rng) for _ in range(100)}
    assert seen == {(0, 1), (1, 0)}


def test_honest_round_trip():
    rng = random.Random(4)
    for _ in range(20):
        D = tuple(rng.getrandbits(1) for _ in range(4))
        s = se_keygen(16, rng)
        R = choose_challenge(CODE.q, rng)
        commit = commit_respond(D, R, s, CODE)
        assert len(commit.exposed) == CODE.q
        assert verify_reveal(commit, RevealMessage(seed=s, data=D), R, CODE)


def test_reject_wrong_data():
    rng = random.Random(5)
    D = (1, 0, 1, 0)
    s = se_keygen(16, rng)
    R = choose_challenge(CODE.q, rng)
    commit = commit_respond(D, R, s, CODE)
    assert not verify_reveal(commit, RevealMessage(seed=s, data=(1, 0, 1, 1)), R, CODE)


def test_reject_tampered_exposed_bit():
    rng = random.Random(6)
    D = (0, 1, 1, 0)
    s = se_keygen(16, rng)
    R = choose_challenge(CODE.q, rng)
    commit = commit_respond(D, R, s, CODE)
    exposed = list(commit.exposed)
    exposed[3] ^= 1
    tampered = type(commit)(e=commit.e, exposed=tuple(exposed))
    assert not verify_reveal(tampered, RevealMessage(seed=s, data=D), R, CODE)


def test_commit_golden_digest():
    # fixed digest: certificates for fixed seeds depend on these exact bits
    rng = random.Random(77)
    s = se_keygen(16, rng)
    R = choose_challenge(CODE.q, rng)
    commit = commit_respond((1, 0, 1, 1), R, s, CODE)
    text = "".join(map(str, commit.e)) + ";" + "".join(map(str, commit.exposed))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d955504fed83c8262148405e435dc838e8b98f755c5f129423d66d8a088d55f3"
    )


def _honest_opening(seed):
    rng = random.Random(seed)
    D = tuple(rng.getrandbits(1) for _ in range(4))
    s = se_keygen(16, rng)
    R = choose_challenge(CODE.q, rng)
    return commit_respond(D, R, s, CODE), RevealMessage(seed=s, data=D), R


def test_reject_wrong_seed():
    commit, reveal, R = _honest_opening(10)
    seed = list(reveal.seed)
    seed[0] ^= 1
    wrong = RevealMessage(seed=tuple(seed), data=reveal.data)
    assert verify_reveal(commit, reveal, R, CODE)
    assert not verify_reveal(commit, wrong, R, CODE)


def test_reject_flipped_masked_bit():
    commit, reveal, R = _honest_opening(11)
    for k in (0, CODE.q - 1):
        e = list(commit.e)
        e[k] ^= 1
        tampered = CommitMessage(e=tuple(e), exposed=commit.exposed)
        assert not verify_reveal(tampered, reveal, R, CODE)


def test_reject_exposed_of_wrong_length_or_not_bits():
    commit, reveal, R = _honest_opening(12)
    for exposed in (commit.exposed[:-1], commit.exposed + (0,),
                    commit.exposed[:-1] + (2,)):
        tampered = CommitMessage(e=commit.e, exposed=exposed)
        assert verify_reveal(tampered, reveal, R, CODE) is False


def test_reject_malformed_challenge():
    rng = random.Random(7)
    s = se_keygen(16, rng)
    bad = (1,) * (2 * CODE.q)  # wrong weight
    with pytest.raises(CommitError):
        commit_respond((1, 0, 0, 0), bad, s, CODE)


def test_reject_challenge_with_entries_that_are_not_bits():
    commit, reveal, R = _honest_opening(13)
    first, second = [k for k, r in enumerate(R) if r][:2]
    two = list(R)
    two[first], two[second] = 2, 0  # length 2q and sum q, but not bits
    for bad in (tuple(two), R[:-1] + (-1,), R[:-1] + (1.0,), R[:-1] + ("1",)):
        with pytest.raises(CommitError):
            commit_respond(reveal.data, bad, reveal.seed, CODE)
        assert verify_reveal(commit, reveal, bad, CODE) is False


def test_binding_adversarial_reopen():
    # committed to D, then search seeds trying to open a different D'
    rng = random.Random(8)
    accepted = 0
    trials = 200
    for _ in range(trials):
        D = tuple(rng.getrandbits(1) for _ in range(4))
        s = se_keygen(16, rng)
        R = choose_challenge(CODE.q, rng)
        commit = commit_respond(D, R, s, CODE)
        D2 = list(D)
        D2[rng.randrange(4)] ^= 1
        D2 = tuple(D2)
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
        D = (1, 1, 1, 1) if b else (0, 0, 0, 0)
        s = se_keygen(16, rng)
        R = choose_challenge(CODE.q, rng)
        commit = commit_respond(D, R, s, CODE)
        guess = sum(commit.e) & 1
        hits += guess == b
    assert abs(hits / n - 0.5) < 0.1


def test_split_join_blocks():
    bits = (1, 0, 1, 1, 0, 0, 1)
    blocks = split_blocks(bits, 4)
    assert blocks == [(1, 0, 1, 1), (0, 0, 1, 0)]
