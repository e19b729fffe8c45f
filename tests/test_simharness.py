import random
from collections import Counter

import pytest

from tabverify import he
from tabverify.audit import audit
from tabverify.channel import canonical_json, make_frame
from tabverify.commitment import challenge, commit_bits
from tabverify.demo import (
    CHAIN_DOMAINS,
    DEMO_DOMAINS,
    DEMO_GRAPH_TEXT,
    chain_graph,
)
from tabverify.graphtext import parse_graph
from tabverify.protocol import (
    ROUND_SEED_BITS,
    Developer,
    ProtocolError,
    Verifier,
    b64_cts,
    bits_hex,
    checker_key,
    checker_slice,
    checker_value,
    cts_b64,
    hex_bits,
    round_seed,
    verify_session,
)
from tabverify.simharness import (
    OracleDeveloper,
    fake_graph_like,
    metadata_views,
    paired_session,
    run_experiment,
    shared_budget,
)
from tabverify.symcrypto import se_enc, se_key_bits, se_keygen
from tabverify.tables import bits_uint, evaluate_plain, int_to_bits, transform

DEMO = parse_graph(DEMO_GRAPH_TEXT)


def test_oracle_twin_byte_identical_general_session():
    cert1, cert2 = paired_session(DEMO, DEMO_DOMAINS, 9, 3, 103)
    assert canonical_json(cert1) == canonical_json(cert2)


def test_oracle_twin_byte_identical_honest_session_chain():
    cert1, cert2 = paired_session(chain_graph(), CHAIN_DOMAINS, 4, 8, 108,
                                  mode="honest")
    assert canonical_json(cert1) == canonical_json(cert2)


def test_oracle_never_holds_decryption_key():
    orc = OracleDeveloper(DEMO, rng=random.Random(1))
    assert orc.hsk is None


def test_oracle_matches_service_on_malformed_ciphertexts():
    dev = Developer(DEMO, rng=random.Random(2))
    orc = OracleDeveloper(DEMO, rng=random.Random(2))
    key_seed = random.Random(3).getrandbits(128)
    orc.learn_key_seed(key_seed)
    m = dev.pp.m
    # the oracle counts the rounds whose y it opens: the two refused below
    # for their y do not count, so the one that commits is its round 0
    _, ct_sk = checker_key(round_seed(key_seed, 0), m, dev.hpk)
    # a word of m ciphertexts of the right length, with no valid tag or key id
    junk = bytes(9 + m * (he.LAM_BYTES - 9))

    def ask(ftype, body):
        f = make_frame(ftype, body)
        r1, r2 = dev.handle(f), orc.handle(f)
        assert canonical_json(r1) == canonical_json(r2)
        return r1["body"]

    q1 = {"qkind": 1, "input": "a", "x": bits_hex(0, m // 2)}
    R = {"R": bits_hex(challenge(m, random.Random(5)), 2 * commit_bits(m))}
    seed = {"seed": bits_hex(round_seed(key_seed, 0), 128)}
    assert ask("encode", dict(q1, input=[1])) == {"answer": None}
    ask("encode", q1)
    # refused on both, {}, so that its proof is refused too
    assert ask("checker", dict(R, y=cts_b64(junk))) == {}
    assert ask("checker_proof", seed) == {}
    # that round took the answer: the next one needs an answer of its own
    assert ask("checker", dict(R, y=cts_b64(junk))) == {}
    assert ask("checker_proof", seed) == {}

    w = ask("encode", q1)["answer"]
    y = checker_value(dev.pp, ct_sk, b64_cts(w, dev.hpk))
    # a stray field names nothing
    assert set(ask("checker", dict(R, i=[1], y=cts_b64(y)))) == {"e", "exposed"}
    # a proof whose seed is a word, here with the round's key word in
    # format v17's field beside it, is refused on both
    proof = ask("checker_proof", {"seed": cts_b64(junk), "ct_sk": cts_b64(ct_sk)})
    assert proof == {}
    # so is a challenge of another spelling, once y has opened as round 1
    w = ask("encode", q1)["answer"]
    _, ct_sk = checker_key(round_seed(key_seed, 1), m, dev.hpk)
    y = checker_value(dev.pp, ct_sk, b64_cts(w, dev.hpk))
    assert ask("checker", {"y": cts_b64(y), "R": 5}) == {}


def test_fake_graph_same_structure_different_semantics():
    fake = fake_graph_like(DEMO, seed=5)
    d_real = Developer(DEMO, rng=random.Random(0))
    d_fake = Developer(fake, rng=random.Random(0))
    assert d_real.pp.structure == d_fake.pp.structure
    # same shape, different behavior somewhere on the domain
    tg_r, tg_f = transform(DEMO), transform(fake)
    external = [tname for tname, _ in tg_r.external_outputs]
    diff = False
    for a in range(0, 101, 7):
        X = {"a": a, "b": True}
        real, fake = evaluate_plain(tg_r, X), evaluate_plain(tg_f, X)
        if [real[t] for t in external] != [fake[t] for t in external]:
            diff = True
            break
    assert diff


def test_fake_graph_deterministic():
    a = fake_graph_like(DEMO, seed=5)
    b = fake_graph_like(DEMO, seed=5)
    da = Developer(a, rng=random.Random(0))
    db = Developer(b, rng=random.Random(0))
    assert canonical_json(da.pp.to_dict()) == canonical_json(db.pp.to_dict())


def test_shared_budget_covers_both():
    fake = fake_graph_like(DEMO, seed=2)
    budget = shared_budget(DEMO, fake)
    d1 = Developer(DEMO, rng=random.Random(0), u_budget=budget)
    d2 = Developer(fake, rng=random.Random(0), u_budget=budget)
    assert d1.pp.u_params == d2.pp.u_params


def test_real_ideal_metadata_indistinguishable():
    res = run_experiment(DEMO, DEMO_DOMAINS, [], seed=11, mode="general",
                         vga_budget=6)
    assert res["real"]["verdict"] == "accept"
    assert res["ideal"]["verdict"] == "accept"
    mv = metadata_views(res)
    assert canonical_json(mv["real"]) == canonical_json(mv["ideal"])


def test_real_ideal_ciphertexts_do_differ():
    # sanity: the runs are not trivially the same transcript
    res = run_experiment(DEMO, DEMO_DOMAINS, [], seed=13, mode="honest",
                         vga_budget=4)
    p_r = res["real"]["cert"]["public_params"]["programs"]
    p_i = res["ideal"]["cert"]["public_params"]["programs"]
    assert p_r != p_i


# --- developers that forge checker openings ------------------------------------
#
# Each answers for the demo design while its programs encrypt a fake design
# of the same structure, so every q2 whose fake output differs from the
# demo's is a lie that only a forged opening of its checker round could
# hide. Developer.ANSWERS binds its handlers by function, so each rebinds
# the handler it changes.


class Forger(OracleDeveloper):
    """The oracle of the demo design over a fake one's programs, holding the
    decryption key of its own key pair. Its checker rounds open honestly
    where its claim is the slice x its programs computed, and list the
    others, its lies, which _forge opens. Its sessions share that list."""

    def __init__(self, s):
        super().__init__(fake_graph_like(DEMO, s), answer_graph=DEMO,
                         rng=random.Random(s))
        keys = he.keygen(rng=random.Random(s))  # its first draws
        assert keys.hpk == self.hpk
        self.hsk, self.lies = keys.hsk, []

    def _checker(self, body):
        # the slice of the word it answered last, which every honest
        # verifier's round pins
        ref = self.mem.last
        whole = self.pp.structure.covers_whole(ref)
        self.p = checker_slice(self.mem.words[ref][0], whole, self.pp.m // 2, self.hpk)
        return Developer._checker(self, body)

    def _open_checker(self, y, claimed, width):
        x = bits_uint(he.dec_word(self.hsk, self.p))
        c = bits_uint(he.dec_word(self.hsk, y))
        if claimed == x:
            return c
        self.lies.append(claimed)
        return self._forge(x, c, claimed, width)

    ANSWERS = dict(Developer.ANSWERS, checker=_checker)


class KeySearcher(Forger):
    """Searches the keys whose first w-bit chunk takes every value and whose
    other bits are zero: under a key folded to w bits these are all the
    keys there are. Of the keys that map x to c, the encryption of x, it
    opens its claim under the one most of them agree on."""

    def _forge(self, x, c, claimed, width):
        candidates = range(1 << width // 2)  # the first chunk's values
        opens = Counter(se_enc(k, claimed, width) for k in candidates
                        if se_enc(k, x, width) == c)
        return opens.most_common(1)[0][0] if opens else c


def sent_seed(body):
    """The round seed a proof sends, None when it spells none."""
    try:
        return hex_bits(body.get("seed"), ROUND_SEED_BITS)
    except ProtocolError:
        return None


class KeyStealer(Forger):
    """Draws every round's key from the seed its proof sends, and opens each
    later lie as its encryption under the last key it stole of the lie's
    key size; a single session key would open every lie after the first
    round."""

    def __init__(self, s):
        super().__init__(s)
        self.stolen = {}

    def _proof(self, body):
        width, seed = self.mem.pending.get("width"), sent_seed(body)
        if width is not None and seed is not None:
            self.stolen[se_key_bits(width)] = checker_key(seed, width)[0]
        return Developer._proof(self, body)

    def _forge(self, x, c, claimed, width):
        sk = self.stolen.get(se_key_bits(width))
        return se_enc(sk, claimed, width) if sk is not None else c

    ANSWERS = dict(Forger.ANSWERS, checker_proof=_proof)


# --- MT19937, as a developer that sees its raw outputs models it ---------------


def temper(x):
    """The output of MT19937's state word x."""
    x ^= x >> 11
    x ^= x << 7 & 0x9D2C5680
    x ^= x << 15 & 0xEFC60000
    return x ^ x >> 18


def untemper(y):
    """The state word whose output is y: temper's inverse."""
    y ^= y >> 18
    y ^= y << 15 & 0xEFC60000
    x = y
    for _ in range(5):
        x = y ^ (x << 7 & 0x9D2C5680)
    y = x
    for _ in range(3):
        x = y ^ x >> 11
    return x


def twist(a, b, c):
    """State word n from the words n - 624, n - 623 and n - 227."""
    y = a & 0x80000000 | b & 0x7FFFFFFF
    return c ^ y >> 1 ^ (0x9908B0DF if y & 1 else 0)


class KeyStream:
    """One generator's outputs as a developer that holds every round's key
    word models them, were every round to draw from that one generator, as
    format v17's verifier did: each round on a slice of width bits draws k
    = se_key_bits(width) one-bit outputs for its key (getrandbits(1) is an
    output's top bit), then 4k outputs for its key word's nonces, 4 per
    128-bit nonce, the low output first. A key word shows its nonces, so
    those 4k outputs untemper to their state words; twist extends the state
    words it holds to later ones."""

    def __init__(self):
        self.words = {}  # output index -> its state word, where known
        self.at = 0  # output index of the next round's first key draw

    def next_round(self, width):
        """(first output index, predicted key) of the next round on a slice
        of width bits; the key is None unless every bit of it is predicted."""
        start, k = self.at, se_key_bits(width)
        self.at += 5 * k
        words = self.words
        for n in range(start, start + k):
            if n not in words and all(j in words for j in (n - 624, n - 623, n - 227)):
                words[n] = twist(words[n - 624], words[n - 623], words[n - 227])
        if any(n not in words for n in range(start, start + k)):
            return start, None
        return start, sum(temper(words[start + i]) >> 31 << i for i in range(k))

    def observe(self, start, hpk, ct_sk):
        """Take in the nonces of the key word ct_sk of the round whose first
        output index is start."""
        k = he.check_word(hpk, ct_sk)
        for j in range(k):
            nonce = int.from_bytes(he.cut_word(hpk, ct_sk, j, j + 1)[he.HEADER + 1:], "big")
            for t in range(4):
                self.words[start + k + 4 * j + t] = untemper(nonce >> 32 * t & 0xFFFFFFFF)


def test_a_shared_key_stream_is_predicted_and_round_seeds_are_not():
    # format v17 drew every round's key and key word from one generator;
    # the key words of the earlier rounds give away every key from the
    # tenth round on, and the seventh's. Round seeds give each round a
    # generator of its own, and the same model predicts none of their keys
    hpk = he.keygen(rng=random.Random(1)).hpk
    key_seed = random.Random(2).getrandbits(128)
    widths = [(16, 16, 16, 16, 16, 8, 8)[r % 7] for r in range(70)]
    shared = random.Random(key_seed)
    for draw in ("shared", "round seed"):
        model, predicted = KeyStream(), []
        for r, width in enumerate(widths):
            start, guess = model.next_round(width)
            if draw == "shared":
                k = se_key_bits(width)
                sk = se_keygen(k, shared)
                ct_sk = he.enc_word(hpk, int_to_bits(sk, k), shared)
            else:
                sk, ct_sk = checker_key(round_seed(key_seed, r), width, hpk)
            predicted.append(guess == sk)
            model.observe(start, hpk, ct_sk)
        if draw == "shared":
            assert predicted == [False] * 6 + [True] + [False] * 2 + [True] * 61
        else:
            assert not any(predicted)


class KeyPredictor(Forger):
    """Models the verifier's key draws as one generator (KeyStream), from
    the key word it builds from each proof's seed, and opens each lie as
    its encryption under the key it predicts for the round, before it
    commits; where it predicts no key, it opens the round honestly."""

    def __init__(self, s):
        super().__init__(s)
        self.stream, self.round = KeyStream(), None

    def _open_checker(self, y, claimed, width):
        self.round = self.stream.next_round(width)
        return Forger._open_checker(self, y, claimed, width)

    def _forge(self, x, c, claimed, width):
        sk = self.round[1]
        return c if sk is None else se_enc(sk, claimed, width)

    def _proof(self, body):
        width, seed = self.mem.pending.get("width"), sent_seed(body)
        if width is not None and seed is not None:
            ct_sk = checker_key(seed, width, self.hpk)[1]
            self.stream.observe(self.round[0], self.hpk, ct_sk)
        return Developer._proof(self, body)

    ANSWERS = dict(Forger.ANSWERS, checker_proof=_proof)


def general_session(dev, s):
    v = Verifier(dev.pp.to_dict(), DEMO, DEMO_DOMAINS, [], seed=s, mode="general",
                 rng=random.Random(100 + s))
    return verify_session(dev, v)


# (forger, s) -> how many of its lies a forged opening hid by the 2^-w chance
CHANCE_OPENINGS = {}


@pytest.mark.parametrize("s", [1, 2, 3])
def test_forged_checker_openings_reject_and_audit_to_zero(s):
    # the honest developer of the fake design shows its 10 mismatches; the
    # forgers answer for the demo design, so they show none, and only
    # their checker rounds can catch them: each round has its own key of
    # ROUNDS chunks, from its own seed, which neither a key search, nor a
    # stolen key, nor a prediction from earlier rounds' key words opens. A
    # forged opening under another key still decrypts to the claim by
    # chance, 2^-w for a w-bit slice, so of a session's about 39 lies, most
    # on 8-bit tag halves, about 0.15 open. The sessions are deterministic,
    # and the count that opened is pinned in CHANCE_OPENINGS
    verdict, cert = general_session(Developer(fake_graph_like(DEMO, s),
                                              rng=random.Random(s)), s)
    assert verdict == "reject" and len(cert["mismatches"]) == 10
    for forger in (KeySearcher, KeyStealer, KeyPredictor):
        dev = forger(s)
        verdict, cert = general_session(dev, s)
        failures = [f["reason"] for f in cert["failures"]]
        print(f"{forger.__name__} s={s}: {len(failures)} checker failures, "
              f"{len(dev.lies)} lies")
        assert verdict == "reject" and not cert["mismatches"]
        assert set(failures) == {"checker"}
        chance = CHANCE_OPENINGS.get((forger.__name__, s), 0)
        assert len(failures) == len(dev.lies) - chance
        assert audit(cert)[0] == 0
