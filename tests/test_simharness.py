import random

import pytest

from tabverify import he
from tabverify.channel import canonical_json, make_frame
from tabverify.commitment import choose_challenge
from tabverify.demo import (
    CHAIN_DOMAINS,
    DEMO_DOMAINS,
    DEMO_GRAPH_TEXT,
    chain_graph,
)
from tabverify.graphtext import parse_graph
from tabverify.protocol import (
    Developer,
    b64_cts,
    bits_hex,
    checker_value,
    cts_b64,
)
from tabverify.simharness import (
    OracleDeveloper,
    fake_graph_like,
    metadata_views,
    paired_session,
    run_experiment,
    shared_budget,
)
from tabverify.symcrypto import se_keygen
from tabverify.tables import evaluate_plain, transform

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
    sk = se_keygen(16, random.Random(3))
    ct_sk = he.enc_word(dev.hpk, sk, random.Random(4))
    orc.learn_sk(sk)
    m = dev.pp.m
    t = next(t for t in dev.pp.to_dict()["structure"]["tables"]
             if all(p["producers"][0][0] == "input" for p in t["ports"]))
    # a word of n ciphertexts of the right length, with no valid tag or key id
    junk = {n: bytes(9 + n * (dev.hpk.lam_bytes - 9)) for n in (m, 16)}

    def ask(ftype, body):
        f = make_frame(ftype, body)
        r1, r2 = dev.handle(f), orc.handle(f)
        assert canonical_json(r1) == canonical_json(r2)
        return r1["body"]

    u = (1,) + (0,) * (m - 1)
    q1 = {"qkind": 1, "i": t["index"], "port": 0, "u": bits_hex(u)}
    assert ask("encode", dict(q1, i=[1])) == {"answer": {"kind": "null"}}
    w = ask("encode", q1)["answer"]["w"]
    checker = {"i": t["index"], "case": "input", "port": 0, "p": w}
    assert ask("checker", dict(checker, y=cts_b64(junk[m]))) == {"result": "null"}

    y = checker_value(dev.pp, ct_sk, b64_cts(w, dev.hpk))
    assert ask("checker", dict(checker, i=[1], y=cts_b64(y))) == {"result": "null"}
    r = ask("checker", dict(checker, y=cts_b64(y)))
    assert ask("commit_challenge", {"Rs": 5}) == {"result": "null"}
    rs = [choose_challenge(dev.code.q, random.Random(5)) for _ in range(r["blocks"])]
    assert "blocks" in ask("commit_challenge", {"Rs": [bits_hex(R) for R in rs]})
    proof = ask("checker_proof", {"ct_sk": cts_b64(junk[len(sk)])})
    assert proof == {"result": "null"}


def test_fake_graph_same_structure_different_semantics():
    fake = fake_graph_like(DEMO, seed=5)
    d_real = Developer(DEMO, rng=random.Random(0))
    d_fake = Developer(fake, rng=random.Random(0))
    assert d_real.pp.structure == d_fake.pp.structure
    # same shape, different behavior somewhere on the domain
    tg_r, tg_f = transform(DEMO), transform(fake)
    diff = False
    for a in range(0, 101, 7):
        X = {"a": a, "b": True}
        if evaluate_plain(tg_r, X)[0] != evaluate_plain(tg_f, X)[0]:
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
