"""Acceptance gate: the nine end-to-end criteria, one test (and one
pass/fail line in the -v output) each. Each test prints a short summary
with the measured numbers."""

import json
import random
import time

import pytest

from helpers import mutate_certificate, scalar_leaves, simulate_batch, tagged_to_bits
from tabverify import audit as audit_mod
from tabverify import he, she
from tabverify.channel import LoopbackChannel, canonical_json, make_frame
from tabverify.circuit import encode_program, simulate
from tabverify.commitment import (
    PROTOCOL_CODE,
    challenge,
    commit_bits,
    commit_respond,
    verify_reveal,
)
from tabverify.demo import (
    CHAIN_DOMAINS,
    DEMO_DOMAINS,
    DIAMOND_DOMAINS,
    DOCUMENTED_CLAIM_Y,
    DEMO_INPUT,
    chain_graph,
    demo_graph,
    diamond_graph,
)
from tabverify.protocol import (
    ROUND_SEED_BITS,
    Developer,
    Structure,
    Verifier,
    b64_cts,
    bits_hex,
    checker_key,
    checker_slice,
    checker_value,
    cts_b64,
    hex_bits,
    round_seed,
    spec_port_outputs,
    table_step,
    verify_session,
)
from tabverify.simharness import OracleDeveloper
from tabverify.symcrypto import se_keygen
from tabverify.tables import (
    Tagged,
    bits_uint,
    evaluate_plain,
    int_to_bits,
    transform,
)
from tabverify.vga import coverage_report, input_key

from helpers import random_circuit

DEMO = demo_graph()


def session(graph, domains, inputs, mode="honest", dev=None, seed=0,
            vga_budget=0, strategy=None):
    """One verification session driving exactly the given external inputs."""
    if dev is None:
        dev = Developer(graph, rng=random.Random(seed), strategy=strategy)
    cp = [(X, spec_port_outputs(transform(graph), X)) for X in inputs]
    v = Verifier(dev.pp.to_dict(), graph, domains, cp, seed=seed, mode=mode,
                 vga_budget=vga_budget, rng=random.Random(seed + 1))
    verdict, cert = verify_session(dev, v)
    return dev, verdict, cert


def sample_inputs(domains, n, seed, unique=True):
    rng = random.Random(seed)
    out, seen = [], set()
    while len(out) < n:
        X = {k: rng.choice(v) for k, v in sorted(domains.items())}
        if not unique:
            out.append(X)
        elif input_key(X) not in seen:
            seen.add(input_key(X))
            out.append(X)
    return out


def test_c1_she_decryption_matches_simulation():
    """1000 random circuits on the integer backend decrypt exactly."""
    t0 = time.time()
    rng = random.Random(101)
    pk, p = she.keygen(rng)
    failures = 0
    for _ in range(1000):
        n = rng.randint(2, 6)
        c = random_circuit(rng, n, rng.randint(1, 25), rng.randint(1, 4),
                           max_mult_depth=7)
        bits = tuple(rng.getrandbits(1) for _ in range(n))
        cts = [she.enc(pk, b, rng) for b in bits]
        got = tuple(she.dec(p, ct) for ct in she.eval_circuit(pk, c, cts))
        if got != simulate(c, bits):
            failures += 1
    elapsed = time.time() - t0
    print(f"criterion 1: 1000 circuits, {failures} failures, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 120


def test_c2_universal_circuit_equals_programmed_circuit():
    """Programmed universal circuit reproduces 500 random circuits, plus
    exhaustive sweeps for circuits with at most 10 input bits."""
    dev = Developer(DEMO, rng=random.Random(0))
    u = dev.u
    rng = random.Random(202)
    for _ in range(500):
        n = rng.randint(1, u.n_data)
        c = random_circuit(rng, n, rng.randint(1, u.g), u.m, max_mult_depth=99)
        program = encode_program(c, u)
        x = tuple(rng.getrandbits(1) for _ in range(n))
        data = tuple(x[i % n] for i in range(u.n_data))
        assert simulate(u.circuit, program + data) == simulate(c, x)
    exhaustive = 0
    for _ in range(20):
        n = rng.randint(1, 10)
        c = random_circuit(rng, n, rng.randint(1, u.g), u.m, max_mult_depth=99)
        program = encode_program(c, u)
        width = 1 << n
        cols = [sum(((t >> i) & 1) << t for t in range(width)) for i in range(n)]
        mask = (1 << width) - 1
        pcols = [(-b) & mask for b in program]
        dcols = [cols[i % n] for i in range(u.n_data)]
        assert simulate_batch(u.circuit, pcols + dcols, width) == simulate_batch(
            c, cols, width
        )
        exhaustive += width
    print(f"criterion 2: 500 random + {exhaustive} exhaustive assignments equal")


def test_c3_every_ciphertext_decrypts_to_plaintext_trace():
    """100 single-input sessions: every recorded q1 word, and the table step
    of every recorded q2, decrypts to the trace, and each q2 answer is the
    trace's slice: an external table's word, any other's tag half."""
    dev = Developer(DEMO, rng=random.Random(3))
    m = DEMO.m
    checked = 0
    for k, X in enumerate(sample_inputs(DEMO_DOMAINS, 100, 303)):
        _, verdict, cert = session(DEMO, DEMO_DOMAINS, [X], dev=dev, seed=k)
        assert verdict == "accept"
        outputs = evaluate_plain(dev.tg, X)
        for rec in cert["qa_e"]:
            q, a = rec["q"], rec["a"]
            if q["qkind"] == 1:
                u = tagged_to_bits(Tagged(True, X[q["input"]]), m)
                assert int_to_bits(1 | hex_bits(q["x"], m // 2) << m // 2, m) == u
                assert he.dec_word(dev.hsk, b64_cts(a, dev.hpk)) == u
            else:
                name = dev.tg.order[q["i"] - 1]  # indices are level-order positions
                want = tagged_to_bits(outputs[name], m)
                v = table_step(dev.pp, q["i"], b64_cts(q["u"], dev.hpk))
                assert he.dec_word(dev.hsk, v) == want
                whole = dev.pp.structure.covers_whole(q["i"])
                assert a == bits_hex(checker_slice(bits_uint(want), whole, m // 2),
                                     m if whole else m // 2)
            checked += 1
    print(f"criterion 3: {checked} recorded words match the plaintext trace")


def test_c4_encrypted_outputs_equal_plain_outputs_three_graphs():
    """500 inputs across three graph shapes give identical outputs."""
    total = 0
    for graph, domains, n, seed in (
        (DEMO, DEMO_DOMAINS, 200, 41),
        (chain_graph(), CHAIN_DOMAINS, 150, 42),
        (diamond_graph(), DIAMOND_DOMAINS, 150, 43),
    ):
        # drawn with replacement: the small single-variable domains hold
        # fewer than 150 distinct points; the session runs each distinct
        # input once and every draw is checked against it
        draws = sample_inputs(domains, n, seed, unique=False)
        uniq, seen = [], set()
        for X in draws:
            if input_key(X) not in seen:
                seen.add(input_key(X))
                uniq.append(X)
        _, verdict, cert = session(graph, domains, uniq, seed=seed)
        assert verdict == "accept"
        tg = transform(graph)
        for X in draws:
            got = cert["outputs"][input_key(X)]
            want = spec_port_outputs(tg, X)
            assert set(got) == set(want)
            for port in want:
                assert got[port] == want[port]
            total += 1
    print(f"criterion 4: {total} inputs identical across 3 graphs")
    assert total >= 500


def test_c5_honest_audit_one_mutations_zero():
    """Honest certificates audit to 1; 1000 mutations all audit to 0."""
    _, verdict, cert = session(chain_graph(), CHAIN_DOMAINS,
                               sample_inputs(CHAIN_DOMAINS, 2, 5), seed=5)
    assert verdict == "accept"
    ok, _ = audit_mod.audit(cert)
    assert ok == 1
    t0 = time.time()
    rng = random.Random(505)
    leaves = scalar_leaves(cert)
    undetected = 0
    for _ in range(1000):
        mutated = mutate_certificate(cert, rng, leaves)
        if audit_mod.audit(mutated)[0] != 0:
            undetected += 1
    elapsed = time.time() - t0
    print(f"criterion 5: honest audit 1; {1000 - undetected}/1000 mutations "
          f"detected in {elapsed:.1f}s")
    assert undetected == 0
    assert elapsed < 60


@pytest.mark.parametrize("strategy", ["flip-payload", "flip-tag", "swap-answers"])
def test_c6_malicious_strategies_rejected(strategy):
    """Each scripted dishonest strategy is rejected in >= 99/100 sessions."""
    graph = chain_graph()
    dev = Developer(graph, rng=random.Random(6), strategy=strategy)
    inputs = sample_inputs(CHAIN_DOMAINS, 100, 606)
    rejected = 0
    for k, X in enumerate(inputs):
        _, verdict, _ = session(graph, CHAIN_DOMAINS, [X], mode="general",
                                dev=dev, seed=k)
        rejected += verdict == "reject"
    print(f"criterion 6 [{strategy}]: rejected {rejected}/100")
    assert rejected >= 99


def test_c7_commitment_binding_and_honest_opening():
    """Re-opening to different data never verifies; honest opens always do."""
    rng = random.Random(707)
    accepted_bad = 0
    honest_ok = 0
    m_c = PROTOCOL_CODE.m_c
    for _ in range(1000):
        D = tuple(rng.getrandbits(1) for _ in range(m_c))
        s = se_keygen(16, rng)
        R = challenge(m_c, rng)
        commit = commit_respond(bits_uint(D), m_c, R, s)
        honest_ok += verify_reveal(*commit, bits_uint(D), m_c, R, s)
        D2 = list(D)
        D2[rng.randrange(m_c)] ^= 1
        D2 = bits_uint(D2)
        for _ in range(10):
            s2 = se_keygen(16, rng)
            if verify_reveal(*commit, D2, m_c, R, s2):
                accepted_bad += 1
                break
    print(f"criterion 7: {accepted_bad}/1000 adversarial reopens accepted, "
          f"{honest_ok}/1000 honest opens accepted")
    assert honest_ok == 1000
    assert accepted_bad * 1024 <= 1000


def test_c8_oracles_byte_identical_to_services():
    """1000 random valid query sequences answered identically by the
    plaintext-bookkeeping oracles and the real developer services."""
    graph = chain_graph()
    dev = Developer(graph, rng=random.Random(77))
    orc = OracleDeveloper(graph, rng=random.Random(77))
    assert canonical_json(dev.pp.to_dict()) == canonical_json(orc.pp.to_dict())
    # every checker round has its own key, drawn from its own round seed;
    # each oracle session counts the rounds it opens from 0, as here
    key_seed = random.Random(5).getrandbits(128)
    orc.learn_key_seed(key_seed)
    m = graph.m
    # (i, the external input each port reads) of each table that reads only inputs
    src = [(i, [f[0] for f in feeds])
           for i, (_, feeds) in enumerate(dev.pp.structure.tables, 1)
           if all(isinstance(f[0], str) for f in feeds)]
    queries = 0
    sequences = 0
    reveals = 0  # checker rounds that end in a reveal

    def ask(ftype, body, pair):
        nonlocal queries
        f = make_frame(ftype, body)
        r1, r2 = (session.handle(f) for session in pair)
        assert canonical_json(r1) == canonical_json(r2)
        queries += 1
        return r1["body"]

    def q1(rng, pair, name):
        payload = tuple(rng.getrandbits(1) for _ in range(m // 2))
        return ask("encode", {"qkind": 1, "input": name,
                              "x": bits_hex(bits_uint(payload), m // 2)}, pair)

    for s in range(1000):
        rng = random.Random(8000 + s)
        pair = (dev.session(), orc.session())
        rounds = 0  # the checker rounds this pair has opened
        for _ in range(rng.randint(1, 3)):
            op = rng.random()
            i, names = rng.choice(src)
            if op < 0.35:
                q1(rng, pair, names[rng.randrange(len(names))])
            elif op < 0.8:
                for name in names:
                    q1(rng, pair, name)
                ask("encode", {"qkind": 2, "i": i}, pair)
            elif op < 0.95:
                a = q1(rng, pair, names[rng.randrange(len(names))])
                p = b64_cts(a["answer"], dev.hpk)
                seed = round_seed(key_seed, rounds)
                _, ct_sk = checker_key(seed, m, dev.hpk)
                y = checker_value(dev.pp, ct_sk, p)
                R = bits_hex(challenge(m, rng), 2 * commit_bits(m))
                if ask("checker", {"y": cts_b64(y), "R": R}, pair):  # a refused round answers {}
                    rounds += 1
                    proof = ask("checker_proof",
                                {"seed": bits_hex(seed, ROUND_SEED_BITS)}, pair)
                    reveals += "d" in proof
            else:
                ask("encode", {"qkind": 1, "input": 999, "x": "01"}, pair)
        sequences += 1
    print(f"criterion 8: {sequences} sequences / {queries} queries byte-identical, "
          f"{reveals} checker reveals")
    assert sequences >= 1000 and reveals


def test_c9_demo_pipeline_general_mode(tmp_path):
    """Full general-mode demo run: accept, exact coverage, re-audit to 1,
    and the documented five-slot claim recorded next to the ground truth."""
    t0 = time.time()
    dev = Developer(DEMO, rng=random.Random(9))
    cp = [(DEMO_INPUT, spec_port_outputs(transform(DEMO), DEMO_INPUT))]
    v = Verifier(dev.pp.to_dict(), DEMO, DEMO_DOMAINS, cp, seed=9,
                 mode="general", vga_budget=16, rng=random.Random(10))
    verdict, cert = verify_session(dev, v)
    assert verdict == "accept"

    cert["annotations"] = {
        "documented_claim": {
            "input": DEMO_INPUT,
            "claimed": list(DOCUMENTED_CLAIM_Y),
            "ground_truth": spec_port_outputs(transform(DEMO), DEMO_INPUT),
        }
    }
    path = tmp_path / "demo-cert.json"
    audit_mod.save_certificate(cert, path)
    loaded = audit_mod.load_certificate(path)
    claim = loaded["annotations"]["documented_claim"]
    assert claim["claimed"] == ["True", "bot", "bot", "2", "bot"]
    assert claim["ground_truth"] == {"w": False, "c": 2}

    ok, report = audit_mod.audit(loaded)
    assert ok == 1

    # coverage must mark exactly the rows whose predicates held
    rep = coverage_report(loaded["qa_e"],
                          Structure.from_dict(loaded["public_params"]["structure"]))
    want_cov, want_anti, want_reached = set(), set(), set()
    for key in loaded["outputs"]:
        X = json.loads(key)
        outputs = evaluate_plain(dev.tg, X)
        for name in dev.tg.order:
            out = outputs[name]
            i = dev.index_of[name]
            if out is None:
                continue
            want_reached.add(i)
            (want_cov if out.tag else want_anti).add(i)
    assert set(rep.covered) == want_cov
    assert set(rep.anti_covered) == want_anti
    assert set(rep.unreached) == set(dev.index_of.values()) - want_reached
    elapsed = time.time() - t0
    print(f"criterion 9: accept, audit 1, coverage exact, {elapsed:.1f}s")
    assert elapsed < 300
