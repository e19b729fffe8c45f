import hashlib
import json
import random
from collections import Counter

import pytest

from helpers import simulate_batch, tagged_to_bits
from tabverify.audit import audit, json_leaves, replay
from tabverify import he, protocol
from tabverify.commitment import (
    COMMIT_SEED_BITS,
    PROTOCOL_CODE,
    CommitError,
    challenge,
    commit_bits,
    commit_respond,
)
from tabverify.channel import LoopbackChannel, canonical_json, make_frame
from tabverify.demo import (
    CHAIN_DOMAINS,
    DEMO_DOMAINS,
    DEMO_GRAPH_TEXT,
    DEMO_INPUT,
    DIAMOND_DOMAINS,
    chain_graph,
    diamond_graph,
)
from tabverify.expr import wrap_signed
from tabverify.graphtext import parse_graph
from tabverify.protocol import (
    Developer,
    ProtocolError,
    PublicParams,
    Structure,
    Verifier,
    bits_hex,
    cts_b64,
    b64_cts,
    checker_key,
    checker_value,
    hex_bits,
    round_seed,
    spec_port_outputs,
    table_step,
    verify_session,
)
from tabverify.symcrypto import se_dec
from tabverify.tables import Tagged, bits_uint, int_to_bits, tagged_word, transform
from tabverify.vga import input_key

DEMO = parse_graph(DEMO_GRAPH_TEXT)
DEMO_CP = [(DEMO_INPUT, {"w": False, "c": 2})]


def demo_at(width):
    """The demo design at another word width."""
    return parse_graph(DEMO_GRAPH_TEXT.replace("width: 16;", f"width: {width};"))


def make_dev(graph=DEMO, seed=0, **kw):
    return Developer(graph, rng=random.Random(seed), **kw)


def run_pair(graph, domains, cp, dev_seed=0, v_seed=1, mode="honest", strategy=None):
    dev = make_dev(graph, seed=dev_seed, strategy=strategy)
    v = Verifier(
        dev.pp.to_dict(),
        graph,
        domains,
        cp,
        seed=7,
        mode=mode,
        rng=random.Random(v_seed),
    )
    verdict, cert = verify_session(dev, v)
    return dev, verdict, cert


def test_public_params_round_trip():
    dev = make_dev()
    d = dev.pp.to_dict()
    json.loads(canonical_json(d))  # fully JSON-serializable
    pp2 = PublicParams.from_dict(d)
    assert pp2.to_dict() == d
    assert pp2.programs == dev.pp.programs


@pytest.mark.parametrize("edit", ["program-key-0_1", "program-key-+1",
                                  "program-key- 1", "programs-short", "programs-long",
                                  "key-id-upper", "key-id-spaced"])
def test_public_params_refuse_a_spelling_to_dict_would_not_write(edit):
    # the certificate records the verifier's to_dict of the parameters, so
    # one that int() or bytes.fromhex() reads back from another spelling
    # would certify a file other than the published one; each is refused.
    # The programs are a list, one per table: a map keyed by index, as
    # format v14 wrote it under any spelling of the key, is refused, and so
    # is a list one program short or one long
    d = json.loads(canonical_json(make_dev().pp.to_dict()))
    key_id = d["hpk"]["key_id"]
    if edit.startswith("program-key-"):
        d["programs"] = {str(i): p for i, p in enumerate(d["programs"], 1)}
        d["programs"][edit[len("program-key-"):]] = d["programs"].pop("1")
    elif edit == "programs-short":
        d["programs"].pop()
    elif edit == "programs-long":
        d["programs"].append(d["programs"][0])
    elif edit == "key-id-upper":
        d["hpk"]["key_id"] = key_id.upper()
    else:
        d["hpk"]["key_id"] = " ".join(key_id[k:k + 2] for k in range(0, 16, 2))
    assert canonical_json(d) != canonical_json(make_dev().pp.to_dict())
    with pytest.raises(ProtocolError):
        PublicParams.from_dict(d)


def test_published_programs_are_handed_back_not_encoded_again(monkeypatch):
    # from_dict has checked each published string to be the canonical
    # spelling of its program word, so to_dict returns those strings
    d = make_dev().pp.to_dict()
    pp = PublicParams.from_dict(d)
    monkeypatch.setattr(protocol, "cts_b64", None)  # any call would fail
    out = pp.to_dict()
    assert out == d
    assert all(a is b for a, b in zip(out["programs"], d["programs"], strict=True))
    out["programs"][0] = "changed"  # a copy: neither pp nor d changes
    assert pp.to_dict() == d and d["programs"][0] != "changed"


def test_structure_hides_design_details():
    dev = make_dev()
    blob = canonical_json(dev.pp.to_dict()["structure"])
    # no table names, predicates, or function text leak; only the public
    # boundary names appear
    for secret in ("DL", "CT", "OP", ">", "45", "pred"):
        assert secret not in blob
    assert '"a"' in blob and '"w"' in blob


def test_structure_shape():
    dev = make_dev()
    s = dev.pp.to_dict()["structure"]
    tg = transform(DEMO)
    assert len(s["tables"]) == len(tg.order)
    assert all(set(t) == {"external", "ports"} for t in s["tables"])
    assert sorted(n for n, _ in tg.external_inputs) == sorted(
        n for n, _ in s["external_inputs"]
    )
    assert {g["name"] for g in s["outputs"]} == {"w", "c"}


@pytest.mark.parametrize("design", ["demo", "chain", "diamond", "width12", "narrow"])
def test_structure_reads_back_what_it_writes(design):
    from helpers import NARROW_TEXT, WIDTH12_TEXT

    graph = {"demo": DEMO, "chain": chain_graph(), "diamond": diamond_graph(),
             "width12": parse_graph(WIDTH12_TEXT),
             "narrow": parse_graph(NARROW_TEXT)}[design]
    dev = make_dev(graph)
    assert Structure.from_dict(dev.pp.to_dict()["structure"]) == dev.pp.structure


SWEEP_VALUES = [None, 0, -1, 1, 1.0, 99, "zz", True, [], {}, [1], ["input", "a"],
                ["table", 1]]


def structure_edits(s):
    """Every one-place edit of the published structure s: each leaf set to
    each of SWEEP_VALUES, each key deleted, and a ref of each kind, a name
    and an index, appended to each port."""

    def nodes(node, path=()):
        yield path, node
        if isinstance(node, (dict, list)):
            for k, sub in (node.items() if isinstance(node, dict) else enumerate(node)):
                yield from nodes(sub, path + (k,))

    def edited(path, change):
        copy = json.loads(json.dumps(s))
        node = copy
        for k in path[:-1]:
            node = node[k]
        change(node, path[-1])
        return copy

    for path, node in list(nodes(s)):
        if not isinstance(node, (dict, list)):
            for value in SWEEP_VALUES:
                yield edited(path, lambda parent, k: parent.__setitem__(k, value))
        elif isinstance(node, dict):
            for key in node:
                yield edited(path + (key,), lambda parent, k: parent.__delitem__(k))
        elif path[-2:-1] == ("ports",):
            for ref in ("a", 1):
                yield edited(path, lambda parent, k: parent[k].append(ref))


@pytest.mark.parametrize("graph", [DEMO, diamond_graph()], ids=["demo", "diamond"])
def test_structure_sweep_refuses_or_reads_back_each_edit(graph):
    # an edited structure is refused as a ProtocolError, or read back
    # exactly: no other exception, and nothing dropped or reinterpreted
    pp = make_dev(graph).pp.to_dict()
    was = dict(json_leaves(pp["structure"]))
    edits = read_back = 0
    for s in structure_edits(pp["structure"]):
        edits += 1
        try:
            got = PublicParams.from_dict(dict(pp, structure=s)).to_dict()["structure"]
        except ProtocolError:
            continue
        read_back += 1
        assert canonical_json(got) == canonical_json(s)
        now = dict(json_leaves(s))
        for path in set(was) | set(now):
            if canonical_json(was.get(path)) != canonical_json(now.get(path)):
                # only an output's name, or the earlier table a ref names,
                # can change and leave a structure the developer could
                # have published
                assert path[-1] == "name" or (
                    path[-3:-2] == ("ports",) and type(now.get(path)) is int), path
    assert edits > 450 and read_back


# one-place edits of the demo's structure that its JSON types spell but
# the verifier could not walk: a ref is a name (a str) or an earlier
# table's index (an int, and not a bool or a float), and a port is a
# non-empty list of one name or of distinct indices. Table 1 reads a, and
# table 7's first port reads tables 1-4
REF_EDITS = {
    "ref-true": (6, [True, 2, 3, 4]),
    "ref-float": (6, [1.0, 2, 3, 4]),
    "port-name-and-index": (6, ["a", 2, 3, 4]),
    "port-empty": (0, []),
    "port-str": (0, "a"),
    "ref-table-0": (6, [0, 2, 3, 4]),
    "ref-later-table": (6, [8, 2, 3, 4]),
}


@pytest.mark.parametrize("edit", list(REF_EDITS))
def test_structure_refuses_a_ref_it_cannot_walk(edit):
    d = make_dev().pp.to_dict()["structure"]
    assert d["tables"][0]["ports"] == [["a"]]
    assert d["tables"][6]["ports"][0] == [1, 2, 3, 4]
    position, port = REF_EDITS[edit]
    s = json.loads(json.dumps(d))
    s["tables"][position]["ports"][0] = port
    with pytest.raises(ProtocolError):
        Structure.from_dict(s)
    assert Structure.from_dict(d).to_dict() == d


@pytest.mark.parametrize("h", [2, 4, 8])
def test_a_payload_reads_as_two_s_complement_by_wrap_signed(h):
    # payload_to_value reads an int payload by expr.wrap_signed, the one
    # definition of two's complement: every h-bit payload agrees with the
    # arithmetic it once repeated, and tagged_word writes it back
    for value in range(1 << h):
        got = protocol.payload_to_value(value, h, "int")
        assert got == wrap_signed(value, h) == value - (value >> (h - 1) << h)
        assert tagged_word(Tagged(True, got), 2 * h) == 1 | value << h
        assert protocol.payload_to_value(value, h, "bool") is bool(value & 1)


def test_honest_session_accepts_demo():
    _, verdict, cert = run_pair(DEMO, DEMO_DOMAINS, DEMO_CP)
    assert verdict == "accept"
    assert cert["failures"] == []
    assert cert["mismatches"] == []
    assert all(r["ok"] for r in cert["cp_results"])


def test_session_outputs_match_plaintext_spec():
    _, verdict, cert = run_pair(DEMO, DEMO_DOMAINS, DEMO_CP)
    tg = transform(DEMO)
    assert verdict == "accept"
    for key, got in cert["outputs"].items():
        X = json.loads(key)
        want = spec_port_outputs(tg, X)
        assert set(got) == {"w", "c"}
        for port in got:
            assert got[port] == want[port]


def test_honest_session_chain_and_diamond():
    for graph, domains in ((chain_graph(), CHAIN_DOMAINS), (diamond_graph(), DIAMOND_DOMAINS)):
        _, verdict, cert = run_pair(graph, domains, [])
        assert verdict == "accept", cert["mismatches"]


def test_general_mode_accepts_and_records_checkers():
    _, verdict, cert = run_pair(DEMO, DEMO_DOMAINS, DEMO_CP, mode="general")
    assert verdict == "accept"
    answered = [r for r in cert["qa_e"] if r["a"] is not None]
    assert len(cert["qa_c"]) == len(answered)
    # the certificate discloses two seeds, and neither a key nor a challenge
    assert "sk" not in cert and "ct_sk" not in cert
    assert 0 <= hex_bits(cert["key_seed"], 128) < 1 << 128
    assert 0 <= hex_bits(cert["challenge_seed"], 128) < 1 << 128
    assert all(set(r) == {"d", "e", "exposed", "seed"} for r in cert["qa_c"])


@pytest.mark.parametrize("width", [20, 32])
def test_a_general_session_wider_than_a_block_accepts_and_audits(width):
    # a whole word of 20 or 32 bits is two blocks of the protocol's 16-bit
    # code, and a tag half of 10 or 16 bits one: each round commits to its
    # whole slice under one seed, e and exposed commit_bits of the slice's
    # width each, and the session accepts and audits to 1
    _, verdict, cert = run_pair(demo_at(width), DEMO_DOMAINS, DEMO_CP, mode="general")
    assert verdict == "accept", cert["failures"]
    assert audit(cert)[0] == 1
    widths = set()
    for rec in cert["qa_c"]:
        n = 4 * len(rec["d"])
        widths.add(n)
        assert len(rec["e"]) == len(rec["exposed"]) == commit_bits(n) // 4
        assert len(rec["seed"]) == COMMIT_SEED_BITS // 4
    assert widths == {width, -(-width // 8) * 4}
    assert commit_bits(width) == 2 * commit_bits(16)


def test_a_checker_proof_sends_the_round_seed_alone():
    # round r's proof is {seed}, round_seed(key_seed, r) in 32 lowercase
    # hex digits, and no frame carries a key word
    dev = make_dev()
    v = Verifier(dev.pp.to_dict(), DEMO, DEMO_DOMAINS, DEMO_CP, seed=7,
                 mode="general", rng=random.Random(1))
    sent = []

    class Recording(LoopbackChannel):
        def send(self, f):
            sent.append(f)
            super().send(f)

    verdict, cert = v.run(Recording(dev.session().handle))
    assert verdict == "accept"
    proofs = [f["body"] for f in sent if f["type"] == "checker_proof"]
    assert proofs == [{"seed": bits_hex(round_seed(v.key_seed, r), 128)}
                      for r in range(len(cert["qa_c"]))]
    assert all(len(p["seed"]) == 32 for p in proofs)
    assert not any("ct_sk" in canonical_json(f) for f in sent)


@pytest.mark.parametrize("strategy", ["flip-payload", "flip-tag", "swap-answers"])
def test_malicious_strategies_rejected_in_general_mode(strategy):
    _, verdict, cert = run_pair(
        DEMO, DEMO_DOMAINS, [], mode="general", strategy=strategy
    )
    assert verdict == "reject"
    assert any(f["reason"] == "checker" for f in cert["failures"])


def test_flip_payload_caught_by_output_mismatch_even_honest_mode():
    _, verdict, cert = run_pair(DEMO, DEMO_DOMAINS, [], strategy="flip-payload")
    assert verdict == "reject"
    assert cert["mismatches"]


def test_wrong_design_rejected():
    # developer runs a design that disagrees with the public spec
    wrong = DEMO_GRAPH_TEXT.replace("(b == true, 2)", "(b == true, 9)")
    dev = make_dev(parse_graph(wrong))
    v = Verifier(dev.pp.to_dict(), DEMO, DEMO_DOMAINS, DEMO_CP, seed=7,
                 rng=random.Random(1))
    verdict, cert = verify_session(dev, v)
    assert verdict == "reject"
    assert cert["mismatches"]


# --- direct frame-level behavior -------------------------------------------------


def frame(dev, ftype, body):
    return dev.handle(make_frame(ftype, body))["body"]


def test_q1_rejects_malformed_queries():
    # a q1 names a published input by its name and carries its h-bit
    # payload x; any other name, an unhashable one too, or another spelling
    # of x gets a null answer. The developer forms the top word itself, so
    # no q1 spells a tag
    dev = make_dev()
    h = dev.pp.m // 2
    good = bits_hex(0, h)
    for body in ({"input": "zz", "x": good}, {"input": ["a"], "x": good},
                 {"input": "a", "x": "1"}, {"input": "a", "x": bits_hex(1, 2 * h)},
                 {"input": "a", "x": bits_hex(10, h).upper()}, {"input": "a", "x": 0},
                 {"input": "a", "u": bits_hex(1, 2 * h)}, {"input": {}, "x": good}):
        assert frame(dev, "encode", dict(body, qkind=1)) == {"answer": None}
    assert frame(dev, "encode", {"qkind": 2, "i": [1]}) == {"answer": None}
    w = frame(dev, "encode", {"qkind": 1, "input": "a", "x": good})["answer"]
    b64_cts(w, dev.hpk, 2 * h)  # a word of m ciphertexts
    assert dev.mem.words["a"][1] == 1  # the top value of payload 0
    # qkind is an int: another spelling of 1 or 2 asks nothing, though the
    # body would be a q1 and a q2 (table 1 reads a) that are answered
    body = {"input": "a", "x": good, "i": 1}
    for qkind in (True, 1.0, 2.0):
        assert frame(dev, "encode", dict(body, qkind=qkind)) == {"answer": None}
    assert all(frame(dev, "encode", dict(body, qkind=k))["answer"] for k in (1, 2))


@pytest.mark.parametrize("bad", [
    ["encode", {}],
    "junk",
    None,
    {"type": "encode", "body": "junk"},
    {"type": "checker", "body": ["i", 1]},
], ids=["list-frame", "str-frame", "null-frame", "str-body", "list-body"])
def test_malformed_frame_gets_error_reply(bad):
    reply = make_dev().handle(bad)
    assert reply["type"] == "reply"
    assert set(json.loads(canonical_json(reply))["body"]) == {"error"}


def test_verifier_sends_exactly_the_served_frame_types():
    # and an encode body is a q1 or a q2 with exactly its fields: no frame
    # carries a q2's u, which the developer joins itself
    dev = make_dev()
    sent, encodes = set(), set()

    class Recording(LoopbackChannel):
        def send(self, frame):
            sent.add(frame["type"])
            if frame["type"] == "encode":
                encodes.add(frozenset(frame["body"]))
            assert "u" not in frame["body"]
            super().send(frame)

    v = Verifier(dev.pp.to_dict(), DEMO, DEMO_DOMAINS, DEMO_CP, seed=7,
                 mode="general", vga_budget=4, rng=random.Random(1))
    verdict, _ = v.run(Recording(dev.session().handle))
    assert verdict == "accept"
    assert sent == set(Developer.ANSWERS)
    assert encodes == {frozenset(("qkind", "input", "x")), frozenset(("qkind", "i"))}


def q1_then_q2(dev, i, X_bits_by_port, extra=None):
    """Drive one table manually: q1 the input of every port, then ask q2 on
    table i, with the fields of extra added to it."""
    for (name,), u in zip(dev.pp.structure.table(i)[1], X_bits_by_port):
        h = len(u) // 2
        a = frame(dev, "encode", {"qkind": 1, "input": name,
                                  "x": bits_hex(bits_uint(u) >> h, h)})
        b64_cts(a["answer"], dev.hpk, 2 * h)
    return frame(dev, "encode", {"qkind": 2, "i": i, **(extra or {})})["answer"]


def first_input_table(dev):
    """(i, names): the first table whose ports all read external inputs,
    and the input each of its ports reads."""
    for i, (_, feeds) in enumerate(dev.pp.structure.tables, 1):
        if all(isinstance(f[0], str) for f in feeds):
            return i, [f[0] for f in feeds]
    raise AssertionError("no source table")


def challenge_hex(width, rng):
    """A commit challenge's R for a slice of width bits, drawn from rng."""
    return bits_hex(challenge(width, rng), 2 * commit_bits(width))


def test_q2_honest_and_tampered():
    dev = make_dev()
    i, names = first_input_table(dev)
    m = dev.pp.m
    bits = [tagged_to_bits(Tagged(True, DEMO_INPUT[n]), m) for n in names]
    a = q1_then_q2(dev.session(), i, bits)
    # the plaintext of its slice: the whole word of an external table, the
    # tag half of any other
    hex_bits(a, m if dev.pp.structure.covers_whole(i) else m // 2)
    # q2 without any prior q1
    assert frame(dev.session(), "encode", {"qkind": 2, "i": i})["answer"] is None


def test_a_q2_names_only_its_input():
    # the developer computes a q2's input and output words itself, so a u
    # or a v sent with the query, of the verifier's choosing, is never
    # read: the answer is the one a q2 without it gets, whether the word is
    # a fresh encryption of a plaintext the verifier picked or ciphertexts
    # cut from a program
    dev = make_dev()
    i, names = first_input_table(dev)
    m = dev.pp.m
    bits = [tagged_to_bits(Tagged(True, DEMO_INPUT[n]), m) for n in names]
    want = q1_then_q2(dev.session(), i, bits)
    assert want is not None
    chosen = he.enc_word(dev.hpk, tagged_to_bits(Tagged(True, 5), m), random.Random(6))
    for extra in ({"v": cts_b64(chosen)}, {"u": cts_b64(chosen)},
                  {"v": cts_b64(he.cut_word(dev.hpk, dev.pp.programs[i - 1], 0, m))}):
        assert q1_then_q2(dev.session(), i, bits, extra=extra) == want


@pytest.mark.parametrize("graph, domains, cp", [
    (DEMO, DEMO_DOMAINS, DEMO_CP),
    (chain_graph(), CHAIN_DOMAINS, []),
    (diamond_graph(), DIAMOND_DOMAINS, []),
], ids=["demo", "chain", "diamond"])
def test_every_opened_word_is_the_table_step_of_its_query(graph, domains, cp):
    # in a general-mode session the developer opens only words it computed:
    # each word _open_output receives is the table step of the u that the
    # verifier recorded for its q2, which the developer joined itself
    opened = []

    class Recording(Developer):
        def _open_output(self, i, v_word, u_plain):
            opened.append((i, v_word))
            return super()._open_output(i, v_word, u_plain)

    dev = Recording(graph, rng=random.Random(0))
    v = Verifier(dev.pp.to_dict(), graph, domains, cp, seed=7,
                 mode="general", rng=random.Random(1))
    verdict, cert = verify_session(dev, v)
    assert verdict == "accept"
    q2s = [r["q"] for r in cert["qa_e"] if r["q"]["qkind"] == 2]
    assert len(opened) == len(q2s) > 0
    for (i, v_word), q in zip(opened, q2s):
        assert set(q) == {"i", "qkind", "u"}
        assert i == q["i"] and v_word == table_step(dev.pp, i, b64_cts(q["u"], dev.hpk))


def test_memory_wiped_between_sessions():
    dev = make_dev()
    s1, s2 = dev.session(), dev.session()
    i, names = first_input_table(dev)
    h = dev.pp.m // 2
    for n in names:
        frame(s1, "encode", {"qkind": 1, "input": n, "x": bits_hex(DEMO_INPUT[n], h)})
    body = {"qkind": 2, "i": i}
    assert frame(s2, "encode", body)["answer"] is None
    assert frame(s1, "encode", body)["answer"] is not None
    assert s1.mem.words and not s2.mem.words and not dev.mem.words


def test_a_checker_frame_without_a_challenge_commits_nothing():
    # a checker frame of y alone, as a verifier of the three-frame round
    # sent it, is refused: no commitment, so the proof of the round's own
    # seed gets {} too
    dev = make_dev()
    _, names = first_input_table(dev)
    m = dev.pp.m
    x = bits_hex(DEMO_INPUT[names[0]], m // 2)
    a = frame(dev, "encode", {"qkind": 1, "input": names[0], "x": x})
    p = b64_cts(a["answer"], dev.hpk)
    _, ct_sk = checker_key(4, m, dev.hpk)
    y = checker_value(dev.pp, ct_sk, p)
    assert frame(dev, "checker", {"y": cts_b64(y)}) == {}
    assert not dev.mem.pending
    assert frame(dev, "checker_proof", {"seed": bits_hex(4, 128)}) == {}


def test_checker_value_words_are_pinned():
    # sha256 of the checker values of an 8-bit and a 16-bit slice, recorded
    # before PublicParams kept one SE circuit and its output labels per
    # block width. The key is the developer's first draw, so this does not
    # depend on the compiler; the second call of each width reads the kept
    # circuit
    dev = make_dev()
    h = hashlib.sha256()
    for width in (8, 16):
        _, ct_sk = checker_key(4, width, dev.hpk)
        p = he.enc_word(dev.hpk, int_to_bits(0xB5A3 & ((1 << width) - 1), width),
                        random.Random(5))
        y = checker_value(dev.pp, ct_sk, p)
        assert checker_value(dev.pp, ct_sk, p) == y
        h.update(y)
    assert set(dev.pp._se) == {8, 16}
    assert h.hexdigest() == "079b77a3cc85157150939b81028680e989b6c206f2b3e3cbe82a9e6ce568af70"


def test_commit_challenge_of_the_wrong_weight_is_null(monkeypatch):
    # R is spelled as 2q bits per block, so hex_bits takes it, but a part
    # of it does not have weight q: commit_respond refuses it with
    # CommitError, and the developer answers the checker frame {}, as it
    # does an R of another spelling and a frame without one. Any other
    # error there is the developer's own, and is not taken for a hostile
    # verifier's. A round pins the answer just given, so each frame is sent
    # on an answer of its own
    dev = make_dev()
    _, names = first_input_table(dev)
    m = dev.pp.m
    n = commit_bits(m)
    R = challenge(m, random.Random(0))

    def checker_frame(session, body):
        a = frame(session, "encode", {"qkind": 1, "input": names[0],
                                      "x": bits_hex(0, m // 2)})
        p = b64_cts(a["answer"], dev.hpk)
        _, ct_sk = checker_key(4, m, dev.hpk)
        y = checker_value(dev.pp, ct_sk, p)
        return frame(session, "checker", dict(body, y=cts_b64(y)))

    session = dev.session()
    for bad in (R ^ (R & -R), (1 << 2 * n) - 1, 0):  # weight q - 1, 2q, 0
        assert checker_frame(session, {"R": bits_hex(bad, 2 * n)}) == {}
        assert frame(session, "checker_proof", {"seed": bits_hex(4, 128)}) == {}
    for bad in ({}, {"R": R}, {"Rs": [bits_hex(R, 2 * n)]}, {"R": bits_hex(R, 2 * n + 4)}):
        assert checker_frame(session, bad) == {}
    assert set(checker_frame(session, {"R": bits_hex(R, 2 * n)})) == {"e", "exposed"}

    def broken(D, n, R, s):
        raise RuntimeError("a fault in the committer")

    monkeypatch.setattr(protocol, "commit_respond", broken)
    with pytest.raises(RuntimeError, match="a fault in the committer"):
        checker_frame(dev.session(), {"R": bits_hex(R, 2 * n)})


def test_a_wide_slice_is_one_commitment_of_several_blocks():
    # at width 32 a q1's word is two blocks of the protocol's code: R is
    # one weight-q part per block, and a wrong weight in the second part
    # alone is refused; the reply is one e and one exposed of 2q bits each
    dev = make_dev(demo_at(32))
    m = dev.pp.m
    n = commit_bits(m)
    assert m == 32 and n == 512
    R = challenge(m, random.Random(0))
    second = R >> n
    bad = R ^ (second & -second) << n
    with pytest.raises(CommitError):
        commit_respond(0, m, bad, 0)
    session = dev.session()
    replies = []
    for R_sent in (bad, R):  # each on an answer of its own
        a = frame(session, "encode", {"qkind": 1, "input": "a", "x": bits_hex(3, m // 2)})
        _, ct_sk = checker_key(4, m, dev.hpk)
        y = checker_value(dev.pp, ct_sk, b64_cts(a["answer"], dev.hpk))
        replies.append(frame(session, "checker", {"y": cts_b64(y),
                                                  "R": bits_hex(R_sent, 2 * n)}))
    refused, c = replies
    assert refused == {}
    assert set(c) == {"e", "exposed"} and len(c["e"]) == len(c["exposed"]) == n // 4
    proof = frame(session, "checker_proof", {"seed": bits_hex(4, 128)})
    assert set(proof) == {"d", "seed"} and len(proof["d"]) == m // 4


def test_checker_proof_opens_only_under_the_round_seed():
    # a proof is {seed}: the round's 128-bit seed in 32 lowercase hex
    # digits, from which the developer builds the key word itself. A
    # missing seed, an int, 31 or 33 digits, uppercase, a seed with a bit
    # past 128, and the well-formed seed of another round, whose key word
    # does not give the y that was sent, are each answered null; the
    # round's own seed opens to the answer. A round pins the answer just
    # given, so each is run on an answer of its own
    dev = make_dev()
    _, names = first_input_table(dev)
    m = dev.pp.m
    u = tagged_word(Tagged(True, 3), m)
    key_seed = random.Random(4).getrandbits(128)
    seed, other = round_seed(key_seed, 0), round_seed(key_seed, 1)
    text = bits_hex(seed, 128)
    assert len(text) == 32
    for body in ({}, {"seed": seed}, {"seed": text[1:]}, {"seed": "0" + text},
                 {"seed": "1" + text}, {"seed": text.upper()},
                 {"seed": bits_hex(other, 128)}, {"seed": text}):
        a = frame(dev, "encode", {"qkind": 1, "input": names[0],
                                  "x": bits_hex(3, m // 2)})
        p = b64_cts(a["answer"], dev.hpk)
        sk, ct_sk = checker_key(seed, m, dev.hpk)
        assert he.check_word(dev.hpk, ct_sk) == 4 * m
        y = checker_value(dev.pp, ct_sk, p)
        c = frame(dev, "checker", {"y": cts_b64(y), "R": challenge_hex(m, random.Random(0))})
        assert set(c) == {"e", "exposed"}
        proof = frame(dev, "checker_proof", body)
        if body == {"seed": text}:
            assert se_dec(sk, hex_bits(proof["d"], m), m) == u
        else:
            assert proof == {}, body


def test_round_seed_is_shake128_of_the_key_seed_and_the_round():
    # the PRG's hash input is one byte per bit, bit 0 first: the key
    # seed's 128 bits, then the round's 32; the seed is the first 16
    # output bytes, read little-endian
    key_seed = 0x0123456789ABCDEF_FEDCBA9876543210
    for r in (0, 1):
        x = key_seed | r << 128
        digest = hashlib.shake_128(bytes(x >> i & 1 for i in range(160))).digest(16)
        assert round_seed(key_seed, r) == int.from_bytes(digest, "little")
    assert round_seed(key_seed, 0) != round_seed(key_seed, 1)


def test_checker_rejects_unknown_slice():
    # a round pins the answer just given; with nothing answered there is
    # no word to slice, whatever y the verifier sends and whatever query a
    # frame of an older format names: the round is refused, {}, and so is
    # its proof
    dev = make_dev()
    m = dev.pp.m
    y = he.enc_word(dev.hpk, (0,) * m, random.Random(5))
    R = challenge_hex(m, random.Random(0))
    for body in ({"y": cts_b64(y), "R": R},
                 {"i": 1, "qkind": 2, "port": 0, "y": cts_b64(y), "R": R}):
        assert frame(dev, "checker", body) == {}
        assert frame(dev, "checker_proof", {"seed": bits_hex(4, 128)}) == {}


def answer_a(session, value=3):
    """The q1 answer of session to the demo's input a set to value."""
    h = session.pp.m // 2
    x = bits_hex(value, h)
    return frame(session, "encode", {"qkind": 1, "input": "a", "x": x})["answer"]


def run_round(session, w, body=None, seed=4):
    """The developer's replies to the two frames of one checker round on
    the word w: its checker frame is body, with y and R added, its key drawn
    from the round seed seed and its challenge from a generator seeded with
    it."""
    _, ct_sk = checker_key(seed, session.pp.m, session.hpk)
    y = checker_value(session.pp, ct_sk, b64_cts(w, session.hpk))
    R = challenge_hex(session.pp.m, random.Random(seed))
    c = frame(session, "checker", dict(body or {}, y=cts_b64(y), R=R))
    return c, frame(session, "checker_proof", {"seed": bits_hex(seed, 128)})


def test_an_answer_gets_one_checker_round():
    # a round pins the answer just given and takes it: a second checker
    # frame on the same answer is refused, {}, with every later frame of
    # its round, and so is one after a null answer
    dev = make_dev(seed=1)
    session = dev.session()
    w = answer_a(session)
    c, proof = run_round(session, w)
    assert set(c) == {"e", "exposed"} and set(proof) == {"d", "seed"}
    assert frame(session, "checker", {"y": proof["d"]}) == {}
    assert run_round(session, w) == ({}, {})
    assert answer_a(session) is not None
    bad = frame(session, "encode", {"qkind": 1, "input": "a", "x": "1"})
    assert bad == {"answer": None}
    assert run_round(session, w) == ({}, {})
    # a checker frame ends the round before it: a commitment left without
    # its proof is never opened after another checker frame
    w = answer_a(session)
    _, ct_sk = checker_key(4, session.pp.m, session.hpk)
    y = checker_value(session.pp, ct_sk, b64_cts(w, session.hpk))
    R = challenge_hex(session.pp.m, random.Random(4))
    assert set(frame(session, "checker", {"y": cts_b64(y), "R": R})) == {"e", "exposed"}
    assert frame(session, "checker", {"y": cts_b64(y), "R": R}) == {}
    assert frame(session, "checker_proof", {"seed": bits_hex(4, 128)}) == {}


def test_stray_checker_frame_fields_change_nothing():
    # the checker frame of a round is {y, R}: an i, qkind or port it
    # carries names nothing, so the developer's replies are the same with
    # them and without them
    replies = []
    for body in ({}, {"i": 5, "qkind": 2, "port": 0}, {"i": [1], "qkind": 1, "port": [0]}):
        session = make_dev(seed=3).session()
        w = answer_a(session)
        replies.append(canonical_json(run_round(session, w, body)))
    assert '"d"' in replies[0] and len(set(replies)) == 1


def test_a_q2_reads_each_port_from_its_own_input():
    # table 1 reads a. With only b answered in the session, a q2 on it is
    # null; once a is answered, the q2 opens the table step of a's word,
    # even when the query carries b's word as a stray u
    dev = make_dev(seed=1)
    assert dev.pp.structure.table(1)[1] == (("a",),)
    session = dev.session()
    h = dev.pp.m // 2
    w_b = frame(session, "encode", {"qkind": 1, "input": "b",
                                    "x": bits_hex(True, h)})["answer"]
    assert frame(session, "encode", {"qkind": 2, "i": 1}) == {"answer": None}
    w_a = answer_a(session, 46)
    v_word = table_step(dev.pp, 1, b64_cts(w_a, dev.hpk))
    for stray in ({}, {"u": w_b}):
        assert frame(session, "encode", {"qkind": 2, "i": 1, **stray}) == {
            "answer": bits_hex(1, h)}  # the tag half of a fired table
        assert session.mem.words[1][0] == v_word


class _Counting(LoopbackChannel):
    """Loopback that counts the frames sent, per type, and the q1s among them."""

    def __init__(self, handler):
        super().__init__(handler)
        self.frames, self.q1s = Counter(), 0

    def send(self, frame):
        self.frames[frame["type"]] += 1
        self.q1s += frame["type"] == "encode" and frame["body"]["qkind"] == 1
        super().send(frame)


@pytest.mark.parametrize("graph, domains, mode, frames", [
    (DEMO, DEMO_DOMAINS, "general",
     {"encode": 100, "checker": 100, "checker_proof": 100}),
    (diamond_graph(), DIAMOND_DOMAINS, "honest", {"encode": 90}),
], ids=["general-demo", "honest-diamond"])
def test_a_session_asks_one_q1_per_input_per_tested_input(graph, domains, mode,
                                                          frames):
    # developer seed 1, suite seed 7: the demo's 10 tested inputs ask one q1
    # per external input each, 20 in all, and a checker round of two frames
    # on each of its 100 answers: 300 frames. The diamond's 90 are queries
    dev = make_dev(graph, seed=1)
    v = Verifier(dev.pp.to_dict(), graph, domains, [], seed=7, mode=mode,
                 rng=random.Random(2))
    chan = _Counting(dev.session().handle)
    verdict, cert = v.run(chan)
    assert verdict == "accept"
    assert chan.q1s == len(dev.pp.structure.inputs) * len(cert["outputs"])
    assert chan.frames == frames
    if graph is DEMO:
        assert chan.q1s == 20


def test_a_checker_round_never_opens_an_intermediate_payload():
    # DL#1 fires on DEMO_INPUT and feeds CT, so its payload, 46 - 20 = 26,
    # is a hidden intermediate value. A verifier that runs a round on its
    # payload half, as an external table's round once was, and names it so
    # ("case" and "p", which the developer once took from the frame), gets
    # a commitment but no d: the developer slices the tag half of the word
    # it answered, and the y of another slice does not recompute
    dev = make_dev(seed=1)
    assert dev.index_of["DL#1"] == 1 and dev.pp.structure.table(1)[0] is False
    h = dev.pp.m // 2
    a = frame(dev, "encode", {"qkind": 1, "input": "a", "x": bits_hex(DEMO_INPUT["a"], h)})
    u_word = b64_cts(a["answer"], dev.hpk)
    v_word = table_step(dev.pp, 1, u_word)
    a = frame(dev, "encode", {"qkind": 2, "i": 1})
    assert a["answer"] == bits_hex(1, h)  # its tag half, and no payload
    payload = he.cut_word(dev.hpk, v_word, h)
    _, ct_sk = checker_key(4, h, dev.hpk)
    y = checker_value(dev.pp, ct_sk, payload)
    c = frame(dev, "checker", {"case": "external", "p": cts_b64(payload),
                               "y": cts_b64(y), "R": challenge_hex(h, random.Random(5))})
    assert set(c) == {"e", "exposed"}
    proof = frame(dev, "checker_proof", {"seed": bits_hex(4, 128)})
    assert proof == {} and "d" not in proof


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a hostile verifier's y is decrypted and committed before its proof is "
    "checked, and the 2^16 commitment seeds are searchable: the commitment "
    "opens to DL#1's hidden payload 26 without the proof"))
def test_a_commitment_hides_what_a_hostile_y_decrypts_to():
    # DL#1's payload, 26, is a hidden intermediate value. A verifier that
    # sends as y the raw payload half of DL#1's own step word, not an SE
    # encryption of its tag half, has the developer decrypt it and commit
    # to 26 before the proof shows that y does not recompute. Searching
    # every commitment seed for one whose stream gives the exposed bits
    # unmasks the codeword, and with it the data: a commitment hides its
    # data only while its seed cannot be searched or predicted. Only the
    # last assert may fail: a step before it that goes wrong fails the test
    dev = make_dev(seed=1)
    h = dev.pp.m // 2
    a = frame(dev, "encode", {"qkind": 1, "input": "a", "x": bits_hex(DEMO_INPUT["a"], h)})
    v_word = table_step(dev.pp, 1, b64_cts(a["answer"], dev.hpk))
    if frame(dev, "encode", {"qkind": 2, "i": 1})["answer"] != bits_hex(1, h):
        pytest.fail("DL#1 did not fire on DEMO_INPUT")
    payload = he.cut_word(dev.hpk, v_word, h)
    R = challenge(h, random.Random(5))
    n = commit_bits(h)
    c = frame(dev, "checker", {"y": cts_b64(payload), "R": bits_hex(R, 2 * n)})
    e, exposed = hex_bits(c["e"], n), hex_bits(c["exposed"], n)
    if frame(dev, "checker_proof", {"seed": bits_hex(4, 128)}) != {}:
        pytest.fail("the proof of a y that does not recompute opened")  # it comes too late
    codewords = {PROTOCOL_CODE.encode(D): D for D in range(1 << h)}
    opened = set()
    for s in range(1 << COMMIT_SEED_BITS):
        mask, seen = commit_respond(0, h, R, s)
        if seen == exposed and e ^ mask in codewords:
            opened.add(codewords[e ^ mask])
    assert 26 not in opened


def test_serve_survives_malformed_checker_ciphertext():
    import socket
    import threading

    from tabverify.channel import SocketChannel
    from tabverify.protocol import serve

    dev = make_dev()
    _, names = first_input_table(dev)
    m = dev.pp.m
    s_dev, s_ver = socket.socketpair()
    s_ver.settimeout(10)
    server = threading.Thread(target=serve, args=(dev, SocketChannel(s_dev)))
    server.start()
    chan = SocketChannel(s_ver)

    def ask(ftype, body):
        chan.send(make_frame(ftype, body))
        return chan.recv()["body"]

    try:
        # right count and length, but no ciphertext under the developer's key
        y = bytes(9 + m * (he.LAM_BYTES - 9))
        for stray in ({}, {"i": [1]}, {"port": [0]}):
            a = ask("encode", {"qkind": 1, "input": names[0], "x": bits_hex(0, m // 2)})
            assert a["answer"] is not None
            R = challenge_hex(m, random.Random(0))
            assert ask("checker", dict(stray, y=cts_b64(y), R=R)) == {}
            # refused: the round has no commitment
            assert ask("checker_proof", {"seed": bits_hex(4, 128)}) == {}
        for bad in (["encode", {}], {"type": ["encode"], "body": {}},
                    {"type": "encode", "body": "junk"}):
            chan.send(bad)
            assert chan.recv()["body"] == {"error": "malformed frame"}
        assert ask("end", {}) == {"error": "unknown frame type 'end'"}
    finally:
        chan.close()  # the session ends when the verifier closes
        server.join(timeout=10)
        s_dev.close()
    assert not server.is_alive()


def test_serve_drops_a_silent_peer():
    import socket
    import threading

    from tabverify.channel import SocketChannel
    from tabverify.protocol import serve

    dev = make_dev()
    s_dev, s_ver = socket.socketpair()
    chan = SocketChannel(s_dev, timeout=0.2)
    server = threading.Thread(target=serve, args=(dev, chan))
    server.start()
    try:
        server.join(timeout=10)
        assert not server.is_alive()
        assert s_dev.fileno() == -1  # serve closed its end
        s_ver.settimeout(10)
        assert s_ver.recv(1) == b""  # and the peer sees the close
    finally:
        s_ver.close()
        s_dev.close()


def test_certificate_public_half_has_no_secret_fields():
    dev, _, cert = run_pair(DEMO, DEMO_DOMAINS, [], mode="general")
    pp_dict = cert["public_params"]
    assert set(pp_dict) == {"hpk", "u_params", "structure", "programs"}
    pp = PublicParams.from_dict(pp_dict)
    assert pp.hpk == dev.hsk and pp_dict["hpk"]["kind"] == "transparent"
    # top-level certificate carries no decryption key material
    assert "hsk" not in cert and "p" not in pp_dict["hpk"]


def test_vs_encrypt_returns_consistent_pair():
    dev = Developer(DEMO, rng=random.Random(11))
    pp = dev.pp
    assert pp.m == DEMO.m
    assert pp.u_params[2] == DEMO.m
    assert len(pp.programs) == len(dev.tg.order)
    for word in pp.programs:
        assert he.check_word(dev.hpk, word) == dev.u.program_length


def test_loopback_equals_queue_pair():
    import socket
    import threading

    from tabverify.channel import SocketChannel
    from tabverify.protocol import serve

    dev1 = make_dev(seed=3)
    v1 = Verifier(dev1.pp.to_dict(), DEMO, DEMO_DOMAINS, DEMO_CP, seed=2,
                  rng=random.Random(8))
    verdict1, cert1 = verify_session(dev1, v1)

    dev2 = make_dev(seed=3)
    v2 = Verifier(dev2.pp.to_dict(), DEMO, DEMO_DOMAINS, DEMO_CP, seed=2,
                  rng=random.Random(8))
    s_dev, s_ver = socket.socketpair()
    s_ver.settimeout(30)
    t = threading.Thread(target=serve, args=(dev2, SocketChannel(s_dev)))
    t.start()
    try:
        verdict2, cert2 = v2.run(SocketChannel(s_ver))
    finally:
        s_ver.close()
        t.join(timeout=30)
        s_dev.close()
    assert not t.is_alive()
    assert (verdict1, cert1["outputs"]) == (verdict2, cert2["outputs"])


def test_same_seed_verifiers_served_concurrently():
    # each connection is its own session, so two verifiers that draw the
    # same queries no longer share (and corrupt) one session's memory; the
    # sessions do share dev.pp's prepared programs, which a race can at
    # worst prepare twice, with equal results
    import socket
    import threading

    from tabverify import audit
    from tabverify.channel import SocketChannel
    from tabverify.protocol import serve

    dev = make_dev(seed=3)
    results = [None, None]

    def verify(k):
        s_dev, s_ver = socket.socketpair()
        s_ver.settimeout(60)
        server = threading.Thread(target=serve, args=(dev, SocketChannel(s_dev)))
        server.start()
        v = Verifier(dev.pp.to_dict(), DEMO, DEMO_DOMAINS, DEMO_CP, seed=2,
                     mode="general", vga_budget=4, rng=random.Random(8))
        try:
            results[k] = v.run(SocketChannel(s_ver))
        finally:
            s_ver.close()
            server.join(timeout=60)
            s_dev.close()

    threads = [threading.Thread(target=verify, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    for verdict, cert in results:
        assert verdict == "accept", cert["failures"]
        assert audit.audit(cert)[0] == 1


class _OneBadReply(LoopbackChannel):
    """Loopback whose first reply to a matching frame is replaced."""

    def __init__(self, handler, ftype, qkind, reply):
        super().__init__(handler)
        self.match, self.bad = (ftype, qkind), reply

    def send(self, frame):
        super().send(frame)
        if self.bad is not None and self.match == (
                frame["type"], frame["body"].get("qkind")):
            self._reply, self.bad = self.bad, None


def _reply(body):
    return {"type": "reply", "body": body}


@pytest.mark.parametrize("ftype,qkind,bad", [
    ("encode", 1, ["reply", {"answer": None}]),
    ("encode", 1, _reply(["answer"])),
    ("encode", 1, _reply({"answer": 5})),
    ("encode", 1, _reply({"answer": "A" * 16})),
    ("encode", 2, _reply({"answer": "12"})),  # table 1's tag half, 0x12 > 1
    ("checker", None, _reply({"e": 3, "exposed": "00"})),
], ids=["reply-list", "body-list", "answer-int", "w-str", "payload-not-bits",
        "commit-e-int"])
def test_malformed_developer_reply_is_a_reject(ftype, qkind, bad):
    from tabverify import audit

    dev = make_dev()
    v = Verifier(dev.pp.to_dict(), DEMO, DEMO_DOMAINS, [], seed=7,
                 mode="general", vga_budget=1, rng=random.Random(1))
    chan = _OneBadReply(dev.session().handle, ftype, qkind, bad)
    verdict, cert = v.run(chan)
    assert chan.bad is None  # the bad reply was delivered
    assert verdict == "reject" and cert["failures"]
    ok, report = audit.replay(cert)
    assert ok and report["replayed_verdict"] == "reject", report


def test_general_mode_refuses_odd_half_word():
    from tabverify.protocol import ProtocolError

    from helpers import NARROW_DOMAINS, NARROW_TEXT

    g = parse_graph(NARROW_TEXT)
    dev = make_dev(g)
    with pytest.raises(ProtocolError, match="width 6"):
        Verifier(dev.pp.to_dict(), g, NARROW_DOMAINS, [], mode="general")
    v = Verifier(dev.pp.to_dict(), g, NARROW_DOMAINS, [], mode="honest",
                 rng=random.Random(1))
    verdict, cert = verify_session(dev, v)
    assert verdict == "accept", cert["mismatches"]


def test_checker_on_a_slice_se_cannot_encrypt_is_null():
    # width 6: an intermediate table's tag half is 3 bits, which no SE
    # block is. An honest verifier refuses general mode there; the developer
    # answers a checker round of such a slice null before any commitment,
    # not with SymError
    from helpers import NARROW_PAIR_TEXT

    dev = make_dev(parse_graph(NARROW_PAIR_TEXT))
    assert dev.pp.structure.table(1)[0] is False  # T#1 feeds C, not an output
    session = dev.session()
    a = frame(session, "encode", {"qkind": 1, "input": "x", "x": bits_hex(2, 3)})
    u_word = b64_cts(a["answer"], dev.hpk)
    v_word = table_step(dev.pp, 1, u_word)
    a = frame(session, "encode", {"qkind": 2, "i": 1})
    assert a["answer"] == "1"  # a 3-bit tag half: one hex digit
    y = cts_b64(he.cut_word(dev.hpk, v_word, 0, 3))
    R = challenge_hex(3, random.Random(2))
    assert frame(session, "checker", {"y": y, "R": R}) == {}
    assert frame(session, "checker_proof", {"seed": bits_hex(3, 128)}) == {}


# rows 1 and 2 of T both fire for x > 5, so T is not disjoint there
OVERLAP_TEXT = """\
width: 16;
table T {
  inputs: x;
  outputs: y;
  rows: [
    (x > 0, x + 1),
    (x > 5, x + 2),
    (x <= 0, 0),
  ];
}
table C {
  inputs: y;
  outputs: z;
  rows: [
    (true, y + 10),
  ];
}
edges:
  Input.x -> T.x;
  T.y -> Output.y;
  T.y -> C.y;
  C.z -> Output.z;
"""


# the same spec without the overlap
DISJOINT_TEXT = OVERLAP_TEXT.replace("    (x > 5, x + 2),\n", "")
# T's overlapping rows feed only C
INNER_OVERLAP_TEXT = OVERLAP_TEXT.replace("  T.y -> Output.y;\n", "")


def test_overlapping_rows_follow_the_sibling_rule_on_both_paths():
    graph = parse_graph(OVERLAP_TEXT)
    X = {"x": 7}
    with pytest.raises(ProtocolError, match="ambiguous"):
        spec_port_outputs(transform(graph), X)
    # as the design, against a spec without the overlap: two fired rows at
    # an output port give null and the developer's ambiguous-output failure;
    # the consumer takes the first fired row, 7 + 1
    spec = parse_graph(DISJOINT_TEXT)
    want = spec_port_outputs(transform(spec), X)
    assert want == {"y": 8, "z": 18}
    dev = make_dev(graph)
    v = Verifier(dev.pp.to_dict(), spec, {"x": [7]}, [(X, want)], seed=7,
                 vga_budget=0, rng=random.Random(1))
    verdict, cert = verify_session(dev, v)
    got = {"y": None, "z": 18}
    assert cert["outputs"] == {input_key(X): got}
    assert cert["failures"] == [{"reason": "ambiguous-output", "port": "y"}]
    assert cert["mismatches"] == [{"input": X, "expected": want, "observed": got}]
    assert verdict == "reject"
    ok, report = replay(cert)
    assert ok and report["replayed_verdict"] == "reject", report


@pytest.mark.parametrize("text", [OVERLAP_TEXT, INNER_OVERLAP_TEXT],
                         ids=["at-an-output", "at-a-consumer"])
def test_an_overlapping_spec_is_refused_before_the_first_frame(text):
    spec = parse_graph(text)
    dev = make_dev(parse_graph(DISJOINT_TEXT))
    session = dev.session()
    frames = []

    def counting(frame):
        frames.append(frame)
        return session.handle(frame)

    v = Verifier(dev.pp.to_dict(), spec, {"x": [-1, 3, 7]}, [], seed=7,
                 mode="general", vga_budget=3, rng=random.Random(1))
    with pytest.raises(ProtocolError,
                       match=r'ambiguous at input \{"x":7\}: .*\["T#1","T#2"\]'):
        v.run(LoopbackChannel(counting))
    assert frames == []


# two tables whose output ports share the name y feed two Output ports
TWO_SOURCES_TEXT = """\
width: 16;
table A {
  inputs: x;
  outputs: y;
  rows: [
    (x > 0, x + 1),
    (x <= 0, 0),
  ];
}
table B {
  inputs: x;
  outputs: y;
  rows: [
    (x > 2, x + 2),
    (x <= 2, 1),
  ];
}
edges:
  Input.x -> A.x;
  Input.x -> B.x;
  A.y -> Output.p;
  B.y -> Output.q;
"""

# one output port feeds two Output ports
FORKED_TEXT = """\
width: 16;
table T {
  inputs: x;
  outputs: y;
  rows: [
    (x > 0, x - 1),
    (x <= 0, 0 - x),
  ];
}
edges:
  Input.x -> T.x;
  T.y -> Output.y;
  T.y -> Output.z;
"""


@pytest.mark.parametrize("mode", ["honest", "general"])
@pytest.mark.parametrize("text, groups", [
    (TWO_SOURCES_TEXT, [("p", "int", (1, 2)), ("q", "int", (3, 4))]),
    (FORKED_TEXT, [("y", "int", (1, 2)), ("z", "int", (1, 2))]),
])
def test_output_groups_are_named_by_their_output_ports(text, groups, mode):
    # a group is named by the Output port it produces, not by the port of
    # the table that produces it, so these honest designs accept
    graph = parse_graph(text)
    dev = make_dev(graph)
    assert list(dev.pp.structure.outputs) == groups
    X = {"x": 4}
    want = spec_port_outputs(transform(graph), X)
    assert set(want) == {name for name, _, _ in groups}
    v = Verifier(dev.pp.to_dict(), graph, {"x": [-3, 0, 1, 4, 5]}, [(X, want)],
                 seed=7, mode=mode, rng=random.Random(1))
    verdict, cert = verify_session(dev, v)
    assert verdict == "accept", cert["failures"]
    assert cert["outputs"][input_key(X)] == want
    assert audit(cert)[0] == 1


# --- prepared programs ------------------------------------------------------------


def gate_list_step(hpk, hsk, u, words):
    """he.eval_word on a universal circuit as it ran before programs were
    prepared, kept here as the reference: the gate list simulated on every
    input (a batch of words at once), output k's nonce naming u.name and
    k. words is a list of program and data words joined."""
    plain = [he.dec_word(hsk, w) for w in words]
    columns = [sum(bits[n] << k for k, bits in enumerate(plain))
               for n in range(u.n_inputs)]
    outs = simulate_batch(u.circuit, columns, len(plain))
    steps = []
    for k, word in enumerate(words):
        inputs = hashlib.sha256(word).digest()
        steps.append(bytes([he.TAG_TRANSPARENT]) + hpk.key_id + b"".join(
            bytes([col >> k & 1])
            + hashlib.sha256(b"tr-eval-v2" + hpk.key_id + inputs
                             + f"{u.name}:{j}".encode()).digest()[:16]
            for j, col in enumerate(outs)))
    return steps


def test_table_step_is_byte_identical_to_the_gate_list_evaluation():
    dev = make_dev(diamond_graph(), seed=5)
    rng = random.Random(6)
    assert len(dev.pp.programs) == 8
    for i, (_, feeds) in enumerate(dev.pp.structure.tables, 1):
        width = len(feeds) * dev.pp.m
        data = [he.enc_word(dev.hpk, [rng.randrange(2) for _ in range(width)], rng)
                for _ in range(50)]
        # ciphertext k of the bus is input ciphertext k mod width
        cycled = [he.join_words(dev.hpk, [he.cut_word(dev.hpk, w, k % width, k % width + 1)
                                          for k in range(dev.u.n_data)]) for w in data]
        want = gate_list_step(dev.hpk, dev.hsk, dev.u,
                              [he.join_words(dev.hpk, (dev.pp.programs[i - 1], c))
                               for c in cycled])
        assert [table_step(dev.pp, i, w) for w in data] == want


def test_programs_are_prepared_on_first_use_once_per_public_params(monkeypatch):
    from tabverify import audit

    prepared = []  # each program word he.prepare was handed
    real = he.prepare

    def counting(hpk, u, program):
        prepared.append(program)
        return real(hpk, u, program)

    monkeypatch.setattr(he, "prepare", counting)
    dev = make_dev(diamond_graph(), seed=1)
    v = Verifier(dev.pp.to_dict(), diamond_graph(), DIAMOND_DOMAINS, [], seed=7,
                 rng=random.Random(2))
    # construction parses no program, so set-up time pays for none
    assert prepared == []
    verdict, cert = verify_session(dev, v)
    assert verdict == "accept"
    assert audit.audit(cert)[0] == 1
    # developer, verifier and auditor each hold their own public parameters,
    # and prepare each of its programs once at most
    assert prepared
    assert len({id(p) for p in prepared}) == len(prepared) <= 3 * len(dev.pp.programs)
    assert set(dev.pp._prepared) == set(v.pp._prepared)


def test_concurrent_table_steps_share_one_memo():
    # threads that race to prepare the same program may each prepare it,
    # but every one of them gets the sequential result
    import sys
    import threading

    dev = make_dev(diamond_graph(), seed=5)
    rng = random.Random(7)
    steps = []
    for i, (_, feeds) in enumerate(dev.pp.structure.tables, 1):
        width = len(feeds) * dev.pp.m
        u_word = he.enc_word(dev.hpk, [rng.randrange(2) for _ in range(width)], rng)
        steps.append((i, u_word))
    want = [table_step(dev.pp, i, u_word) for i, u_word in steps]
    shared = PublicParams.from_dict(dev.pp.to_dict())
    got = [None] * 4

    def work(k):
        got[k] = [table_step(shared, i, u_word) for i, u_word in steps]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * 4
    assert set(shared._prepared) == {i for i, _ in steps}


def one_table(rows):
    """A design of one table T from x to the Output port y."""
    return parse_graph("table T { inputs: x; outputs: y; rows: [%s]; }\n"
                       "edges:\n  Input.x -> T.x;\n  T.y -> Output.y;\n" % rows)


def lying_session(spec, design, lie, mode="general"):
    """A session over x in -5..7 against a developer of design whose q2
    answers lie(developer, i, x, honest answer) rewrites. An answer is its
    hex value: m = 16 bits, 4 digits, for an external table."""
    class Liar(Developer):
        x = None

        def _open_output(self, i, v_word, u_plain):
            h = self.pp.m // 2
            self.x = wrap_signed(u_plain >> h, h)  # the payload of T's input
            return super()._open_output(i, v_word, u_plain)

        def _encode_q2(self, body):
            reply = super()._encode_q2(body)
            return {"answer": lie(self, body["i"], self.x, reply["answer"])}

    dev = (Developer if lie is None else Liar)(design, rng=random.Random(1))
    v = Verifier(dev.pp.to_dict(), spec, {"x": list(range(-5, 8))}, [], seed=3,
                 mode=mode, rng=random.Random(2))
    return verify_session(dev, v)


def test_a_row_table_that_fires_as_top_at_an_output_is_null():
    # rows 1 and 2 of the design overlap for x > 2; answering row 2's
    # word with a fired tag half alone, the value only a table that feeds
    # no output gives, hid the second firing row from the output, and the
    # session accepted
    spec = one_table("(x > 0, x + 1), (x <= 0, 0)")
    design = one_table("(x > 0, x + 1), (x > 2, 0 - x), (x <= 0, 0)")
    verdict, cert = lying_session(spec, design, None)
    assert verdict == "reject"
    assert {f["reason"] for f in cert["failures"]} == {"ambiguous-output"}

    def hide_row_2(dev, i, x, answer):
        if i == dev.index_of["T#2"] and int(answer, 16) & 1:
            return "01"  # h = 8 bits where m = 16 are due
        return answer

    for mode in ("honest", "general"):
        verdict, cert = lying_session(spec, design, hide_row_2, mode)
        assert verdict == "reject"
        assert {f["reason"] for f in cert["failures"]} == {"q2-null"}
        assert audit(cert)[0] == 0


def claim_row_1_fires_in_the_gap(dev, i, x, answer):
    if i == dev.index_of["T#1"] and answer == "0000" and 1 <= x <= 5:
        return "0001"  # tag 1, payload 0
    return answer


GAP_SPEC = "(x > 0, 0), (x <= 0, 1)"
GAP_DESIGN = "(x > 5, 0), (x <= 0, 1)"  # no row holds for x in 1..5


def test_the_gap_design_is_rejected_from_an_honest_developer():
    verdict, cert = lying_session(one_table(GAP_SPEC), one_table(GAP_DESIGN), None)
    assert verdict == "reject"
    assert {"x": 4} in [m["input"] for m in cert["mismatches"]]


def test_a_row_that_did_not_fire_cannot_claim_a_zero_payload():
    # a row that did not fire has a payload half of 0; an external table's
    # checker round covers its whole word, tag and payload, so the bot it
    # hides is caught in general mode. Honest mode trusts the developer
    verdict, cert = lying_session(one_table(GAP_SPEC), one_table(GAP_DESIGN),
                                  claim_row_1_fires_in_the_gap)
    assert verdict == "reject"
    assert audit(cert)[0] == 0


class _LieOnce(Developer):
    """A demo developer whose first answer to a query on ref, an input's
    name (a q1) or a table's name (a q2), is lie(developer, honest answer)."""

    def __init__(self, qkind, ref, lie):
        super().__init__(DEMO, rng=random.Random(0))
        self.key = "input" if qkind == 1 else "i"
        self.ref = ref if qkind == 1 else self.index_of[ref]
        self.lie = lie

    def _encode(self, body):
        reply = super()._encode(body)
        if self.lie and body.get(self.key) == self.ref:
            reply, self.lie = {"answer": self.lie(self, reply["answer"])}, None
        return reply

    ANSWERS = dict(Developer.ANSWERS, encode=_encode)  # it binds the base's


def _fewer_ciphertexts(dev, w):
    return cts_b64(he.cut_word(dev.hpk, b64_cts(w, dev.hpk), 0, dev.pp.m - 1))


# (qkind, ref, lie): every answer below is no value of its query. The demo
# has m = 16: a tag half of h = 8 bits is 2 hex digits and a word 4. DL#1
# feeds CT, OP#1 feeds the int output c and CT#1 the bool output w
MALFORMED_ANSWERS = {
    "external-h-digits": (2, "OP#1", lambda dev, a: "01"),
    "intermediate-m-digits": (2, "DL#1", lambda dev, a: "0001"),
    "tag-half-2": (2, "DL#1", lambda dev, a: "02"),
    "bot-with-payload": (2, "OP#1", lambda dev, a: "0100"),
    "bool-payload-2": (2, "CT#1", lambda dev, a: "0201"),
    "uppercase-hex": (2, "OP#1", lambda dev, a: "2A01"),
    "v15-top": (2, "DL#1", lambda dev, a: {"kind": "top"}),
    "json-number": (2, "DL#1", lambda dev, a: 1),
    "v15-word": (1, "a", lambda dev, a: {"kind": "w", "w": a}),
    "m-1-ciphertexts": (1, "a", _fewer_ciphertexts),
}


@pytest.mark.parametrize("mode", ["honest", "general"])
@pytest.mark.parametrize("case", list(MALFORMED_ANSWERS))
def test_an_answer_that_is_no_value_of_its_query_is_null(case, mode):
    qkind, ref, lie = MALFORMED_ANSWERS[case]
    dev = _LieOnce(qkind, ref, lie)
    v = Verifier(dev.pp.to_dict(), DEMO, DEMO_DOMAINS, [], seed=7, mode=mode,
                 rng=random.Random(1))
    verdict, cert = verify_session(dev, v)
    assert cert["failures"] == [{"reason": f"q{qkind}-null", dev.key: dev.ref}]
    lied = [r["a"] for r in cert["qa_e"] if r["q"].get(dev.key) == dev.ref]
    assert lied[0] is None and None not in lied[1:]  # recorded null once
    assert verdict == "reject"
    ok, report = replay(cert)
    assert ok and report["replayed_verdict"] == "reject", report
    assert audit(cert)[0] == 0


def test_the_published_width_is_the_specifications():
    # the published u_params carry the word width; a design encrypted at
    # another width than the spec's is refused before any query, where a
    # session read its payloads at the spec's width
    from helpers import NARROW_PAIR_TEXT, WIDTH12_TEXT

    dev = make_dev(parse_graph(NARROW_PAIR_TEXT))
    spec = parse_graph(WIDTH12_TEXT)
    domains = {name: [0, 1] for name, _ in spec.external_inputs}
    with pytest.raises(ProtocolError, match="published width 6 is not the "
                                            "specification's 12"):
        Verifier(dev.pp.to_dict(), spec, domains, [])
