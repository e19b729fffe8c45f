import copy
import hashlib
import json
import random

import pytest

from helpers import NARROW_DOMAINS, WIDTH12_TEXT, mutate_certificate, scalar_leaves
from tabverify import audit as audit_module, channel, protocol
from tabverify.audit import (
    AuditError,
    ReplayVerifier,
    audit,
    certificate_hash,
    first_difference,
    load_certificate,
    replay,
    save_certificate,
)
from tabverify.channel import canonical_json
from tabverify.circuit import UniversalCircuit
from tabverify.demo import (
    CHAIN_DOMAINS,
    DEMO_DOMAINS,
    DEMO_GRAPH_TEXT,
    DEMO_INPUT,
    DIAMOND_DOMAINS,
    chain_graph,
    diamond_graph,
)
from tabverify.graphtext import parse_graph
from tabverify.commitment import CommitMessage, RevealMessage, gen_code, verify_reveal
from tabverify.protocol import (
    Developer,
    Verifier,
    bits_hex,
    hex_bits,
    session_binding,
    verify_session,
)

DEMO = parse_graph(DEMO_GRAPH_TEXT)
CP = [(DEMO_INPUT, {"w": False, "c": 2})]


def make_cert(mode="honest", strategy=None, dev_seed=1, v_seed=2, graph=DEMO,
              domains=DEMO_DOMAINS, cp=CP):
    dev = Developer(graph, rng=random.Random(dev_seed), strategy=strategy)
    v = Verifier(dev.pp.to_dict(), graph, domains, cp, seed=7, mode=mode,
                 rng=random.Random(v_seed))
    verdict, cert = verify_session(dev, v)
    return verdict, cert


HONEST_VERDICT, HONEST_CERT = make_cert("honest")
GENERAL_VERDICT, GENERAL_CERT = make_cert("general")
FLIP_TAG_VERDICT, FLIP_TAG_CERT = make_cert("general", strategy="flip-tag")


def same_json(a, b):
    """a == b, but strict about list/tuple, bool/int and key types."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return (all(type(k) is str for k in a) and set(a) == set(b)
                and all(same_json(a[k], b[k]) for k in a))
    if type(a) is list:
        return len(a) == len(b) and all(map(same_json, a, b))
    return a == b


# sha256 of each configuration's canonical certificate JSON. Certificates
# for fixed seeds are byte-identical across changes that keep CERT_FORMAT;
# a change that alters one must bump the format and re-record these.
# Recorded at certificate version 8.
CERT_DIGESTS = {
    "demo-honest": "70f58ceb396a33c82eb31cd3e6cf6292642a1aec3de01c6385e6e20b2be95a56",
    "demo-general": "3aa90e148624cf6f9fc561fae9ca28bfb98d14ac571bf7a9cd1ea4e6e11e61b0",
    "chain-honest": "a04aad4a9a694de70265610bfd83aa67814a9de2d2216444659947d4c328500d",
    "chain-general": "3d8cad0bea9246403bebf9565fd678d9f95a4fe9017fceb2793ca13457ef9dbc",
    "diamond-honest": "b43bef21108be6470e9db69215c7b7e879def03bb61c7ede4b020c1e7610b4a0",
    "diamond-general": "926b8d3e3b23ed123b7cc9c5dd883ebf74e31e3bf7a524e3c0d85085cb3d1f0f",
    "flip-payload-honest": "10db3466f4c7df3bb55f8b4839c6c1b0fbd9d8316fa745d14e3c67e76962202e",
    "flip-tag-honest": "c293accaadb970f62a063d89611afefe62d2758be26eaff2c6a1e72841ab9eaf",
    "swap-answers-honest": "d889f3066d8916bfa4c70c63c86d4fe925fa3777f94db5a7af8050d47ee65039",
    "flip-payload-general": "a49d7fdab79c6e0964b40f7db5dc6e96b98d5f18e0ffa9e556bc4582d6ab6de7",
    "flip-tag-general": "90252e9b6e0abfb90cd66c1b6232b45d6ae23665e3360ed14b62ac19cb1ab5c6",
    "swap-answers-general": "a291bb0ecf3a537d38135e9ca0aecff33b6470bd1086c35f283d541aba150e67",
}
# the length of three of them, so that a change of size shows by itself; at
# version 7, with bit strings one character per bit, they were 579,387,
# 733,875 and 958,116 bytes
CERT_BYTES = {"demo-honest": 578463, "diamond-honest": 733575,
              "demo-general": 782992}


@pytest.mark.parametrize("config", list(CERT_DIGESTS))
def test_session_certificate_is_json_native(config):
    # the audit and save_certificate use certificates as handed, with no
    # JSON round trip, so Verifier.run must build them in JSON types
    design, mode = config.rsplit("-", 1)
    if config == "demo-honest":
        cert = HONEST_CERT
    elif config == "demo-general":
        cert = GENERAL_CERT
    elif design == "chain":
        _, cert = make_cert(mode, graph=chain_graph(), domains=CHAIN_DOMAINS,
                            cp=[])
    elif design == "diamond":
        _, cert = make_cert(mode, graph=diamond_graph(),
                            domains=DIAMOND_DOMAINS, cp=[])
    elif config == "flip-tag-general":
        cert = FLIP_TAG_CERT
    else:
        _, cert = make_cert(mode, strategy=design)
    assert same_json(cert, json.loads(canonical_json(cert)))
    text = canonical_json(cert).encode("utf-8")
    assert hashlib.sha256(text).hexdigest() == CERT_DIGESTS[config]
    if config in CERT_BYTES:
        assert len(text) == CERT_BYTES[config]
    # a dict's canonical JSON is its sorted keys, each with its value's
    # canonical JSON: the audit's final compare, field by field, relies on it
    assert "{" + ",".join(f"{json.dumps(k)}:{canonical_json(cert[k])}"
                          for k in sorted(cert)) + "}" == text.decode("utf-8")


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "cert.json"
    digest = save_certificate(HONEST_CERT, path)
    cert = load_certificate(path)
    assert certificate_hash(cert) == digest
    assert canonical_json(cert) == canonical_json(HONEST_CERT)


@pytest.mark.parametrize("mode", ["honest", "general"])
def test_saved_file_is_canonical_json_of_the_document(tmp_path, mode):
    cert = HONEST_CERT if mode == "honest" else GENERAL_CERT
    path = tmp_path / "cert.json"
    digest = save_certificate(cert, path)
    doc = {"certificate": cert, "content_hash": certificate_hash(cert),
           "format": "tabverify-cert-v8"}
    assert digest == doc["content_hash"]
    assert path.read_bytes() == canonical_json(doc).encode("utf-8")


def test_version_7_certificate_is_refused_by_name(tmp_path):
    cert = dict(HONEST_CERT, version=7)
    cert["binding"] = session_binding(cert)
    ok, report = replay(cert)
    assert not ok
    assert report["reason"] == "certificate version 7 is not supported"
    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    path.write_text(path.read_text().replace("tabverify-cert-v8",
                                             "tabverify-cert-v7"))
    with pytest.raises(AuditError, match="unknown certificate format "
                                         "'tabverify-cert-v7'"):
        load_certificate(path)


def test_load_rejects_tampered_file(tmp_path):
    path = tmp_path / "cert.json"
    save_certificate(HONEST_CERT, path)
    blob = path.read_text()
    path.write_text(blob.replace('"accept"', '"reject"', 1))
    with pytest.raises(AuditError):
        load_certificate(path)


def test_load_rejects_a_document_that_is_not_an_object(tmp_path):
    path = tmp_path / "cert.json"
    path.write_text("[]")
    with pytest.raises(AuditError, match="not a JSON object"):
        load_certificate(path)


@pytest.mark.parametrize("cert", [[], "certificate", 7])
def test_certificate_that_is_not_an_object_fails_audit(tmp_path, cert):
    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    loaded = load_certificate(path)
    assert loaded == cert
    ok, report = replay(loaded)
    assert not ok
    assert report["reason"] == "certificate is not a JSON object"
    assert audit(loaded)[0] == 0


def test_honest_certificate_audits_to_one():
    assert HONEST_VERDICT == "accept"
    ok, report = audit(HONEST_CERT)
    assert ok == 1
    assert report["replayed_verdict"] == "accept"


def test_general_certificate_audits_to_one():
    assert GENERAL_VERDICT == "accept"
    ok, report = audit(GENERAL_CERT)
    assert ok == 1
    assert report["coverage"]["covered_ratio"] > 0


@pytest.mark.parametrize("mode", ["honest", "general"])
def test_flipped_mode_fails_audit(mode):
    cert = copy.deepcopy(HONEST_CERT if mode == "honest" else GENERAL_CERT)
    cert["mode"] = "general" if mode == "honest" else "honest"
    ok, report = audit(cert)
    assert ok == 0
    assert report["reason"]


@pytest.mark.parametrize("tamper", ["vga-seed", "public-params-leaf", "no-binding"])
def test_binding_mismatch_rejected_before_replay(tamper):
    cert = copy.deepcopy(GENERAL_CERT)
    if tamper == "vga-seed":
        cert["vga"]["seed"] += 1
    elif tamper == "public-params-leaf":
        key_id = cert["public_params"]["hpk"]["key_id"]
        cert["public_params"]["hpk"]["key_id"] = key_id[::-1]
    else:
        del cert["binding"]
    ok, report = audit(cert)
    assert ok == 0
    assert report["reason"] == "session binding mismatch"


def test_rejecting_certificate_replays_but_scores_zero():
    # a malicious session's certificate is internally consistent, yet its
    # verdict is reject, so the audit outcome is 0
    assert FLIP_TAG_VERDICT == "reject"
    ok_replay, rep = replay(FLIP_TAG_CERT)
    assert ok_replay
    assert rep["replayed_verdict"] == "reject"
    assert audit(FLIP_TAG_CERT)[0] == 0


@pytest.mark.parametrize("verdict", ["accept", "reject"])
def test_audit_leaves_certificate_unchanged(verdict):
    cert = GENERAL_CERT if verdict == "accept" else FLIP_TAG_CERT
    before = canonical_json(cert)
    audit(cert)
    assert canonical_json(cert) == before


def test_final_compare_names_first_differing_path():
    ok, report = replay(dict(HONEST_CERT, verdict="reject"))
    assert not ok
    assert report["reason"] == (
        "rebuilt certificate differs from the stored one at $.verdict")


@pytest.mark.parametrize("k", [0, 5])
def test_unopenable_checker_record_is_named(k):
    # a live round records d only once every block has opened, so a stored
    # d whose blocks no longer open names its record, not $.failures
    for key in ("seed", "exposed", "e"):
        cert = copy.deepcopy(GENERAL_CERT)
        block = cert["qa_c"][k]["s"]["blocks"][0]
        block[key] = f"{int(block[key][0], 16) ^ 1:x}" + block[key][1:]
        ok, report = audit(cert)
        assert ok == 0, key
        assert report["reason"] == f"checker record {k} does not open ($.qa_c[{k}])"


def set_top_bit(text):
    """text with the top bit of its first, most significant, hex digit set."""
    return f"{int(text[0], 16) | 8:x}" + text[1:]


def test_padded_blocks_open_and_their_padding_is_committed():
    # at width 12 the last block of every checker round is padded with
    # zeros; the session accepts and audits, and a padding bit set in a
    # stored opening no longer opens. d of a 6-bit half word is two hex
    # digits, the top two bits padding, and one spelling: setting a padding
    # bit, or upper-casing a digit of a challenge, no longer opens either
    verdict, cert = make_cert("general", graph=parse_graph(WIDTH12_TEXT),
                              domains=NARROW_DOMAINS, cp=[])
    assert verdict == "accept", cert["failures"]
    ok, report = audit(cert)
    assert ok == 1, report
    shapes = {(len(r["a"]["d"]), len(r["s"]["blocks"])) for r in cert["qa_c"]}
    assert shapes == {(3, 2), (2, 1)}  # 12 and 6 bits, in hex digits
    for k in range(len(cert["qa_c"])):
        rec = cert["qa_c"][k]
        # 12 bits: 4 data bits in the last block; 6 bits: 6
        assert int(rec["s"]["blocks"][-1]["data"], 16) < (16 if len(rec["a"]["d"]) == 3
                                                          else 64)
        bad_data, bad_d, bad_r = (copy.deepcopy(cert) for _ in range(3))
        block = bad_data["qa_c"][k]["s"]["blocks"][-1]
        block["data"] = set_top_bit(block["data"])
        if len(rec["a"]["d"]) == 2:
            bad_d["qa_c"][k]["a"]["d"] = set_top_bit(rec["a"]["d"])
        else:
            bad_d = None  # 12 bits are three whole digits
        R = rec["s"]["blocks"][0]["R"]
        i = next(i for i, c in enumerate(R) if c in "abcdef")
        bad_r["qa_c"][k]["s"]["blocks"][0]["R"] = R[:i] + R[i].upper() + R[i + 1:]
        for bad in (bad_data, bad_d, bad_r):
            if bad is not None:
                ok, report = audit(bad)
                assert ok == 0, k
                assert report["reason"] == (f"checker record {k} does not open "
                                            f"($.qa_c[{k}])")


def test_a_changed_challenge_that_still_opens_is_refused():
    # a challenge is 2q bits of weight q; moving one of its ones within a
    # hex digit keeps the weight, and where the PRG stream has equal bits at
    # the two places the commitment still opens under it. The auditor draws
    # the challenges again from the disclosed seed, and refuses it
    code = gen_code()
    for k, rec in enumerate(GENERAL_CERT["qa_c"]):
        block = rec["s"]["blocks"][0]
        R = list(hex_bits(block["R"], 2 * code.q))
        commit = CommitMessage(hex_bits(block["e"], code.q),
                               hex_bits(block["exposed"], code.q))
        reveal = RevealMessage(hex_bits(block["seed"], protocol.SE_KEY_BITS),
                               hex_bits(block["data"], code.m_c))
        moves = [i for i in range(0, len(R), 2) if R[i] != R[i + 1]]
        for i in moves:
            moved = R[:i] + [R[i + 1], R[i]] + R[i + 2:]
            if verify_reveal(commit, reveal, tuple(moved), code):
                break
        else:
            continue
        cert = copy.deepcopy(GENERAL_CERT)
        cert["qa_c"][k]["s"]["blocks"][0]["R"] = bits_hex(moved)
        assert len(cert["qa_c"][k]["s"]["blocks"][0]["R"]) == len(block["R"])
        ok, report = audit(cert)
        assert ok == 0
        assert report["reason"] == f"checker record {k} does not open ($.qa_c[{k}])"
        return
    raise AssertionError("no challenge of the certificate moves and still opens")


def test_first_difference():
    doc = {"b": [1, {"c": "x", "d": []}], "a": True}
    assert first_difference(doc, copy.deepcopy(doc)) == "$"
    assert first_difference(doc, dict(doc, a=1)) == "$.a"
    assert first_difference(doc, dict(doc, b=[1, {"c": "y", "d": []}])) == "$.b[1].c"
    assert first_difference(doc, dict(doc, b=[1, {"c": "x", "d": {}}])) == "$.b[1].d"
    assert first_difference(doc, dict(doc, b=[1, {"c": "x", "d": []}, 2])) == "$.b[2]"
    assert first_difference(doc, {"a": True}) == "$.b[0]"


def test_diamond_session_and_audit_never_build_the_uc_gate_list(monkeypatch):
    # the UC is named by its budget and evaluated by its program; only
    # integer-she, the tests and static counts read its gate list
    def gate_list(u):
        raise AssertionError(f"built the gate list of {u.name}")

    monkeypatch.setattr(UniversalCircuit, "circuit", property(gate_list))
    verdict, cert = make_cert(graph=diamond_graph(), domains=DIAMOND_DOMAINS,
                              cp=[])
    assert verdict == "accept"
    ok, report = audit(cert)
    assert ok == 1, report


def test_mutate_certificate_draws_recorded_leaves():
    # sha256 over the first five mutated documents, recorded at certificate
    # version 8
    for cert, want in (
        (HONEST_CERT, "8da22afa1c640838d827e33c01dfb878673f5669c2bba3fd405c8ca658c41b32"),
        (GENERAL_CERT, "bf62c40b3895de3d07ef17dba0c092f64dfd0b4b4a4af57841c7fd2a55e35739"),
    ):
        rng, leaves = random.Random(42), scalar_leaves(cert)
        h = hashlib.sha256()
        for _ in range(5):
            h.update(canonical_json(mutate_certificate(cert, rng, leaves)).encode())
        assert h.hexdigest() == want


@pytest.mark.parametrize("mode", ["honest", "general"])
def test_mutations_detected(mode):
    cert = HONEST_CERT if mode == "honest" else GENERAL_CERT
    rng = random.Random(42)
    before = canonical_json(cert)
    leaves = scalar_leaves(cert)
    for _ in range(25):
        mutated = mutate_certificate(cert, rng, leaves)
        ok, report = audit(mutated)
        assert ok == 0, report
    # mutated copies share all but one path with cert; audits change none of it
    assert canonical_json(cert) == before


def test_replay_names_the_first_diverging_query():
    cert = copy.deepcopy(HONEST_CERT)
    cert["qa_e"][1]["q"]["i"] = 99
    ok, report = replay(cert)
    assert not ok
    assert report["reason"] == "query 2 diverges from the transcript"


@pytest.mark.parametrize("change, reason", [
    ("drop-last", "checker record missing"),
    ("port", "checker record mismatch"),
    ("repeat-last", "checker records left unconsumed"),
])
def test_checker_record_faults_are_named(change, reason):
    cert = copy.deepcopy(GENERAL_CERT)
    if change == "drop-last":
        cert["qa_c"].pop()
    elif change == "port":
        q = cert["qa_c"][0]["q"]
        assert q["case"] == "input"
        q["port"] += 1
    else:
        cert["qa_c"].append(copy.deepcopy(cert["qa_c"][-1]))
    ok, report = replay(cert)
    assert not ok
    assert report["reason"] == reason


@pytest.mark.parametrize("sk", ["", "0", "x15", "x+0", "x+00", "x+" + "0" * 16])
def test_recorded_session_key_must_have_the_key_size(monkeypatch, sk):
    # the key folds into the block width, so zeros appended to it decrypt
    # alike; the auditor refuses any recorded key of another length before
    # it replays a query. The key is 4 hex digits: x15 is the stored key
    # one digit short, and x+ the stored key with zeros appended
    cert = copy.deepcopy(GENERAL_CERT)
    stored = cert["sk"]
    assert len(stored) == protocol.SE_KEY_BITS // 4
    if sk == "x15":
        sk = stored[:-1]
    elif sk.startswith("x+"):
        sk = stored + sk[2:]
    cert["sk"] = sk

    def no_query(*args):
        raise AssertionError("a query was replayed")

    monkeypatch.setattr(ReplayVerifier, "_ask", no_query)
    ok, report = audit(cert)
    assert ok == 0
    assert report["reason"] == "$.sk: a 16-bit string must be 4 lowercase hex digits"


def test_truncated_transcript_fails():
    cert = copy.deepcopy(HONEST_CERT)
    cert["qa_e"] = cert["qa_e"][:-1]
    ok, report = replay(cert)
    assert not ok


def test_extra_transcript_records_fail():
    cert = copy.deepcopy(HONEST_CERT)
    cert["qa_e"] = cert["qa_e"] + [cert["qa_e"][-1]]
    ok, report = replay(cert)
    assert not ok


@pytest.mark.parametrize("mode", ["honest", "general"])
def test_load_and_audit_serialise_the_certificate_three_times(tmp_path, monkeypatch,
                                                              mode):
    # the load's content hash, the stored certificate and the rebuilt one,
    # each field once; and a binding reject stops after the binding fields
    cert = HONEST_CERT if mode == "honest" else GENERAL_CERT
    whole = len(canonical_json(cert))
    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    dumped = []

    def counting(obj):
        text = canonical_json(obj)
        dumped.append(len(text))
        return text

    for module in (audit_module, channel, protocol):
        monkeypatch.setattr(module, "canonical_json", counting)
    assert audit(load_certificate(path))[0] == 1
    assert 3 * whole <= sum(dumped) < 3.01 * whole
    dumped.clear()
    ok, report = replay(dict(cert, binding="0" * 64))
    assert report["reason"] == "session binding mismatch"
    assert sum(dumped) < whole
