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
from tabverify.protocol import Developer, Verifier, session_binding, verify_session

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
# Recorded at certificate version 7.
CERT_DIGESTS = {
    "demo-honest": "da625cc45ad8b022a796b1d238fa5100cf1bb0b7f37d1b41b1acbfd900110b56",
    "demo-general": "dfa72bc8495d25e6933c32bd32cbfe9c198a24f03a8d3cdc29a9faaaad174059",
    "chain-honest": "48367f27a43d2aab86c79c2b569e4540760614a78f3d86df874ed1d6267ff3fd",
    "chain-general": "cc4d035374725231ca3cc2eb09dc05af6e0d811fbf28bd90f44008065f313e90",
    "diamond-honest": "3bcc524fdd68e25c81f0ab6eb06302c8df0cab9edcaf3ff086187618fb44a7f9",
    "diamond-general": "712445055d1d09b72d1edb0fda8dc244cff9e7b2ed9fef6202ef4f0170468483",
    "flip-payload-honest": "b7aaa97f8adba8551b5a4433145aca686bd6ef81e58d5b70a140adb54046cc24",
    "flip-tag-honest": "a353c9c20345b17e00333887d1bdc08dd56899638553d7ba188b4dbd320861af",
    "swap-answers-honest": "e5474fdc1bb0bc7e2d2a95fbc395b7fc3ca018f73fd24aa020358c7b38236090",
    "flip-payload-general": "2936a54b44a504b499fa2abce87427171981784b3c0175788e73db774dfa9184",
    "flip-tag-general": "6fc6aa4b370a0818570d2f5728d43c8d8926bbfed69ac6e783caa48a73142351",
    "swap-answers-general": "84915f6f4cf2d6c6a410b993dbd2b0ebb4b27796e02e9a2fe89b75ba0bd7b06c",
}
# the length of three of them, so that a change of size shows by itself; at
# version 6, with the tag and key id in every ciphertext, they were 778,755,
# 991,587 and 1,196,208 bytes
CERT_BYTES = {"demo-honest": 579387, "diamond-honest": 733875,
              "demo-general": 958116}


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
           "format": "tabverify-cert-v7"}
    assert digest == doc["content_hash"]
    assert path.read_bytes() == canonical_json(doc).encode("utf-8")


def test_version_6_certificate_is_refused_by_name(tmp_path):
    cert = dict(HONEST_CERT, version=6)
    cert["binding"] = session_binding(cert)
    ok, report = replay(cert)
    assert not ok
    assert report["reason"] == "certificate version 6 is not supported"
    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    path.write_text(path.read_text().replace("tabverify-cert-v7",
                                             "tabverify-cert-v6"))
    with pytest.raises(AuditError, match="unknown certificate format "
                                         "'tabverify-cert-v6'"):
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
        block[key] = str(1 - int(block[key][0])) + block[key][1:]
        ok, report = audit(cert)
        assert ok == 0, key
        assert report["reason"] == f"checker record {k} does not open ($.qa_c[{k}])"


def test_padded_blocks_open_and_their_padding_is_committed():
    # at width 12 the last block of every checker round is padded with
    # zeros; the session accepts and audits, and a padding bit flipped in
    # a stored opening no longer opens
    verdict, cert = make_cert("general", graph=parse_graph(WIDTH12_TEXT),
                              domains=NARROW_DOMAINS, cp=[])
    assert verdict == "accept", cert["failures"]
    ok, report = audit(cert)
    assert ok == 1, report
    shapes = {(len(r["a"]["d"]), len(r["s"]["blocks"])) for r in cert["qa_c"]}
    assert shapes == {(12, 2), (6, 1)}
    for k in range(len(cert["qa_c"])):
        bad = copy.deepcopy(cert)
        block = bad["qa_c"][k]["s"]["blocks"][-1]
        assert block["data"][-1] == "0"  # padding
        block["data"] = block["data"][:-1] + "1"
        ok, report = audit(bad)
        assert ok == 0, k
        assert report["reason"] == f"checker record {k} does not open ($.qa_c[{k}])"


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
    # version 7 with the digests of the full-copy mutate_certificate that
    # drew from the same leaves
    for cert, want in (
        (HONEST_CERT, "1c69a4ffdcb449d695de920918b4c9634023dc6b5fc8ea38b74e5b0be9d95abb"),
        (GENERAL_CERT, "a9a10d6d0b468e60948278b90c34f3f920f0c2d24b61d4f269b68de9ed51675d"),
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
    # it replays a query
    cert = copy.deepcopy(GENERAL_CERT)
    stored = cert["sk"]
    assert len(stored) == protocol.SE_KEY_BITS
    if sk == "x15":
        sk = stored[:15]
    elif sk.startswith("x+"):
        sk = stored + sk[2:]
    cert["sk"] = sk

    def no_query(*args):
        raise AssertionError("a query was replayed")

    monkeypatch.setattr(ReplayVerifier, "_ask", no_query)
    ok, report = audit(cert)
    assert ok == 0
    assert report["reason"] == (f"the session key at $.sk has {len(sk)} bits, "
                                f"not {protocol.SE_KEY_BITS}")


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
