import copy
import hashlib
import json
import random

import pytest

from helpers import mutate_certificate
from tabverify.audit import (
    AuditError,
    ReplayChannel,
    audit,
    certificate_hash,
    first_difference,
    load_certificate,
    replay,
    save_certificate,
)
from tabverify.channel import canonical_json
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
from tabverify.protocol import Developer, Verifier, verify_session

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
CERT_DIGESTS = {
    "demo-honest": "9f5445e121595f602fab40a02f2c0c87738bc92632172a66a8a5244c537a7b29",
    "demo-general": "6f6b404155934712d3618ee96a6651cb312af5b744752753d2332b57e06de34d",
    "chain-honest": "5d3fe35b9a7e45064f5b0d4a854beaf2a1a691980ed80a341300e318601acf78",
    "chain-general": "12d517c0d19d0f77b05071175f01901222893b2f1b90e9cdebcce2ceb3655a83",
    "diamond-honest": "a45464dbd71583993c1d21382091577ea1b5b91f60c6ac3cbc495d52dee271ba",
    "diamond-general": "c3ad83ba1a9f015cea17da34c8998664dac6652a69df444a4d2e1f8893fae465",
    "flip-payload-honest": "0ef5e7c4c60bbe0a0a71ab40e43b05f79e2470a29204300f32b6568da6783afa",
    "flip-tag-honest": "f820d5e5d650b70bc3ae2750ae4f0b9c65755eb923f1afd6879c89ef989bef5f",
    "swap-answers-honest": "cb5ac2f3b07eb88bdcbebc529c89af8f3ddfd3ca49d2ab9257d6752d83b8d50a",
    "flip-payload-general": "cf47c6031facfc2642bae42a6fdb68e31213db8a09092a15a82b51fddf35c981",
    "flip-tag-general": "7164d9613d4fbad8ae572dbc121e154ed45a763ee30b52ce6e80d59c6015ef89",
    "swap-answers-general": "481a581c9c6140a36c0b8de34fdd54a1d0455648d0ad91c662bc6c32e0d947db",
}


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
           "format": "tabverify-cert-v1"}
    assert digest == doc["content_hash"]
    assert path.read_bytes() == canonical_json(doc).encode("utf-8")


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
        cert["public_params"]["code_params"]["seed"] += 1
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
    cert = copy.deepcopy(GENERAL_CERT)
    block = cert["qa_c"][k]["s"]["blocks"][0]
    block["seed"] = str(1 - int(block["seed"][0])) + block["seed"][1:]
    ok, report = audit(cert)
    assert ok == 0
    assert report["reason"] == f"checker record {k} does not open ($.qa_c[{k}])"


def test_first_difference():
    doc = {"b": [1, {"c": "x", "d": []}], "a": True}
    assert first_difference(doc, copy.deepcopy(doc)) == "$"
    assert first_difference(doc, dict(doc, a=1)) == "$.a"
    assert first_difference(doc, dict(doc, b=[1, {"c": "y", "d": []}])) == "$.b[1].c"
    assert first_difference(doc, dict(doc, b=[1, {"c": "x", "d": {}}])) == "$.b[1].d"
    assert first_difference(doc, dict(doc, b=[1, {"c": "x", "d": []}, 2])) == "$.b[2]"
    assert first_difference(doc, {"a": True}) == "$.b[0]"


def test_mutate_certificate_draws_recorded_leaves():
    # sha256 over the first five mutated documents, recorded when
    # mutate_certificate still worked on a full JSON copy of the certificate
    for cert, want in (
        (HONEST_CERT, "19f9dd71db0ee3d339e89af77b80ab7d027a11c3c7404df44d84ecf3b8f17347"),
        (GENERAL_CERT, "e479fd762e4f5df03fc555816615b030bbcd71a89b5d109a6bae1ff3d51fc43a"),
    ):
        rng = random.Random(42)
        h = hashlib.sha256()
        for _ in range(5):
            h.update(canonical_json(mutate_certificate(cert, rng)).encode())
        assert h.hexdigest() == want


@pytest.mark.parametrize("mode", ["honest", "general"])
def test_mutations_detected(mode):
    cert = HONEST_CERT if mode == "honest" else GENERAL_CERT
    rng = random.Random(42)
    before = canonical_json(cert)
    for _ in range(25):
        mutated = mutate_certificate(cert, rng)
        ok, report = audit(mutated)
        assert ok == 0, report
    # mutated copies share all but one path with cert; audits change none of it
    assert canonical_json(cert) == before


def test_replay_channel_strictness():
    qa_e = copy.deepcopy(HONEST_CERT["qa_e"])
    chan = ReplayChannel(qa_e)
    from tabverify.channel import make_frame

    with pytest.raises(AuditError, match="unexpected frame type"):
        chan.send(make_frame("hello", {}))
    chan.send(make_frame("encode", qa_e[0]["q"]))
    assert chan.recv()["body"] == {"answer": qa_e[0]["a"]}
    wrong = dict(qa_e[1]["q"])
    wrong["i"] = 99
    with pytest.raises(AuditError):
        chan.send(make_frame("encode", wrong))


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
