import random

import pytest

from tabverify.audit import (
    AuditError,
    ReplayChannel,
    audit,
    certificate_hash,
    load_certificate,
    mutate_certificate,
    normalize,
    replay,
    save_certificate,
)
from tabverify.channel import canonical_json
from tabverify.demo import DEMO_DOMAINS, DEMO_GRAPH_TEXT, DEMO_INPUT
from tabverify.graphtext import parse_graph
from tabverify.protocol import Developer, Verifier, verify_session

DEMO = parse_graph(DEMO_GRAPH_TEXT)
CP = [(DEMO_INPUT, {"w": False, "c": 2})]


def make_cert(mode="honest", strategy=None, dev_seed=1, v_seed=2):
    dev = Developer(DEMO, rng=random.Random(dev_seed), strategy=strategy)
    v = Verifier(dev.pp.to_dict(), DEMO, DEMO_DOMAINS, CP, seed=7, mode=mode,
                 rng=random.Random(v_seed))
    verdict, cert = verify_session(dev, v)
    return verdict, cert


HONEST_VERDICT, HONEST_CERT = make_cert("honest")
GENERAL_VERDICT, GENERAL_CERT = make_cert("general")


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "cert.json"
    digest = save_certificate(HONEST_CERT, path)
    cert = load_certificate(path)
    assert certificate_hash(cert) == digest
    assert canonical_json(cert) == canonical_json(normalize(HONEST_CERT))


def test_load_rejects_tampered_file(tmp_path):
    path = tmp_path / "cert.json"
    save_certificate(HONEST_CERT, path)
    blob = path.read_text()
    path.write_text(blob.replace('"accept"', '"reject"', 1))
    with pytest.raises(AuditError):
        load_certificate(path)


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
    cert = normalize(HONEST_CERT if mode == "honest" else GENERAL_CERT)
    cert["mode"] = "general" if mode == "honest" else "honest"
    ok, report = audit(cert)
    assert ok == 0
    assert report["reason"]


@pytest.mark.parametrize("tamper", ["vga-seed", "public-params-leaf", "no-binding"])
def test_binding_mismatch_rejected_before_replay(tamper):
    cert = normalize(GENERAL_CERT)
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
    verdict, cert = make_cert("general", strategy="flip-tag")
    assert verdict == "reject"
    ok_replay, rep = replay(cert)
    assert ok_replay
    assert rep["replayed_verdict"] == "reject"
    assert audit(cert)[0] == 0


@pytest.mark.parametrize("mode", ["honest", "general"])
def test_mutations_detected(mode):
    cert = HONEST_CERT if mode == "honest" else GENERAL_CERT
    rng = random.Random(42)
    for _ in range(25):
        mutated = mutate_certificate(cert, rng)
        ok, report = audit(mutated)
        assert ok == 0, report


def test_replay_channel_strictness():
    qa_e = normalize(HONEST_CERT)["qa_e"]
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
    cert = normalize(HONEST_CERT)
    cert["qa_e"] = cert["qa_e"][:-1]
    ok, report = replay(cert)
    assert not ok


def test_extra_transcript_records_fail():
    cert = normalize(HONEST_CERT)
    cert["qa_e"] = cert["qa_e"] + [cert["qa_e"][-1]]
    ok, report = replay(cert)
    assert not ok
