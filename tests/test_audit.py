import copy
import hashlib
import json
import random

import pytest

from helpers import NARROW_DOMAINS, WIDTH12_TEXT, mutate_certificate, scalar_leaves
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
# Recorded at certificate version 6.
CERT_DIGESTS = {
    "demo-honest": "d35903a2228c359bdebf983114daaf9420a30411ecceb124ddff4e38cef85f30",
    "demo-general": "8338bdfc9807575505a0d775f79efa1b26b8b72d6a272f4f9c04957848cd3c07",
    "chain-honest": "056afadcae73e8df3ae2c673e8a6e2b451bee03e02885d5483e6e5f835d937fc",
    "chain-general": "155d4b3135d0e37dd0083ba6dbc3708da2267fd27f368c67580d7ebde4e2e7f0",
    "diamond-honest": "a6fc57e42440f67a03deb03e617a85f7f5549d9f9769fbf40b7beecc109065f5",
    "diamond-general": "c21d42a1978e9a6393fbec5d0016787cfc8471f7efc00c2530d694ee8bca313e",
    "flip-payload-honest": "53c8150e26172ff3967606fabc27264a141473c00cea7921a559dd190185e37a",
    "flip-tag-honest": "41ad2a712ef68a320e8e5e808d8293fe5dd300ab9faa92534d9c9686b872a6a3",
    "swap-answers-honest": "112629c00733046da3f6752a10e9afede63b79aaaad41e127b65178599fe0018",
    "flip-payload-general": "ca9fd1546174bf7bfc37cac98a7ee092d39cef76e2cd58e64cdce65cb84d27d3",
    "flip-tag-general": "a2e1851b5afb4b13038bb0e6bfcff93493d1c2c90512a6565376e31aec6b3163",
    "swap-answers-general": "d6608bb698a95a05d97946c2e2a8113040dc95fc2974bb2198e523371b4aa1b6",
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
           "format": "tabverify-cert-v6"}
    assert digest == doc["content_hash"]
    assert path.read_bytes() == canonical_json(doc).encode("utf-8")


def test_version_5_certificate_is_refused_by_name(tmp_path):
    cert = dict(HONEST_CERT, version=5)
    cert["binding"] = session_binding(cert)
    ok, report = replay(cert)
    assert not ok
    assert report["reason"] == "certificate version 5 is not supported"
    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    path.write_text(path.read_text().replace("tabverify-cert-v6",
                                             "tabverify-cert-v5"))
    with pytest.raises(AuditError, match="unknown certificate format "
                                         "'tabverify-cert-v5'"):
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
    # version 6 with the digests of the full-copy mutate_certificate that
    # drew from the same leaves
    for cert, want in (
        (HONEST_CERT, "13a1f78bdcde5bb269735901df5a4beb0c685d43bfae9d704fc98eba6c306306"),
        (GENERAL_CERT, "2204bd1f81b3273d939d26f3f8b69a321886cf7e8d02b0d78a055a18070dab1d"),
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
