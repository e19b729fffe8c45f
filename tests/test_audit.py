import copy
import hashlib
import json
import random

import pytest

from helpers import NARROW_DOMAINS, WIDTH12_TEXT, mutate_certificate, scalar_leaves
from tabverify import audit as audit_module, channel, he, protocol
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
from tabverify.circuit import Builder, UniversalCircuit
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
from tabverify.expr import Binary, Const, Ref, Unary
from tabverify.tables import Table, TableGraph, bits_uint, int_to_bits
from tabverify.vga import coverage_report
from tabverify.commitment import PROTOCOL_CODE, challenge, commit_bits, verify_reveal
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
# for fixed seeds are byte-identical across changes that keep CERT_FORMAT
# and the developer's compiler; a change to the format must bump it, and
# either change re-records these. Recorded at certificate version 20, with
# the compiler that drops dead gates, reads through NOT gates and makes a
# gate that reads x and a gate of x one gate.
CERT_DIGESTS = {
    "demo-honest": "2fb2097fc975c091e5ab892ee202868638a1df6c035ed4f128bb71dd4bfbe610",
    "demo-general": "6e20fa445ebe5785f4dd65025fb9839d2c994667acdda28b42f75f2ad0f7ecb6",
    "chain-honest": "d95f8cd9aeba44b0920b28f67fb1b6c8bc614965ef3d270528823569c9ca2d22",
    "chain-general": "b26681ecbf398ec78499908d3ac0b7f8e2f1be38d123453e6abd3fb9d0c0f578",
    "diamond-honest": "ef4169dda2ccae1b2e99e62b507ee3ae0f6e8610d41f2a00968eeb9fd370ecc6",
    "diamond-general": "d2824ecfbbebc2a1030ab56890fc38c72e5648aec14bac5a63d5fc3d94f86f9c",
    "flip-payload-honest": "c8a8de2fe0455732a1840fb56113d566e65f1df5c7ed5f7ff337d1359b7f13a3",
    "flip-tag-honest": "8eebd1d2f2d6fc7a1881d2fe037559ccf0bc184c023d1ddb06ca1bcda6d8b0cf",
    "swap-answers-honest": "1a578e1084da3b7dbfa2aae054ad1ac4f4901b20526328819587ea0ec10d0438",
    "flip-payload-general": "9568d02bd22349977f07729a3c35e26d698bbfcec82135c0b9c86990318cc3c3",
    "flip-tag-general": "15a7464b2c9f7ebfd68f3d5f53ad726bf71a036accb13e417e537a04f33a5919",
    "swap-answers-general": "a9929e425193d4216be561970f93d088a1097c440d2968c04e4a065e976636e0",
}
# the sha256 of each configuration's certificate at version 19. Version 20
# records a checker round as one commitment, {d, e, exposed, seed}, or null,
# where version 19 recorded {d, blocks: [{e, exposed, seed}]}, or {d: null,
# blocks: []}; every round of these designs is one block, so the values are
# those of version 19
V19_DIGESTS = {
    "demo-honest": "553e8f781a1fb040374713758ce54f02d5d9da9e4f6075c5ac2b41700a86560b",
    "demo-general": "875b2ea3aee69beed723aa06e02461a66e8ea6d7f8dcc2512c4c6da2f456d395",
    "chain-honest": "35ab13d555210fd873cedaad6ffb7ef1e67a278b2c2dbaaba5e433933943ea6f",
    "chain-general": "c84ff13ad3a7539903b2e3c02a49003df7a23bad7ad1bec6957c5d0feaf4d81b",
    "diamond-honest": "e6360d03158702c225bb50601d35d4794d1960255f5dcbfa43147e6954a02c09",
    "diamond-general": "3bca39f551b4d6083c838d5fc7e33264382d2516dde6dd5b6d9e344e4f0f355d",
    "flip-payload-honest": "d050deef4338cca9db3726de3cd114e9ab53128796dab029cf92ad31c92880c2",
    "flip-tag-honest": "dd2507ea910f44607ba43d070945eaf4f05967406875f4862f97b92fc8b135a8",
    "swap-answers-honest": "97771e3fdb641a5a40b263b1f17e2435c75a0468d103710e939477b6cc5446fe",
    "flip-payload-general": "0e097ed84f524ffdf41326d9b43e80ffc662892f27645632dfa67dbbb931f1bd",
    "flip-tag-general": "d5a15ff6c1f8ea60332dcbb83915261cf54a31bb5536fd641c2dedb6c39ab92e",
    "swap-answers-general": "a10c3003c8cca1f801fa1a1eeea4d11d6f90e50e801c88c05302d1983063ef1c",
}
# the sha256 of the certificate at version 18 of each configuration whose
# answers version 19 did not move. Version 19 sends a q2 without its u and
# still records it, so these are its certificates once their version is 18
V18_DIGESTS = {
    "demo-honest": "e48e7de40ef9c36e8eea51331df1a57c15722b470663eedc7c934c2cb39f0b82",
    "demo-general": "efa5e427e610be2c41b7e8cdb0b3b9ac54ddc1d3bcba60245ba9b0ac60c84de9",
    "chain-honest": "a32f38c0a5e50be5ddcda13d009c48013e82e48844d915afdacae09a14c5a22b",
    "chain-general": "de84f93f1a1d3d05a546e6855afaeb2a4e0b4eac7af6a0f94988ef8bc3a0a4fa",
    "diamond-honest": "5befa0d45ef03f331e6679055bfbd2c0b6d6b0c860b9a9fef07f53b4706c4fde",
    "diamond-general": "b2646c046a8cc0dc3092791e0dc53d19b297f142e09f3b545583a4190766f8e3",
    "flip-payload-honest": "8e71d92dd29f31a7861a2f3690faf0bae5a4029d4dc7503e44c5d6065a00a65f",
    "flip-payload-general": "f9166ae83827ba942170c293640a9f3ac62413cc17b1b04d01ab0fde08e15308",
}
# the outcomes of the scripted tag liars, which version 19 moved: the
# digest V14_OUTCOMES takes, then the coverage. Where a liar's answered tags
# point the verifier at a feed that did not fire, the version 18 developer
# refused the verifier's u as null; a version 19 developer joins its own
# words by its true tags, and answers. In general mode its checker round
# then fails, and a round whose proof the developer refuses records no block
V19_OUTCOMES = {
    "flip-tag-honest": ("2c0005409d1ec0c07736ac618a376ca308de2485b557d5b46904db4f99457d1f",
                        (1.0, 0.5, [])),
    "swap-answers-honest": ("5323d31ac8c435d5a44600a03955ac5ef826b826225747797684482b433b5d4a",
                            (0.75, 1.0, [])),
    "flip-tag-general": ("f4e710a4aab191e06210774f3c57b39353f23b26ffeeeacc856d02480f2765ad",
                         (1.0, 0.5, [])),
    "swap-answers-general": ("d08e5febbf1fce71980fdd01fa25eedff305592539bcfaf39d4d95c2487c99ca",
                             (0.75, 1.0, [])),
}
# the sha256 of each honest configuration's certificate at version 17.
# Version 18 changed only the checker rounds, which honest mode does not
# run, so its honest certificates are these once their version is 17 again
V17_HONEST_DIGESTS = {
    "demo-honest": "8c66c3ae3c9d06bb7924d0c5a494f62e1191f61c7d743ecdd03bf1563fe2a51f",
    "chain-honest": "2f17e62154074ed5780722adde3d30d97ab7e82f18066ed9f05d4c381ddb4132",
    "diamond-honest": "a16ba6dda22be401cc0e668632f660f7f85e6ad2c89691451af0917c85b2b4ab",
    "flip-payload-honest": "aeb92de81763930a2bcd3688e49848f82b93fb75dc9365bb76b94c30b552f660",
    "flip-tag-honest": "f24da3fe86af075c9ebba76f2699e754ff0da5fdaee8577998c221cce6fd4972",
    "swap-answers-honest": "b65607ad379fff08bccc5a9713cc259a6f24dc99acc4bf803363168dc94ef0cc",
}
# the sha256 of each design's outcomes, the canonical JSON of a
# certificate's verdict, outputs, mismatches and cp_results, as version 13
# recorded them, in both modes alike. Version 14 asks one q1 per external
# input and tested input, and its checker frames name no query, so its
# sessions ask other queries and draw other nonces, and no rewrite of a
# version 14 certificate gives a version 13 one; what they must keep is
# the outcome of every session
V13_OUTCOMES = {
    "demo": "372f2f24b60da6972a34a2af2e2532f113b1a4931da458d0a92b117c5020074e",
    "chain": "ed35dfe46d17efa7f73b507e9bd45f0468370ab2031481ffe6384059740cfe4c",
    "diamond": "1a616e44d12a440a78afc4be817462c843045602c97f6102790b6c140e38b543",
    "flip-payload": "c41f2bbfb17064c78ae1afd03f505c478e2b467a4297ca8e85b01c113aba9a73",
    "flip-tag": "3b766be196cd65d2f3d34eab4a82445e27fec155d1934b2197897320642b4f22",
    "swap-answers": "46b8454dbc51052d56cf740213a9256ddd379ea53d7621b3e643ed032aadb84a",
}
# the same for version 14, with failures too, over all twelve
# configurations: version 15 spells the structure, the programs, a q1 and
# a checker reply anew, and keys outputs by the canonical JSON of each
# tested input where version 14 wrote it with spaces, so the outputs are
# compared by parsed key
V14_OUTCOMES = {
    "demo-honest": "77849f94f05b8e4fdd09181d8c991858bb3388a9e7a425c0e5b0ec7313212797",
    "demo-general": "77849f94f05b8e4fdd09181d8c991858bb3388a9e7a425c0e5b0ec7313212797",
    "chain-honest": "61438882f4ae96b9dc5c726c9dd8234f9405870222ba388fed143f980581db5a",
    "chain-general": "61438882f4ae96b9dc5c726c9dd8234f9405870222ba388fed143f980581db5a",
    "diamond-honest": "41984fa4e640fc874390021e3143bf76ce00ba750bc95d3822b4911c29ad7696",
    "diamond-general": "41984fa4e640fc874390021e3143bf76ce00ba750bc95d3822b4911c29ad7696",
    "flip-payload-honest": "758001e4d9853bab5243b2585cf7fea9d4eb72904b80dc333b1a1f28d15598c4",
    "flip-tag-honest": "2decc21439d3e281228644ef91c81fbe8a6c93193f2823143486c7d43458a560",
    "swap-answers-honest": "8048e8fbcc76eedc75bc4c93c1fb1d5e099bea0c8af2691b6031de7896bd1d7e",
    "flip-payload-general": "09ab6de9d3fd62f1f66c8289d05dc1ddde91bb13a0ca3ac8cb42b20038c79155",
    "flip-tag-general": "19cfa5ad6a42dd5bd63d6e094b53de7b8b71ccb2df5ecf3f9c64269069229074",
    "swap-answers-general": "4dfdcb576d216c2bee854284cb65fb1e913b85bc494a5411af528dfbe80b8709",
}
# the length of three of them, so that a change of size shows by itself; at
# version 8, with 24-byte nonces, a recorded key and recorded challenges,
# they were 578,463, 733,575 and 782,992 bytes, at version 9 one byte
# shorter than at version 10, at version 10, with the paths, 398,248,
# 502,296 and 535,064, at version 11 demo-general, with each checker
# record's query, was 534,998, at version 12, with K, each q2's v and
# each block's data, they were 398,182, 502,158 and 448,362, and at
# version 13, with one q1 per table port, 364,471, 471,511 and 411,483;
# at version 14, before the compiler dropped dead gates and read through
# NOT gates, they were 344,869, 467,041 and 376,393, and after it, with
# tagged refs, table indices and programs keyed by index, 240,421,
# 297,312 and 271,945; at version 15, with answer kinds, 239,980,
# 296,850 and 271,504; at version 16, with two 8-bit commitment blocks
# to a 16-bit checker slice, demo-general was 269,920; at version 19,
# before the compiler made a gate that reads x and a gate of x one gate
# (demo programs of 1,048 bits, now 688), they were 238,396, 295,730 and
# 259,096: the diamond's programs kept their length; and after it, with a
# list of commitment blocks in each checker record, demo-general was 193,816
CERT_BYTES = {"demo-honest": 173116, "diamond-honest": 295730,
              "demo-general": 192386}


def build_config_cert(config):
    """The certificate of one of CERT_DIGESTS' configurations, built anew."""
    design, mode = config.rsplit("-", 1)
    if design == "chain":
        _, cert = make_cert(mode, graph=chain_graph(), domains=CHAIN_DOMAINS,
                            cp=[])
    elif design == "diamond":
        _, cert = make_cert(mode, graph=diamond_graph(),
                            domains=DIAMOND_DOMAINS, cp=[])
    else:
        _, cert = make_cert(mode, strategy=None if design == "demo" else design)
    return cert


def config_cert(config):
    """The certificate of one of CERT_DIGESTS' configurations."""
    built = {"demo-honest": HONEST_CERT, "demo-general": GENERAL_CERT,
             "flip-tag-general": FLIP_TAG_CERT}
    return built[config] if config in built else build_config_cert(config)


def uncomposed_cert(config, monkeypatch):
    """The certificate of config from the compiler that made a gate of x
    and a gate that reads x two gates, as versions 17 and 18 had it: the
    Builder without _absorb, which V17_HONEST_DIGESTS and V18_DIGESTS were
    recorded with."""
    monkeypatch.setattr(Builder, "_absorb", Builder._raw)
    return build_config_cert(config)


@pytest.mark.parametrize("config", list(CERT_DIGESTS))
def test_session_certificate_is_json_native(config):
    # the audit and save_certificate use certificates as handed, with no
    # JSON round trip, so Verifier.run must build them in JSON types
    cert = config_cert(config)
    assert same_json(cert, json.loads(canonical_json(cert)))
    text = canonical_json(cert).encode("utf-8")
    assert hashlib.sha256(text).hexdigest() == CERT_DIGESTS[config]
    if config in CERT_BYTES:
        assert len(text) == CERT_BYTES[config]
    # a dict's canonical JSON is its sorted keys, each with its value's
    # canonical JSON: the audit's final compare, field by field, relies on it
    assert "{" + ",".join(f"{json.dumps(k)}:{canonical_json(cert[k])}"
                          for k in sorted(cert)) + "}" == text.decode("utf-8")


def outcomes_digest(cert, fields, spell):
    """The sha256 of the canonical JSON of cert's fields, with the outputs
    keyed by each tested input as spell writes it."""
    outcomes = {k: cert[k] for k in fields}
    outcomes["outputs"] = {spell(json.loads(k)): v for k, v in cert["outputs"].items()}
    return hashlib.sha256(canonical_json(outcomes).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("config", list(CERT_DIGESTS))
def test_version_14_kept_the_outcomes_of_version_13(config):
    # versions 13 and 14 keyed the outputs by json.dumps of each tested input
    digest = outcomes_digest(config_cert(config),
                             ("verdict", "outputs", "mismatches", "cp_results"),
                             lambda X: json.dumps(X, sort_keys=True))
    # version 19 moved these of swap-answers alone (V19_OUTCOMES)
    design = config.rsplit("-", 1)[0]
    assert (digest == V13_OUTCOMES[design]) == (design != "swap-answers")


@pytest.mark.parametrize("config", list(CERT_DIGESTS))
def test_version_15_kept_the_outcomes_of_version_14(config):
    cert = config_cert(config)
    assert all(k == canonical_json(json.loads(k)) for k in cert["outputs"])
    digest = outcomes_digest(cert, ("verdict", "outputs", "failures", "mismatches",
                                    "cp_results"), canonical_json)
    assert (digest == V14_OUTCOMES[config]) == (config not in V19_OUTCOMES)


# (covered_ratio, anti_covered_ratio, unreached) of each design's
# certificate, in both modes alike, as version 15 read them from its
# answer kinds; version 16 reads a q2's tag from its answer value
COVERAGE = {
    "demo": (1.0, 1.0, []),
    "chain": (5 / 6, 5 / 6, []),
    "diamond": (1.0, 1.0, []),
    "flip-payload": (1.0, 1.0, []),
    "flip-tag": (0.75, 0.5, [7, 8]),
    "swap-answers": (0.75, 0.75, [7]),
}


def coverage(cert):
    """(covered_ratio, anti_covered_ratio, unreached) of cert."""
    structure = protocol.PublicParams.from_dict(cert["public_params"]).structure
    summary = coverage_report(cert["qa_e"], structure).summary()
    return summary["covered_ratio"], summary["anti_covered_ratio"], summary["unreached"]


@pytest.mark.parametrize("config", list(CERT_DIGESTS))
def test_version_16_kept_the_coverage_of_version_15(config):
    # version 19 moved the coverage of the tag liars (V19_OUTCOMES)
    kept = coverage(config_cert(config)) == COVERAGE[config.rsplit("-", 1)[0]]
    assert kept == (config not in V19_OUTCOMES)


def rebound_digest(cert, version):
    """The sha256 of cert with its version set, and its binding rebound."""
    cert = dict(cert, version=version)
    cert["binding"] = session_binding(cert)
    return hashlib.sha256(canonical_json(cert).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("config", list(V17_HONEST_DIGESTS))
def test_version_18_kept_the_honest_certificates_of_version_17(config, monkeypatch):
    cert = uncomposed_cert(config, monkeypatch)
    kept = rebound_digest(cert, 17) == V17_HONEST_DIGESTS[config]
    assert kept == (config not in V19_OUTCOMES)


def as_version_19(cert):
    """cert with its checker records as version 19 wrote them: a round that
    opened as {d, blocks: [{e, exposed, seed}]}, and null as {d: null,
    blocks: []}."""
    if "qa_c" not in cert:
        return cert
    return dict(cert, qa_c=[
        {"d": None, "blocks": []} if rec is None
        else {"d": rec["d"], "blocks": [{k: rec[k] for k in ("e", "exposed", "seed")}]}
        for rec in cert["qa_c"]])


@pytest.mark.parametrize("config", [c for c in CERT_DIGESTS if c.endswith("-general")])
def test_version_17_commits_one_block_per_checker_round(config):
    # a 16-bit slice and an 8-bit tag half are each one block of the
    # protocol's 16-bit code, where version 16 committed a slice as two: a
    # round that opens records one commitment of q bits, and one that does
    # not records null
    q_digits = PROTOCOL_CODE.q // 4
    for rec in config_cert(config)["qa_c"]:
        assert rec is None or (set(rec) == {"d", "e", "exposed", "seed"}
                               and len(rec["e"]) == len(rec["exposed"]) == q_digits)


@pytest.mark.parametrize("config", list(V18_DIGESTS))
def test_version_19_kept_the_certificates_of_version_18(config, monkeypatch):
    cert = as_version_19(uncomposed_cert(config, monkeypatch))
    assert rebound_digest(cert, 18) == V18_DIGESTS[config]


@pytest.mark.parametrize("config", list(V19_DIGESTS))
def test_version_20_kept_the_certificates_of_version_19(config):
    cert = as_version_19(config_cert(config))
    assert rebound_digest(cert, 19) == V19_DIGESTS[config]


@pytest.mark.parametrize("config", list(V19_OUTCOMES))
def test_version_19_moved_the_tag_liars_outcomes(config):
    cert = config_cert(config)
    digest = outcomes_digest(cert, ("verdict", "outputs", "failures", "mismatches",
                                    "cp_results"), canonical_json)
    assert (digest, coverage(cert)) == V19_OUTCOMES[config]
    assert cert["verdict"] == "reject" and audit(cert)[0] == 0
    if config.endswith("-general"):
        assert None in cert["qa_c"]


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
           "format": "tabverify-cert-v20"}
    assert digest == doc["content_hash"]
    assert path.read_bytes() == canonical_json(doc).encode("utf-8")


def test_version_8_certificate_is_refused_by_name(tmp_path):
    assert audit_module.CERT_FORMAT == f"tabverify-cert-v{protocol.CERT_VERSION}"
    cert = dict(HONEST_CERT, version=8)
    cert["binding"] = session_binding(cert)
    ok, report = replay(cert)
    assert not ok
    assert report["reason"] == "certificate version 8 is not supported"
    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    path.write_text(path.read_text().replace("tabverify-cert-v20",
                                             "tabverify-cert-v8"))
    with pytest.raises(AuditError, match="unknown certificate format "
                                         "'tabverify-cert-v8'"):
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
    # a live round records its opening only once it has opened, so a
    # stored one that no longer opens names its record, not $.failures
    for key in ("seed", "exposed", "e"):
        cert = copy.deepcopy(GENERAL_CERT)
        rec = cert["qa_c"][k]
        rec[key] = f"{int(rec[key][0], 16) ^ 1:x}" + rec[key][1:]
        ok, report = audit(cert)
        assert ok == 0, key
        assert report["reason"] == f"checker record {k} does not open ($.qa_c[{k}])"


def set_top_bit(text):
    """text with the top bit of its first, most significant, hex digit set."""
    return f"{int(text[0], 16) | 8:x}" + text[1:]


def test_padded_blocks_open_and_their_padding_is_committed():
    # at width 12 the one block of every checker round is padded with
    # zeros; the session accepts and audits. A round reveals only its seed,
    # and its data is d, so the padding is committed through d: d of a
    # 6-bit half word is two hex digits, the top two bits padding, and one
    # spelling. Setting a padding bit of d, or upper-casing a digit of the
    # exposed bits, no longer opens
    verdict, cert = make_cert("general", graph=parse_graph(WIDTH12_TEXT),
                              domains=NARROW_DOMAINS, cp=[])
    assert verdict == "accept", cert["failures"]
    ok, report = audit(cert)
    assert ok == 1, report
    q_digits = PROTOCOL_CODE.q // 4  # one block, in hex digits
    shapes = {(len(r["d"]), len(r["e"]), len(r["exposed"])) for r in cert["qa_c"]}
    assert shapes == {(3, q_digits, q_digits), (2, q_digits, q_digits)}  # 12 and 6 bits
    for k, rec in enumerate(cert["qa_c"]):
        assert set(rec) == {"d", "e", "exposed", "seed"}
        bad_d, bad_x = (copy.deepcopy(cert) for _ in range(2))
        if len(rec["d"]) == 2:
            bad_d["qa_c"][k]["d"] = set_top_bit(rec["d"])
        else:
            bad_d = None  # 12 bits are three whole digits
        x = rec["exposed"]
        i = next(i for i, c in enumerate(x) if c in "abcdef")
        bad_x["qa_c"][k]["exposed"] = x[:i] + x[i].upper() + x[i + 1:]
        for bad in (bad_d, bad_x):
            if bad is not None:
                ok, report = audit(bad)
                assert ok == 0, k
                assert report["reason"] == (f"checker record {k} does not open "
                                            f"($.qa_c[{k}])")


def drawn_challenges(cert):
    """Each checker record's challenge, drawn again from the certificate's
    challenge seed as the verifier draws it, for the width its d spells."""
    stream = random.Random(hex_bits(cert["challenge_seed"], 128))
    return [challenge(4 * len(rec["d"]), stream) for rec in cert["qa_c"]]


def test_a_changed_challenge_that_still_opens_is_refused():
    # a challenge is 2q bits of weight q per block; moving one of its ones
    # within a hex digit keeps the weight, and where the PRG stream has
    # equal bits at the two places the commitment still opens under it. The
    # certificate records no challenge: each round opens under the one drawn
    # again from the disclosed seed, and a record that carries a challenge
    # of its own, even one that still opens, is refused
    for k, (rec, R) in enumerate(zip(GENERAL_CERT["qa_c"], drawn_challenges(GENERAL_CERT))):
        assert "R" not in rec
        width = 4 * len(rec["d"])
        n = commit_bits(width)
        commit = (hex_bits(rec["e"], n), hex_bits(rec["exposed"], n),
                  hex_bits(rec["d"], width), width)
        seed = hex_bits(rec["seed"], protocol.COMMIT_SEED_BITS)
        assert verify_reveal(*commit, R, seed)
        bits = list(int_to_bits(R, 2 * n))
        moves = [i for i in range(0, len(bits), 2) if bits[i] != bits[i + 1]]
        for i in moves:
            moved = bits_uint(bits[:i] + [bits[i + 1], bits[i]] + bits[i + 2:])
            if verify_reveal(*commit, moved, seed):
                break
        else:
            continue
        cert = copy.deepcopy(GENERAL_CERT)
        cert["qa_c"][k]["R"] = bits_hex(moved, 2 * n)
        ok, report = audit(cert)
        assert ok == 0
        assert report["reason"] == f"checker record {k} does not open ($.qa_c[{k}])"
        return
    raise AssertionError("no challenge of the certificate moves and still opens")


def test_a_null_checker_answer_mid_session_replays():
    # the verifier draws every round's key and challenge before it asks,
    # so a round the developer answers null leaves the streams where the
    # auditor, which draws them again, finds them; the later rounds open
    # under their own keys and the certificate replays
    class NullOnce(Developer):
        def _checker(self, body):
            self.checkers = getattr(self, "checkers", 0) + 1
            return {} if self.checkers == 5 else super()._checker(body)

        ANSWERS = dict(Developer.ANSWERS, checker=_checker)

    dev = NullOnce(DEMO, rng=random.Random(1))
    v = Verifier(dev.pp.to_dict(), DEMO, DEMO_DOMAINS, CP, seed=7, mode="general",
                 rng=random.Random(2))
    verdict, cert = verify_session(dev, v)
    assert verdict == "reject"
    assert [f["reason"] for f in cert["failures"]] == ["checker"]
    assert cert["qa_c"][4] is None
    assert sum(r is not None for r in cert["qa_c"]) == len(cert["qa_c"]) - 1
    ok, report = replay(cert)
    assert ok, report
    assert report["replayed_verdict"] == "reject"


def test_first_difference():
    doc = {"b": [1, {"c": "x", "d": []}], "a": True}
    assert first_difference(doc, copy.deepcopy(doc)) == "$"
    assert first_difference(doc, dict(doc, a=1)) == "$.a"
    assert first_difference(doc, dict(doc, b=[1, {"c": "y", "d": []}])) == "$.b[1].c"
    assert first_difference(doc, dict(doc, b=[1, {"c": "x", "d": {}}])) == "$.b[1].d"
    assert first_difference(doc, dict(doc, b=[1, {"c": "x", "d": []}, 2])) == "$.b[2]"
    assert first_difference(doc, {"a": True}) == "$.b[0]"


def test_a_design_built_in_code_survives_its_own_text():
    # the auditor rebuilds g_spec from its text, so a design must write back
    # to the text it was written as: a negative constant, which the parser
    # reads as a negation, and a not compared with ==, which binds looser
    # than ==, each audited to 0 at $.binding
    x = Ref("x")
    rows = ((Binary(">", x, Const(0)), Binary("+", x, Const(-3))),
            (Binary("==", Unary("not", Binary(">", x, Const(0))), Const(True)),
             Const(0)))
    text = parse_graph("table T { inputs: x; outputs: y; rows: [(true, x)]; }\n"
                       "edges:\n  Input.x -> T.x;\n  T.y -> Output.y;\n")
    graph = TableGraph(tables={"T": Table("T", (("x", "int"),), ("y", "int"), rows)},
                       edges=text.edges, external_inputs=text.external_inputs)
    verdict, cert = make_cert(graph=graph, domains={"x": list(range(-4, 5))}, cp=[])
    assert verdict == "accept", cert["mismatches"]
    ok, report = audit(cert)
    assert ok == 1, report


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
    # version 20 with the compiler of CERT_DIGESTS
    for cert, want in (
        (HONEST_CERT, "8eed27950f45fa2438f36f53eee638a612bd0e73b66ab06f874ce3e68af167d1"),
        (GENERAL_CERT, "57922c96b090a483381fe39039ed19a3ad7783a5a00e930a7d200eaacfe161bb"),
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
    # a q2's u is never sent, and its record still binds it: a u that
    # differs in one base64 character diverges from the verifier's own
    cert = copy.deepcopy(HONEST_CERT)
    k, q = next((k, r["q"]) for k, r in enumerate(cert["qa_e"]) if r["q"]["qkind"] == 2)
    q["u"] = q["u"][:10] + ("B" if q["u"][10] == "A" else "A") + q["u"][11:]
    outcome, report = audit(cert)
    assert outcome == 0
    assert report["reason"] == f"query {k + 1} diverges from the transcript"


def test_the_replay_builds_no_key_word(monkeypatch):
    # the auditor checks each round's d under the key it draws from the
    # round's seed; it sends nothing, so it never encrypts a key word
    def enc_word(*args):
        raise AssertionError("the replay built a key word")

    monkeypatch.setattr(he, "enc_word", enc_word)
    ok, report = audit(GENERAL_CERT)
    assert ok == 1, report
    cert = copy.deepcopy(GENERAL_CERT)
    d = cert["qa_c"][0]["d"]
    cert["qa_c"][0]["d"] = bits_hex(hex_bits(d, 4 * len(d)) ^ 1, 4 * len(d))
    ok, report = audit(cert)
    assert ok == 0
    assert report["reason"] == "checker record 0 does not open ($.qa_c[0])"


@pytest.mark.parametrize("change, reason", [
    ("drop-last", "checker record missing"),
    ("repeat-last", "checker records left unconsumed"),
])
def test_checker_record_faults_are_named(change, reason):
    cert = copy.deepcopy(GENERAL_CERT)
    if change == "drop-last":
        cert["qa_c"].pop()
    else:
        cert["qa_c"].append(copy.deepcopy(cert["qa_c"][-1]))
    ok, report = replay(cert)
    assert not ok
    assert report["reason"] == reason


@pytest.mark.parametrize("sk", ["", "0", "x15", "x+0", "x+00", "x+" + "0" * 16])
def test_recorded_session_key_must_have_the_key_size(monkeypatch, sk):
    # the certificate discloses the key seed of every checker round's key,
    # not a key; the auditor refuses a recorded seed of another length
    # before it replays a query. The seed is 32 hex digits: x15 is the
    # stored seed one digit short, and x+ the stored seed with zeros appended
    cert = copy.deepcopy(GENERAL_CERT)
    assert "sk" not in cert and "ct_sk" not in cert
    stored = cert["key_seed"]
    assert len(stored) == protocol.SESSION_SEED_BITS // 4
    if sk == "x15":
        sk = stored[:-1]
    elif sk.startswith("x+"):
        sk = stored + sk[2:]
    cert["key_seed"] = sk

    def no_query(*args):
        raise AssertionError("a query was replayed")

    monkeypatch.setattr(ReplayVerifier, "_ask", no_query)
    ok, report = audit(cert)
    assert ok == 0
    assert report["reason"] == ("$.key_seed: a 128-bit string must be 32 lowercase "
                                "hex digits")


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
