import copy
import functools
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
from tabverify.expr import Binary, Const, Ref, Unary
from tabverify.tables import Table, TableGraph, bits_uint, int_to_bits
from tabverify.commitment import (
    CommitMessage,
    RevealMessage,
    choose_challenge,
    gen_code,
    split_blocks,
    verify_reveal,
)
from tabverify.protocol import (
    Developer,
    PublicParams,
    Verifier,
    b64_cts,
    bits_hex,
    cts_b64,
    hex_bits,
    session_binding,
    table_step,
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
# Recorded at certificate version 13.
CERT_DIGESTS = {
    "demo-honest": "e8dbf85522ba95dc620e3a4d747eb32488a891fade87f21400dfe60ea50d5b40",
    "demo-general": "a91fd62ef4c645597b6f1befbe69e1461129b03aa4f0589420ba40a4c3fcebe0",
    "chain-honest": "9c947e180e01ca53f86c20fe0e797139af32788700d12a05e605a56620811240",
    "chain-general": "090c98a9260141faae4657d2dcccd864bbf8b8e9f4c9fb0d2b73cac22a930516",
    "diamond-honest": "094733a89b6241e5d137ca54bb59977a1b5e05975dd26f9195e0be4ca572b245",
    "diamond-general": "efd4d405e1bbf53a9900df8e2f73af17628b15af6f297d9c5fc4715dd08f83c3",
    "flip-payload-honest": "c9255d727df78fec766678469c3d160540cbbd3c1bcfedd42fb2283fd2296e76",
    "flip-tag-honest": "7a5180ebf2b36cde3c646cd2f760e21fcf4d98ed0770a8620550e41c9914ed7e",
    "swap-answers-honest": "d6d01dcf9e60bc552ccd9a368076d16954db90989b1ee4f18d1b9c080c8c66da",
    "flip-payload-general": "9cbd3de8418038172210942c2cae13dd7aa3efddd97c5a10a864198585c8148b",
    "flip-tag-general": "43d5eded034d182f807050a6862343bfe94f1eaaf8f769b3f0c0ec6a46b6f17c",
    "swap-answers-general": "db348d9c02b8d170d8b3f1a113a7b06f9f92cbbe760c19922d072b6fbbc32a65",
}
# the version 12 digests of the same configurations: version 13 dropped the
# certificate's K, a constant that no key used, each q2's v, the output word
# of its table step that the developer computes itself, and each commitment
# block's data, its slice of the d recorded beside it, and left every
# session as it was
V12_DIGESTS = {
    "demo-honest": "d41967cee133038a87c94117075ce78f6dd169b2d719377c3455d7d09cc8a069",
    "demo-general": "16230fa55425ca295395efd997c7229cbc1068d241c0eb93eda18fe15ec85945",
    "chain-honest": "9a2d1ea84361f05190b5126aa0ab34bc9f9578978d37ac45e482779e8efcf71a",
    "chain-general": "1cc93b4ce670754c19d25e6585fee955a1b90f82ba43da457e9c410fbde0950b",
    "diamond-honest": "451b15cdc9f109c02c259381d76a25dde3e106f28c9aba7c62af4f0a7e3e1b25",
    "diamond-general": "7cce3f53d4f034a94d263464e1d28523ae15e335f3af7a5016010c610e61d645",
    "flip-payload-honest": "6d76075c4452faa4e3483b261885a92890a35bcdeeab23c041dbfb414ec38b3b",
    "flip-tag-honest": "4c059ef0eb1289703f025fb12eb70dc56eafa8579828916133bd20fa28eaf26d",
    "swap-answers-honest": "2c787230c4b62157b8a8edeeb00d6e55f87aa680e328180198c216a19550e424",
    "flip-payload-general": "b336b1d4e6dfd35abe4289ab50714c5a4feb716b40369e54ada1b9c4d260a15d",
    "flip-tag-general": "c3d5ad00dc600674d5fa49eebf3c82b7761574c7f150525bb27c68349fef3e22",
    "swap-answers-general": "eb3dcba9b419c7e3e9ef029c978b90f3f5e3f65d924dc7f158d84fade9021e16",
}
# the version 11 digests of the honest configurations: version 12 changed
# only the checker rounds, which honest mode does not run, and left every
# honest session as it was
V11_DIGESTS = {
    "demo-honest": "783d84499a4064483e7f3467391f5df3fded134e16a51000ba414fb8c6dba5af",
    "chain-honest": "0846aabbfd33f88ab8e60694eeba88fc8b3f768994ade14666fcb1ca99fddd7a",
    "diamond-honest": "c5cabe973dc4689c8d2af2cbd0680b29263cfa610195b8f20347b66a725b6680",
    "flip-payload-honest": "1cab8236db06ea1be059e73d3b9a5601e3b95ddbc89a9b88acdf674857a4cfc0",
    "flip-tag-honest": "10de58b1b8c695dc546247dc298a428bbf44036b1d818e084da00451053e6c6f",
    "swap-answers-honest": "7c97810b051ecf4467ab3708e66677570bdc28f9597bd77008e4292cd3780619",
}
# the version 10 digests of the same configurations: version 11 dropped the
# certificate's "paths", the source-to-sink table paths of the published
# structure that the suite generator enumerated and nothing read, and left
# every session as it was. Version 12 changed every general-mode session's
# checker rounds, so its general-mode entries here and in V9_DIGESTS were
# re-recorded then: they pin the version 12 session in the old layout, not
# a certificate that version wrote
V10_DIGESTS = {
    "demo-honest": "5ce21d7d0b44b8b48d7f656ccc569a9d5c361dc29fde78d7cc1bda5ca2e7fe98",
    "demo-general": "1887d8361f1827709fe0a0145eec242b647b39f5094d40badea3ae70373bedfe",
    "chain-honest": "69007f3da8239a35e4fcaeb1bda6eb0b8f8f08a52b0b9237109906cd087c684e",
    "chain-general": "02ff9c520034c35094f34c6b578ee7cc76739c6e6bc57944ef1c0dc9d761e576",
    "diamond-honest": "c08e00aa1b73263a51b4d8138a7143a5bdd2f64cbde772565de2c21586a2478e",
    "diamond-general": "450758d62ec5dda10b663eb0a7727c040e44da79adc8a34d326352811b158917",
    "flip-payload-honest": "f3673cf971794b02536b2e44ffc1a40f2f18808f483b422e541c04e8084daafd",
    "flip-tag-honest": "f88f0402ddfaa1ad7b9307600c2103fcaf7f6ffd79f8e93121d9d2404b0f6989",
    "swap-answers-honest": "17bcbdf09d212bf71223b4913ac9e466169eb15510d606f7e6c4d6aeaeec7d57",
    "flip-payload-general": "4575cc125f4dd6dd22cc86d5e96f05a792b8d7cc5038de47d1a1cf162f2e33dc",
    "flip-tag-general": "71fce276c1cf04fabaed2c2b77959cd54e2773a2f44772d0001550e6b4cc4f8a",
    "swap-answers-general": "91e24a77b1785937715128c7aa15ad0f22d521d6a8bd127a3f59f7f9fbf0444b",
}
# the version 9 digests of the configurations whose sessions version 10
# left as they were: only a flip-tag or swap-answers developer answers a q2
# with a kind its table cannot give, which version 10 counts as null
V9_DIGESTS = {
    "demo-honest": "60281507f35623d5185c85120240c5afb2c8d6989a890d2ae67071eb2aa1c7b9",
    "demo-general": "03ca6d838031edf2b73f2d6e05dcb81d2f1445bec228d7fe2351bbd6f6e8ce4f",
    "chain-honest": "bf37b721200d19f89bd525c8ae4bcb14ae144c578c854bfbb11682e29df5e718",
    "chain-general": "2275a3c5ad801a9a5739072acf0f2212c575ef9839f2d0a7fa7a3a3a080ed972",
    "diamond-honest": "b10f8c729777c9ca2ebd01b0656c9bf662e57194f694d6f064aab6d27285dc97",
    "diamond-general": "dfc2ec90b22dc3a1edfc521b666283894c733ec964a8fffa576fca877149914d",
    "flip-payload-honest": "07abca08f675ec0a5175057bae824df4f70571af23115ebe014d50d5e272f792",
    "flip-payload-general": "5282f1cb76dafddb6ce95ad0364cfa73d9d00b488864a88c79c4f62d4ad2629c",
}
# the "paths" that versions 9 and 10 recorded for each design (the
# flip-payload, flip-tag and swap-answers developers run the demo design)
OLD_PATHS = {
    "demo": [[1, 7], [1, 8], [2, 7], [2, 8], [3, 7], [3, 8], [4, 7], [4, 8],
             [5], [6]],
    "chain": [[1, 3, 5], [1, 3, 6], [1, 4, 5], [1, 4, 6], [2, 3, 5],
              [2, 3, 6], [2, 4, 5], [2, 4, 6]],
    "diamond": [[a, b, c] for a in (1, 2) for b in (3, 4, 5, 6) for c in (7, 8)],
}
# the length of three of them, so that a change of size shows by itself; at
# version 8, with 24-byte nonces, a recorded key and recorded challenges,
# they were 578,463, 733,575 and 782,992 bytes, at version 9 one byte
# shorter than at version 10, at version 10, with the paths, 398,248,
# 502,296 and 535,064, at version 11 demo-general, with each checker
# record's query, was 534,998, and at version 12, with K, each q2's v and
# each block's data, they were 398,182, 502,158 and 448,362
CERT_BYTES = {"demo-honest": 364471, "diamond-honest": 471511,
              "demo-general": 411483}


def config_cert(config):
    """The certificate of one of CERT_DIGESTS' configurations."""
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
    return cert


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


@functools.lru_cache(maxsize=None)
def v12_fields(config):
    """What version 12 recorded of config's session and version 13 does
    not, as (qa_e, qa_c): each q2 with its v, the output word of its table
    step, and each commitment block with its data, its slice of d."""
    cert = config_cert(config)
    pp = PublicParams.from_dict(cert["public_params"])
    qa_e = [{"q": dict(r["q"], v=cts_b64(table_step(pp, r["q"]["i"],
                                                   b64_cts(r["q"]["u"], pp.hpk)))),
             "a": r["a"]} if r["q"]["qkind"] == 2 else r for r in cert["qa_e"]]
    m_c = gen_code().m_c
    qa_c = [dict(r, blocks=[
        dict(b, data=bits_hex(data, m_c)) for b, data in zip(
            r["blocks"], split_blocks(int(r["d"], 16), m_c * len(r["blocks"]), m_c))])
        if r["d"] is not None else r for r in cert.get("qa_c", ())]
    return qa_e, qa_c


def old_certificate(config, version):
    """config's certificate as version 9, 10, 11 or 12 wrote it: with the
    certificate's constant K, each q2's v and each block's data, the paths
    of its design before version 11, and its binding, over K too, under
    that version."""
    design = config.rsplit("-", 1)[0]
    qa_e, qa_c = v12_fields(config)
    cert = dict(config_cert(config), version=version, K=16, qa_e=qa_e)
    if "qa_c" in cert:
        cert["qa_c"] = qa_c
    if version < 11:
        cert["paths"] = OLD_PATHS.get(design, OLD_PATHS["demo"])
    bound = {k: cert[k] for k in protocol.BINDING_FIELDS + ("K",)}
    cert["binding"] = hashlib.sha256(canonical_json(bound).encode()).hexdigest()
    return cert


@pytest.mark.parametrize("config", list(V12_DIGESTS))
def test_version_13_dropped_only_k_and_what_the_receiver_computes(config):
    text = canonical_json(old_certificate(config, 12)).encode("utf-8")
    assert hashlib.sha256(text).hexdigest() == V12_DIGESTS[config]


@pytest.mark.parametrize("config", list(V11_DIGESTS))
def test_version_12_left_honest_sessions_as_they_were(config):
    text = canonical_json(old_certificate(config, 11)).encode("utf-8")
    assert hashlib.sha256(text).hexdigest() == V11_DIGESTS[config]


@pytest.mark.parametrize("config", list(V9_DIGESTS))
def test_version_10_changed_only_the_version_of_these_sessions(config):
    text = canonical_json(old_certificate(config, 9)).encode("utf-8")
    assert hashlib.sha256(text).hexdigest() == V9_DIGESTS[config]


@pytest.mark.parametrize("config", list(V10_DIGESTS))
def test_version_11_dropped_only_the_paths(config):
    text = canonical_json(old_certificate(config, 10)).encode("utf-8")
    assert hashlib.sha256(text).hexdigest() == V10_DIGESTS[config]


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
           "format": "tabverify-cert-v13"}
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
    path.write_text(path.read_text().replace("tabverify-cert-v13",
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
    # a live round records d only once every block has opened, so a stored
    # d whose blocks no longer open names its record, not $.failures
    for key in ("seed", "exposed", "e"):
        cert = copy.deepcopy(GENERAL_CERT)
        block = cert["qa_c"][k]["blocks"][0]
        block[key] = f"{int(block[key][0], 16) ^ 1:x}" + block[key][1:]
        ok, report = audit(cert)
        assert ok == 0, key
        assert report["reason"] == f"checker record {k} does not open ($.qa_c[{k}])"


def set_top_bit(text):
    """text with the top bit of its first, most significant, hex digit set."""
    return f"{int(text[0], 16) | 8:x}" + text[1:]


def test_padded_blocks_open_and_their_padding_is_committed():
    # at width 12 the last block of every checker round is padded with
    # zeros; the session accepts and audits. A block reveals only its seed,
    # and its data is its slice of d, so the padding is committed through
    # d: d of a 6-bit half word is two hex digits, the top two bits
    # padding, and one spelling. Setting a padding bit of d, or
    # upper-casing a digit of a block's exposed bits, no longer opens
    verdict, cert = make_cert("general", graph=parse_graph(WIDTH12_TEXT),
                              domains=NARROW_DOMAINS, cp=[])
    assert verdict == "accept", cert["failures"]
    ok, report = audit(cert)
    assert ok == 1, report
    shapes = {(len(r["d"]), len(r["blocks"])) for r in cert["qa_c"]}
    assert shapes == {(3, 2), (2, 1)}  # 12 and 6 bits, in hex digits
    m_c = gen_code().m_c
    for k in range(len(cert["qa_c"])):
        rec = cert["qa_c"][k]
        assert all(set(b) == {"e", "exposed", "seed"} for b in rec["blocks"])
        # 12 bits: 4 data bits in the last block; 6 bits: 6
        last = split_blocks(int(rec["d"], 16), m_c * len(rec["blocks"]), m_c)[-1]
        assert last < (16 if len(rec["d"]) == 3 else 64)
        bad_d, bad_x = (copy.deepcopy(cert) for _ in range(2))
        if len(rec["d"]) == 2:
            bad_d["qa_c"][k]["d"] = set_top_bit(rec["d"])
        else:
            bad_d = None  # 12 bits are three whole digits
        x = rec["blocks"][0]["exposed"]
        i = next(i for i, c in enumerate(x) if c in "abcdef")
        bad_x["qa_c"][k]["blocks"][0]["exposed"] = x[:i] + x[i].upper() + x[i + 1:]
        for bad in (bad_d, bad_x):
            if bad is not None:
                ok, report = audit(bad)
                assert ok == 0, k
                assert report["reason"] == (f"checker record {k} does not open "
                                            f"($.qa_c[{k}])")


def drawn_challenges(cert):
    """Each checker record's challenges, one per block, drawn again from the
    certificate's challenge seed as the verifier draws them."""
    code = gen_code()
    stream = random.Random(hex_bits(cert["challenge_seed"], 128))
    return [[choose_challenge(code.q, stream) for _ in rec["blocks"]]
            for rec in cert["qa_c"]]


def test_a_changed_challenge_that_still_opens_is_refused():
    # a challenge is 2q bits of weight q; moving one of its ones within a
    # hex digit keeps the weight, and where the PRG stream has equal bits at
    # the two places the commitment still opens under it. The certificate
    # records no challenge: each block opens under the one drawn again from
    # the disclosed seed, and a block that carries a challenge of its own,
    # even one that still opens, is refused. A block's data is its slice of d
    code = gen_code()
    for k, (rec, rs) in enumerate(zip(GENERAL_CERT["qa_c"], drawn_challenges(GENERAL_CERT))):
        block, R = rec["blocks"][0], list(int_to_bits(rs[0], 2 * code.q))
        assert "R" not in block
        commit = CommitMessage(hex_bits(block["e"], code.q),
                               hex_bits(block["exposed"], code.q))
        data = split_blocks(int(rec["d"], 16), 4 * len(rec["d"]), code.m_c)[0]
        reveal = RevealMessage(hex_bits(block["seed"], protocol.COMMIT_SEED_BITS),
                               data)
        assert verify_reveal(commit, reveal, bits_uint(R), code)
        moves = [i for i in range(0, len(R), 2) if R[i] != R[i + 1]]
        for i in moves:
            moved = R[:i] + [R[i + 1], R[i]] + R[i + 2:]
            if verify_reveal(commit, reveal, bits_uint(moved), code):
                break
        else:
            continue
        cert = copy.deepcopy(GENERAL_CERT)
        cert["qa_c"][k]["blocks"][0]["R"] = bits_hex(bits_uint(moved), 2 * code.q)
        ok, report = audit(cert)
        assert ok == 0
        assert report["reason"] == f"checker record {k} does not open ($.qa_c[{k}])"
        return
    raise AssertionError("no challenge of the certificate moves and still opens")


def test_a_null_checker_answer_mid_session_replays():
    # the verifier draws every round's key and challenges before it asks,
    # so a round the developer answers null leaves the streams where the
    # auditor, which draws them again, finds them; the later rounds open
    # under their own keys and the certificate replays
    class NullOnce(Developer):
        def _checker(self, body):
            self.checkers = getattr(self, "checkers", 0) + 1
            return {"result": "null"} if self.checkers == 5 else super()._checker(body)

        ANSWERS = dict(Developer.ANSWERS, checker=_checker)

    dev = NullOnce(DEMO, rng=random.Random(1))
    v = Verifier(dev.pp.to_dict(), DEMO, DEMO_DOMAINS, CP, seed=7, mode="general",
                 rng=random.Random(2))
    verdict, cert = verify_session(dev, v)
    assert verdict == "reject"
    assert [f["reason"] for f in cert["failures"]] == ["checker"]
    assert cert["qa_c"][4]["d"] is None
    assert sum(r["d"] is not None for r in cert["qa_c"]) == len(cert["qa_c"]) - 1
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
    # version 13
    for cert, want in (
        (HONEST_CERT, "52fffec3ee2f40b810e9e56132854ea78c64cf8ca9f31221151373f5df467af2"),
        (GENERAL_CERT, "abad860e86c6586a84d61b02e46e81339a268cff05267a215b8a2c4f0059fe97"),
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
