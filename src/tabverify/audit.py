"""Public replay of a session certificate.

A certificate contains everything a third party needs to re-run the
verifier against the recorded developer answers: public parameters, the
public spec, the generation seed, and the full query/answer transcript.
The auditor is the verifier itself, with its three hooks played back from
the record (ReplayVerifier): the disclosed session secrets instead of fresh
ones, the recorded answer to each query once the query equals its record,
and in general mode the recorded opening of each checker round. The
verifier's own code derives every round's seed again from the disclosed
key seed, and draws the round's key from it and its challenge from the
disclosed challenge seed; the recorded commitment is re-verified under
that challenge, and the revealed value is re-decrypted under that key.
No key word is built: nothing is sent. The rebuilt certificate must then
serialize to exactly the stored bytes.
"""

import hashlib
import itertools
import json
import random

from .channel import canonical_json
from .graphtext import parse_graph
from .protocol import (
    BINDING_FIELDS,
    CERT_VERSION,
    SESSION_SEED_BITS,
    ProtocolError,
    Verifier,
    checker_key,
    hex_bits,
    session_binding,
)
from .vga import coverage_report

CERT_FORMAT = f"tabverify-cert-v{CERT_VERSION}"


class AuditError(Exception):
    pass


def certificate_hash(cert):
    return hashlib.sha256(canonical_json(cert).encode("utf-8")).hexdigest()


def save_certificate(cert, path):
    """Write the certificate file; returns its content hash. The certificate
    is serialised once: the file is the canonical JSON of
    {"certificate", "content_hash", "format"}, written out around that text."""
    text = canonical_json(cert)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    with open(path, "w", encoding="utf-8") as f:
        f.write(f'{{"certificate":{text},"content_hash":"{digest}",'
                f'"format":"{CERT_FORMAT}"}}')
    return digest


def load_certificate(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise AuditError("certificate file is not a JSON object")
    if doc.get("format") != CERT_FORMAT:
        raise AuditError(f"unknown certificate format {doc.get('format')!r}")
    cert = doc.get("certificate")
    if certificate_hash(cert) != doc.get("content_hash"):
        raise AuditError("certificate content hash mismatch")
    return cert


class ReplayVerifier(Verifier):
    """The verifier of a certificate, played back: built from the
    certificate's configuration, it overrides the verifier's three hooks
    with the record. _session_key returns the recorded seeds, _ask the
    recorded answer to each query once the query, which the verifier records
    before it asks (a q2 with the u it never sends), equals its record, and
    _opening the recorded opening of each checker round once it opens
    under the challenge drawn from the recorded challenge seed, with the
    round's key alone, drawn from its seed. Any divergence raises
    AuditError."""

    def __init__(self, cert):
        self.cert = cert
        super().__init__(
            cert["public_params"],
            parse_graph(cert["g_spec"]),
            cert["domains"],
            [tuple(x) for x in cert["cp"]],
            seed=cert["vga"]["seed"],
            mode=cert["mode"],
            vga_budget=cert["vga"]["budget"],
            rng=random.Random(0),  # never consulted during replay
        )

    def _session_key(self):
        return tuple(self._recorded_seed(key) for key in ("key_seed", "challenge_seed"))

    def _recorded_seed(self, key):
        try:
            return hex_bits(self.cert[key], SESSION_SEED_BITS)
        except ProtocolError as exc:
            raise AuditError(f"$.{key}: {exc}") from None

    def _ask(self, chan, ftype, body):
        k = len(self.qa_e) - 1  # this query's record is already appended
        if k >= len(self.cert["qa_e"]):
            raise AuditError("replay ran past the recorded transcript")
        rec = self.cert["qa_e"][k]
        if self.qa_e[k]["q"] != rec["q"]:
            raise AuditError(f"query {k + 1} diverges from the transcript")
        return {"answer": rec["a"]}

    def _opening(self, chan, p, width, R, seed):
        """The round's key, drawn again from its seed, and the recorded
        opening of this round: null, or {d, e, exposed, seed}. A live round
        records an opening only once it has opened under R, so a recorded
        one that does not, or that has other fields than those four, fails
        the replay here. Nothing is sent, so neither the round's key word
        nor its y is built."""
        k = len(self.qa_c) - 1  # this round's record is already appended
        if k >= len(self.cert["qa_c"]):
            raise AuditError("checker record missing")
        rec = self.cert["qa_c"][k]
        try:
            opens = rec is None or self._opens(width, R, **rec)
        except TypeError:  # not an object of exactly the four fields
            opens = False
        if not opens:
            raise AuditError(f"checker record {k} does not open ($.qa_c[{k}])")
        return checker_key(seed, width)[0], rec


def replay(cert):
    """Re-run the hardwired verifier against the transcript.

    Returns (ok, report). ok is True only when every recomputed query
    matches the record, the transcript is fully consumed, and the rebuilt
    certificate is byte-identical to the stored one. A certificate of
    another version, or whose binding does not match its configuration
    fields, is rejected before any replay; the final comparison would
    reject it too, only later.

    Each top-level field of cert is serialised once: the binding fields for
    the binding, before the replay, and the others only at the final
    comparison (_same_certificate).

    cert is used as handed, JSON-native as `Verifier.run` returns it and
    `load_certificate` parses it, and is left unchanged.
    """
    if not isinstance(cert, dict):
        return False, {"mode": None, "verdict": None,
                       "reason": "certificate is not a JSON object"}
    report = {"mode": cert.get("mode"), "verdict": cert.get("verdict")}
    if cert.get("version") != CERT_VERSION:
        report["reason"] = f"certificate version {cert.get('version')} is not supported"
        return False, report
    try:
        bound = session_binding(cert) == cert["binding"]
    except KeyError:  # a binding or configuration field is missing
        bound = False
    if not bound:
        report["reason"] = "session binding mismatch"
        return False, report
    try:
        v = ReplayVerifier(cert)
        verdict, rebuilt = v.run(None)
        if len(v.qa_e) < len(cert["qa_e"]):
            raise AuditError("transcript has unconsumed records")
        if cert["mode"] == "general" and len(v.qa_c) < len(cert["qa_c"]):
            raise AuditError("checker records left unconsumed")
    except AuditError as exc:
        report["reason"] = str(exc)
        return False, report
    except Exception as exc:  # malformed field: still a clean audit failure
        report["reason"] = f"{type(exc).__name__}: {exc}"
        return False, report
    if "annotations" in cert:
        # commentary attached after the session: nothing replays it, and the
        # file's content hash does not protect it, since anyone who edits it
        # can recompute that hash; so the report names it as unverified
        rebuilt = dict(rebuilt, annotations=cert["annotations"])
        report["unverified"] = ["annotations"]
    if not _same_certificate(cert, rebuilt):
        report["reason"] = ("rebuilt certificate differs from the stored one "
                            f"at {first_difference(cert, rebuilt)}")
        return False, report
    report["replayed_verdict"] = verdict
    report["coverage"] = coverage_report(cert["qa_e"], v.pp.structure).summary()
    return True, report


def _same_certificate(stored, rebuilt):
    """Whether rebuilt serialises to exactly the bytes of stored, whose
    binding replay has checked against its binding fields. Verifier.run
    sets the rebuilt binding to the hash of the rebuilt binding fields, so
    equal bindings mean those fields serialise alike (as far as SHA-256
    binds, which the session binding relies on anyway), and only the other
    fields are serialised here. A dict's canonical JSON is its sorted keys
    each with its value's canonical JSON, so the same keys with the same
    texts are the same bytes."""
    return set(stored) == set(rebuilt) and all(
        canonical_json(stored[k]) == canonical_json(rebuilt[k])
        for k in stored if k not in BINDING_FIELDS)


def audit(cert):
    """The paper's VS.Eval: 1 when the certificate replays and its verdict
    is accept, 0 otherwise; returns (outcome, report).

    For a general-mode certificate the replay also re-verifies every
    commitment opening and re-decrypts every revealed checker value under
    its round's key, drawn again from the round's seed, which it derives
    from the disclosed key seed.
    """
    ok, report = replay(cert)
    return (1 if ok and report.get("replayed_verdict") == "accept" else 0), report


# --- JSON paths ---------------------------------------------------------------------


def json_leaves(node, path=()):
    """(path, value) of every leaf of a JSON value, dict keys in sorted order.

    A leaf is a scalar or an empty list or dict; a path is the tuple of keys
    and list indices from the root. Two values with the same leaves are the
    same JSON value.
    """
    if isinstance(node, dict) and node:
        for k in sorted(node):
            yield from json_leaves(node[k], path + (k,))
    elif isinstance(node, list) and node:
        for i, sub in enumerate(node):
            yield from json_leaves(sub, path + (i,))
    else:
        yield path, node


def first_difference(stored, rebuilt):
    """JSON path, e.g. $.qa_e[12].a.kind, of the first leaf at which two JSON
    values differ, in path or in canonical value; the stored value's path
    where both have one, and $ when they do not differ."""
    for a, b in itertools.zip_longest(json_leaves(stored), json_leaves(rebuilt)):
        if a is None or b is None or a[0] != b[0] or (
                canonical_json(a[1]) != canonical_json(b[1])):
            path = (a or b)[0]
            return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                                 for p in path)
    return "$"
