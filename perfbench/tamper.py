"""Seeded single-field tampering of a certificate, spread over its sections.

This is the benchmark's own generator, kept apart from the test helper
`audit.mutate_certificate` so that a change to that helper cannot change
the audit-tamper workload.
"""

import json

SECTIONS = ("public_params", "qa_e", "qa_c", "config", "verdict")
_SECTION_KEYS = {
    "public_params": ("public_params",),
    "qa_e": ("qa_e",),
    "qa_c": ("qa_c",),
    # not `domains`: whether a changed domain value makes the replay diverge
    # early or fail only at the final comparison depends on whether the
    # seed's suite drew that value, so the run's mix of early and late
    # rejects would depend on the seed
    "config": ("version", "mode", "K", "g_spec", "cp", "vga", "paths",
               "binding", "sk", "ct_sk"),
    "verdict": ("verdict", "outputs", "failures", "mismatches", "cp_results"),
}
_B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_HEX = "0123456789abcdef"


def _leaves(node, path):
    if isinstance(node, dict):
        for k in sorted(node):
            yield from _leaves(node[k], path + (k,))
    elif isinstance(node, list):
        for i, sub in enumerate(node):
            yield from _leaves(sub, path + (i,))
    else:
        yield path, node


def _changed(value, rng):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + rng.choice((1, -1, 7))
    if value is None:
        return 0
    if isinstance(value, str) and value:
        # stay inside the string's own alphabet, so most tampers decode
        # and are caught by the replay rather than by parsing
        if set(value) <= set("01"):
            alphabet = "01"
        elif set(value) <= set(_HEX):
            alphabet = _HEX
        elif set(value) <= set(_B64 + "="):
            alphabet = _B64
        else:
            alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
        i = rng.randrange(len(value))
        if value[i] == "=":  # keep base64 padding where it is
            i = rng.randrange(len(value.rstrip("=")) or 1)
        choices = [c for c in alphabet if c != value[i]]
        return value[:i] + rng.choice(choices) + value[i + 1:]
    if isinstance(value, str):
        return "x"
    return "tampered"


def mid_position(u):
    """Where in its section a tamper falls: the middle, moved by the seed.

    `u` in [0, 1) moves the point by at most 1/16 of the section. Every
    tamper of a section thus sits at about the same depth of the replay, so
    a run's audit times do not hinge on how many rounds fit in it or on
    where one random tamper landed.
    """
    return 0.5 + (u - 0.5) / 8


def tamper(cert, section, position, rng):
    """Copy of cert with one leaf of the given section changed.

    `position` in [0, 1) picks the leaf by its place in the section's
    leaves, taken in key order; `rng` picks the new value. Returns (tampered
    certificate, JSON path of the changed leaf).
    """
    doc = json.loads(json.dumps(cert))
    leaves = [
        leaf
        for key in _SECTION_KEYS[section]
        if key in doc
        for leaf in _leaves(doc[key], (key,))
    ]
    if not leaves:
        raise ValueError(f"certificate has no {section} fields")
    path, value = leaves[min(len(leaves) - 1, int(position * len(leaves)))]
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = _changed(value, rng)
    if json.dumps(doc, sort_keys=True) == json.dumps(cert, sort_keys=True):
        raise ValueError(f"tamper at {path} left the certificate unchanged")
    return doc, "/".join(str(p) for p in path)


def reject_class(reason):
    """Reject-reason class of an audit report's reason string."""
    if not reason:
        return "other"
    if "differs from the stored" in reason:
        return "final-compare"
    if ("diverges" in reason or "ran past" in reason
            or "unexpected frame" in reason):
        return "query-diverges"
    if "unconsumed" in reason:
        return "unconsumed"
    if "checker record" in reason:
        return "checker-record"
    return "decode"


REJECT_CLASSES = ("final-compare", "query-diverges", "checker-record",
                  "decode", "unconsumed", "other")
