"""The benchmark's traced run wraps program functions by name
(`perfbench/spans.py`, `WRAPS`); a wrapped name that no longer resolves
silently zeroes its per-layer metric. This keeps every name resolvable
except the ones already known to be stale."""

import ast
import importlib
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# gone before this test existed; their metrics read 0 until the benchmark
# drops them
STALE = {
    "tabverify.commitment:bit_at",
    "tabverify.audit:normalize",
    "tabverify.audit:encode_frame",
    "tabverify.audit:decode_frame",
    # sessions and audits name the universal circuit by its budget and no
    # longer build its gate list, so protocol imports no builder
    "tabverify.protocol:build_universal",
    # the SE circuit is named by its sizes: transparent sessions evaluate its
    # word Feistel and build no gate list, so *.symcrypto.se_circuit_s reads 0
    "tabverify.protocol:se_enc_circuit",
    # the parties commit with the code written into commitment's source and
    # search for none at set-up, so *.commitment.gen_code_s reads 0
    "tabverify.protocol:gen_code",
}


def wrapped_targets():
    """The targets of WRAPS, read from the source without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "WRAPS" for t in node.targets):
            return [entry[0] for entry in ast.literal_eval(node.value)]
    raise AssertionError("no WRAPS in perfbench/spans.py")


def resolves(target):
    """Whether the target resolves the way spans.install looks it up."""
    modname, _, attrpath = target.partition(":")
    try:
        owner = importlib.import_module(modname)
        *parents, attr = attrpath.split(".")
        for p in parents:
            owner = getattr(owner, p)
        owner.__dict__[attr]
    except (ImportError, AttributeError, KeyError):
        return False
    return True


def test_every_wrapped_name_resolves():
    targets = wrapped_targets()
    assert len(targets) > 30
    missing = {t for t in targets if not resolves(t)}
    assert missing <= STALE, sorted(missing - STALE)
