"""One demo general session and its audit under the oldest Python that
pyproject.toml supports, 3.10, with the standard library alone. Library
calls that newer versions added (a keyword argument, a module function)
fail only there, so only a run there catches them."""

import os
import pathlib
import shutil
import subprocess

import pytest

from test_audit import CERT_DIGESTS

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import hashlib, random, sys
from tabverify.audit import audit
from tabverify.channel import canonical_json
from tabverify.demo import DEMO_DOMAINS, DEMO_GRAPH_TEXT, DEMO_INPUT
from tabverify.graphtext import parse_graph
from tabverify.protocol import Developer, Verifier, verify_session

graph = parse_graph(DEMO_GRAPH_TEXT)
dev = Developer(graph, rng=random.Random(1))
v = Verifier(dev.pp.to_dict(), graph, DEMO_DOMAINS,
             [(DEMO_INPUT, {"w": False, "c": 2})], seed=7, mode="general",
             rng=random.Random(2))
verdict, cert = verify_session(dev, v)
ok, _ = audit(cert)
print("%d.%d" % sys.version_info[:2], verdict, ok,
      hashlib.sha256(canonical_json(cert).encode("utf-8")).hexdigest())
"""


def runs(command, env):
    try:
        return subprocess.run(command + ["-c", "pass"], env=env, timeout=60,
                              capture_output=True).returncode == 0
    except OSError:
        return False


def python310():
    """(command, environment) that runs python3.10 from PATH, or None. A
    pyenv shim runs it only while a version that has it is selected, so
    under pyenv select the first such version."""
    exe = shutil.which("python3.10")
    if exe is None:
        return None
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if runs([exe], env):
        return [exe], env
    pyenv = shutil.which("pyenv")
    if pyenv is not None:
        versions = subprocess.run([pyenv, "whence", "python3.10"], env=env,
                                  capture_output=True, text=True).stdout.split()
        if versions:
            env["PYENV_VERSION"] = versions[0]
            if runs([exe], env):
                return [exe], env
    return None


def test_demo_general_session_and_audit_on_python_3_10():
    found = python310()
    if found is None:
        pytest.skip("no python3.10 on PATH")
    command, env = found
    # -S: no site-packages, so the standard library alone
    r = subprocess.run(command + ["-S", "-c", SCRIPT], env=env, timeout=300,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["3.10", "accept", "1", CERT_DIGESTS["demo-general"]]
