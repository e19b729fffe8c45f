import json
import os
import queue
import random
import socket
import subprocess
import sys
import threading

import pytest
from click.testing import CliRunner

import tabverify
from tabverify import cli
from tabverify.channel import SocketChannel, make_frame
from tabverify.cli import main
from tabverify.demo import DEMO_GRAPH_TEXT
from tabverify.graphtext import parse_graph
from tabverify.protocol import Developer, bits_str
from tabverify.tables import int_to_bits


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "demo.txt").write_text(DEMO_GRAPH_TEXT)
    (tmp_path / "domains.json").write_text(
        json.dumps({"a": {"lo": 0, "hi": 100}, "b": [False, True]})
    )
    (tmp_path / "cp.json").write_text(
        json.dumps([[{"a": 46, "b": True}, {"w": False, "c": 2}]])
    )
    return tmp_path


def run(args, **kw):
    return CliRunner().invoke(main, args, catch_exceptions=False, **kw)


def test_compile_reports_row_tables(workspace):
    r = run(["compile", "--graph", str(workspace / "demo.txt")])
    assert r.exit_code == 0
    assert "8 row tables" in r.output
    assert "CT#2" in r.output


def test_compile_rejects_bad_graph(workspace):
    bad = workspace / "bad.txt"
    bad.write_text("table X { inputs: a; rows: [(a > 0, b)]; }\nedges:\n")
    r = run(["compile", "--graph", str(bad)])
    assert r.exit_code == 2


def test_encrypt_emits_public_params(workspace):
    out = workspace / "pp.json"
    r = run(["encrypt", "--graph", str(workspace / "demo.txt"), "--seed", "2",
             "--out", str(out)])
    assert r.exit_code == 0
    pp = json.loads(out.read_text())
    assert pp["u_params"][2] == 16
    assert len(pp["structure"]["tables"]) == 8


def test_verify_and_audit_in_process(workspace):
    cert = workspace / "cert.json"
    cov = workspace / "cov.txt"
    r = run([
        "verify", "--spec", str(workspace / "demo.txt"),
        "--graph", str(workspace / "demo.txt"),
        "--domains", str(workspace / "domains.json"),
        "--cp", str(workspace / "cp.json"),
        "--seed", "4", "--cert", str(cert), "--out", str(cov),
    ])
    assert r.exit_code == 0, r.output
    assert "verdict: accept" in r.output
    assert "covered" in cov.read_text()
    r2 = run(["audit", "--cert", str(cert)])
    assert r2.exit_code == 0
    assert '"ok":1' in r2.output


def test_verify_wrong_design_exits_one(workspace):
    wrong = workspace / "wrong.txt"
    wrong.write_text(DEMO_GRAPH_TEXT.replace("(b == true, 2)", "(b == true, 9)"))
    r = run([
        "verify", "--spec", str(workspace / "demo.txt"),
        "--graph", str(wrong),
        "--domains", str(workspace / "domains.json"),
        "--seed", "4", "--cert", str(workspace / "bad-cert.json"),
    ])
    assert r.exit_code == 1


def test_audit_tampered_certificate_exits_one(workspace):
    cert = workspace / "cert.json"
    r = run([
        "verify", "--spec", str(workspace / "demo.txt"),
        "--graph", str(workspace / "demo.txt"),
        "--domains", str(workspace / "domains.json"),
        "--seed", "4", "--cert", str(cert),
    ])
    assert r.exit_code == 0
    cert.write_text(cert.read_text().replace('"accept"', '"reject"', 1))
    r2 = run(["audit", "--cert", str(cert)])
    assert r2.exit_code == 1


def test_demo_general_mode(workspace):
    cert = workspace / "demo-cert.json"
    r = run(["demo", "--seed", "3", "--cert", str(cert)])
    assert r.exit_code == 0, r.output
    assert "verdict: accept  audit: 1" in r.output
    assert "documented claim" in r.output
    doc = json.loads(cert.read_text())
    claim = doc["certificate"]["annotations"]["documented_claim"]
    assert claim["claimed"] == ["True", "bot", "bot", "2", "bot"]
    assert claim["ground_truth"] == {"c": 2, "w": False}


def test_serve_and_remote_verify(workspace):
    # a serve process with --max-sessions 1 stays up until the session it
    # accepted is done, then exits
    pp = workspace / "pp.json"
    cert = workspace / "remote-cert.json"
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    port = srv.getsockname()[1]
    srv.close()

    env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(tabverify.__file__))]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tabverify.cli", "serve",
         "--graph", str(workspace / "demo.txt"), "--seed", "2",
         "--listen", f"127.0.0.1:{port}", "--out", str(pp),
         "--max-sessions", "1"],
        env=env, stdout=subprocess.PIPE, text=True)
    try:
        # printed once listening; the public parameters are written before
        assert proc.stdout.readline().startswith("serving on")
        r = run([
            "verify", "--spec", str(workspace / "demo.txt"),
            "--connect", f"127.0.0.1:{port}", "--pp", str(pp),
            "--domains", str(workspace / "domains.json"),
            "--mode", "general", "--budget", "4",
            "--seed", "9", "--cert", str(cert),
        ])
        assert proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.stdout.close()
    assert r.exit_code == 0, r.output
    r2 = run(["audit", "--cert", str(cert)])
    assert r2.exit_code == 0
    assert '"ok":1' in r2.output


def test_serve_closes_connections_past_the_cap(monkeypatch):
    # with one slot, a second connection is closed at once and does not
    # count as a session; the first keeps its answers, and its slot is
    # free again once its session has ended
    monkeypatch.setattr(cli, "MAX_CONNECTIONS", 1)
    sessions = []
    serve_one = cli.serve_loop

    def serve_loop(dev, chan):
        sessions.append(threading.current_thread())
        serve_one(dev, chan)

    monkeypatch.setattr(cli, "serve_loop", serve_loop)
    dev = Developer(parse_graph(DEMO_GRAPH_TEXT), rng=random.Random(0))
    t = next(t for t in dev.pp.structure["tables"]
             if t["ports"][0]["producers"][0][0] == "input")
    q1 = make_frame("encode", {"qkind": 1, "i": t["index"], "port": 0,
                               "u": bits_str(int_to_bits(1, 8) + (0,) * 8)})
    accepted = queue.Queue()
    server = threading.Thread(target=cli.serve_connections,
                              args=(dev, accepted.get, 2), daemon=True)
    pairs = [socket.socketpair() for _ in range(3)]
    for peer, _ in pairs:
        peer.settimeout(10)

    def answer(peer):
        chan = SocketChannel(peer)
        chan.send(q1)
        return chan.recv()["body"]["answer"]["kind"]

    server.start()
    try:
        accepted.put(pairs[0][1])
        assert answer(pairs[0][0]) == "w"
        accepted.put(pairs[1][1])
        assert pairs[1][0].recv(1) == b""  # closed at once
        assert answer(pairs[0][0]) == "w"
        pairs[0][0].close()
        sessions[0].join(timeout=10)
        assert not sessions[0].is_alive()
        accepted.put(pairs[2][1])  # the second session: served, then the loop ends
        assert answer(pairs[2][0]) == "w"
        server.join(timeout=10)
        assert not server.is_alive()
    finally:
        for peer, conn in pairs:
            peer.close()
            conn.close()
        server.join(timeout=10)
        for s in sessions:
            s.join(timeout=10)


def test_verify_refuses_general_mode_on_narrow_width(workspace):
    from helpers import NARROW_TEXT

    narrow = workspace / "narrow.txt"
    narrow.write_text(NARROW_TEXT)
    args = ["verify", "--spec", str(narrow), "--graph", str(narrow),
            "--m-width", "6", "--cert", str(workspace / "narrow-cert.json")]
    r = run(args + ["--mode", "general"])
    assert r.exit_code == 2
    assert "width 6" in r.output
    assert not (workspace / "narrow-cert.json").exists()
    assert run(args).exit_code == 0


def test_usage_error_exit_codes(workspace):
    r = run(["verify", "--spec", str(workspace / "demo.txt"),
             "--cert", str(workspace / "c.json")])
    assert r.exit_code == 2
    r2 = run(["verify", "--spec", str(workspace / "demo.txt"),
              "--graph", str(workspace / "demo.txt"),
              "--connect", "x:1", "--cert", str(workspace / "c.json")])
    assert r2.exit_code == 2
    # a session with no test budget and no critical points tests nothing
    r3 = run(["verify", "--spec", str(workspace / "demo.txt"),
              "--graph", str(workspace / "demo.txt"), "--budget", "0",
              "--cert", str(workspace / "c.json")])
    assert r3.exit_code == 2
    assert "tests nothing" in json.loads(r3.stderr)["message"]
    assert not (workspace / "c.json").exists()


@pytest.fixture(scope="module")
def demo_pp():
    return Developer(parse_graph(DEMO_GRAPH_TEXT), rng=random.Random(0)).pp.to_dict()


def edited_pp(pp, fault):
    """pp with one field added, or of the wrong type or shape."""
    pp = json.loads(json.dumps(pp))
    first = next(iter(pp["programs"]))
    if fault == "legacy-field":  # a field that format v2 published
        pp["code_params"] = {"m_c": 4, "eps": [1, 4], "K": 16, "seed": 0}
    elif fault == "key-id-short":
        pp["hpk"]["key_id"] = pp["hpk"]["key_id"][:8]
    elif fault == "kind-unknown":
        pp["hpk"]["kind"] = "bogus"
    elif fault == "u-params-two":
        pp["u_params"] = pp["u_params"][:2]
    elif fault == "u-params-zero":
        pp["u_params"][0] = 0
    elif fault == "u-params-edited":
        pp["u_params"][1] += 1
    elif fault == "programs-list":
        pp["programs"] = list(pp["programs"].values())
    elif fault == "program-short":
        pp["programs"][first] = pp["programs"][first][:-1]
    elif fault == "structure-empty":
        pp["structure"] = {}
    elif fault == "table-no-ports":  # the table step would cycle no inputs
        pp["structure"]["tables"][0]["ports"] = []
    elif fault == "input-renamed":  # consistent, but not the spec's name
        old = pp["structure"]["external_inputs"][0][0]
        pp["structure"]["external_inputs"][0][0] = "zz"
        for t in pp["structure"]["tables"]:
            for port in t["ports"]:
                port["producers"] = [["input", "zz"] if p == ["input", old] else p
                                     for p in port["producers"]]
    elif fault == "input-unpublished":  # only the producer is renamed
        port = pp["structure"]["tables"][0]["ports"][0]
        assert port["producers"][0][0] == "input"
        port["producers"][0][1] = "zz"
    elif fault == "output-type-str":  # was read as an int
        pp["structure"]["outputs"][0]["type"] = "str"
    elif fault == "output-tables-int":
        pp["structure"]["outputs"][0]["tables"] = 3
    elif fault == "output-name-list":
        pp["structure"]["outputs"][0]["name"] = ["z"]
    elif fault == "index-str":
        pp["structure"]["tables"][0]["index"] = "1"
    elif fault == "index-missing":
        del pp["structure"]["tables"][0]["index"]
    elif fault == "external-missing":
        del pp["structure"]["tables"][0]["external"]
    else:
        assert fault == "port-no-producers"
        pp["structure"]["tables"][0]["ports"][0]["producers"] = []
    return json.dumps(pp)


PP_FAULTS = ["legacy-field", "key-id-short", "kind-unknown", "u-params-two",
             "u-params-zero", "u-params-edited", "programs-list",
             "program-short", "structure-empty", "table-no-ports",
             "port-no-producers", "input-renamed", "input-unpublished",
             "output-type-str", "output-tables-int", "output-name-list",
             "index-str", "index-missing", "external-missing"]


@pytest.mark.parametrize("bad", [
    "pp-missing", "pp-not-json", "pp-not-params", "domains-missing",
    "domains-not-json", "domains-not-object", "domains-omit-input",
    "domains-value-not-int", "cp-missing", "cp-not-json", "cp-not-list",
    "cp-not-pair", "cp-input-omits-b", "cp-input-not-int"]
    + [f"pp-{fault}" for fault in PP_FAULTS])
def test_verify_refuses_bad_input_files_before_connecting(workspace, demo_pp,
                                                           bad):
    # each bad input is refused with a JSON error and exit 2 before the
    # verifier connects: the listening socket never sees a connection
    (workspace / "pp.json").write_text(json.dumps(demo_pp))
    files = {"pp": "pp.json", "domains": "domains.json", "cp": "cp.json"}
    option, _, fault = bad.partition("-")
    files[option] = f"{bad}.json"
    content = {"not-json": "{not json", "not-params": "{}",
               "not-object": "[1, 2]", "not-list": "5",
               "not-pair": json.dumps([[{"a": 1}]]),
               "input-omits-b": json.dumps([[{"a": 1}, {}]]),
               "input-not-int": json.dumps([[{"a": "x", "b": True}, {}]]),
               "omit-input": json.dumps({"a": {"lo": 0, "hi": 3}}),
               "value-not-int": json.dumps({"a": ["x"], "b": [False, True]})}
    if fault in PP_FAULTS:
        content[fault] = edited_pp(demo_pp, fault)
    if fault != "missing":
        (workspace / files[option]).write_text(content[fault])
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen()
    srv.setblocking(False)
    try:
        r = run(["verify", "--spec", str(workspace / "demo.txt"),
                 "--connect", f"127.0.0.1:{srv.getsockname()[1]}",
                 "--mode", "general", "--cert", str(workspace / "c.json")]
                + [arg for key, name in files.items()
                   for arg in (f"--{key}", str(workspace / name))])
        with pytest.raises(BlockingIOError):
            srv.accept()
    finally:
        srv.close()
    assert r.exit_code == 2, r.output
    assert set(json.loads(r.stderr)) == {"error", "message"}
    assert not (workspace / "c.json").exists()


def test_audit_of_a_document_that_is_not_an_object_exits_one(workspace):
    cert = workspace / "cert.json"
    cert.write_text("[]")
    r = run(["audit", "--cert", str(cert)])
    assert r.exit_code == 1
    assert "not a JSON object" in json.loads(r.stderr)["message"]


def test_sim_equiv_one_session():
    r = run(["sim-equiv", "--sessions", "1"])
    assert r.exit_code == 0, r.output
    assert "session 0: byte-identical" in r.output
    assert "real/ideal metadata indistinguishable" in r.output
