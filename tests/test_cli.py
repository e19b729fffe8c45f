import base64
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
from tabverify import audit as audit_mod, cli, he
from tabverify.channel import SocketChannel, make_frame
from tabverify.cli import main
from tabverify.demo import DEMO_GRAPH_TEXT
from tabverify.graphtext import parse_graph
from tabverify.circuit import UniversalCircuit
from tabverify.protocol import Developer, bits_hex, cts_b64


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


def test_audit_reports_annotations_as_unverified(workspace):
    # the content hash does not protect annotations: an edit that
    # recomputes it still audits to 1, and the report says so
    cert = workspace / "demo-cert.json"
    assert run(["demo", "--mode", "honest", "--cert", str(cert)]).exit_code == 0
    doc = json.loads(cert.read_text())
    notes = doc["certificate"]["annotations"]
    notes["documented_claim"]["ground_truth"] = {"c": 9, "w": True}
    notes["extra"] = "anything"
    doc["content_hash"] = audit_mod.certificate_hash(doc["certificate"])
    cert.write_text(json.dumps(doc))
    r = run(["audit", "--cert", str(cert)])
    assert r.exit_code == 0
    out = json.loads(r.output)
    assert out["ok"] == 1
    assert out["report"]["unverified"] == ["annotations"]
    del doc["certificate"]["annotations"]
    ok, report = audit_mod.audit(doc["certificate"])
    assert ok == 1 and "unverified" not in report


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
    q1 = make_frame("encode", {"qkind": 1, "input": "a", "x": bits_hex(0, 8)})
    accepted = queue.Queue()
    server = threading.Thread(target=cli.serve_connections,
                              args=(dev, accepted.get, 2), daemon=True)
    pairs = [socket.socketpair() for _ in range(3)]
    for peer, _ in pairs:
        peer.settimeout(10)

    def answer(peer):
        """Whether the developer on peer answers the q1 with its word."""
        chan = SocketChannel(peer)
        chan.send(q1)
        return isinstance(chan.recv()["body"]["answer"], str)

    server.start()
    try:
        accepted.put(pairs[0][1])
        assert answer(pairs[0][0])
        accepted.put(pairs[1][1])
        assert pairs[1][0].recv(1) == b""  # closed at once
        assert answer(pairs[0][0])
        pairs[0][0].close()
        sessions[0].join(timeout=10)
        assert not sessions[0].is_alive()
        accepted.put(pairs[2][1])  # the second session: served, then the loop ends
        assert answer(pairs[2][0])
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
            "--cert", str(workspace / "narrow-cert.json")]
    r = run(args + ["--mode", "general"])
    assert r.exit_code == 2
    assert "width 6" in r.output
    assert not (workspace / "narrow-cert.json").exists()
    assert run(args).exit_code == 0


ONE_TABLE = """
table T { inputs: x; outputs: y; rows: [(x > 0, x), (x <= 0, 0)]; }
edges:
  Input.x -> T.x;
  T.y -> Output.y;
"""


@pytest.mark.parametrize("width", ["0", "-4", "5"])
def test_verify_refuses_a_bad_m_width(workspace, width):
    # the design's `width:` line is its one source of the width
    design = workspace / "one.txt"
    design.write_text(f"width: {width};\n" + ONE_TABLE)
    r = run(["verify", "--spec", str(design), "--graph", str(design),
             "--cert", str(workspace / "c.json")])
    assert r.exit_code == 2
    err = json.loads(r.stderr)
    assert err["error"] == "graph"
    if width != "-4":  # -4 is not one integer token, so not a width at all
        assert err["message"].startswith(f"bad width {width}")
    assert not (workspace / "c.json").exists()


def test_verify_has_no_width_flag(workspace):
    design = workspace / "one.txt"
    design.write_text(ONE_TABLE)
    r = run(["verify", "--spec", str(design), "--graph", str(design),
             "--m-width", "6", "--cert", str(workspace / "c.json")])
    assert r.exit_code == 2
    assert "--m-width" in r.output
    assert not (workspace / "c.json").exists()


# rows 1 and 2 of T both hold for x > 2
OVERLAPPING_SPEC = """
table T { inputs: x; outputs: y; rows: [(x > 0, x + 1), (x > 2, 0 - x), (x <= 0, 0)]; }
edges:
  Input.x -> T.x;
  T.y -> Output.y;
"""


def test_verify_refuses_an_overlapping_spec(workspace):
    spec = workspace / "overlap.txt"
    spec.write_text(OVERLAPPING_SPEC)
    (workspace / "x.json").write_text(json.dumps({"x": [-2, 1, 3, 4]}))
    r = run(["verify", "--spec", str(spec), "--graph", str(spec), "--mode", "general",
             "--domains", str(workspace / "x.json"),
             "--cert", str(workspace / "c.json")])
    assert r.exit_code == 2
    err = json.loads(r.stderr)
    assert err["error"] == "verifier"
    assert "ambiguous at input {\"x\":" in err["message"]
    assert '["T#1","T#2"]' in err["message"]
    assert not (workspace / "c.json").exists()


TWO_OUTPUTS = """
table T { inputs: x; outputs: y, z; rows: [(x > 0, x - 1, x), (x <= 0, 0 - x, 0)]; }
edges:
  Input.x -> T.x;
  T.y -> Output.y;
  T.z -> Output.z;
"""
SPLIT = """
table Y { inputs: x; outputs: y; rows: [(x > 0, x - 1), (x <= 0, 0 - x)]; }
table Z { inputs: x; outputs: z; rows: [(x > 0, x), (x <= 0, 0)]; }
edges:
  Input.x -> Y.x;
  Input.x -> Z.x;
  Y.y -> Output.y;
  Z.z -> Output.z;
"""


@pytest.mark.parametrize("command", ["compile", "encrypt", "verify-graph",
                                     "verify-spec"])
def test_a_two_output_table_is_refused(workspace, command):
    (workspace / "two.txt").write_text(TWO_OUTPUTS)
    (workspace / "split.txt").write_text(SPLIT)
    two, split = str(workspace / "two.txt"), str(workspace / "split.txt")
    cert = ["--cert", str(workspace / "c.json")]
    args = {"compile": ["compile", "--graph", two],
            "encrypt": ["encrypt", "--graph", two, "--out",
                        str(workspace / "pp.json")],
            "verify-graph": ["verify", "--spec", split, "--graph", two] + cert,
            "verify-spec": ["verify", "--spec", two, "--graph", split] + cert}
    r = run(args[command])
    assert r.exit_code == 2
    assert json.loads(r.stderr) == {
        "error": "graph",
        "message": "table 'T' has 2 outputs; a table has one output port"}
    assert not (workspace / "c.json").exists()
    assert not (workspace / "pp.json").exists()


BYPASS = """
table T { inputs: x; outputs: y; rows: [(x > 0, x), (x <= 0, 0 - x)]; }
edges:
  Input.x -> T.x;
  T.y -> Output.y;
  Input.x -> Output.z;
"""


@pytest.mark.parametrize("command", ["compile", "verify-graph", "verify-spec"])
def test_an_input_wired_straight_to_an_output_is_refused(workspace, command):
    (workspace / "bypass.txt").write_text(BYPASS)
    (workspace / "one.txt").write_text(ONE_TABLE)
    bypass, one = str(workspace / "bypass.txt"), str(workspace / "one.txt")
    cert = ["--cert", str(workspace / "c.json")]
    args = {"compile": ["compile", "--graph", bypass],
            "verify-graph": ["verify", "--spec", one, "--graph", bypass] + cert,
            "verify-spec": ["verify", "--spec", bypass, "--graph", one] + cert}
    r = run(args[command])
    assert r.exit_code == 2
    assert json.loads(r.stderr) == {
        "error": "graph",
        "message": "edge Input.x -> Output.z passes through no table"}
    assert not (workspace / "c.json").exists()


def one_table_with(pred, func):
    return ONE_TABLE.replace("(x > 0, x)", f"({pred}, {func})")


DEEP = {  # each crashed compile or verify with a RecursionError and exit 1
    "parens-150": (one_table_with("(" * 150 + "x > 0" + ")" * 150, "x"),
                   "expression nests deeper than 64 levels"),
    "sum-1500": (one_table_with("x > 0", " + ".join(["x"] * 1500)),
                 "expression is more than 32 nodes deep"),
    "sum-980": (one_table_with("x > 0", " + ".join(["x"] * 980)),
                "expression is more than 32 nodes deep"),
}


@pytest.mark.parametrize("command", ["compile", "verify-spec"])
@pytest.mark.parametrize("case", list(DEEP))
def test_a_deep_expression_is_refused(workspace, case, command):
    text, message = DEEP[case]
    (workspace / "deep.txt").write_text(text)
    deep = str(workspace / "deep.txt")
    args = {"compile": ["compile", "--graph", deep],
            "verify-spec": ["verify", "--spec", deep, "--graph", deep,
                            "--cert", str(workspace / "c.json")]}
    r = run(args[command])
    assert r.exit_code == 2
    assert json.loads(r.stderr) == {"error": "graph", "message": message}
    assert not (workspace / "c.json").exists()


def test_the_deepest_nesting_the_parser_takes_compiles(workspace):
    (workspace / "nest.txt").write_text(
        one_table_with("(" * 64 + "x > 0" + ")" * 64, "x"))
    r = run(["compile", "--graph", str(workspace / "nest.txt")])
    assert r.exit_code == 0, r.output


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


# a fault that appends a ref to the first port of one table: the table's
# position in the list, and the ref; tables 1-4 read a, 5-6 read b, and
# 7-8 read tables 1-4
PORT_GAINS = {"port-input-then-table": (4, 1),
              "port-two-inputs": (0, "b"),
              "port-table-then-input": (6, "a"),
              "port-table-twice": (6, 1)}


def edited_pp(pp, fault):
    """pp with one field added, or of the wrong type or shape."""
    pp = json.loads(json.dumps(pp))
    if fault == "legacy-field":  # a field that format v2 published
        pp["code_params"] = {"m_c": 4, "eps": [1, 4], "K": 16, "seed": 0}
    elif fault == "key-id-short":
        pp["hpk"]["key_id"] = pp["hpk"]["key_id"][:8]
    elif fault == "kind-unknown":
        pp["hpk"]["kind"] = "bogus"
    elif fault == "hpk-integer-she":  # its payload size came to 0 bytes
        pp["hpk"] = INTEGER_SHE_HPK
    elif fault == "u-params-two":
        pp["u_params"] = pp["u_params"][:2]
    elif fault == "u-params-zero":
        pp["u_params"][0] = 0
    elif fault == "u-params-edited":
        pp["u_params"][1] += 1
    elif fault == "u-params-narrow":  # width 1, with programs of its length
        pp["u_params"][2] = 1
        plen = UniversalCircuit(*pp["u_params"]).program_length
        program = he.enc_word(he.hpk_from_dict(pp["hpk"]), (0,) * plen)
        pp["programs"] = [cts_b64(program)] * len(pp["programs"])
    elif fault == "programs-short":  # no program for table 8
        pp["programs"].pop()
    elif fault == "programs-long":  # a program for a table 9
        pp["programs"].append(pp["programs"][0])
    elif fault == "program-short":  # one payload fewer than u_params say
        word = base64.b64decode(pp["programs"][0])
        pp["programs"][0] = base64.b64encode(word[:-17]).decode("ascii")
    elif fault in ("program-tag", "program-key-id"):  # another key pair's word
        word = bytearray(base64.b64decode(pp["programs"][0]))
        if fault == "program-tag":
            word[0] = 2  # the tag byte of no backend
        else:
            word[8] ^= 1
        pp["programs"][0] = base64.b64encode(word).decode("ascii")
    elif fault == "structure-empty":
        pp["structure"] = {}
    elif fault == "table-no-ports":  # the table step would cycle no inputs
        pp["structure"]["tables"][0]["ports"] = []
    elif fault == "input-renamed":  # consistent, but not the spec's name
        old = pp["structure"]["external_inputs"][0][0]
        pp["structure"]["external_inputs"][0][0] = "zz"
        for t in pp["structure"]["tables"]:
            t["ports"] = [["zz" if r == old else r for r in port] for port in t["ports"]]
    elif fault == "input-unpublished":  # only the ref is renamed
        port = pp["structure"]["tables"][0]["ports"][0]
        assert port == ["a"]
        port[0] = "zz"
    elif fault == "output-type-str":  # was read as an int
        pp["structure"]["outputs"][0]["type"] = "str"
    elif fault == "output-tables-int":
        pp["structure"]["outputs"][0]["tables"] = 3
    elif fault == "output-name-list":
        pp["structure"]["outputs"][0]["name"] = ["z"]
    elif fault.startswith("index-"):  # a table keeps format v14's index
        index = {"index-str": "1", "index-missing": None, "index-skips": 2}[fault]
        pp["structure"]["tables"][0]["index"] = index
    elif fault == "external-missing":
        del pp["structure"]["tables"][0]["external"]
    elif fault.startswith("program-key-"):  # format v14's map by table index
        pp["programs"] = {str(i): p for i, p in enumerate(pp["programs"], 1)}
        if fault == "program-key-skips":
            pp["programs"]["9"] = pp["programs"].pop("8")
        else:  # int() reads it as 1
            pp["programs"]["0_1"] = pp["programs"].pop("1")
    elif fault == "key-id-upper":  # bytes.fromhex() reads it as the key id
        pp["hpk"]["key_id"] = pp["hpk"]["key_id"].upper()
    elif fault.startswith("producer-"):  # table 7 reads tables 1-4
        port = pp["structure"]["tables"][6]["ports"][0]
        assert port == [1, 2, 3, 4]
        port[0] = {"producer-kind-tabel": ["tabel", 1],  # format v14's kind tag
                   "producer-same-table": 7,
                   "producer-later-table": 8,
                   "producer-missing-table": 9}[fault]
    elif fault.startswith("output-") and fault.endswith("-table"):
        group = pp["structure"]["outputs"][0]  # c, from tables 5 and 6
        assert group["tables"] == [5, 6]
        group["tables"] = [1, 6] if fault == "output-internal-table" else [5, 9]
    elif fault == "output-no-tables":
        pp["structure"]["outputs"][0]["tables"] = []
    elif fault == "output-table-twice":
        pp["structure"]["outputs"][0]["tables"] = [5, 6, 5]
    elif fault == "output-name-twice":  # a second group c, after w
        pp["structure"]["outputs"].append(dict(pp["structure"]["outputs"][0]))
    elif fault == "external-unlisted":  # table 1 feeds no output group
        pp["structure"]["tables"][0]["external"] = True
    elif fault in PORT_GAINS:
        position, ref = PORT_GAINS[fault]
        pp["structure"]["tables"][position]["ports"][0].append(ref)
    else:
        assert fault == "port-no-producers"
        pp["structure"]["tables"][0]["ports"][0] = []
    return json.dumps(pp)


PP_FAULTS = ["legacy-field", "key-id-short", "kind-unknown", "u-params-two",
             "u-params-zero", "u-params-edited", "programs-short", "programs-long",
             "program-short", "program-tag", "program-key-id", "structure-empty",
             "table-no-ports", "port-no-producers", "input-renamed", "input-unpublished",
             "output-type-str", "output-tables-int", "output-name-list",
             "index-str", "index-missing", "external-missing", "index-skips",
             "program-key-skips", "program-key-spelled", "key-id-upper",
             "producer-kind-tabel", "producer-same-table",
             "producer-later-table", "producer-missing-table",
             "output-internal-table", "output-missing-table", "output-no-tables",
             "port-input-then-table", "port-two-inputs", "port-table-then-input",
             "port-table-twice", "output-table-twice", "output-name-twice",
             "external-unlisted"]


@pytest.mark.parametrize("bad", [
    "pp-missing", "pp-not-json", "pp-not-params", "domains-missing",
    "domains-not-json", "domains-not-object", "domains-omit-input",
    "domains-names-unknown-input",
    "domains-value-not-int", "cp-missing", "cp-not-json", "cp-not-list",
    "cp-not-pair", "cp-input-omits-b", "cp-input-not-int", "pp-nested",
    "domains-nested", "cp-nested"]
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
               "nested": "[" * 100000,  # a RecursionError in the JSON parser
               "not-object": "[1, 2]", "not-list": "5",
               "not-pair": json.dumps([[{"a": 1}]]),
               "input-omits-b": json.dumps([[{"a": 1}, {}]]),
               "input-not-int": json.dumps([[{"a": "x", "b": True}, {}]]),
               "omit-input": json.dumps({"a": {"lo": 0, "hi": 3}}),
               "names-unknown-input": json.dumps(
                   {"a": {"lo": 0, "hi": 3}, "b": [False, True], "extra": []}),
               "value-not-int": json.dumps({"a": ["x"], "b": [False, True]})}
    if fault in PP_FAULTS:
        content[fault] = edited_pp(demo_pp, fault)
    if fault != "missing":
        (workspace / files[option]).write_text(content[fault])
    error = verify_refused_before_connecting(workspace, files)
    assert set(error) == {"error", "message"}


def verify_refused_before_connecting(workspace, files, mode="general"):
    """The JSON error of a verify --connect run on the files, which must
    exit 2 before it connects and write no certificate."""
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen()
    srv.setblocking(False)
    try:
        r = run(["verify", "--spec", str(workspace / "demo.txt"),
                 "--connect", f"127.0.0.1:{srv.getsockname()[1]}",
                 "--mode", mode, "--cert", str(workspace / "c.json")]
                + [arg for key, name in files.items()
                   for arg in (f"--{key}", str(workspace / name))])
        with pytest.raises(BlockingIOError):
            srv.accept()
    finally:
        srv.close()
    assert r.exit_code == 2, r.output
    assert not (workspace / "c.json").exists()
    return json.loads(r.stderr)


@pytest.mark.parametrize("option, content, kind", [
    ("domains", {"a": {"lo": 0, "hi": 2 ** 62}}, "domains"),
    ("domains", {"a": {"lo": -129, "hi": 0}}, "domains"),
    ("domains", {"a": [0, 1000000]}, "verifier"),
    ("domains", {"a": [0, 128]}, "verifier"),
    ("cp", [[{"a": -129, "b": True}, {}]], "verifier"),
], ids=["range-huge", "range-low", "list-huge", "list-high", "cp-low"])
def test_verify_refuses_input_values_no_word_holds(workspace, demo_pp, option,
                                                   content, kind):
    # a width-16 word's payload holds -128..127. A range's bounds are
    # checked before its list is built, where 0..2**62 ran out of memory
    # (exit 1, as a reject reads); a listed value or a critical point past
    # them was tested as its low bits, 1000000 as 64, and could accept
    (workspace / "pp.json").write_text(json.dumps(demo_pp))
    if option == "domains":
        content = {**content, "b": [False, True]}
    (workspace / "wide.json").write_text(json.dumps(content))
    files = {"pp": "pp.json", "domains": "domains.json", "cp": "cp.json",
             option: "wide.json"}
    error = verify_refused_before_connecting(workspace, files)
    assert error["error"] == kind and "[-128, 128)" in error["message"]


# a published integer-she key whose parameters the developer picked: with
# eta -23 its ciphertexts had 0 payload bytes, and checking a program word
# divided by 0
INTEGER_SHE_HPK = {"kind": "integer-she", "key_id": "00" * 8,
                   "config": {"eta": -23, "rho": 16, "tau": 32, "gamma_extra": 0},
                   "x0": "0x1", "zeros": []}


@pytest.mark.parametrize("fault", ["hpk-integer-she", "u-params-narrow"])
def test_verify_refuses_a_key_or_width_no_session_runs_on(workspace, demo_pp, fault):
    # the transparent key is the only one; a word of width 1 has no payload
    # bits, and an honest session read its payloads with a shift of -1
    (workspace / "pp.json").write_text(edited_pp(demo_pp, fault))
    error = verify_refused_before_connecting(
        workspace, {"pp": "pp.json", "domains": "domains.json", "cp": "cp.json"},
        mode="honest")
    assert error == {"error": "verifier", "message": {
        "hpk-integer-she": "public parameters do not parse: "
                           "HeError(\"unknown backend 'integer-she'\")",
        "u-params-narrow": "published width 1 is not the specification's 16",
    }[fault]}


def test_audit_of_a_document_that_is_not_an_object_exits_one(workspace):
    cert = workspace / "cert.json"
    cert.write_text("[]")
    r = run(["audit", "--cert", str(cert)])
    assert r.exit_code == 1
    assert "not a JSON object" in json.loads(r.stderr)["message"]


def test_audit_of_a_deeply_nested_document_exits_one(workspace):
    # the JSON parser's RecursionError is a certificate error, not a crash
    cert = workspace / "cert.json"
    cert.write_text("[" * 100000)
    r = run(["audit", "--cert", str(cert)])
    assert r.exit_code == 1
    assert json.loads(r.stderr)["error"] == "certificate"


def test_sim_equiv_one_session():
    r = run(["sim-equiv", "--sessions", "1"])
    assert r.exit_code == 0, r.output
    assert "session 0: byte-identical" in r.output
    assert "real/ideal metadata indistinguishable" in r.output
