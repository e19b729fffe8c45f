import os
import pathlib
import subprocess
import sys

import pytest

from tabverify.demo import (
    CHAIN_DOMAINS,
    DEMO_DOMAINS,
    DEMO_GRAPH_TEXT,
    chain_graph,
)
from tabverify.graphtext import parse_graph
from tabverify.protocol import Structure
from tabverify.tables import evaluate_plain, transform
from tabverify.vga import coverage_report, generate_suite


def test_generate_suite_deterministic():
    g = parse_graph(DEMO_GRAPH_TEXT)
    a = generate_suite(g, DEMO_DOMAINS, seed=3, budget=12)
    b = generate_suite(g, DEMO_DOMAINS, seed=3, budget=12)
    c = generate_suite(g, DEMO_DOMAINS, seed=4, budget=12)
    assert a == b
    assert a != c
    assert a
    assert all(set(X) == {"a", "b"} for X in a)


def test_chain_structure_paths():
    # every suite input on the chain design runs a path A -> B -> C that
    # ends in a fired row of the external output table
    tg = transform(chain_graph())
    inputs = generate_suite(chain_graph(), CHAIN_DOMAINS, seed=0, budget=8)
    assert inputs
    assert inputs == generate_suite(chain_graph(), CHAIN_DOMAINS, seed=0, budget=8)
    assert tg.external_outputs
    for X in inputs:
        assert set(X) == {"x"} and X["x"] in CHAIN_DOMAINS["x"]
        outputs = evaluate_plain(tg, X)
        assert any(outputs[r] is not None and outputs[r].tag
                   for r, _ in tg.external_outputs)


def test_generate_suite_fires_every_row():
    g = parse_graph(DEMO_GRAPH_TEXT)
    tg = transform(g)
    inputs = generate_suite(g, DEMO_DOMAINS, seed=1, budget=16)
    fired = set()
    for X in inputs:
        outputs = evaluate_plain(tg, X)
        for name in tg.order:
            v = outputs[name]
            if v is not None and v.tag:
                fired.add(name)
    assert fired == set(tg.order)


def test_coverage_report_from_transcript():
    # an answer is its value: an 8-bit word's tag half of 4 bits, an
    # external table's whole word, a q1's base64 word, or null
    qa_e = [
        {"q": {"qkind": 2, "i": 1}, "a": "1"},
        {"q": {"qkind": 2, "i": 2}, "a": "0"},
        {"q": {"qkind": 1, "input": "a", "x": "3"}, "a": "AAAA"},
        {"q": {"qkind": 2, "i": 4}, "a": "31"},
        {"q": {"qkind": 2, "i": 5}, "a": None},
    ]
    structure = Structure(tables=((False, ("a",)),) * 5, inputs=(("a", "int"),),
                          outputs=())
    rep = coverage_report(qa_e, structure)
    assert rep.covered == [1, 4]
    assert rep.anti_covered == [2]
    assert rep.unreached == [3, 5]
    assert "covered" in rep.render_text()


NARROW_SESSION = """
import random
from helpers import NARROW_TEXT
from tabverify.audit import audit
from tabverify.graphtext import parse_graph
from tabverify.protocol import Developer, Verifier, verify_session
from tabverify.vga import generate_suite

graph = parse_graph(NARROW_TEXT)
dev = Developer(graph, rng=random.Random(1))
domains = {"x": [1, 2, 3]}
inputs = generate_suite(graph, domains, 7, 16)
v = Verifier(dev.pp.to_dict(), graph, domains, [], seed=7, rng=random.Random(2))
verdict, cert = verify_session(dev, v)
print(sorted(X["x"] for X in inputs), verdict, audit(cert)[0])
"""


def test_suite_stops_when_the_domains_allow_no_new_input():
    # the top-up aims at 4 inputs (2 row tables + 2), and the domains allow
    # 3; the suite holds those 3 instead of sampling forever. A subprocess
    # with a timeout, so that a hang fails the test instead of the run
    tests = pathlib.Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]))
    r = subprocess.run([sys.executable, "-c", NARROW_SESSION], env=env,
                       timeout=30, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["[1,", "2,", "3]", "accept", "1"]


def dead_end_chain(k):
    """k two-row tables chained from Input.x, the last output feeding
    nothing, beside one external table E."""
    names = [f"T{i:03d}" for i in range(k)]
    tables = [f"table {n} {{ inputs: x; outputs: y; rows: [(x > 0, x), (x <= 0, x)]; }}"
              for n in names]
    edges = ["Input.x -> T000.x"] + [f"{a}.y -> {b}.x"
                                     for a, b in zip(names, names[1:])]
    return "\n".join(tables + [
        "table E { inputs: x; outputs: e; rows: [(true, x)]; }", "edges:"]
        + [f"  {e};" for e in edges + ["Input.x -> E.x", "E.e -> Output.e"]])


@pytest.mark.parametrize("k", [30, 1100])
def test_a_dead_end_chain_verifies_and_audits_quickly(tmp_path, k):
    # the suite reads no structure, so a developer cannot stall the verifier
    # and every auditor with a structure of many source-to-sink paths: the
    # walk over them took about 4 times as long for every two tables more,
    # 10 s at 22 tables. Nor does the suite search for a row once it holds
    # every input the domains allow: a search over each of the spec's rows,
    # each evaluating the whole spec, took 37 s to verify 1,100 tables.
    # Subprocesses with a timeout, as above
    (tmp_path / "chain.txt").write_text(dead_end_chain(k))
    (tmp_path / "domains.json").write_text('{"x": [-1, 1]}')
    env = dict(os.environ, PYTHONPATH=str(
        pathlib.Path(__file__).resolve().parent.parent / "src"))
    cert = str(tmp_path / "cert.json")
    chain = str(tmp_path / "chain.txt")
    for args in (["verify", "--spec", chain, "--graph", chain, "--domains",
                  str(tmp_path / "domains.json"), "--budget", "4", "--cert", cert],
                 ["audit", "--cert", cert]):
        r = subprocess.run([sys.executable, "-m", "tabverify.cli", *args], env=env,
                           timeout=20, capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
    assert '"ok":1' in r.stdout
