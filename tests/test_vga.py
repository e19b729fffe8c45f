import os
import pathlib
import random
import subprocess
import sys

from tabverify.demo import (
    CHAIN_DOMAINS,
    DEMO_DOMAINS,
    DEMO_GRAPH_TEXT,
    chain_graph,
)
from tabverify.graphtext import parse_graph
from tabverify.protocol import Developer, Structure, public_structure
from tabverify.tables import evaluate_plain, transform
from tabverify.vga import (
    coverage_report,
    enumerate_paths,
    generate_suite,
)


def demo_structure():
    dev = Developer(parse_graph(DEMO_GRAPH_TEXT), rng=random.Random(0))
    return dev.pp.structure


def test_enumerate_paths_demo():
    paths = enumerate_paths(demo_structure(), limit=64)
    assert paths
    # every path ends at an external table and respects index order
    ext = {i for i, (external, _) in enumerate(demo_structure().tables, 1)
           if external}
    for p in paths:
        assert p[-1] in ext
        assert len(set(p)) == len(p)


def test_generate_suite_deterministic():
    g = parse_graph(DEMO_GRAPH_TEXT)
    s = demo_structure()
    a = generate_suite(s, g, DEMO_DOMAINS, seed=3, budget=12)
    b = generate_suite(s, g, DEMO_DOMAINS, seed=3, budget=12)
    c = generate_suite(s, g, DEMO_DOMAINS, seed=4, budget=12)
    assert a == b
    assert a != c
    _, inputs = a
    assert inputs
    assert all(set(X) == {"a", "b"} for X in inputs)


def test_generate_suite_fires_every_row():
    g = parse_graph(DEMO_GRAPH_TEXT)
    tg = transform(g)
    _, inputs = generate_suite(demo_structure(), g, DEMO_DOMAINS, seed=1, budget=16)
    fired = set()
    for X in inputs:
        outputs = evaluate_plain(tg, X)
        for name in tg.order:
            v = outputs[name]
            if v is not None and v.tag:
                fired.add(name)
    assert fired == set(tg.order)


def test_coverage_report_from_transcript():
    qa_e = [
        {"q": {"qkind": 2, "i": 1}, "a": {"kind": "top"}},
        {"q": {"qkind": 2, "i": 2}, "a": {"kind": "bot"}},
        {"q": {"qkind": 1, "i": 3, "port": 0}, "a": {"kind": "w"}},
        {"q": {"qkind": 2, "i": 4}, "a": {"kind": "payload", "payload": "01"}},
    ]
    structure = Structure(tables=((False, ("a",)),) * 5, inputs=(("a", "int"),),
                          outputs=())
    rep = coverage_report(qa_e, structure)
    assert rep.covered == [1, 4]
    assert rep.anti_covered == [2]
    assert rep.unreached == [3, 5]
    assert "covered" in rep.render_text()


def test_chain_structure_paths():
    dev = Developer(chain_graph(), rng=random.Random(0))
    paths = enumerate_paths(dev.pp.structure, limit=64)
    assert paths
    suite_paths, inputs = generate_suite(
        dev.pp.structure, dev.graph, CHAIN_DOMAINS, seed=0, budget=8
    )
    assert suite_paths == paths[:8] or suite_paths == paths
    assert inputs


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
_, inputs = generate_suite(dev.pp.structure, graph, domains, 7, 16)
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
