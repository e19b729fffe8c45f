"""The benchmark's party processes (`perfbench/party.py`) read the
developer's circuits and programs for their static line. `static_counts`
reports a lost attribute as a `missing` key rather than an error, so a
change to those attributes would zero that line unseen; this pins the
demo developer's counts through the benchmark's own code."""

import importlib
import pathlib
import random
import sys

from tabverify.demo import demo_graph
from tabverify.protocol import Developer

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_static_counts_read_the_demo_developer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("party", "speed"):  # perfbench's modules, by their plain names
        monkeypatch.delitem(sys.modules, name, raising=False)
    party = importlib.import_module("party")
    dev = Developer(demo_graph(), rng=random.Random(1), strategy=None)
    counts = party.static_counts(dev)
    assert "missing" not in counts, counts["missing"]
    assert counts["circuit.program_bits"] == 688
    assert counts["circuit.table_gates_max"] == 37
    assert counts["circuit.uc_gates"] == 8897
