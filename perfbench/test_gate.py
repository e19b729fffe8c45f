"""Self-test of the benchmark's correctness gate and output format.

    python3 -m pytest perfbench -q

The runs here use a suite budget of 2 and stop after the minimum number of
operations, so the whole file takes about a minute.
"""

import json
import time

import pytest

import run
import spans
import speed
import tamper

TINY_BUDGET = 2


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    run.load_program()
    monkeypatch.setattr(run, "BUDGET", TINY_BUDGET)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 3)


def test_flip_payload_sessions_count_as_failed():
    # general mode: on honest-mode diamond the two flips (the input's and
    # the output's low bit) cancel, so the session is indistinguishable
    # from an honest one and passes every check
    st = run.run_workload("general-demo", 0, 0, 0, strategy="flip-payload")
    assert len(st["sessions"]) == len(st["audits"]) == 2
    assert all(s["verdict"] == "reject" for s in st["sessions"])
    # every session fails; the audits of the rejected certificates return
    # 0, as they must, and the set-up-only runs pass
    assert all(a["ok"] == 0 for a in st["audits"])
    assert st["failed"] == 2 and st["attempted"] == 4 + len(st["setups"])


def test_tamper_that_audits_to_one_counts_as_failed(monkeypatch):
    # an "identity" tamper leaves the certificate valid, so it audits to 1
    monkeypatch.setattr(tamper, "tamper",
                        lambda cert, section, position, rng: (cert, "-"))
    st = run.run_workload("audit-tamper", 0, 0, 0)
    tampered = st["audits"]
    assert tampered and all(a["ok"] == 1 for a in tampered)
    assert st["failed"] == len(tampered)


def test_tamper_changes_one_leaf_of_its_section():
    import random

    cert = {"qa_e": [{"q": {"i": 1, "u": "0101"}, "a": {"kind": "top"}}],
            "verdict": "accept", "outputs": {"k": {"w": True}}}
    for seed in range(20):
        rng = random.Random(seed)
        doc, where = tamper.tamper(cert, "qa_e", rng.random(), rng)
        assert where.startswith("qa_e/") and doc != cert
        assert doc["verdict"] == cert["verdict"]


def test_request_ids_match_between_parties():
    # request k carries id k in both processes: the verifier's send of the
    # request and the developer's handle and send of the reply
    r = run.Run(TINY_BUDGET)
    try:
        res = run.run_session(r, run.WORKLOADS["general-demo"],
                              run.session_config("general-demo", 0, 0),
                              traced=True)
        ids = {}
        for party, path in res["traces"].items():
            with open(path, encoding="utf-8") as f:
                for name, _layer, *_, req, _child in json.load(f)["spans"]:
                    kind = name.split(".")[0]
                    if kind in ("send", "handle"):
                        ids.setdefault((party, kind), []).append(req)
    finally:
        r.close()
    want = list(range(1, sum(res["frames"].values()) + 1))
    assert ids == {("ver", "send"): want, ("dev", "handle"): want,
                   ("dev", "send"): want}


def test_meter_leaves_its_probes_out_of_the_section():
    with speed.Meter() as m:
        time.sleep(0.3)
    # about ten timer probes ran during the sleep, plus one on each side
    assert len(m.samples) >= 6 and m.spent_s > 0
    assert abs(m.elapsed_s - 0.3) < 0.03
    assert m.ref_s == pytest.approx(m.elapsed_s * m.factor())
    with speed.Meter(sample=False) as plain:
        time.sleep(0.05)
    assert plain.samples == [] and plain.ref_s == plain.elapsed_s


def test_missing_wrapped_names_are_reported(monkeypatch):
    monkeypatch.setattr(spans, "WRAPS", (
        ("tabverify.protocol:no_such_function", "protocol", "x", "span"),
        ("tabverify.no_such_module:f", "protocol", "y", "span"),
    ))
    tracer = spans.Tracer().install()
    assert tracer.missing == ["tabverify.protocol:no_such_function",
                              "tabverify.no_such_module:f"]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_and_units(workload, trace, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = run.benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert [(k, v["unit"]) for k, v in last["metrics"].items()] == [
        (m["name"], m["unit"]) for m in spec]
    for v in last["metrics"].values():
        assert isinstance(v["value"], (int, float))
