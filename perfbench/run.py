"""Cold two-party benchmark of tabverify.

    python3 perfbench/run.py --workload general-demo --seed 1 --seconds 15 --trace 0

Every session runs the developer and the verifier in fresh interpreters
that talk over loopback TCP, and every audit replays the saved certificate
in a fresh interpreter, so no party ever profits from another party's
module caches. One verifier drives one session at a time (a closed loop),
so at most two processes are busy. Each operation is checked (see
`check_session` and `check_audit`); a failed one counts in `failed`.
The end-to-end timings are given at the reference speed of `speed.py`,
which takes out the host's own changes of speed; their wall-clock medians
are printed before the result line.

The last line of standard output is one JSON object: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Lines before it give the static size counts, one line per operation and,
for a traced run, the per-layer self-time report. See README.md here.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT = 150.0  # seconds; a run must end well inside 180 s
BUDGET = 16  # verifier test-suite budget of every workload
SETUP_SAMPLES = 11  # set-ups per untraced run; setup_s is their median

WORKLOADS = {
    "honest-diamond": {"design": "diamond", "mode": "honest", "tamper": False},
    "general-demo": {"design": "demo", "mode": "general", "tamper": False},
    "audit-tamper": {"design": "demo", "mode": "general", "tamper": True},
}


class ProgramMissing(Exception):
    pass


def load_program():
    """Import tabverify from this checkout's src/, and nowhere else."""
    if not (SRC / "tabverify" / "__init__.py").is_file():
        raise ProgramMissing(f"no tabverify package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tabverify

    if Path(tabverify.__file__).resolve().parent != SRC / "tabverify":
        raise ProgramMissing(f"tabverify imported from {tabverify.__file__}")


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


# --- workload inputs -------------------------------------------------------------


def design(name):
    from tabverify import demo

    return {
        "demo": (demo.demo_graph(), demo.DEMO_DOMAINS),
        "diamond": (demo.diamond_graph(), demo.DIAMOND_DOMAINS),
    }[name]


def reference_ports(graph, X):
    """Boundary outputs of the untransformed design, by plain row selection.

    `tables.evaluate_original` shares no code with the circuit/HE path.
    """
    from tabverify.tables import OUTPUT, evaluate_original

    res = evaluate_original(graph, X)
    return {sport: res[src][sport]
            for (src, sport), (dst, _dport) in graph.edges if dst == OUTPUT}


def session_config(workload, seed, index):
    """Suite seed and party rng seeds of session config `index` of a run.

    The sessions carry no critical points: a critical point that is not in
    the suite adds one input, which would make the session's size depend
    on the seed.
    """
    rng = random.Random(f"perfbench:{workload}:{seed}:{index}")
    return {name: rng.randrange(1 << 30)
            for name in ("vga_seed", "dev_seed", "ver_seed")}


# --- party processes ---------------------------------------------------------------


class Run:
    """Scratch directory and process bookkeeping of one benchmark run."""

    def __init__(self, budget, pin=False):
        self.deadline = time.monotonic() + RUN_LIMIT
        self.tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.budget = budget
        self.n = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # With `pin`, every party runs on the same CPU. Developer and
        # verifier alternate strictly, so one CPU is enough, and no frame
        # has to wake an idle virtual CPU, whose wake-up time varies with
        # the host's load. A traced run does not pin: on a shared CPU a
        # party's spans would also hold the time its peer runs.
        self.cpu = ({max(os.sched_getaffinity(0))}
                    if pin and hasattr(os, "sched_setaffinity") else None)

    def timeout(self):
        """Seconds a party may still take before the run limit."""
        return max(1.0, self.deadline - time.monotonic())

    def path(self, stem):
        self.n += 1
        return str(self.tmp / f"{stem}{self.n}.json")

    def spawn(self, role, args, trace):
        cmd = [sys.executable, str(HERE / "party.py"), role, *args]
        if trace:
            cmd += ["--trace", trace]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                env=self.env, cwd=str(ROOT))
        if self.cpu is not None:
            try:
                os.sched_setaffinity(proc.pid, self.cpu)
            except ProcessLookupError:  # it has already exited
                pass
        return proc

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass


def _last_json(proc, out, err):
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"party exited {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1])


def _dev_args(spec, cfg, pp):
    return ["--design", spec["design"], "--dev-seed", str(cfg["dev_seed"]),
            "--pp", pp]


def _ver_args(run, spec, cfg, pp):
    return ["--design", spec["design"], "--mode", spec["mode"], "--pp", pp,
            "--vga-seed", str(cfg["vga_seed"]), "--ver-seed", str(cfg["ver_seed"]),
            "--budget", str(run.budget)]


def _reap(procs):
    for p in procs:
        if p.poll() is None:
            p.kill()
        p.wait()


def run_session(run, spec, cfg, traced=False, strategy=None):
    """One session: a fresh developer and a fresh verifier over TCP."""
    pp, cert = run.path("pp"), run.path("cert")
    dtrace = run.path("trace-dev") if traced else None
    vtrace = run.path("trace-ver") if traced else None
    dev_args = _dev_args(spec, cfg, pp)
    if strategy:
        dev_args += ["--strategy", strategy]
    res = {"cert": cert, "traces": {"dev": dtrace, "ver": vtrace}}
    procs = [run.spawn("dev", dev_args, dtrace)]
    try:
        ready, _, _ = select.select([procs[0].stdout], [], [], run.timeout())
        line = procs[0].stdout.readline() if ready else ""
        if not line:
            procs[0].wait(timeout=run.timeout())
            _last_json(procs[0], "", procs[0].stderr.read())
        hello = json.loads(line)
        procs.append(run.spawn("ver", _ver_args(run, spec, cfg, pp) + [
            "--port", str(hello["port"]), "--cert", cert], vtrace))
        vout, verr = procs[1].communicate(timeout=run.timeout())
        dout, derr = procs[0].communicate(timeout=run.timeout())
        ver = _last_json(procs[1], vout, verr)
        dev = _last_json(procs[0], dout, derr)
        with open(cert, "rb") as f:
            blob = f.read()
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.TimeoutExpired) as exc:
        res["error"] = f"{type(exc).__name__}: {exc}"
        return res
    finally:
        _reap(procs)
    res.update(ver)
    res.update(
        summaries=_summaries(res["traces"]),
        setup_s=hello["setup_s"] + ver["setup_s"],
        setup_ref_s=hello["setup_ref_s"] + ver["setup_ref_s"],
        static=hello["static"],
        rss_mb={"dev": dev["rss_mb"], "ver": ver["rss_mb"]},
        cert_bytes=len(blob),
        cert_sha=hashlib.sha256(blob).hexdigest(),
        cert_sections=cert_sections(blob),
    )
    return res


def run_setup(run, spec, cfg):
    """Set-up alone: a fresh developer process, then a fresh verifier."""
    pp = run.path("pp")
    res = {}
    procs = []
    try:
        for role, args in (("dev", _dev_args(spec, cfg, pp)),
                           ("ver", _ver_args(run, spec, cfg, pp))):
            procs.append(run.spawn(role, args + ["--setup-only"], None))
            out, err = procs[-1].communicate(timeout=run.timeout())
            res[role] = _last_json(procs[-1], out, err)
    except (OSError, ValueError, RuntimeError, subprocess.TimeoutExpired) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        _reap(procs)
    return {"setup_s": res["dev"]["setup_s"] + res["ver"]["setup_s"],
            "setup_ref_s": res["dev"]["setup_ref_s"] + res["ver"]["setup_ref_s"],
            "rss_mb": {role: r["rss_mb"] for role, r in res.items()}}


def run_audit(run, cert, traced=False):
    """One audit of a saved certificate file, in a fresh interpreter."""
    atrace = run.path("trace-aud") if traced else None
    res = {"traces": {"aud": atrace}}
    procs = [run.spawn("aud", ["--cert", cert], atrace)]
    try:
        out, err = procs[0].communicate(timeout=run.timeout())
        res.update(_last_json(procs[0], out, err))
        res["summaries"] = _summaries(res["traces"])
    except (OSError, ValueError, RuntimeError, subprocess.TimeoutExpired) as exc:
        res["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        _reap(procs)
    return res


def _summaries(traces):
    """Per-party summaries of the span files a traced process wrote."""
    from spans import summarize

    out = {}
    for party, path in traces.items():
        if path:
            with open(path, encoding="utf-8") as f:
                out[party] = summarize(json.load(f))
    return out


def cert_sections(blob):
    """Canonical JSON bytes of each top-level key of a saved certificate."""
    from tabverify.channel import canonical_json

    cert = json.loads(blob)["certificate"]
    return {k: len(canonical_json(v).encode("utf-8")) for k, v in cert.items()}


# --- correctness gate -------------------------------------------------------------


def outputs_match(graph, outputs):
    """True when every evaluated input's outputs equal the reference."""
    if not outputs:
        return False
    for key, got in outputs.items():
        want = reference_ports(graph, json.loads(key))
        if set(want) != set(got):
            return False
        for port, w in want.items():
            g = got[port]
            if w is None:  # no row fired: the encrypted path says bot or null
                if g not in (None, "bot"):
                    return False
            elif g != w or type(g) is not type(w):
                return False
    return True


def check_session(spec, res, digests, index):
    """Reasons the session failed; empty when it is correct.

    `digests` maps a session config index to the certificate digest its
    first run produced, so a repeated config must reproduce it byte for byte.
    """
    if "error" in res:
        return [res["error"]]
    reasons = []
    if res["verdict"] != "accept":
        reasons.append(f"verdict {res['verdict']}")
    if not outputs_match(design(spec["design"])[0], res["outputs"]):
        reasons.append("outputs differ from the reference evaluation")
    first = digests.setdefault(index, res["cert_sha"])
    if first != res["cert_sha"]:
        reasons.append("repeated config gave a different certificate")
    return reasons


def check_audit(res, expect):
    """Reasons the audit failed: it must return `expect` (1 or 0)."""
    if "error" in res:
        return [res["error"]]
    if res["ok"] != expect:
        return [f"audit returned {res['ok']}, expected {expect}"]
    return []


# --- workload loops -----------------------------------------------------------------


def _log(kind, i, res, reasons, extra=""):
    status = "ok" if not reasons else "FAILED: " + "; ".join(reasons)
    t = "-"
    for key in ("session", "audit", "setup"):
        if f"{key}_s" in res:
            t = f"{res[key + '_s']:.3f}s (ref {res[key + '_ref_s']:.3f}s)"
            break
    print(f"{kind} {i}: {t} {extra}{status}", flush=True)


class Window:
    """The measuring window of a run.

    Set-up samples are taken between the operations, spread over the
    window, but their time does not count against it.
    """

    def __init__(self, seconds):
        self.seconds = seconds
        self.t0 = time.perf_counter()
        self.paused = 0.0

    def used(self):
        return time.perf_counter() - self.t0 - self.paused

    def share(self):
        """Share of the window used so far, from 0 to 1."""
        if self.seconds <= 0:
            return 1.0
        return min(1.0, self.used() / self.seconds)


def run_workload(workload, seed, seconds, trace, strategy=None):
    """Run one workload; returns the raw operation records and tallies."""
    spec = WORKLOADS[workload]
    run = Run(BUDGET, pin=not trace)
    st = {"sessions": [], "audits": [], "setup_audits": [], "setups": [],
          "attempted": 0, "failed": 0}
    digests = {}

    def session(k):
        traced = bool(trace) and k % 2 == 1
        res = run_session(run, spec, session_config(workload, seed, k // 2),
                          traced=traced, strategy=strategy)
        res["traced"] = traced
        reasons = check_session(spec, res, digests, k // 2)
        _log("session", k, res, reasons, "traced " if traced else "")
        st["attempted"] += 1
        st["failed"] += bool(reasons)
        st["sessions"].append(res)
        return res

    def audit(cert, expect, traced, into=st["audits"]):
        res = run_audit(run, cert, traced=traced)
        res["traced"] = traced
        reasons = check_audit(res, expect)
        _log("audit", len(into), res, reasons, "traced " if traced else "")
        st["attempted"] += 1
        st["failed"] += bool(reasons)
        into.append(res)
        return res

    def pace(share):
        """Set-up-only runs until the run holds `share` of its set-ups."""
        want = math.ceil(SETUP_SAMPLES * share)
        while not trace and len(setup_times(st)) < want:
            t0 = time.perf_counter()
            i = len(st["setups"])
            res = run_setup(run, spec, session_config(workload, seed, 1000 + i))
            reasons = [res["error"]] if "error" in res else []
            _log("setup", i, res, reasons)
            st["attempted"] += 1
            st["failed"] += bool(reasons)
            st["setups"].append(res)
            if window is not None:
                window.paused += time.perf_counter() - t0

    window = None
    try:
        if not spec["tamper"]:
            window, k = Window(seconds), 0
            while k < 2 or window.used() < seconds:
                res = session(k)
                if "error" not in res:
                    # a rejected session's certificate replays to reject
                    expect = 1 if res["verdict"] == "accept" else 0
                    audit(res["cert"], expect, res["traced"])
                k += 1
                pace(window.share())
        else:
            # the base session, and after the tampers a repeat of it, which
            # must give the same certificate; in a traced run it is traced
            base = session(0)
            if "error" not in base:
                audit(base["cert"], 1, False, st["setup_audits"])
                window = Window(seconds)
                run_tampers(run, seed, window, trace, base, audit, pace)
            session(1)
        pace(1.0)
    finally:
        run.close()
    return st


def setup_times(st):
    return [r["setup_ref_s"] for r in st["sessions"] + st["setups"]
            if "error" not in r and not r.get("traced")]


def run_tampers(run, seed, window, trace, base, audit, pace):
    """Audit tampered copies of the base certificate until time is up."""
    from tabverify import audit as audit_mod
    from tamper import SECTIONS, mid_position, reject_class, tamper

    with open(base["cert"], encoding="utf-8") as f:
        cert = json.load(f)["certificate"]
    j = 0
    # whole rounds of one tamper per section, so every run has the same mix
    while j % len(SECTIONS) or j == 0 or window.used() < window.seconds:
        section = SECTIONS[j % len(SECTIONS)]
        rng = random.Random(f"perfbench:tamper:{seed}:{j}")
        doc, where = tamper(cert, section, mid_position(rng.random()), rng)
        path = run.path("tampered")
        audit_mod.save_certificate(doc, path)
        for traced in ((False, True) if trace else (False,)):
            res = audit(path, 0, traced)
        print(f"tamper {j}: {section} {where} -> "
              f"{reject_class(res.get('reason'))}", flush=True)
        j += 1
        pace(window.share())


# --- metrics -----------------------------------------------------------------------------


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _quantile(xs, q):
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def end_to_end(st):
    sessions = [s for s in st["sessions"] if "error" not in s and not s["traced"]]
    audits = [a for a in st["audits"] if "error" not in a and not a["traced"]]
    # a frame's round trip at the reference speed of its session
    rtts = [x * s["session_ref_s"] / s["session_s"]
            for s in sessions for x in s["rtts_ms"]]
    procs = st["sessions"] + st["audits"] + st["setup_audits"] + st["setups"]
    rss = [v for p in procs for v in
           (p.get("rss_mb").values() if isinstance(p.get("rss_mb"), dict)
            else [p.get("rss_mb", 0.0)])]
    ok = st["attempted"] - st["failed"]
    return {
        "setup_s": _median(setup_times(st)),
        "session_s": _median([s["session_ref_s"] for s in sessions]),
        "rtt_mean_ms": statistics.fmean(rtts) if rtts else 0.0,
        "rtt_p50_ms": _quantile(rtts, 50),
        "rtt_p90_ms": _quantile(rtts, 90),
        "audit_s": _median([a["audit_ref_s"] for a in audits]),
        "cert_bytes": _median([s["cert_bytes"] for s in sessions]),
        "wire_bytes": _median([s["wire_bytes"] for s in sessions]),
        "peak_rss_mb": max(rss, default=0.0),
        "ok_ratio": ok / st["attempted"] if st["attempted"] else 0.0,
    }


def wall_medians(st):
    """Median wall times of the untraced operations, less the probes'."""
    ops = {"setup_s": st["sessions"] + st["setups"], "session_s": st["sessions"],
           "audit_s": st["audits"]}
    return {key: _median([r[key] for r in rs if "error" not in r
                          and not r.get("traced") and key in r])
            for key, rs in ops.items()}


def per_layer(st):
    """Per-layer metrics: traced sessions (dev, ver) and audits (aud)."""
    out = {}
    missing = set()
    groups = {
        "dev": [s["summaries"]["dev"] for s in st["sessions"] if s.get("summaries")],
        "ver": [s["summaries"]["ver"] for s in st["sessions"] if s.get("summaries")],
        "aud": [a["summaries"]["aud"] for a in st["audits"] if a.get("summaries")],
    }
    for party, summaries in groups.items():
        sums = {}
        n = len(summaries)
        for summ in summaries:
            missing.update(summ["missing"])
            for layer, v in summ["self_s"].items():
                _add(sums, f"{party}.{layer}.self_s", v)
            for key, v in summ["total_s"].items():
                layer, name = key.split(".", 1)
                if name.startswith("handle."):
                    _add(sums, f"{party}.protocol.handle_s.{name[7:]}", v)
                else:
                    _add(sums, f"{party}.{key}_s", v)
            for key, v in summ["calls"].items():
                _add(sums, f"{party}.{key}_calls", v)
            for key, v in summ["counts"].items():
                _add(sums, f"{party}.{key}", v)
        for key, v in sums.items():
            out[key] = v / n
    out["ver.channel.wait_s"] = out.pop("ver.wait.self_s", 0.0)
    out.pop("dev.wait.self_s", None)
    out["ver.protocol.busy_s"] = (
        out.get("ver.protocol.session_s", 0.0) - out["ver.channel.wait_s"])

    traced = [s for s in st["sessions"] if s["traced"] and "error" not in s]
    plain = [s for s in st["sessions"] if not s["traced"] and "error" not in s]
    for s in traced[:1]:
        out.update(s["static"])
        for k, v in s["cert_sections"].items():
            out[f"audit.cert_bytes.{k}"] = v
    if traced:
        big = ("public_params", "qa_e", "qa_c", "outputs")
        out["audit.cert_bytes.other"] = sum(
            v for k, v in traced[0]["cert_sections"].items() if k not in big)
        for field in ("frames", "bytes"):
            for s in traced:
                for ftype, v in s[field].items():
                    _add(out, f"channel.{field}.{ftype}", v / len(traced))
        out["vga.suite_inputs"] = _median([len(s["outputs"]) for s in traced])
        for party in ("dev", "ver"):
            out[f"{party}.rss_mb"] = max(s["rss_mb"][party] for s in traced)
    audits = [a for a in st["audits"] if "error" not in a]
    if audits:
        out["aud.rss_mb"] = max(a["rss_mb"] for a in audits)
        rejected = [a for a in audits if a["ok"] != 1]
        out["aud.audit.rejected_ratio"] = len(rejected) / len(audits)
        from tamper import REJECT_CLASSES, reject_class

        for cls in REJECT_CLASSES:
            out[f"aud.audit.reject_reason.{cls}"] = sum(
                reject_class(a.get("reason")) == cls for a in rejected
            ) / len(audits)
    e2e = end_to_end(st)
    out["channel.rtt_p50_ms"] = e2e["rtt_p50_ms"]
    out["channel.rtt_p90_ms"] = e2e["rtt_p90_ms"]
    out["trace.missing"] = len(missing)
    out["trace.overhead.session_s"] = (
        _median([s["session_s"] for s in traced])
        - _median([s["session_s"] for s in plain]))
    out["trace.overhead.audit_s"] = (
        _median([a["audit_s"] for a in audits if a["traced"]])
        - _median([a["audit_s"] for a in audits if not a["traced"]]))
    return out, sorted(missing)


def _add(d, key, v):
    d[key] = d.get(key, 0) + v


def self_time_report(layer):
    """Human-readable per-party self time by layer, largest first."""
    lines = []
    for party in ("dev", "ver", "aud"):
        rows = sorted(((k.split(".")[1], v) for k, v in layer.items()
                       if k.startswith(party + ".") and k.endswith(".self_s")),
                      key=lambda kv: -kv[1])
        if rows:
            cells = "  ".join(f"{name} {v:.3f}" for name, v in rows)
            lines.append(f"self time per op, {party} (s): {cells}")
    return lines


# --- entry point -------------------------------------------------------------------------


def result_line(st, metrics, wanted):
    values = {}
    for m in wanted:
        v = metrics.get(m["name"], 0.0)
        values[m["name"]] = {"value": v, "unit": m["unit"]}
    return {
        "correct": st["failed"] == 0 and st["attempted"] > 0,
        "attempted": st["attempted"],
        "failed": st["failed"],
        "metrics": values,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        load_program()
    except (ProgramMissing, ImportError) as exc:
        sys.stderr.write(f"perfbench: cannot load the program: {exc}\n")
        return 2
    spec = benchmark_spec()
    print(f"env nproc={os.cpu_count()} python={platform.python_version()} "
          f"workload={args.workload} seed={args.seed} trace={args.trace}",
          flush=True)
    st = run_workload(args.workload, args.seed, args.seconds, args.trace)
    first = next((s for s in st["sessions"] if "error" not in s), None)
    if first is not None:
        print("static " + json.dumps(first["static"], sort_keys=True))
        print("static " + json.dumps(
            {f"audit.cert_bytes.{k}": v for k, v in first["cert_sections"].items()},
            sort_keys=True))
    if args.trace:
        metrics, missing = per_layer(st)
        for line in self_time_report(metrics):
            print(line)
        if missing:
            print("trace: missing wrapped names: " + ", ".join(missing))
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(st)
        print("wall-clock medians (not scaled): " + json.dumps(wall_medians(st)))
        wanted = spec["end_to_end"]
    print(json.dumps(result_line(st, metrics, wanted)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
