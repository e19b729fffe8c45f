"""Command-line entry points for developer, verifier, and auditor roles.

Exit codes: 0 accept/ok, 1 reject or audit failure, 2 usage or input error,
3 protocol abort. Errors print a machine-readable JSON record to stderr.
"""

import json
import os
import random
import socket
import sys
import threading

import click

from . import audit as audit_mod
from . import demo as demo_mod
from . import he
from .channel import (
    TIMEOUT,
    ChannelError,
    LoopbackChannel,
    SocketChannel,
    canonical_json,
)
from .graphtext import GraphError, parse_graph, serialize_graph
from .protocol import (
    Developer,
    ProtocolError,
    Verifier,
    serve as serve_loop,
    spec_port_outputs,
    verify_session,
)
from .simharness import metadata_views, paired_session, run_experiment
from .tables import transform, word_values
from .vga import coverage_report

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_PROTOCOL = 3

# connections `serve` holds open at once, each with a thread and its session
# memory; one past the cap is closed as soon as it is accepted.  The cap is a
# memory bound: with 1, 2, 4 and 8 concurrent loopback verifiers on a 2-vCPU
# host, each session added about 1.2 MB (demo, general) to 1.8 MB (diamond,
# honest) to the peak RSS of a serve process that idles at 30-34 MB, so 64
# sessions take roughly 80-120 MB more.  How many verifiers connect at once in
# practice has not been measured.
MAX_CONNECTIONS = 64


def data_dir():
    return os.environ.get("TABVERIFY_DATA", ".")


def resolve(path):
    if path is None or os.path.isabs(path):
        return path
    return os.path.join(data_dir(), path)


def fail(code, kind, message):
    sys.stderr.write(canonical_json({"error": kind, "message": message}) + "\n")
    sys.exit(code)


def write_json(path, obj):
    with open(resolve(path), "w", encoding="utf-8") as f:
        f.write(canonical_json(obj))


def echo_coverage(cert, structure, out):
    """Echo the coverage report of cert's transcript; write it to out too."""
    text = coverage_report(cert["qa_e"], structure).render_text()
    if out:
        with open(resolve(out), "w", encoding="utf-8") as f:
            f.write(text + "\n")
    click.echo(text)


def read_json(path):
    try:
        with open(resolve(path), encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:
        fail(EXIT_USAGE, "io", str(exc))
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, too deep
        fail(EXIT_USAGE, "json", f"{path}: {exc}")


def load_graph(path):
    try:
        with open(resolve(path), encoding="utf-8") as f:
            return parse_graph(f.read())
    except OSError as exc:
        fail(EXIT_USAGE, "io", str(exc))
    except GraphError as exc:
        fail(EXIT_USAGE, "graph", str(exc))


def load_domains(path, graph):
    """Domains file: {name: [values...]} or {name: {"lo": a, "hi": b}}, the
    bounds each a value a word holds (tables.word_values), checked before
    the range is built."""
    values = word_values(graph.m)
    if path is None:
        return {name: [False, True] if ptype == "bool"
                else list(range(max(values.start, -64), min(values.stop, 65)))
                for name, ptype in graph.external_inputs}
    raw = read_json(path)
    out = {}
    try:
        for name, spec in raw.items():
            if isinstance(spec, dict):
                lo, hi = spec["lo"], spec["hi"]
                if not all(isinstance(x, int) and x in values for x in (lo, hi)):
                    fail(EXIT_USAGE, "domains", f"{path}: {name}'s lo and hi must be "
                                                f"integers in [{values.start}, "
                                                f"{values.stop})")
                out[name] = list(range(lo, hi + 1))
            else:
                out[name] = list(spec)
    except (AttributeError, KeyError, TypeError) as exc:
        fail(EXIT_USAGE, "domains", f"{path}: {exc!r}")
    return out


def load_cp(path):
    """Critical points file: [[input, expected], ...], each a JSON object."""
    if path is None:
        return []
    raw = read_json(path)
    if not (isinstance(raw, list) and all(
            isinstance(item, list) and len(item) == 2
            and all(isinstance(x, dict) for x in item) for item in raw)):
        fail(EXIT_USAGE, "cp", f"{path}: expected a list of [input, expected] "
                               "pairs of JSON objects")
    return [tuple(item) for item in raw]


def parse_hostport(value):
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        fail(EXIT_USAGE, "flag", f"expected HOST:PORT, got {value!r}")
    return host, int(port)


@click.group()
def main():
    """Two-party design verification over encrypted table graphs."""


@main.command()
@click.option("--graph", required=True)
@click.option("--out", default=None)
def compile(graph, out):
    """Validate a graph file and report its transformed shape."""
    g = load_graph(graph)
    tg = transform(g)
    summary = {
        "tables": len(g.tables),
        "row_tables": len(tg.tables),
        "order": tg.order,
        "levels": tg.levels,
        "external_inputs": [[n, t] for n, t in tg.external_inputs],
        "canonical": serialize_graph(g),
    }
    if out:
        write_json(out, summary)
    for name in tg.order:
        t = tg.tables[name]
        ports = ", ".join(f"{p}:{ty}" for p, ty in t.inputs)
        out, otype = t.output
        click.echo(f"level {tg.levels[name]}  {name}  ({ports}) -> ({out}:{otype})")
    click.echo(f"valid: {len(tg.tables)} row tables")


@main.command()
@click.option("--graph", required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True)
def encrypt(graph, seed, out):
    """Encrypt a design and emit its public parameters."""
    g = load_graph(graph)
    write_json(out, Developer(g, rng=random.Random(seed)).pp.to_dict())
    click.echo(f"wrote {out}")


def serve_connections(dev, accept, max_sessions=None):
    """Serve each socket accept() returns as one session in its own thread,
    at most MAX_CONNECTIONS at once, until max_sessions have been served.

    A socket accepted while all slots are taken is closed at once and does
    not count as a session; a slot is freed when its session ends.
    """
    slots = threading.BoundedSemaphore(MAX_CONNECTIONS)

    def session(chan):
        try:
            serve_loop(dev, chan)
        finally:
            slots.release()

    served = 0
    while max_sessions is None or served < max_sessions:
        conn = accept()
        if not slots.acquire(blocking=False):
            conn.close()
            continue
        # not a daemon thread: the interpreter joins it before it exits;
        # the timeout ends the session of a peer that stops sending
        chan = SocketChannel(conn, timeout=TIMEOUT)
        threading.Thread(target=session, args=(chan,)).start()
        served += 1


@main.command()
@click.option("--graph", required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--listen", required=True, help="HOST:PORT to accept verifiers on")
@click.option("--out", default=None, help="also write public parameters here")
@click.option("--max-sessions", type=int, default=None,
              help="stop accepting after this many sessions")
def serve(graph, seed, listen, out, max_sessions):
    """Run a developer endpoint over TCP: each connection is one session,
    served in its own thread, and the command waits for them to end."""
    g = load_graph(graph)
    dev = Developer(g, rng=random.Random(seed))
    if out:
        write_json(out, dev.pp.to_dict())
    host, port = parse_hostport(listen)
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        srv.bind((host, port))
    except OSError as exc:
        fail(EXIT_USAGE, "bind", str(exc))
    srv.listen()
    click.echo(f"serving on {host}:{srv.getsockname()[1]}")
    try:
        serve_connections(dev, lambda: srv.accept()[0], max_sessions)
    except KeyboardInterrupt:
        pass
    finally:
        srv.close()


@main.command()
@click.option("--spec", "spec_path", required=True,
              help="public specification graph file")
@click.option("--graph", default=None,
              help="developer design for an in-process session")
@click.option("--connect", default=None, help="HOST:PORT of a developer endpoint")
@click.option("--pp", "pp_path", default=None,
              help="public parameters file (required with --connect)")
@click.option("--mode", default="honest",
              type=click.Choice(["honest", "general"]), show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--domains", "domains_path", default=None)
@click.option("--cp", "cp_path", default=None,
              help="critical points file: [[input, expected], ...]")
@click.option("--budget", type=int, default=16, show_default=True)
@click.option("--cert", "cert_path", required=True)
@click.option("--out", default=None, help="write the coverage report here")
def verify(spec_path, graph, connect, pp_path, mode, seed,
           domains_path, cp_path, budget, cert_path, out):
    """Run a verification session and write the certificate."""
    if (graph is None) == (connect is None):
        fail(EXIT_USAGE, "flag", "exactly one of --graph or --connect is required")
    g_spec = load_graph(spec_path)
    domains = load_domains(domains_path, g_spec)
    cp = load_cp(cp_path)

    if graph is not None:
        dev = Developer(load_graph(graph), rng=random.Random(seed + 1))
        pp = dev.pp.to_dict()
    elif pp_path is None:
        fail(EXIT_USAGE, "flag", "--connect requires --pp")
    else:
        pp = read_json(pp_path)
    try:
        v = Verifier(pp, g_spec, domains, cp, seed=seed, mode=mode,
                     vga_budget=budget)
    except ProtocolError as exc:
        fail(EXIT_USAGE, "verifier", str(exc))
    if graph is not None:
        chan = LoopbackChannel(dev.session().handle)
    else:
        host, port = parse_hostport(connect)
        try:
            chan = SocketChannel.connect(host, port)
        except OSError as exc:
            fail(EXIT_PROTOCOL, "connect", str(exc))
    try:
        verdict, cert = v.run(chan)
    except ProtocolError as exc:  # the spec, refused before the first frame
        fail(EXIT_USAGE, "verifier", str(exc))
    except (ChannelError, he.HeError) as exc:
        fail(EXIT_PROTOCOL, "session", str(exc))
    finally:
        chan.close()  # closing the connection ends the developer's session
    digest = audit_mod.save_certificate(cert, resolve(cert_path))
    echo_coverage(cert, v.pp.structure, out)
    click.echo(f"verdict: {verdict}")
    click.echo(f"certificate: {cert_path} ({digest[:16]})")
    sys.exit(EXIT_OK if verdict == "accept" else EXIT_REJECT)


@main.command("audit")
@click.option("--cert", "cert_path", required=True)
@click.option("--out", default=None, help="write the audit report here")
def audit_cmd(cert_path, out):
    """Replay a certificate; exit 0 only if the audit returns 1."""
    try:
        cert = audit_mod.load_certificate(resolve(cert_path))
    except (OSError, ValueError, RecursionError, audit_mod.AuditError) as exc:
        fail(EXIT_REJECT, "certificate", str(exc))
    ok, report = audit_mod.audit(cert)
    if out:
        write_json(out, {"ok": ok, "report": report})
    click.echo(canonical_json({"ok": ok, "report": report}))
    sys.exit(EXIT_OK if ok == 1 else EXIT_REJECT)


@main.command()
@click.option("--mode", default="general",
              type=click.Choice(["honest", "general"]), show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--cert", "cert_path", default="demo-cert.json", show_default=True)
@click.option("--out", default=None, help="write the coverage report here")
def demo(mode, seed, cert_path, out):
    """End-to-end run on the built-in worked example."""
    g = demo_mod.demo_graph()
    dev = Developer(g, rng=random.Random(seed + 1))
    truth = spec_port_outputs(transform(g), demo_mod.DEMO_INPUT)
    cp = [(demo_mod.DEMO_INPUT, truth)]
    v = Verifier(dev.pp.to_dict(), g, demo_mod.DEMO_DOMAINS, cp, seed=seed, mode=mode)
    verdict, cert = verify_session(dev, v)
    cert["annotations"] = {
        "documented_claim": {
            "input": demo_mod.DEMO_INPUT,
            "claimed": list(demo_mod.DOCUMENTED_CLAIM_Y),
            "ground_truth": dict(sorted(truth.items())),
            "note": "claim recorded as documented; ground truth is the "
                    "plaintext evaluation, which disagrees",
        }
    }
    digest = audit_mod.save_certificate(cert, resolve(cert_path))
    ok, _report = audit_mod.audit(audit_mod.load_certificate(resolve(cert_path)))
    echo_coverage(cert, dev.pp.structure, out)
    click.echo(f"verdict: {verdict}  audit: {ok}")
    click.echo(f"documented claim: {demo_mod.DOCUMENTED_CLAIM_Y}")
    click.echo(
        "ground truth:     "
        f"{cert['annotations']['documented_claim']['ground_truth']}"
    )
    click.echo(f"certificate: {cert_path} ({digest[:16]})")
    sys.exit(EXIT_OK if verdict == "accept" and ok == 1 else EXIT_REJECT)


@main.command("sim-equiv")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--sessions", type=int, default=3, show_default=True)
def sim_equiv(seed, sessions):
    """Check oracle/service byte equivalence and the real-ideal experiment."""
    g = demo_mod.demo_graph()
    for k in range(sessions):
        c1, c2 = paired_session(g, demo_mod.DEMO_DOMAINS, seed + k, seed + k, 1000 + k)
        if canonical_json(c1) != canonical_json(c2):
            fail(EXIT_REJECT, "sim-equiv", f"transcripts diverge in session {k}")
        click.echo(f"session {k}: byte-identical ({len(c1['qa_e'])} queries)")
    res = run_experiment(g, demo_mod.DEMO_DOMAINS, [], seed=seed, vga_budget=6)
    mv = metadata_views(res)
    if canonical_json(mv["real"]) != canonical_json(mv["ideal"]):
        fail(EXIT_REJECT, "sim-equiv", "real/ideal metadata differ")
    click.echo("real/ideal metadata indistinguishable")


if __name__ == "__main__":
    main()
