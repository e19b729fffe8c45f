"""One party of a benchmark session, run in a fresh interpreter.

    python3 perfbench/party.py dev --design demo --dev-seed 7 --pp PATH
    python3 perfbench/party.py ver --design demo --mode general --pp PATH \
        --port N --vga-seed 3 --ver-seed 5 --budget 16 --cert PATH
    python3 perfbench/party.py aud --cert PATH

`dev` builds the developer, writes the public parameters as canonical JSON,
prints {"port": ...} once it listens on loopback and serves one session.
`ver` builds the verifier from that JSON, runs the session over TCP and
saves the certificate. With --setup-only both stop after building. `aud`
loads and audits a saved certificate. Each prints one JSON line of
measurements as its last line: every timed section (set-up, session,
audit) gives its time and that time at the reference speed of
`speed.py`, whose probes it runs as it goes. With --trace FILE
the process installs span wrappers before any party object exists and
writes its spans to FILE when it ends. Only public tabverify entry points
are used, so the untraced processes never depend on the wrappers.
"""

import argparse
import json
import random
import resource
import socket
import sys
import time

from speed import Meter
from tabverify import audit, demo
from tabverify.channel import SocketChannel, canonical_json
from tabverify.protocol import Developer, Verifier, serve

DESIGNS = {
    "demo": (demo.demo_graph, demo.DEMO_DOMAINS),
    "diamond": (demo.diamond_graph, demo.DIAMOND_DOMAINS),
}
IO_TIMEOUT = 120.0


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


class CountingSocket:
    """Socket wrapper that counts the bytes moved in each direction."""

    def __init__(self, sock):
        self.sock = sock
        self.sent = 0
        self.received = 0

    def sendall(self, data):
        self.sock.sendall(data)
        self.sent += len(data)

    def recv(self, n):
        chunk = self.sock.recv(n)
        self.received += len(chunk)
        return chunk

    def close(self):
        self.sock.close()


class TimedChannel(SocketChannel):
    """SocketChannel that records each frame's round trip and bytes.

    The round trip runs from the start of send to the return of recv, so it
    holds the verifier's framing of both messages and the developer's work,
    less the time of the speed probes that `meter` ran meanwhile.
    """

    def __init__(self, sock, meter):
        super().__init__(CountingSocket(sock))
        self.meter = meter
        self.rtts_ms = []
        self.frames = {}
        self.bytes = {}
        self._t0 = None
        self._type = None
        self._mark = 0

    def send(self, frame):
        self._type = frame.get("type")
        self._mark = self.sock.sent + self.sock.received
        self._t0 = time.perf_counter()
        self._spent = self.meter.spent_s
        super().send(frame)

    def recv(self):
        reply = super().recv()
        probes = self.meter.spent_s - self._spent
        self.rtts_ms.append((time.perf_counter() - self._t0 - probes) * 1e3)
        moved = self.sock.sent + self.sock.received - self._mark
        self.frames[self._type] = self.frames.get(self._type, 0) + 1
        self.bytes[self._type] = self.bytes.get(self._type, 0) + moved
        return reply


def static_counts(dev):
    """Circuit size counts that ROADMAP item 3 reports against."""
    out = {}
    try:
        u = dev.u
        out["circuit.uc_gates"] = len(u.circuit.gates)
        depth = u.circuit.mult_depth
        out["circuit.uc_depth"] = depth() if callable(depth) else depth
        out["circuit.program_bits"] = len(next(iter(dev.programs_plain.values())))
        out["circuit.table_gates_max"] = max(
            len(c.gates) for c in dev.circuits.values())
    except (AttributeError, StopIteration, ValueError) as exc:
        out["missing"] = f"{type(exc).__name__}: {exc}"
    return out


def timings(name, meter):
    """A section's time, and that time at the reference speed."""
    return {f"{name}_s": meter.elapsed_s, f"{name}_ref_s": meter.ref_s}


def run_dev(args):
    make_graph, _ = DESIGNS[args.design]
    with Meter(sample=not args.trace) as setup:
        dev = Developer(make_graph(), rng=random.Random(args.dev_seed),
                        strategy=args.strategy)
        pp_text = canonical_json(dev.pp.to_dict())
    with open(args.pp, "w", encoding="utf-8") as f:
        f.write(pp_text)
    if args.setup_only:
        return {**timings("setup", setup), "rss_mb": rss_mb()}
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        srv.settimeout(IO_TIMEOUT)
        emit({"port": srv.getsockname()[1], **timings("setup", setup),
              "static": static_counts(dev)})
        conn, _ = srv.accept()
    finally:
        srv.close()
    conn.settimeout(IO_TIMEOUT)
    chan = SocketChannel(conn)
    try:
        serve(dev, chan)
    finally:
        chan.close()
    return {"rss_mb": rss_mb()}


def run_ver(args):
    make_graph, domains = DESIGNS[args.design]
    with Meter(sample=not args.trace) as setup:
        with open(args.pp, encoding="utf-8") as f:
            pp = json.loads(f.read())
        v = Verifier(pp, make_graph(), domains, [], seed=args.vga_seed,
                     mode=args.mode, vga_budget=args.budget,
                     rng=random.Random(args.ver_seed))
    if args.setup_only:
        return {**timings("setup", setup), "rss_mb": rss_mb()}
    sock = socket.create_connection(("127.0.0.1", args.port), timeout=IO_TIMEOUT)
    session = Meter(sample=not args.trace)
    chan = TimedChannel(sock, session)
    try:
        with session:
            verdict, cert = v.run(chan)
    finally:
        chan.close()
    t2 = time.perf_counter()
    audit.save_certificate(cert, args.cert)
    save_s = time.perf_counter() - t2
    return {
        **timings("setup", setup),
        **timings("session", session),
        "save_s": save_s,
        "verdict": verdict,
        "outputs": cert["outputs"],
        "rtts_ms": chan.rtts_ms,
        "frames": chan.frames,
        "bytes": chan.bytes,
        "wire_bytes": chan.sock.sent + chan.sock.received,
        "rss_mb": rss_mb(),
    }


def run_aud(args):
    with Meter(sample=not args.trace) as meter:
        t0 = time.perf_counter()
        cert = audit.load_certificate(args.cert)
        load_s = time.perf_counter() - t0 - meter.spent_s
        ok, report = audit.audit(cert)
    return {
        **timings("audit", meter),
        "load_s": load_s,
        "ok": ok,
        "reason": report.get("reason"),
        "rss_mb": rss_mb(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("role", choices=("dev", "ver", "aud"))
    ap.add_argument("--design", choices=sorted(DESIGNS))
    ap.add_argument("--mode", choices=("honest", "general"))
    ap.add_argument("--strategy", default=None)
    ap.add_argument("--dev-seed", type=int)
    ap.add_argument("--ver-seed", type=int)
    ap.add_argument("--vga-seed", type=int)
    ap.add_argument("--budget", type=int)
    ap.add_argument("--pp")
    ap.add_argument("--port", type=int)
    ap.add_argument("--cert")
    ap.add_argument("--setup-only", action="store_true",
                    help="build the party, report its set-up time and exit")
    ap.add_argument("--trace", default=None, help="write spans to this file")
    args = ap.parse_args(argv)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer().install()
    result = {"dev": run_dev, "ver": run_ver, "aud": run_aud}[args.role](args)
    if tracer is not None:
        tracer.dump(args.trace)
    emit(result)


if __name__ == "__main__":
    main()
