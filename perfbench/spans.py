"""Span recording for the traced benchmark run.

`install()` patches tabverify's public functions where their callers look
them up (for example `protocol.commit_respond`, because protocol imports
it by name) with wrappers that record one span per call: name, layer,
start, end, parent span, request id and the time covered by direct
children. Spans stay in memory; `Tracer.dump` writes them once, when the
process ends. A wrapped name that no longer exists is reported as missing
and skipped, so the traced run survives refactors of the program.

Nothing here is imported by an untraced party process.
"""

import functools
import importlib
import json
import time

# (target, layer, span name, kind). The target is "module:attribute.path".
# kind "span" records a span per call; "hot" only adds calls and time to an
# aggregate, because the function runs about 10^5-10^6 times per session.
WRAPS = (
    ("tabverify.protocol:Developer.__init__", "protocol", "dev_init", "span"),
    ("tabverify.protocol:Developer.handle", "protocol", "handle", "handle"),
    ("tabverify.protocol:Verifier.__init__", "protocol", "ver_init", "span"),
    ("tabverify.protocol:Verifier.run", "protocol", "session", "span"),
    ("tabverify.protocol:PublicParams.to_dict", "protocol", "pp_to_dict", "span"),
    ("tabverify.protocol:PublicParams.from_dict", "protocol", "pp_from_dict",
     "classmethod"),
    ("tabverify.protocol:transform", "tables", "transform", "span"),
    ("tabverify.vga:transform", "tables", "transform", "span"),
    ("tabverify.protocol:evaluate_plain", "tables", "evaluate_plain", "span"),
    # vga imports evaluate_plain inside generate_suite, from the module
    ("tabverify.tables:evaluate_plain", "tables", "evaluate_plain", "span"),
    ("tabverify.protocol:compile_table", "circuit", "compile", "span"),
    ("tabverify.protocol:encode_program", "circuit", "encode_program", "span"),
    ("tabverify.protocol:build_universal", "circuit", "uc_build", "span"),
    ("tabverify.he:keygen", "he", "keygen", "span"),
    ("tabverify.he:enc_word", "he", "enc", "span"),
    ("tabverify.he:dec_word", "he", "dec", "span"),
    ("tabverify.he:eval_word", "he", "eval", "span"),
    ("tabverify.protocol:se_keygen", "symcrypto", "se_keygen", "span"),
    ("tabverify.protocol:se_enc_circuit", "symcrypto", "se_circuit", "span"),
    ("tabverify.protocol:se_dec", "symcrypto", "se_dec", "span"),
    ("tabverify.commitment:bit_at", "symcrypto", "bit_at", "hot"),
    ("tabverify.protocol:gen_code", "commitment", "gen_code", "span"),
    ("tabverify.protocol:commit_respond", "commitment", "commit", "span"),
    ("tabverify.protocol:verify_reveal", "commitment", "verify", "span"),
    ("tabverify.channel:encode_frame", "channel", "encode", "span"),
    ("tabverify.channel:decode_frame", "channel", "decode", "span"),
    ("tabverify.audit:encode_frame", "channel", "encode", "span"),
    ("tabverify.audit:decode_frame", "channel", "decode", "span"),
    ("tabverify.channel:SocketChannel.send", "channel", "send", "send"),
    # time blocked on the peer; its own layer so it never counts as busy
    ("tabverify.channel:SocketChannel.recv", "wait", "recv", "span"),
    ("tabverify.protocol:generate_suite", "vga", "suite", "span"),
    ("tabverify.audit:coverage_report", "vga", "coverage", "span"),
    ("tabverify.audit:load_certificate", "audit", "load", "span"),
    ("tabverify.audit:save_certificate", "audit", "save", "span"),
    ("tabverify.audit:audit", "audit", "audit", "span"),
    ("tabverify.audit:replay", "audit", "replay", "span"),
    ("tabverify.audit:normalize", "audit", "normalize", "span"),
)


def _frame_kind(frame):
    ftype = frame.get("type") if isinstance(frame, dict) else None
    if ftype == "encode":
        body = frame.get("body") or {}
        return f"encode_q{body.get('qkind')}"
    return str(ftype)


def _is_null(reply):
    body = reply.get("body") if isinstance(reply, dict) else None
    if not isinstance(body, dict):
        return True
    answer = body.get("answer")
    if isinstance(answer, dict) and answer.get("kind") == "null":
        return True
    return body.get("result") == "null" or "error" in body


class Tracer:
    def __init__(self):
        # [name, layer, start, end, parent index, request id, child seconds]
        self.spans = []
        self.stack = []
        self.hot = {}  # "layer.name" -> [calls, seconds]
        self.counts = {}
        self.request = 0
        self.serving = False  # set once Developer.handle runs here
        self.missing = []

    def count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def _open(self, name, layer):
        parent = self.stack[-1] if self.stack else None
        rec = [name, layer, 0.0, 0.0, parent[7] if parent else -1,
               self.request, 0.0, len(self.spans)]
        self.spans.append(rec)
        self.stack.append(rec)
        rec[2] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[3] = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1][6] += rec[3] - rec[2]

    def span_wrapper(self, fn, layer, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)

        return wrapper

    def hot_wrapper(self, fn, layer, name):
        slot = self.hot.setdefault(f"{layer}.{name}", [0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        # no try/finally: this runs once per PRG bit, and a call that
        # raises ends the session anyway
        @functools.wraps(fn)
        def wrapper(*args):
            t0 = clock()
            out = fn(*args)
            d = clock() - t0
            slot[0] += 1
            slot[1] += d
            if stack:
                stack[-1][6] += d
            return out

        return wrapper

    def handle_wrapper(self, fn, layer, name):
        """Developer.handle: one span per frame, named by the frame kind.

        The developer numbers a request when it handles it.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(dev, frame):
            tracer.serving = True
            tracer.request += 1
            rec = tracer._open(f"{name}.{_frame_kind(frame)}", layer)
            try:
                reply = fn(dev, frame)
            finally:
                tracer._close(rec)
            if _is_null(reply):
                tracer.count("protocol.null_answers", 1)
            return reply

        return wrapper

    def send_wrapper(self, fn, layer, name):
        """SocketChannel.send: the verifier numbers a request when it sends it.

        The developer's sends are replies: they keep the id its handle gave.
        """
        tracer = self
        inner = self.span_wrapper(fn, layer, name)

        @functools.wraps(fn)
        def wrapper(chan, frame):
            if not tracer.serving:
                tracer.request += 1
            return inner(chan, frame)

        return wrapper

    def install(self):
        counted = {
            "he.enc": lambda a: ("he.enc_bits", len(a[1])),
            "he.dec": lambda a: ("he.dec_bits", len(a[1])),
            "he.eval": lambda a: ("he.eval_gates", len(a[1].gates)),
        }
        for target, layer, name, kind in WRAPS:
            modname, _, attrpath = target.partition(":")
            try:
                owner = importlib.import_module(modname)
                *parents, attr = attrpath.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                raw = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target)
                continue
            fn = raw.__func__ if kind == "classmethod" else raw
            measure = counted.get(f"{layer}.{name}")
            if measure is not None:
                fn = self._counting(fn, measure)
            make = {
                "hot": self.hot_wrapper,
                "handle": self.handle_wrapper,
                "send": self.send_wrapper,
            }.get(kind, self.span_wrapper)
            wrapped = make(fn, layer, name)
            if kind == "classmethod":
                wrapped = classmethod(wrapped)
            setattr(owner, attr, wrapped)
        return self

    def _counting(self, fn, measure):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key, n = measure(args)
            tracer.count(key, n)
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path):
        doc = {
            "spans": [s[:7] for s in self.spans],
            "hot": self.hot,
            "counts": self.counts,
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


def summarize(doc):
    """Per-layer self time, per-span totals and counts of one process.

    A span's self time is its duration minus the time its direct children
    cover; a layer's self time is the sum over its spans plus its hot
    aggregates.
    """
    self_s, total_s, calls = {}, {}, {}
    for name, layer, start, end, _parent, _req, child in doc["spans"]:
        dur = end - start
        self_s[layer] = self_s.get(layer, 0.0) + dur - child
        key = f"{layer}.{name}"
        total_s[key] = total_s.get(key, 0.0) + dur
        calls[key] = calls.get(key, 0) + 1
    for key, (n, secs) in doc["hot"].items():
        layer = key.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + secs
        total_s[key] = total_s.get(key, 0.0) + secs
        calls[key] = calls.get(key, 0) + n
    return {"self_s": self_s, "total_s": total_s, "calls": calls,
            "counts": dict(doc["counts"]), "missing": list(doc["missing"])}
