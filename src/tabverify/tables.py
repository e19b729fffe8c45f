"""Tabular designs: multi-row tables, table graphs, the single-row
transformation to tagged values, level ordering, and plain evaluation.

A design is a DAG of tables. Each table has one output port and holds rows
of (predicate, function). At an input where no row holds it answers bot;
two rows that hold together are an error, which the verifier refuses in a
specification at its session's inputs (protocol.spec_port_outputs) and
fails in a design at an output port (ambiguous-output). The transformation
rewrites every row as its own table whose function returns a tagged word:
(top, f(x)) when the predicate holds, (bot, 0) otherwise. Tagged words are
m bits; the first half carries the tag, the second half the payload.
"""

from dataclasses import dataclass, field

from .expr import (MAX_DEPTH, TOO_DEEP, ExprTypeError, evaluate, infer_type,
                   walk, wrap_signed)

INPUT = "Input"
OUTPUT = "Output"


class GraphError(Exception):
    pass


# --- tagged values and their bit encoding ----------------------------------


@dataclass(frozen=True)
class Tagged:
    """A tag/payload pair; payload is a python int or bool."""

    tag: bool
    payload: object

    def __post_init__(self):
        if not self.tag and self.payload not in (0, False):
            raise ValueError("bot-tagged value must carry a zero payload")


BOT = Tagged(False, 0)


_BITS = bytes.maketrans(b"01", b"\0\1")  # "0"/"1" text -> bit bytes
_TRUTH = b"0" + b"1" * 255  # a bit byte by its truth: 0 is "0", any other "1"


def int_to_bits(value, width):
    """Two's-complement bits, least significant first."""
    # a 1 above the top bit keeps leading zeros; reversed, the text reads
    # least significant first, and the slice stops short of that 1
    text = format((value & ((1 << width) - 1)) | (1 << width), "b")[:0:-1]
    return tuple(text.encode("ascii").translate(_BITS))


def bits_uint(bits):
    """The unsigned integer whose bit i is bits[i], each read by its truth."""
    return int(bytes(bits).translate(_TRUTH)[::-1] or b"0", 2)


def tagged_word(tv, m):
    """The m-bit word of a tagged value, as an int: the tag half first
    (top = 1, bot = 0), then the payload, two's complement."""
    h = m // 2
    return 1 | (int(tv.payload) & ((1 << h) - 1)) << h if tv.tag else 0


def word_values(m):
    """The ints an m-bit word's payload half holds, two's complement: a
    design's constants, and the values a session tests, are drawn from it
    (a bool is 0 or 1, which every width of 4 or more holds)."""
    half = 1 << (m // 2 - 1)
    return range(-half, half)


# --- tables and graphs ------------------------------------------------------


@dataclass(frozen=True)
class Table:
    """A design table: one output port, and rows that each pair a predicate
    with the function the port takes when it holds."""

    name: str
    inputs: tuple  # ((port, 'int'|'bool'), ...)
    output: tuple  # (port, 'int'|'bool'): a table's one output port
    rows: tuple  # ((pred, func), ...)


@dataclass
class TableGraph:
    """Original design: tables plus wiring, with virtual Input/Output nodes.

    Edges are ((producer, port), (consumer, port)); producer may be INPUT and
    consumer may be OUTPUT. Every consumer port has exactly one producer.
    validate checks every rule that a design built in code can break; a
    parsed design passes the same check.
    """

    tables: dict
    edges: list
    m: int = 16
    external_inputs: list = field(default_factory=list)  # [(name, type)]

    def __post_init__(self):
        self.validate()

    def validate(self):
        if not isinstance(self.m, int) or self.m < 4 or self.m % 2:
            raise GraphError(f"bad width {self.m!r} (need an even value >= 4)")
        if not self.tables:
            raise GraphError("no tables")
        for t in self.tables.values():
            if t.name in (INPUT, OUTPUT):
                raise GraphError(f"'{t.name}' is a reserved node name")
            if not t.rows:
                raise GraphError(f"table '{t.name}' has no rows")
        for (src, sport), (dst, dport) in self.edges:
            if src == INPUT and dst == OUTPUT:
                raise GraphError(f"edge {src}.{sport} -> {dst}.{dport} "
                                 "passes through no table")
            if src != INPUT and src not in self.tables:
                raise GraphError(f"dangling edge: unknown producer '{src}'")
            if dst != OUTPUT and dst not in self.tables:
                raise GraphError(f"dangling edge: unknown consumer '{dst}'")
            if src != INPUT and sport != self.tables[src].output[0]:
                raise GraphError(f"'{src}' has no output port '{sport}'")
            if dst != OUTPUT and dport not in dict(self.tables[dst].inputs):
                raise GraphError(f"'{dst}' has no input port '{dport}'")

        producers = {}
        for (src, sport), (dst, dport) in self.edges:
            key = (dst, dport)
            if key in producers:
                raise GraphError(f"port {dst}.{dport} has two producers")
            producers[key] = (src, sport)
        self.producers = producers

        for t in self.tables.values():
            for port, _ in t.inputs:
                if (t.name, port) not in producers:
                    raise GraphError(f"port {t.name}.{port} has no producer")

        ext = {}
        for (src, sport), (dst, dport) in self.edges:
            if src == INPUT:
                ptype = dict(self.tables[dst].inputs)[dport]
                if sport in ext and ext[sport] != ptype:
                    raise GraphError(f"external input '{sport}' used at two types")
                ext[sport] = ptype
        if not self.external_inputs:
            self.external_inputs = sorted(ext.items())

        self._check_types()
        unordered = set(self.tables) - set(self.topo_order())
        if unordered:
            raise GraphError("cycle detected: tables on or after a cycle: "
                             + ", ".join(sorted(unordered)))

    def _check_types(self):
        values = word_values(self.m)
        for t in self.tables.values():
            env = dict(t.inputs)
            port, otype = t.output
            for pred, func in t.rows:
                nodes = [*walk(pred), *walk(func)]
                if max(depth for _, depth in nodes) > MAX_DEPTH:
                    raise GraphError(TOO_DEEP)
                try:
                    if infer_type(pred, env) != "bool":
                        raise GraphError(
                            f"table '{t.name}': predicate is not boolean"
                        )
                    ft = infer_type(func, env)
                    if ft != otype:
                        raise GraphError(
                            f"table '{t.name}': function for '{port}' is {ft},"
                            f" port declared {otype}"
                        )
                except ExprTypeError as exc:
                    raise GraphError(f"table '{t.name}': {exc}") from exc
                for e, _ in nodes:
                    c = getattr(e, "value", False)
                    if c not in values:
                        raise GraphError(f"constant {c} exceeds "
                                         f"{self.m // 2}-bit payload width")
        # output port types must be consistent with what consumers expect
        for (src, sport), (dst, dport) in self.edges:
            if src == INPUT or dst == OUTPUT:
                continue
            st = self.tables[src].output[1]
            dt = dict(self.tables[dst].inputs)[dport]
            if st != dt:
                raise GraphError(
                    f"type mismatch on edge {src}.{sport} -> {dst}.{dport}"
                )

    def topo_order(self):
        """The tables, each after its producers, the least name first among
        those ready; a table on or after a cycle is left out."""
        succ = {name: set() for name in self.tables}
        indeg = {name: 0 for name in self.tables}
        for (src, _), (dst, _) in self.edges:
            if src in self.tables and dst in self.tables and dst not in succ[src]:
                succ[src].add(dst)
                indeg[dst] += 1
        ready = sorted(n for n, d in indeg.items() if d == 0)
        order = []
        while ready:
            n = ready.pop(0)
            order.append(n)
            for nxt in sorted(succ[n]):
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
            ready.sort()
        return order


# --- single-row transformation ----------------------------------------------


@dataclass(frozen=True)
class TTable:
    """A single-row table produced by the transformation."""

    name: str
    origin: str
    row: int
    inputs: tuple  # ((port, type), ...)
    output: tuple  # (port, type): the origin's output port
    pred: object
    func: object


@dataclass
class TransformedGraph:
    m: int
    tables: dict  # name -> TTable, insertion order = origin order
    # (row table, port) -> the external input's name, or the tuple of the
    # sibling row tables that produce the port
    producers: dict
    external_inputs: list  # [(name, type)]
    external_outputs: list  # [(row table, Output port)] per edge into OUTPUT
    levels: dict  # name -> 1 + the highest level among its producers
    order: list = field(init=False)  # by (level, name)

    def __post_init__(self):
        self.order = sorted(self.tables, key=lambda n: (self.levels[n], n))


def transform(g):
    """Rewrite each row as its own single-row table over tagged values.

    Each origin table's level is 1 + the highest level among its producers,
    taken in g's topological order; its row tables share it."""
    level = {}
    for name in g.topo_order():
        feeds = (g.producers[(name, port)][0] for port, _ in g.tables[name].inputs)
        level[name] = 1 + max((level[src] for src in feeds if src != INPUT), default=0)
    # row tables inherit the origin's ports; sibling rows share its output
    ttables, siblings = {}, {}  # siblings: origin -> its row tables
    for t in g.tables.values():
        siblings[t.name] = tuple(f"{t.name}#{i + 1}" for i in range(len(t.rows)))
        for i, (pred, func) in enumerate(t.rows):
            name = siblings[t.name][i]
            ttables[name] = TTable(name, t.name, i, t.inputs, t.output, pred, func)

    producers = {}
    external_outputs = []
    for (src, sport), (dst, dport) in g.edges:
        if dst == OUTPUT:
            external_outputs += [(rname, dport) for rname in siblings[src]]
            continue
        for rname in siblings[dst]:
            producers[(rname, dport)] = sport if src == INPUT else siblings[src]

    return TransformedGraph(
        m=g.m,
        tables=ttables,
        producers=producers,
        external_inputs=list(g.external_inputs),
        external_outputs=external_outputs,
        levels={name: level[tt.origin] for name, tt in ttables.items()},
    )


# --- plain evaluation ---------------------------------------------------------


def sibling_group(values):
    """The rule for the sibling rows of one origin table: None (null) if any
    member is null, else the members whose tag is top. A well-formed group
    has at most one; a consumer takes the first, an output port is null
    when there are several."""
    if any(v is None for v in values):
        return None
    return [v for v in values if v.tag]


def join_ports(feeds, values):
    """The payloads a consumer reads, one per port: the first member of the
    port's feed whose tag is top, by sibling_group, where a ref's member is
    values.get(ref) (None, null, when values lacks it). None (null) when a
    port has no such member. Both parties of a q2 join its input word so."""
    payloads = []
    for feed in feeds:
        tops = sibling_group([values.get(ref) for ref in feed])
        if not tops:
            return None
        payloads.append(tops[0].payload)
    return payloads


def _resolve_port(tg, values, X, consumer, port):
    """Value feeding (consumer, port): Tagged, or None for null."""
    feed = tg.producers[(consumer, port)]
    if isinstance(feed, str):
        return Tagged(True, X[feed])
    tops = sibling_group([values[s] for s in feed])
    if tops is None:
        return None
    return tops[0] if tops else BOT


def evaluate_plain(tg, X):
    """Evaluate the transformed graph on external inputs X.

    Returns every row table's output, a Tagged value or None (null): the
    plaintext shadow the tests compare against.
    """
    for name, _ in tg.external_inputs:
        if name not in X:
            raise GraphError(f"external input '{name}' not assigned")
    width = tg.m // 2
    values = {}
    for name in tg.order:
        t = tg.tables[name]
        env = {}
        for port, ptype in t.inputs:
            v = _resolve_port(tg, values, X, name, port)
            if v is None or not v.tag:
                env = None
                break
            if ptype == "bool":
                env[port] = bool(v.payload)
            else:
                env[port] = wrap_signed(int(v.payload), width)
        if env is None:
            values[name] = None
        elif evaluate(t.pred, env, width):
            r = evaluate(t.func, env, width)
            values[name] = Tagged(True, bool(r) if t.output[1] == "bool" else r)
        else:
            values[name] = BOT
    return values


def evaluate_original(g, X):
    """Reference evaluation of the untransformed graph (row selection).

    Returns table -> {port: value} with None when no predicate held upstream.
    """
    width = g.m // 2
    values = {}
    for name in g.topo_order():
        t = g.tables[name]
        env = {}
        for port, ptype in t.inputs:
            src, sport = g.producers[(name, port)]
            v = X[sport] if src == INPUT else values[src]
            if v is None:
                env = None
                break
            env[port] = bool(v) if ptype == "bool" else wrap_signed(int(v), width)
        values[name] = None
        if env is not None:
            for pred, func in t.rows:
                if evaluate(pred, env, width):
                    r = evaluate(func, env, width)
                    values[name] = bool(r) if t.output[1] == "bool" else r
                    break
    return {name: {g.tables[name].output[0]: v} for name, v in values.items()}
