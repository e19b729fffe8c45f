"""Tabular designs: multi-row tables, table graphs, the single-row
transformation to tagged values, level ordering, and plain evaluation.

A design is a DAG of tables. Each table holds rows of (predicate, functions)
and is well formed when exactly one predicate holds per input. The
transformation rewrites every row as its own table whose single function
returns a tagged word: (top, f(x)) when the predicate holds, (bot, 0)
otherwise. Tagged words are m bits; the first half carries the tag, the
second half the payload.
"""

from dataclasses import dataclass, field

from .expr import ExprTypeError, evaluate, infer_type, wrap_signed

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


# --- tables and graphs ------------------------------------------------------


@dataclass(frozen=True)
class Table:
    name: str
    inputs: tuple  # ((port, 'int'|'bool'), ...)
    outputs: tuple  # ((port, 'int'|'bool'),): one port
    rows: tuple  # ((pred, (func,)), ...)

    def input_env(self):
        return dict(self.inputs)


@dataclass
class TableGraph:
    """Original design: tables plus wiring, with virtual Input/Output nodes.

    Edges are ((producer, port), (consumer, port)); producer may be INPUT and
    consumer may be OUTPUT. Every consumer port has exactly one producer.
    validate is the one check of a design's rules, whether it was parsed
    or built in code.
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
            if len(t.outputs) != 1:
                raise GraphError(f"table '{t.name}' has {len(t.outputs)} outputs; "
                                 "a table has one output port")
        for (src, sport), (dst, dport) in self.edges:
            if src != INPUT and src not in self.tables:
                raise GraphError(f"dangling edge: unknown producer '{src}'")
            if dst != OUTPUT and dst not in self.tables:
                raise GraphError(f"dangling edge: unknown consumer '{dst}'")
            if src != INPUT and sport not in dict(self.tables[src].outputs):
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
            if src == INPUT and dst != OUTPUT:
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
        h = self.m // 2
        limit = 1 << (h - 1)
        for t in self.tables.values():
            env = t.input_env()
            out_types = dict(t.outputs)
            for pred, funcs in t.rows:
                if len(funcs) != len(t.outputs):
                    raise GraphError(f"table '{t.name}': row has {len(funcs)} "
                                     f"functions for {len(t.outputs)} outputs")
                try:
                    if infer_type(pred, env) != "bool":
                        raise GraphError(
                            f"table '{t.name}': predicate is not boolean"
                        )
                    for (port, _), func in zip(t.outputs, funcs):
                        ft = infer_type(func, env)
                        if ft != out_types[port]:
                            raise GraphError(
                                f"table '{t.name}': function for '{port}' is {ft},"
                                f" port declared {out_types[port]}"
                            )
                except ExprTypeError as exc:
                    raise GraphError(f"table '{t.name}': {exc}") from exc
                for e in (pred,) + tuple(funcs):
                    for c in _constants(e):
                        if isinstance(c, bool):
                            continue
                        if not (-limit <= c < limit):
                            raise GraphError(
                                f"constant {c} exceeds {h}-bit payload width"
                            )
        # output port types must be consistent with what consumers expect
        for (src, sport), (dst, dport) in self.edges:
            if src == INPUT or dst == OUTPUT:
                continue
            st = dict(self.tables[src].outputs)[sport]
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


def _constants(expr):
    stack, out = [expr], []
    while stack:
        e = stack.pop()
        if hasattr(e, "value"):
            out.append(e.value)
        for attr in ("operand", "left", "right", "cond", "then", "other"):
            if hasattr(e, attr):
                stack.append(getattr(e, attr))
    return out


# --- completeness / disjointness checking -----------------------------------


@dataclass
class PropertyReport:
    table: str
    mode: str  # 'exhaustive' | 'sampled'
    points: int
    completeness_witnesses: list
    disjointness_witnesses: list

    @property
    def complete(self):
        return not self.completeness_witnesses

    @property
    def disjoint(self):
        return not self.disjointness_witnesses


def check_properties(table, domain, m=16, budget=1 << 20, samples=4096, rng=None):
    """Check that exactly one predicate holds across the given input domain.

    domain maps each input port to a sequence of candidate values. Exhaustive
    when the product of domain sizes fits the budget, else seeded sampling.
    """
    ports = [p for p, _ in table.inputs]
    for p in ports:
        if p not in domain:
            raise GraphError(f"domain missing port '{p}'")
    sizes = [len(domain[p]) for p in ports]
    total = 1
    for s in sizes:
        total *= s

    width = m // 2
    missing, clashing = [], []

    def check_point(env):
        true_rows = [
            i for i, (pred, _) in enumerate(table.rows) if evaluate(pred, env, width)
        ]
        if not true_rows and len(missing) < 10:
            missing.append(dict(env))
        if len(true_rows) > 1 and len(clashing) < 10:
            clashing.append((dict(env), true_rows))

    if total <= budget:
        import itertools

        for combo in itertools.product(*(domain[p] for p in ports)):
            check_point(dict(zip(ports, combo)))
        return PropertyReport(table.name, "exhaustive", total, missing, clashing)

    import random

    rng = rng or random.Random(0)
    for _ in range(samples):
        env = {p: rng.choice(domain[p]) for p in ports}
        check_point(env)
    return PropertyReport(table.name, "sampled", samples, missing, clashing)


# --- single-row transformation ----------------------------------------------


@dataclass(frozen=True)
class TTable:
    """A single-row table produced by the transformation."""

    name: str
    origin: str
    row: int
    inputs: tuple  # ((port, type), ...)
    outputs: tuple  # ((port, type), ...)
    pred: object
    funcs: tuple


@dataclass
class TransformedGraph:
    m: int
    tables: dict  # name -> TTable, insertion order = origin order
    producers: dict  # (consumer, port) -> [(producer|INPUT, port), ...]
    external_inputs: list  # [(name, type)]
    # [(row table, its port, Output port)] per edge into OUTPUT
    external_outputs: list
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
    ttables = {}
    # row tables inherit the origin's ports; sibling rows share output ports
    for t in g.tables.values():
        for i, (pred, funcs) in enumerate(t.rows):
            name = f"{t.name}#{i + 1}"
            ttables[name] = TTable(
                name=name,
                origin=t.name,
                row=i,
                inputs=t.inputs,
                outputs=t.outputs,
                pred=pred,
                funcs=tuple(funcs),
            )

    siblings = {}  # (origin, port) -> [row table names]
    for name, tt in ttables.items():
        for port, _ in tt.outputs:
            siblings.setdefault((tt.origin, port), []).append(name)

    producers = {}
    external_outputs = []
    for (src, sport), (dst, dport) in g.edges:
        if dst == OUTPUT:
            for rname in siblings[(src, sport)]:
                external_outputs.append((rname, sport, dport))
            continue
        for i in range(len(g.tables[dst].rows)):
            key = (f"{dst}#{i + 1}", dport)
            if src == INPUT:
                producers.setdefault(key, []).append((INPUT, sport))
            else:
                for rname in siblings[(src, sport)]:
                    producers.setdefault(key, []).append((rname, sport))

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
    """The rule for the sibling rows of one origin port: None (null) if any
    member is null, else the members whose tag is top. A well-formed group
    has at most one; a consumer takes the first, an output port is null
    when there are several."""
    if any(v is None for v in values):
        return None
    return [v for v in values if v.tag]


def _resolve_port(tg, values, X, consumer, port):
    """Value feeding (consumer, port): Tagged, or None for null."""
    group = tg.producers[(consumer, port)]
    if group[0][0] == INPUT:
        return Tagged(True, X[group[0][1]])
    tops = sibling_group([values[p] for p in group])
    if tops is None:
        return None
    return tops[0] if tops else BOT


def evaluate_plain(tg, X):
    """Evaluate the transformed graph on external inputs X.

    Returns (outputs, trace). outputs maps each external row table to its
    Tagged output or None (null). trace records every table's resolved
    inputs and outputs, the plaintext shadow the tests compare against.
    """
    for name, _ in tg.external_inputs:
        if name not in X:
            raise GraphError(f"external input '{name}' not assigned")
    width = tg.m // 2
    values = {}
    trace = {}
    for name in tg.order:
        t = tg.tables[name]
        ins = {}
        null = False
        env = {}
        for port, ptype in t.inputs:
            v = _resolve_port(tg, values, X, name, port)
            ins[port] = v
            if v is None or not v.tag:
                null = True
            elif ptype == "bool":
                env[port] = bool(v.payload)
            else:
                env[port] = wrap_signed(int(v.payload), width)
        if null:
            outs = {port: None for port, _ in t.outputs}
        elif evaluate(t.pred, env, width):
            outs = {}
            for (port, ptype), func in zip(t.outputs, t.funcs):
                r = evaluate(func, env, width)
                outs[port] = Tagged(True, bool(r) if ptype == "bool" else r)
        else:
            outs = {port: BOT for port, _ in t.outputs}
        for port, v in outs.items():
            values[(name, port)] = v
        trace[name] = {"inputs": ins, "outputs": outs}

    outputs = {}
    for tname, port, _ in tg.external_outputs:
        outputs[tname] = values[(tname, port)]
    return outputs, trace


def evaluate_original(g, X):
    """Reference evaluation of the untransformed graph (row selection).

    Returns table -> {port: value} with None when no predicate held upstream.
    """
    width = g.m // 2
    values = {}
    results = {}
    for name in g.topo_order():
        t = g.tables[name]
        env = {}
        dead = False
        for port, ptype in t.inputs:
            src, sport = g.producers[(name, port)]
            v = X[sport] if src == INPUT else values.get((src, sport))
            if v is None:
                dead = True
                break
            env[port] = bool(v) if ptype == "bool" else wrap_signed(int(v), width)
        if dead:
            results[name] = {port: None for port, _ in t.outputs}
            continue
        chosen = None
        for pred, funcs in t.rows:
            if evaluate(pred, env, width):
                chosen = funcs
                break
        outs = {}
        for (port, ptype), func in zip(
            t.outputs, chosen if chosen else (None,) * len(t.outputs)
        ):
            if chosen is None:
                outs[port] = None
            else:
                r = evaluate(func, env, width)
                outs[port] = bool(r) if ptype == "bool" else r
        for port, v in outs.items():
            values[(name, port)] = v
        results[name] = outs
    return results
