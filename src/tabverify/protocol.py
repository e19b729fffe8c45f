"""Developer and verifier state machines.

The developer encrypts the transformed design: every row table's circuit is
encoded as a program string for a shared universal circuit and the program
bits are encrypted. The verifier drives evaluation: it asks the developer to
encode external inputs (q1), homomorphically runs the universal circuit on
each table, and asks the developer to validate and decode every output (q2).
In general mode each encode answer is additionally pinned down by a checker
round: the verifier homomorphically computes the symmetric encryption of the
answer slice under its own secret key, the developer commits to the
decryption before seeing the key ciphertext's opening, and the revealed
value must decrypt to exactly the answer the developer gave earlier.

The developer checks every query against the structure it published (each
table's ports and their producers, and which tables are external), the same
data the verifier walks; both parties compute the values a query carries
(the table step, the checker slice and the checker value) with the one
function each below.

Everything exchanged is recorded; the audit module replays it.
"""

import base64
import copy
import functools
import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field

from . import he
from .channel import ChannelError, LoopbackChannel, canonical_json, make_frame
from .circuit import UniversalCircuit, budget_for, compile_table, encode_program
from .commitment import (
    choose_challenge,
    commit_respond,
    gen_code,
    split_blocks,
    verify_reveal,
    CommitMessage,
    RevealMessage,
)
from .graphtext import serialize_graph
from .symcrypto import se_dec, se_enc_circuit, se_keygen
from .tables import (
    INPUT,
    Tagged,
    bits_to_int,
    evaluate_plain,
    int_to_bits,
    sibling_group,
    tagged_to_bits,
    transform,
)
from .vga import generate_suite, input_key

CERT_VERSION = 4  # bump whenever certificates for fixed seeds change
HE_SECURITY = 16  # security parameter K of the homomorphic key pair
SE_KEY_BITS = 16  # the verifier's session key and each commitment seed
WORD_TYPES = ("int", "bool")  # the value types an encrypted word carries

TOP = "top"
BOT = "bot"
NULL = "null"


class ProtocolError(Exception):
    pass


# --- encoding helpers ---------------------------------------------------------


_TEXT = b"0" + b"1" * 255  # a bit by its truth: byte 0 is "0", any other "1"
_BITS = bytes.maketrans(b"01", b"\0\1")


def bits_str(bits):
    return bytes(bits).translate(_TEXT).decode("ascii")


def str_bits(s):
    if not isinstance(s, str) or set(s) - {"0", "1"}:
        raise ProtocolError(f"bad bit string {s!r}")
    return tuple(s.encode("ascii").translate(_BITS))


def cts_b64(cts):
    return [base64.b64encode(ct).decode("ascii") for ct in cts]


def b64_cts(items):
    try:
        out = [base64.b64decode(x, validate=True) for x in items]
    except Exception as exc:
        raise ProtocolError(f"bad ciphertext encoding: {exc}") from exc
    # b64decode drops the unused trailing bits of the last symbol, so two
    # distinct strings can decode to the same bytes; insist on the canonical
    # spelling so transcripts have a single byte representation
    if cts_b64(out) != list(items):
        raise ProtocolError("non-canonical ciphertext encoding")
    return out


def payload_to_value(bits, ptype):
    if ptype == "bool":
        return bool(bits[0])
    return bits_to_int(bits)


@functools.cache  # one build per width (0.3-0.6 ms each), not one per checker round
def se_circuit_for(width):
    return se_enc_circuit(SE_KEY_BITS, width)


# --- the values both parties compute from a query -------------------------------


def table_step(pp, u, i, u_cts):
    """Output ciphertexts of row table i on the input ciphertexts u_cts:
    program i and the inputs, cycled to the bus width, through the universal
    circuit u. The verifier computes it for a q2; the developer recomputes
    it before it answers."""
    data = [u_cts[k % len(u_cts)] for k in range(u.n_data)]
    return pp.program(i).run(data)


def checker_slice(word, case, h):
    """The part of an answered word that a checker round of this case
    covers: all of a q1 word, the tag half of an intermediate q2 word, the
    payload half of an external one."""
    if case == "input":
        return word
    return word[:h] if case == "intermediate" else word[h:]


def checker_value(pp, ct_sk, p):
    """y: the symmetric encryption of the slice p under the key inside
    ct_sk, evaluated homomorphically. The verifier computes it for a checker
    round; the developer recomputes it before it reveals."""
    circ = se_circuit_for(len(p))
    return he.eval_word(pp.hpk, circ, list(ct_sk) + list(p))


# --- public parameters ----------------------------------------------------------


@dataclass
class PublicParams:
    """Only the developer's own choices: key sizes and the checker's code are
    constants of the certificate version, so a developer cannot weaken them."""

    hpk: object
    u_params: tuple  # (n_data, g, m)
    structure: dict
    programs: dict  # table index -> list of ciphertext bytes
    # table index -> he.prepare of its program, filled by program()
    _prepared: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    FIELDS = ("hpk", "u_params", "structure", "programs")

    @property
    def m(self):
        """The word width: bits per encrypted port value."""
        return self.u_params[2]

    def program(self, i):
        """Program i, prepared for the universal circuit the first time a
        table step runs it and kept: one per table at most. Sessions served
        at once share it; two of them may both prepare program i, and both
        get the same value, so the memo needs no lock."""
        prepared = self._prepared.get(i)
        if prepared is None:
            prepared = self._prepared[i] = he.prepare(
                self.hpk, UniversalCircuit(*self.u_params), self.programs[i])
        return prepared

    def to_dict(self):
        return {
            "hpk": he.hpk_to_dict(self.hpk),
            "u_params": list(self.u_params),
            "structure": self.structure,
            "programs": {str(i): cts_b64(p) for i, p in self.programs.items()},
        }

    @classmethod
    def from_dict(cls, d):
        """Parse the published dict; ProtocolError names a field that is
        missing, unknown or of the wrong shape."""
        if not isinstance(d, dict):
            raise ProtocolError("public parameters are not a JSON object")
        unknown = sorted(set(d) - set(cls.FIELDS))
        missing = [k for k in cls.FIELDS if k not in d]
        if unknown or missing:
            raise ProtocolError(f"public parameters: unknown fields {unknown}, "
                                f"missing fields {missing}")
        u_params = d["u_params"]
        if not (isinstance(u_params, list) and len(u_params) == 3
                and all(type(x) is int and x > 0 for x in u_params)):
            raise ProtocolError("u_params must be three positive integers")
        plen = UniversalCircuit(*u_params).program_length
        if not (isinstance(d["programs"], dict) and all(
                isinstance(p, list) and len(p) == plen for p in d["programs"].values())):
            raise ProtocolError(f"programs must be lists of {plen} ciphertexts")
        try:
            hpk = he.hpk_from_dict(d["hpk"])
            programs = {int(i): b64_cts(p) for i, p in d["programs"].items()}
        except (AttributeError, TypeError, ValueError, he.HeError) as exc:
            raise ProtocolError(f"public parameters do not parse: {exc!r}") from None
        _refuse_unwalkable(d["structure"])
        return cls(hpk=hpk, u_params=tuple(u_params), structure=d["structure"],
                   programs=programs)


def _refuse_unwalkable(structure):
    """Refuse a structure the verifier could not walk. A table step cycles a
    table's input ciphertexts to the bus width, so every published table
    needs a port and every port a producer; an input producer names a
    published external input; external inputs and output groups carry a
    type that a word encodes, int or bool; every table has an int index and
    a bool external flag; and every output group has a str name and a list
    of int table indices."""
    try:
        if any(type(t["index"]) is not int or type(t["external"]) is not bool
               for t in structure["tables"]):
            raise ProtocolError("published tables need an int index and a "
                                "bool external flag")
        if any(not isinstance(group["name"], str)
               or not isinstance(group["tables"], list)
               or any(type(i) is not int for i in group["tables"])
               for group in structure["outputs"]):
            raise ProtocolError("published output groups need a str name and "
                                "a list of int table indices")
        types = [t for _, t in structure["external_inputs"]]
        types += [group["type"] for group in structure["outputs"]]
        if any(t not in WORD_TYPES for t in types):
            raise ProtocolError("published structure has a type other than "
                                "int or bool")
        inputs = {name for name, _ in structure["external_inputs"]}
        for t in structure["tables"]:
            if not t["ports"]:
                raise ProtocolError(f"published table {t.get('index')} has no ports")
            if any(not port["producers"] for port in t["ports"]):
                raise ProtocolError(f"published table {t.get('index')} has a port "
                                    "with no producers")
            if any(kind == "input" and ref not in inputs
                   for port in t["ports"] for kind, ref in port["producers"]):
                raise ProtocolError(f"published table {t.get('index')} reads an "
                                    "input that is not published")
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ProtocolError(f"published structure does not parse: {exc!r}") from None


def public_structure(tg, index_of):
    """Anonymized interconnection data: indices, port wiring, boundary names.

    Table and port identities are reduced to level-order indices and
    positions; only the boundary interface (external input names and output
    port names, which the public specification fixes anyway) keeps names.
    """
    tables = []
    for name in tg.order:
        t = tg.tables[name]
        ports = []
        for port, _ in t.inputs:
            producers = []
            for src, _sport in tg.producers[(name, port)]:
                if src == INPUT:
                    producers.append(["input", _sport])
                else:
                    producers.append(["table", index_of[src]])
            ports.append({"producers": producers})
        tables.append(
            {
                "index": index_of[name],
                "ports": ports,
                "external": name in {n for n, _ in tg.external_outputs},
            }
        )
    groups = {}
    for tname, port in tg.external_outputs:
        ptype = dict(tg.tables[tname].outputs)[port]
        groups.setdefault(port, {"name": port, "type": ptype, "tables": []})
        groups[port]["tables"].append(index_of[tname])
    return {
        "tables": tables,
        "external_inputs": [[n, t] for n, t in tg.external_inputs],
        "outputs": [groups[p] for p in sorted(groups)],
    }


# --- developer -------------------------------------------------------------------


def table_circuits(tg):
    """Level-order index of every row table, and its circuit by index."""
    index_of = {name: i + 1 for i, name in enumerate(tg.order)}
    return index_of, {index_of[n]: compile_table(tg.tables[n], tg.m) for n in tg.order}


@dataclass
class _SessionMem:
    # each answered word as (ciphertexts, plaintext)
    q1: dict = field(default_factory=dict)  # (i, port) -> (w_cts, u_bits)
    q2: dict = field(default_factory=dict)  # i -> (v_cts, output word)
    pending: dict = field(default_factory=dict)  # checker subprotocol state
    swap_held: object = None  # previous answer, for the swap strategy


class Developer:
    """Holds the secret design and answers the verifier's queries.

    Building a Developer is the paper's VS.Encrypt: it encrypts every row
    table as a universal-circuit program, and .pp is the public half. It
    then answers encode (q1/q2) queries and, in general mode, the checker
    rounds; VS.Eval on the resulting certificate is audit.audit.

    strategy selects a scripted dishonest behavior for tests:
    flip-payload, flip-tag, or swap-answers. None means honest.

    Every check on a query lives here once. Plaintext enters only through
    two open hooks, _open_output and _open_checker, which decrypt; the
    simulation oracle overrides just those two.

    A Developer answers one session at a time, out of the memory in .mem;
    session() gives it another session with fresh memory.
    """

    def __init__(self, graph, rng=None, strategy=None, u_budget=None):
        self.rng = rng or random.Random()
        self.strategy = strategy
        self.graph = graph
        self.tg = transform(graph)
        self.index_of, circuits = table_circuits(self.tg)
        n_data, g, m = budget_for(list(circuits.values()), floor=u_budget)
        self.u = UniversalCircuit(n_data, g, m)

        keys = he.keygen(HE_SECURITY, rng=self.rng)
        self.hpk, self.hsk = keys.hpk, keys.hsk
        self.circuits = circuits
        self.programs_plain = {
            i: encode_program(c, self.u) for i, c in circuits.items()
        }
        programs_enc = {
            i: he.enc_word(self.hpk, p, self.rng)
            for i, p in self.programs_plain.items()
        }
        self.pp = PublicParams(
            hpk=self.hpk,
            u_params=(n_data, g, m),
            structure=public_structure(self.tg, self.index_of),
            programs=programs_enc,
        )
        self.code = gen_code()
        self.mem = _SessionMem()

    def session(self):
        """A new session of this developer: it shares the design, keys,
        programs, code and rng, and has its own empty memory."""
        s = copy.copy(self)
        s.mem = _SessionMem()
        return s

    # -- frame dispatch

    def handle(self, frame):
        """Reply to one frame; a malformed frame gets an error reply."""
        if not (
            isinstance(frame, dict)
            and isinstance(frame.get("type"), str)
            and isinstance(frame.get("body", {}), dict)
        ):
            return make_frame("reply", {"error": "malformed frame"})
        ftype = frame["type"]
        if ftype in self.ANSWERS:
            try:
                reply = self.ANSWERS[ftype](self, frame.get("body", {}))
            except ProtocolError as exc:
                reply = {"error": str(exc)}
        else:
            reply = {"error": f"unknown frame type {ftype!r}"}
        return make_frame("reply", reply)

    def _published(self, i):
        """Table i of the published structure, or None when there is none."""
        tables = self.pp.structure["tables"]  # in index order, from 1
        return tables[i - 1] if i is not None and 0 < i <= len(tables) else None

    # -- q1 / q2

    def _encode(self, body):
        if body.get("qkind") == 1:
            return self._encode_q1(body)
        if body.get("qkind") == 2:
            return self._encode_q2(body)
        return {"answer": {"kind": NULL}}

    def _encode_q1(self, body):
        m = self.pp.m
        h = m // 2
        i, port = _int(body.get("i")), _int(body.get("port"))
        t = self._published(i)
        if t is None or port is None or not 0 <= port < len(t["ports"]):
            return {"answer": {"kind": NULL}}
        if t["ports"][port]["producers"][0][0] != "input":
            return {"answer": {"kind": NULL}}
        try:
            u = str_bits(body.get("u", ""))
        except ProtocolError:
            return {"answer": {"kind": NULL}}
        if len(u) != m or u[:h] != int_to_bits(1, h):
            return {"answer": {"kind": NULL}}
        encoded = u
        if self.strategy == "flip-payload":
            encoded = u[:h] + (u[h] ^ 1,) + u[h + 1 :]
        w = he.enc_word(self.hpk, encoded, self.rng)
        self.mem.q1[(i, port)] = (w, u)
        return {"answer": {"kind": "w", "w": cts_b64(w)}}

    def _encode_q2(self, body):
        m = self.pp.m
        h = m // 2
        i = _int(body.get("i"))
        t = self._published(i)
        if t is None:
            return {"answer": {"kind": NULL}}
        try:
            u_cts = b64_cts(body.get("u", []))
            v_cts = b64_cts(body.get("v", []))
        except ProtocolError:
            return {"answer": {"kind": NULL}}
        if len(u_cts) != len(t["ports"]) * m or len(v_cts) != m:
            return {"answer": {"kind": NULL}}

        u_plain = []
        for j, port in enumerate(t["ports"]):
            segment = u_cts[j * m : (j + 1) * m]
            word = self._produced_word(i, j, port["producers"], segment)
            if word is None:
                return {"answer": {"kind": NULL}}
            u_plain.extend(word)

        if table_step(self.pp, self.u, i, u_cts) != v_cts:
            return {"answer": {"kind": NULL}}

        out = self._open_output(i, v_cts, u_plain)
        if not any(out[:h]):
            honest = {"kind": BOT}
        elif t["external"]:
            honest = {"kind": "payload", "payload": bits_str(out[h:])}
        else:
            honest = {"kind": TOP}
        self.mem.q2[i] = (v_cts, out)
        return {"answer": self._apply_strategy(honest)}

    def _produced_word(self, i, j, producers, segment):
        """Plaintext of input segment j of table i, if an earlier answer
        produced exactly these ciphertexts; None otherwise."""
        if producers[0][0] == "input":
            known = self.mem.q1.get((i, j))
            return known[1] if known is not None and known[0] == segment else None
        h = self.pp.m // 2
        for _, ref in producers:
            prior = self.mem.q2.get(ref)
            if prior is not None and prior[0] == segment:
                # a producing output that decrypts to bot feeds nothing
                return prior[1] if any(prior[1][:h]) else None
        return None

    def _open_output(self, i, v_cts, u_plain):
        """Plaintext output word of table i, whose inputs are u_plain."""
        return he.dec_word(self.hsk, v_cts)

    def _open_checker(self, y, slice_plain):
        """The value y decrypts to: the verifier's SE encryption of slice_plain."""
        return he.dec_word(self.hsk, y)

    def _apply_strategy(self, honest):
        if self.strategy == "flip-payload" and honest["kind"] == "payload":
            bits = str_bits(honest["payload"])
            return {"kind": "payload", "payload": bits_str((bits[0] ^ 1,) + bits[1:])}
        if self.strategy == "flip-tag" and honest["kind"] in (TOP, BOT):
            return {"kind": BOT if honest["kind"] == TOP else TOP}
        if self.strategy == "swap-answers":
            held, self.mem.swap_held = self.mem.swap_held, honest
            return held if held is not None else honest
        return honest

    # -- checker subprotocol

    def _checker(self, body):
        h = self.pp.m // 2
        i, case, port = _int(body.get("i")), body.get("case"), _int(body.get("port"))
        try:
            p = b64_cts(body.get("p", []))
            y = b64_cts(body.get("y", []))
        except ProtocolError:
            return {"result": NULL}
        if case == "input":
            known = self.mem.q1.get((i, port))
        elif case in ("intermediate", "external"):
            known = self.mem.q2.get(i)
        else:
            return {"result": NULL}
        if (known is None or checker_slice(known[0], case, h) != p
                or len(y) != len(p) or not he.well_formed(self.hpk, y)):
            return {"result": NULL}
        d_bits = self._open_checker(y, checker_slice(known[1], case, h))
        self.mem.pending = {
            "d": d_bits,
            "p": p,
            "y": y,
            "blocks": split_blocks(d_bits, self.code.m_c),
            "seeds": None,
        }
        return {"blocks": len(self.mem.pending["blocks"])}

    def _commit(self, body):
        pending = self.mem.pending
        if not pending or pending.get("seeds") is not None:
            return {"result": NULL}
        if not isinstance(body.get("Rs"), list):
            return {"result": NULL}
        try:
            rs = [str_bits(r) for r in body["Rs"]]
        except ProtocolError:
            return {"result": NULL}
        if len(rs) != len(pending["blocks"]):
            return {"result": NULL}
        seeds, out = [], []
        for blk, R in zip(pending["blocks"], rs):
            s = se_keygen(SE_KEY_BITS, self.rng)
            try:
                cm = commit_respond(blk, R, s, self.code)
            except Exception:
                return {"result": NULL}
            seeds.append(s)
            out.append({"e": bits_str(cm.e), "exposed": bits_str(cm.exposed)})
        pending["seeds"] = seeds
        return {"blocks": out}

    def _proof(self, body):
        pending = self.mem.pending
        if not pending or pending.get("seeds") is None:
            return {"result": NULL}
        self.mem.pending = {}
        try:
            ct_sk = b64_cts(body.get("ct_sk", []))
        except ProtocolError:
            return {"result": NULL}
        if len(ct_sk) != SE_KEY_BITS:
            return {"result": NULL}
        try:
            recomputed = checker_value(self.pp, ct_sk, pending["p"])
        except he.HeError:  # ct_sk is not a ciphertext under hpk
            return {"result": NULL}
        if recomputed != pending["y"]:
            return {"result": NULL}
        reveals = [
            {"seed": bits_str(s), "data": bits_str(d)}
            for s, d in zip(pending["seeds"], pending["blocks"])
        ]
        return {"d": bits_str(pending["d"]), "reveals": reveals}

    # frame type -> answer method: the only frames a session carries
    ANSWERS = {
        "encode": _encode,
        "checker": _checker,
        "commit_challenge": _commit,
        "checker_proof": _proof,
    }


def _int(value):
    """value if it is an int (a bool is not), else None."""
    return value if type(value) is int else None


def serve(dev, chan):
    """Answer one verifier over chan until it closes; then close chan.

    The connection is the session: its memory is made here and dropped on
    return, so concurrent connections never share memory.
    """
    session = dev.session()
    try:
        while True:
            chan.send(session.handle(chan.recv()))
    except ChannelError:
        return
    finally:
        chan.close()


# --- verifier ----------------------------------------------------------------------


BINDING_FIELDS = (
    "version", "mode", "K", "public_params", "g_spec", "domains", "cp", "vga",
)


def session_binding(cert):
    """Hash of the session's configuration fields.

    Some configuration values have no behavioural effect on a given
    transcript (a domain value the suite never sampled), so replay alone
    cannot notice when they are altered. The binding pins them all
    byte-wise; the auditor recomputes it from the certificate it was handed
    and compares.
    """
    blob = canonical_json({k: cert[k] for k in BINDING_FIELDS})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class SessionFailure(Exception):
    """Protocol-visible failure (a null where the flow required substance)."""


class Verifier:
    def __init__(
        self,
        pp,
        g_spec,
        domains,
        cp,
        seed=0,
        mode="honest",
        vga_budget=16,
        rng=None,
        sk=None,
        ct_sk=None,
    ):
        pp = PublicParams.from_dict(pp)  # the published public-parameter dict
        published = [tuple(x) for x in pp.structure["external_inputs"]]
        if Counter(published) != Counter(g_spec.external_inputs):
            raise ProtocolError(f"published external inputs {published} are not "
                                f"the specification's {g_spec.external_inputs}")
        if mode not in ("honest", "general"):
            raise ProtocolError(f"unknown mode {mode!r}")
        if mode == "general" and (pp.m < 8 or pp.m % 4):
            # checker rounds encrypt half words as SE blocks (even, >= 4 bits)
            raise ProtocolError(f"general mode needs a width that is a multiple "
                                f"of 4 and at least 8; got width {pp.m}")
        uncovered = [n for n, _ in g_spec.external_inputs if not domains.get(n)]
        if uncovered:
            raise ProtocolError("domains give no values for external input(s) "
                                + ", ".join(uncovered))
        for X, _ in cp:
            omitted = [n for n, _ in g_spec.external_inputs if n not in X]
            if omitted:
                raise ProtocolError("a critical point gives no value for external "
                                    "input(s) " + ", ".join(omitted))
        # each input value is encoded as an int word (a bool is an int)
        wrong = sorted({n for n, vals in domains.items() for v in vals
                        if not isinstance(v, int)}
                       | {n for X, _ in cp for n, v in X.items() if not isinstance(v, int)})
        if wrong:
            raise ProtocolError("domains or critical points give a value that is not "
                                "an integer or boolean for input(s) " + ", ".join(wrong))
        if vga_budget < 1 and not cp:
            raise ProtocolError(f"a session with test budget {vga_budget} and no "
                                "critical points tests nothing")
        self.pp = pp
        self.g_spec = g_spec
        self.tg_spec = transform(g_spec)
        self.domains = domains
        self.cp = list(cp)
        self.seed = seed
        self.mode = mode
        self.vga_budget = vga_budget
        self.rng = rng or random.Random()
        self.u = UniversalCircuit(*pp.u_params)
        self.code = gen_code()
        if mode == "general":
            self.sk = tuple(sk) if sk else se_keygen(SE_KEY_BITS, self.rng)
            self.ct_sk = (
                list(ct_sk)
                if ct_sk
                else he.enc_word(pp.hpk, self.sk, self.rng)
            )
        else:
            self.sk, self.ct_sk = None, None
        self.qa_e = []
        self.qa_c = []
        self.failures = []
        self.replay_qac = None  # recorded checker tuples, set by the auditor

    # -- plumbing

    def _ask(self, chan, ftype, body):
        """The body of the developer's reply; {} when it is not a dict."""
        chan.send(make_frame(ftype, body))
        reply = chan.recv()
        body = reply.get("body") if isinstance(reply, dict) else None
        return body if isinstance(body, dict) else {}

    def _encode_query(self, chan, body):
        answer = self._ask(chan, "encode", body).get("answer")
        if not self._well_formed(body["qkind"], answer):
            answer = {"kind": NULL}
        self.qa_e.append({"q": body, "a": answer})
        if self.mode == "general" and answer["kind"] != NULL:
            if not self._checker_round(chan, body, answer):
                self.failures.append(
                    {"reason": "checker", "i": body.get("i")}
                )
        return answer

    def _well_formed(self, qkind, answer):
        """Whether an encode answer has the fields its kind needs, in shape;
        the one check on them. An answer that fails it counts as null."""
        kind = answer.get("kind") if isinstance(answer, dict) else None
        if kind == NULL or (qkind == 2 and kind in (TOP, BOT)):
            return True
        try:
            if qkind == 1 and kind == "w":
                w = answer.get("w")
                return (isinstance(w, list) and len(w) == self.pp.m
                        and he.well_formed(self.pp.hpk, b64_cts(w)))
            return qkind == 2 and kind == "payload" and (
                len(str_bits(answer.get("payload"))) == self.pp.m // 2)
        except ProtocolError:
            return False

    # -- session driver

    def run(self, chan):
        """Drive the whole verification session; returns (verdict, certificate)."""
        paths, ei = generate_suite(
            self.pp.structure, self.g_spec, self.domains, self.seed, self.vga_budget
        )
        inputs, seen = [], set()
        for X in ei + [X for X, _ in self.cp]:
            k = input_key(X)
            if k not in seen:
                seen.add(k)
                inputs.append(X)

        results = {}
        for X in inputs:
            results[input_key(X)] = self._eval_encrypted(chan, X)

        mismatches = []
        for X in inputs:
            want = spec_port_outputs(self.tg_spec, X)
            got = results[input_key(X)]
            if not outputs_equal(want, got):
                mismatches.append({"input": X, "expected": want, "observed": got})
        cp_results = []
        for X, Y in self.cp:
            got = results[input_key(X)]
            ok = outputs_equal(Y, got)
            cp_results.append({"input": X, "expected": Y, "ok": ok})

        verdict = (
            "accept"
            if not mismatches and not self.failures and all(r["ok"] for r in cp_results)
            else "reject"
        )
        cert = {
            "version": CERT_VERSION,
            "mode": self.mode,
            "K": HE_SECURITY,
            "public_params": self.pp.to_dict(),
            "g_spec": serialize_graph(self.g_spec),
            "domains": {k: list(v) for k, v in self.domains.items()},
            "cp": [[X, Y] for X, Y in self.cp],
            "vga": {"seed": self.seed, "budget": self.vga_budget},
            "paths": [list(p) for p in paths],
            "qa_e": self.qa_e,
            "verdict": verdict,
            "outputs": {k: v for k, v in results.items()},
            "failures": self.failures,
            "mismatches": mismatches,
            "cp_results": cp_results,
        }
        if self.mode == "general":
            cert["qa_c"] = self.qa_c
            cert["sk"] = bits_str(self.sk)
            cert["ct_sk"] = cts_b64(self.ct_sk)
        cert["binding"] = session_binding(cert)
        return verdict, cert

    def _eval_encrypted(self, chan, X):
        m = self.pp.m
        struct_tables = sorted(self.pp.structure["tables"], key=lambda t: t["index"])
        ext_types = dict(self.pp.structure["external_inputs"])
        # per table, as a Tagged value or None for null: what it feeds its
        # consumers (top and payload answers fire, carrying the output
        # ciphertexts) and what it gives an output port (only payload
        # answers fire, carrying the payload bits)
        feeds, outs = {}, {}

        for t in struct_tables:
            i = t["index"]
            port_words = []
            for pos, port in enumerate(t["ports"]):
                producers = port["producers"]
                if producers[0][0] == "input":
                    name = producers[0][1]
                    value = X[name]
                    if ext_types[name] == "bool":  # read as the plaintext spec reads it
                        value = bool(value)
                    u_bits = tagged_to_bits(Tagged(True, value), m)
                    ans = self._encode_query(
                        chan,
                        {"i": i, "qkind": 1, "port": pos, "u": bits_str(u_bits)},
                    )
                    if ans["kind"] != "w":
                        self.failures.append({"reason": "q1-null", "i": i})
                        break
                    port_words.append(b64_cts(ans["w"]))
                    continue
                # a null or uniformly non-firing feed makes the consumer
                # null, matching the plaintext evaluation rules
                tops = sibling_group([feeds.get(ref) for _, ref in producers])
                if not tops:
                    break
                port_words.append(tops[0].payload)
            if len(port_words) < len(t["ports"]):
                feeds[i] = outs[i] = None
                continue

            u_cts = [ct for word in port_words for ct in word]
            v_cts = table_step(self.pp, self.u, i, u_cts)
            ans = self._encode_query(
                chan,
                {"i": i, "qkind": 2, "u": cts_b64(u_cts), "v": cts_b64(v_cts)},
            )
            kind = ans["kind"]
            if kind == NULL:
                self.failures.append({"reason": "q2-null", "i": i})
                feeds[i] = outs[i] = None
                continue
            silent = Tagged(False, 0)
            feeds[i] = Tagged(True, v_cts) if kind in (TOP, "payload") else silent
            outs[i] = Tagged(True, ans["payload"]) if kind == "payload" else silent

        outputs = {}
        for group in self.pp.structure["outputs"]:
            name = group["name"]
            tops = sibling_group([outs.get(i) for i in group["tables"]])
            if tops is None:
                outputs[name] = None
            elif not tops:
                outputs[name] = BOT
            elif len(tops) == 1:
                outputs[name] = payload_to_value(str_bits(tops[0].payload), group["type"])
            else:
                self.failures.append({"reason": "ambiguous-output", "port": name})
                outputs[name] = None
        return outputs

    # -- checker round (general mode)

    def _expected_checker(self, q, answer, h):
        if q["qkind"] == 1:
            return "input", q.get("port"), str_bits(q["u"])
        kind = answer["kind"]
        if kind == "payload":
            return "external", None, str_bits(answer["payload"])
        return "intermediate", None, int_to_bits(int(kind == TOP), h)

    def _checker_round(self, chan, q, answer):
        """Pin an encode answer down; whether the revealed value decrypts
        to exactly that answer. The query body is both the frame sent and
        the record's q."""
        h = self.pp.m // 2
        case, port, expected = self._expected_checker(q, answer, h)
        p64 = checker_slice(answer["w"] if q["qkind"] == 1 else q["v"], case, h)
        p = b64_cts(p64)
        y = checker_value(self.pp, self.ct_sk, p)
        body = {"i": q["i"], "case": case, "port": port, "p": p64, "y": cts_b64(y)}
        record = {"q": body, "a": {"d": None}, "s": {"blocks": []}}
        self.qa_c.append(record)

        if self.replay_qac is not None:
            d, blocks = self._recorded_opening(record, len(p))
        else:
            d, blocks = self._live_opening(chan, body, len(p))
        if d is None:
            return False
        record["a"]["d"] = d
        record["s"]["blocks"] = blocks
        return se_dec(self.sk, str_bits(d)) == tuple(expected)

    def _live_opening(self, chan, body, width):
        """Run the commit-and-reveal exchange for one checker query; the
        revealed d and its blocks once every block opens, else (None, None)."""
        r = self._ask(chan, "checker", body)
        n = len(split_blocks((0,) * width, self.code.m_c))
        if _int(r.get("blocks")) != n:
            return None, None
        rs = [choose_challenge(self.code.q, self.rng) for _ in range(n)]
        c = self._ask(
            chan, "commit_challenge", {"Rs": [bits_str(R) for R in rs]}
        )
        commits = c.get("blocks")
        if not isinstance(commits, list) or len(commits) != n:
            return None, None
        res = self._ask(chan, "checker_proof", {"ct_sk": cts_b64(self.ct_sk)})
        try:
            d, reveals = res["d"], res["reveals"]
            if len(reveals) != n:
                return None, None
            blocks = [
                {
                    "R": bits_str(R),
                    "e": cm["e"],
                    "exposed": cm["exposed"],
                    "seed": rv["seed"],
                    "data": rv["data"],
                }
                for R, cm, rv in zip(rs, commits, reveals)
            ]
        except (KeyError, TypeError):
            return None, None
        return (d, blocks) if self._opens(d, blocks, width) else (None, None)

    def _recorded_opening(self, record, width):
        """The recorded d and blocks of this round, instead of asking. A live
        round records d only once every block has opened, so a recorded d
        whose blocks do not open fails the replay here."""
        k = len(self.qa_c) - 1  # this round's record is already appended
        if k >= len(self.replay_qac):
            raise SessionFailure("checker record missing")
        rec = self.replay_qac[k]
        if rec["q"] != record["q"]:
            raise SessionFailure("checker record mismatch")
        d, blocks = rec["a"].get("d"), rec["s"]["blocks"]
        if d is not None and not self._opens(d, blocks, width):
            raise SessionFailure(f"checker record {k} does not open ($.qa_c[{k}])")
        return d, blocks

    def _opens(self, d, blocks, width):
        """Whether d is a width-bit string and every block reveals its slice
        of d and opens its commitment under its challenge R; False too when
        d or a block does not parse."""
        try:
            bits = str_bits(d)
            data_blocks = split_blocks(bits, self.code.m_c)
            if len(bits) != width or len(blocks) != len(data_blocks):
                return False
            for blk, want_data in zip(blocks, data_blocks):
                commit = CommitMessage(
                    e=str_bits(blk["e"]), exposed=str_bits(blk["exposed"])
                )
                reveal = RevealMessage(
                    seed=str_bits(blk["seed"]), data=str_bits(blk["data"])
                )
                if reveal.data != want_data:
                    return False
                if not verify_reveal(commit, reveal, str_bits(blk["R"]), self.code):
                    return False
            return True
        except (ProtocolError, KeyError, TypeError, ValueError):
            return False


# --- output comparison helpers ----------------------------------------------------


def spec_port_outputs(tg_spec, X):
    """Per-output-port plaintext results of the public specification."""
    outputs, _ = evaluate_plain(tg_spec, X)
    groups = {}
    for tname, port in tg_spec.external_outputs:
        groups.setdefault(port, []).append(outputs[tname])
    result = {}
    for port, vals in groups.items():
        tops = sibling_group(vals)
        if tops is None or len(tops) > 1:  # null, or an ill-formed group
            result[port] = None
        else:
            result[port] = tops[0].payload if tops else BOT
    return result


def outputs_equal(want, got):
    if set(want) != set(got):
        return False
    for port, w in want.items():
        g = got[port]
        if w is None and g is None:  # semantic null on both sides agrees
            continue
        if w is None or g is None:
            return False
        if w != g or isinstance(w, bool) != isinstance(g, bool):
            return False
    return True


def verify_session(dev, verifier):
    """Run a full in-process session over the loopback channel."""
    return verifier.run(LoopbackChannel(dev.session().handle))
