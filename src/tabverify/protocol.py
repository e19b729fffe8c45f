"""Developer and verifier state machines.

The developer encrypts the transformed design: every row table's circuit is
encoded as a program string for a shared universal circuit and the program
bits are encrypted. The verifier drives evaluation: for each tested input it
asks the developer to encode each external input once (q1), homomorphically
runs the universal circuit on each table, and asks the developer to decode
every output (q2). A q1 carries only its input's h-bit payload x: the
developer forms the top word 1 | x << h itself, and answers its encryption.
A q2 names only its table: the developer joins the table's input word from
its own answers, per port the first answer of its feed that fired, as the
verifier does, runs the same table step on it and opens the word it computed
itself, never one the verifier sent. A q2 answer is the plaintext of
checker_slice of that word: an external table's whole word, any other
table's tag half, so that no intermediate payload (a value between tables)
is ever opened. In general mode a checker round pins down each encode answer
right after it: the verifier homomorphically computes the symmetric
encryption of the answer's slice under a fresh key of its own, the developer
commits to the decryption before it is sent the round's seed, from which it
builds the key's ciphertext itself, and the revealed value must decrypt to
exactly the answer (a q1's top word). A round is one commitment, to the
whole slice, in two frames: the checker frame carries y and the challenge R
and is answered by the commitment, and the proof carries only the round's
seed. A frame the developer refuses gets {}, and a refused checker frame
gets no proof.

The published structure is one value, Structure, which names a feed as its
JSON does, by a ref: an external input's name (a JSON string) or a table's
index (a JSON int). Per table, whether it is external and the refs that
feed each port; then the external inputs and the output groups. It alone
writes and reads its JSON, and refuses any JSON its to_dict would not have
written or that the verifier could not walk. Program i is the i-th
published program, as table i is the i-th table. A q1 names its input and
a q2 its table, and both parties keep the words answered by ref. The
developer checks every query against the structure it published, the same
value the verifier walks; both parties compute the values a query carries
(the table step, the checker slice and the checker value) with the one
function each below.

A ciphertext word (he's one bytes value: the backend tag and key id once,
then one payload per ciphertext) is one base64 string on the wire and in
the certificate: a published program and a q1 answer; on the wire also a
checker round's y, and in the certificate a q2's u, which the verifier
records with the query and never sends. cts_b64 and b64_cts are the one
encoding and the one decoding, and b64_cts accepts only the canonical
spelling of a word of the key pair, which he.check_word checks once. Words
are cut and joined by ciphertext index with he.cut_word and he.join_words,
never by byte arithmetic here.

Above he, an n-bit string is an int whose bit i is bit i of the string,
and n comes from the caller: a q1's x, a q2 answer, a checker round's d
and seed, every commitment field and challenge, the two session seeds
and the developer's plaintext memory. On the wire and in the certificate
it is exactly ceil(n / 4) lowercase hex digits, the most significant
first: bits_hex writes it, and hex_bits reads it back and refuses any
other spelling, so that each recorded string has one spelling (the audit
hands recorded openings into the rebuilt certificate unchanged). The
checker value is the SE circuit named by its block width
(symcrypto.SECircuit) evaluated under he.

The verifier derives round r's seed, the round recorded at qa_c[r], from
its key seed with the PRG (round_seed), and draws the round's key, then
its key word's nonces, from a generator seeded with that seed alone
(checker_key). No round's generator is another's, and a hash of the key
seed is no generator output, so the seeds and key words a developer has
been sent tell it nothing of a later round's key. Each round's challenge
comes from one stream of the challenge seed: a committer sees its
challenge before it commits anyway. The certificate records neither keys
nor challenges, only the two seeds, from which the auditor derives them
again.

The verifier meets the developer only through its hooks (Verifier); the
audit module's ReplayVerifier overrides them to replay a certificate.
Everything exchanged is recorded.
"""

import copy
import hashlib
import random
from binascii import a2b_base64, b2a_base64
from collections import Counter
from dataclasses import dataclass, field

from . import he, tables
from .channel import ChannelError, LoopbackChannel, canonical_json, make_frame
from .circuit import UniversalCircuit, budget_for, compile_table, encode_program
from .commitment import (
    COMMIT_SEED_BITS,
    CommitError,
    challenge,
    commit_bits,
    commit_respond,
    verify_reveal,
)
from .expr import wrap_signed
from .graphtext import serialize_graph
from .symcrypto import (
    SECircuit,
    block_width_ok,
    prg,
    se_dec,
    se_key_bits,
    se_keygen,
)
from .tables import (
    Tagged,
    bits_uint,
    evaluate_plain,
    int_to_bits,
    join_ports,
    sibling_group,
    tagged_word,
    transform,
    word_values,
)
from .vga import generate_suite, input_key

# bump whenever a certificate field or a replay rule changes; a change of
# frames that leaves every certificate byte for byte the same needs none
CERT_VERSION = 20
SESSION_SEED_BITS = 128  # the verifier's key seed and challenge seed
ROUND_SEED_BITS = 128  # a checker round's seed, derived from the key seed
ROUND_INDEX_BITS = 32  # a checker round's index, in its seed's derivation
WORD_TYPES = ("int", "bool")  # the value types an encrypted word carries

BOT = "bot"


class ProtocolError(Exception):
    pass


# --- encoding helpers ---------------------------------------------------------


_HEX_DIGITS = frozenset("0123456789abcdef")


def bits_hex(value, n):
    """The hex spelling of the n-bit string value: exactly ceil(n / 4)
    lowercase hex digits, the most significant first."""
    return format(value | 1 << 4 * -(-n // 4), "x")[1:]  # past a leading 1


def hex_bits(text, n):
    """The n-bit string that text spells, as an int: the inverse of
    bits_hex. ProtocolError unless text is a str of exactly ceil(n / 4)
    digits from 0-9a-f whose bits at n and above are clear, so that each
    bit string has one spelling."""
    if not isinstance(text, str):
        raise ProtocolError(f"a bit string must be hex text, not {type(text).__name__}")
    digits = -(-n // 4)
    if len(text) != digits or not _HEX_DIGITS.issuperset(text):
        raise ProtocolError(f"a {n}-bit string must be {digits} lowercase hex digits")
    value = int(text, 16) if text else 0
    if value >> n:
        raise ProtocolError(f"a {n}-bit string sets a bit past its {n} bits")
    return value


def cts_b64(word):
    """The base64 string of a ciphertext word."""
    return b2a_base64(word, newline=False).decode("ascii")


def b64_cts(text, hpk, n=None):
    """The ciphertext word a base64 string spells: a word of hpk's key pair
    (he.check_word), of exactly n ciphertexts when n is given. ProtocolError
    when text is not ASCII str, does not decode, is not the canonical
    spelling of what it decodes to, is not a word of the key pair, or holds
    another number of ciphertexts."""
    if not isinstance(text, str) or not text.isascii():
        raise ProtocolError("a ciphertext word must be ASCII text")
    try:
        word = a2b_base64(text)
    except ValueError as exc:  # binascii.Error
        raise ProtocolError(f"bad ciphertext encoding: {exc}") from None
    # a2b_base64 skips characters outside the alphabet and drops the unused
    # trailing bits of the last symbol, so distinct strings can decode to the
    # same bytes; insist on the canonical spelling, so that transcripts have
    # a single byte representation and only that spelling is accepted
    if b2a_base64(word, newline=False) != text.encode("ascii"):
        raise ProtocolError("non-canonical ciphertext encoding")
    try:
        count = he.check_word(hpk, word)
    except he.HeError as exc:
        raise ProtocolError(f"bad ciphertext word: {exc}") from None
    if n is not None and count != n:
        raise ProtocolError(f"a ciphertext word must hold {n} ciphertexts, "
                            f"got {count}")
    return word


def payload_to_value(value, h, ptype):
    """The value of an h-bit payload: bit 0 for a bool, two's complement for an int."""
    return bool(value & 1) if ptype == "bool" else wrap_signed(value, h)


# --- the values both parties compute from a query -------------------------------


def table_step(pp, i, u_word):
    """The output word of row table i on the input word u_word: program i
    and the input ciphertexts, cycled to the bus width, through the
    universal circuit. Each party computes it for a q2 on its own, on the
    u_word it joins from the answers: the query names only i, and the
    developer opens the word it computed."""
    need = pp.u_params[0]
    copies = -(-need // he.check_word(pp.hpk, u_word))
    cycled = he.join_words(pp.hpk, [u_word] * copies)
    return pp.program(i).run(he.cut_word(pp.hpk, cycled, 0, need))


def checker_slice(word, whole, h, hpk=None):
    """The part of an answered word that a checker round covers: all of it
    when whole (both parties take it from Structure.covers_whole), else its
    tag half, so that no intermediate payload is ever opened. word is a
    ciphertext word under hpk, or its plaintext when hpk is None."""
    if whole:
        return word
    return word & ((1 << h) - 1) if hpk is None else he.cut_word(hpk, word, 0, h)


def round_seed(key_seed, r):
    """The seed of checker round r, the round recorded at qa_c[r]: the
    first ROUND_SEED_BITS bits of the PRG (SHAKE128) over the key seed's
    bits and then r's ROUND_INDEX_BITS."""
    return prg(key_seed | r << SESSION_SEED_BITS,
               SESSION_SEED_BITS + ROUND_INDEX_BITS, ROUND_SEED_BITS)


def checker_key(seed, width, hpk=None):
    """(sk, its word under hpk) of the checker round of the given seed on a
    slice of width bits; the word is None when hpk is None. A generator
    seeded with the round's seed alone draws the key's se_key_bits(width)
    bits, then the word's nonces, so the word shows no other round's draws.
    The verifier builds the word for y, and the developer builds it again
    from the seed it is sent in the proof; the auditor and the simulation
    oracle draw the key alone."""
    keys = random.Random(seed)
    k = se_key_bits(width)
    sk = se_keygen(k, keys)
    return sk, None if hpk is None else he.enc_word(hpk, int_to_bits(sk, k), keys)


def checker_value(pp, ct_sk, p):
    """y: the symmetric encryption of the slice p under the key inside
    ct_sk, evaluated homomorphically as the SE circuit named by its block
    width. The verifier computes it for a checker round; the developer
    recomputes it before it reveals."""
    se = pp.se_circuit(he.check_word(pp.hpk, p))
    return he.eval_named(pp.hpk, se, he.join_words(pp.hpk, (ct_sk, p)))


# --- public parameters ----------------------------------------------------------


@dataclass(frozen=True)
class Structure:
    """The published structure: the diagram of interconnections between the
    row tables, with only the specification's boundary names. Table i is
    tables[i - 1] = (external, feeds): whether it feeds an output, and per
    port the tuple of refs that produce it, an external input's (name,) or
    the earlier tables' indices. inputs are (name, type) pairs; outputs are
    groups (name, type, table indices), in name order.

    The JSON is these tuples as lists: a table is {"external": bool,
    "ports": [[ref, ...], ...]}, with no index of its own, and a ref is a
    name or an index, which its JSON type tells apart."""

    tables: tuple
    inputs: tuple
    outputs: tuple

    def table(self, i):
        """(external, feeds) of table i; None when i is no table's index."""
        valid = type(i) is int and 0 < i <= len(self.tables)
        return self.tables[i - 1] if valid else None

    def covers_whole(self, ref):
        """checker_slice's whole: a checker round covers all of the word
        answered for an input or an external table, the tag half of any other."""
        return isinstance(ref, str) or self.table(ref)[0]

    def to_dict(self):
        return {
            "tables": [{"external": external, "ports": [list(f) for f in feeds]}
                       for external, feeds in self.tables],
            "external_inputs": [list(x) for x in self.inputs],
            "outputs": [{"name": name, "type": ptype, "tables": list(group)}
                        for name, ptype, group in self.outputs],
        }

    @classmethod
    def from_dict(cls, d):
        """Parse a published structure. ProtocolError unless to_dict writes
        it back exactly, and the verifier can walk it: see _check."""
        try:
            s = cls(
                tables=tuple((t["external"], tuple(map(tuple, t["ports"])))
                             for t in d["tables"]),
                inputs=tuple((name, ptype) for name, ptype in d["external_inputs"]),
                outputs=tuple((g["name"], g["type"], tuple(g["tables"]))
                              for g in d["outputs"]))
            if canonical_json(s.to_dict()) != canonical_json(d):
                raise ProtocolError("published structure is not in the published layout")
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            raise ProtocolError(f"published structure does not parse: {exc!r}") from None
        s._check()
        return s

    def _check(self):
        """Refuse a structure the verifier could not walk. Names are
        distinct strs, and types int or bool, which a word encodes. A table
        step cycles a table's input ciphertexts to the bus width, so every
        table needs a port; a port reads one published input, or one or more
        distinct earlier tables, never both. Each output group lists one or
        more distinct external tables, and each external table is listed."""
        inputs = [name for name, _ in self.inputs]
        names = [name for name, _, _ in self.outputs]
        types = [t for _, t in self.inputs] + [t for _, t, _ in self.outputs]
        if (not all(type(n) is str for n in inputs + names)
                or any(t not in WORD_TYPES for t in types)):
            raise ProtocolError("published names must be strs, and types int or bool")
        if len(set(inputs)) < len(inputs) or names != sorted(set(names)):
            raise ProtocolError("published names must be distinct, the outputs "
                                "in name order")
        for i, (external, feeds) in enumerate(self.tables, 1):
            if type(external) is not bool or not feeds or not all(
                    (len(f) == 1 and f[0] in inputs)
                    if any(isinstance(r, str) for r in f) else _distinct(f, range(1, i))
                    for f in feeds):
                raise ProtocolError(f"published table {i} needs a bool external "
                                    "flag, and ports that read a published input "
                                    "or distinct earlier tables")
        external = {i for i, (ext, _) in enumerate(self.tables, 1) if ext}
        for name, _, group in self.outputs:
            if not _distinct(group, external):
                raise ProtocolError(f"published output group {name!r} needs one "
                                    "or more distinct external tables")
        if external - {i for _, _, group in self.outputs for i in group}:
            raise ProtocolError("a published external table is in no output group")


def _distinct(indices, allowed):
    """Whether indices are one or more distinct ints, each in allowed."""
    return (bool(indices) and all(type(i) is int and i in allowed for i in indices)
            and len(set(indices)) == len(indices))


@dataclass
class PublicParams:
    """Only the developer's own choices: key sizes and the checker's code are
    constants of the certificate version, so a developer cannot weaken them.
    programs holds one word per published table, program i at i - 1; the
    JSON lists them as base64 strings."""

    hpk: object
    u_params: tuple  # (n_data, g, m)
    structure: Structure
    programs: tuple  # program i's ciphertext word is programs[i - 1]
    # table index -> he.prepare of its program, filled by program()
    _prepared: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)
    # block width -> its SECircuit and output labels, filled by se_circuit()
    _se: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the published base64 strings of the programs, which from_dict has
    # checked to be their canonical spelling; to_dict hands them back
    # instead of encoding every program again
    _programs_b64: tuple = field(default=(), init=False, repr=False,
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
                self.hpk, UniversalCircuit(*self.u_params), self.programs[i - 1])
        return prepared

    def se_circuit(self, width):
        """The SE circuit of blocks of width bits, made the first time a
        checker value of that width is computed and kept, so that its
        output labels are built once; SymError for a width SE refuses."""
        se = self._se.get(width)
        if se is None:
            se = self._se[width] = SECircuit(width)
        return se

    def to_dict(self):
        return {
            "hpk": he.hpk_to_dict(self.hpk),
            "u_params": list(self.u_params),
            "structure": self.structure.to_dict(),
            "programs": list(self._programs_b64 or map(cts_b64, self.programs)),
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
        structure = Structure.from_dict(d["structure"])
        plen = UniversalCircuit(*u_params).program_length
        if not (isinstance(d["programs"], list)
                and len(d["programs"]) == len(structure.tables)):
            raise ProtocolError("programs must list one word per published table")
        try:
            hpk = he.hpk_from_dict(d["hpk"])
            programs = tuple(b64_cts(p, hpk, plen) for p in d["programs"])
        except ProtocolError as exc:
            raise ProtocolError(f"a program is not a word of {plen} ciphertexts: "
                                f"{exc}") from None
        except (AttributeError, TypeError, ValueError, he.HeError) as exc:
            raise ProtocolError(f"public parameters do not parse: {exc!r}") from None
        pp = cls(hpk=hpk, u_params=tuple(u_params), structure=structure,
                 programs=programs)
        pp._programs_b64 = tuple(d["programs"])
        return pp


def public_structure(tg, index_of):
    """Anonymized interconnection data: indices, port wiring, boundary names.

    Table and port identities are reduced to level-order indices and
    positions; only the boundary interface (external input names and output
    port names, which the public specification fixes anyway) keeps names.
    """

    def feed(f):  # one external input, or the sibling rows of a port
        return (f,) if isinstance(f, str) else tuple(index_of[s] for s in f)

    external = {tname for tname, _ in tg.external_outputs}
    groups = {}  # Output port -> (its type, the row tables that produce it)
    for tname, name in tg.external_outputs:
        ptype = tg.tables[tname].output[1]
        groups.setdefault(name, (ptype, []))[1].append(index_of[tname])
    return Structure(
        tables=tuple((name in external, tuple(feed(tg.producers[(name, port)])
                                              for port, _ in tg.tables[name].inputs))
                     for name in tg.order),
        inputs=tuple(tuple(x) for x in tg.external_inputs),
        outputs=tuple((name, groups[name][0], tuple(groups[name][1]))
                      for name in sorted(groups)),
    )


# --- developer -------------------------------------------------------------------


def table_circuits(tg):
    """Level-order index of every row table, and its circuit by index."""
    index_of = {name: i + 1 for i, name in enumerate(tg.order)}
    return index_of, {index_of[n]: compile_table(tg.tables[n], tg.m) for n in tg.order}


@dataclass
class _SessionMem:
    # ref -> its last answered word and plaintext: a q1's (w, u), a q2's (v,
    # output); a q2's input word is joined from these
    words: dict = field(default_factory=dict)
    last: object = None  # the ref of the answer just given, for its checker round
    pending: dict = field(default_factory=dict)  # the committed round, until its proof
    swap_held: object = None  # (external, value) of the previous q2, for swap-answers


class Developer:
    """Holds the secret design and answers the verifier's queries.

    Building a Developer is the paper's VS.Encrypt: it encrypts every row
    table as a universal-circuit program, and .pp is the public half. It
    then answers encode (q1/q2) queries and, in general mode, a checker
    round on each; VS.Eval on the resulting certificate is audit.audit. An
    answer is its value: a q1's word in base64, a q2's plaintext slice in
    hex, or null (JSON null).

    strategy selects a scripted dishonest behavior for tests, an edit of
    the value: flip-payload, flip-tag, or swap-answers (_apply_strategy).
    None means honest.

    Every check on a query lives here once. Plaintext enters only through
    two open hooks, _open_output and _open_checker, which decrypt; the
    simulation oracle overrides just those two.

    A Developer answers one session at a time, out of the memory in .mem;
    session() gives it another session with fresh memory.
    """

    def __init__(self, graph, rng=None, strategy=None, u_budget=None):
        self.rng = rng or random.Random()
        self.strategy = strategy
        self.tg = transform(graph)
        self.index_of, circuits = table_circuits(self.tg)
        n_data, g, m = budget_for(list(circuits.values()), floor=u_budget)
        self.u = UniversalCircuit(n_data, g, m)

        keys = he.keygen(rng=self.rng)
        self.hpk, self.hsk = keys.hpk, keys.hsk
        self.circuits = circuits
        self.programs_plain = {
            i: encode_program(c, self.u) for i, c in circuits.items()
        }
        programs_enc = tuple(
            he.enc_word(self.hpk, p, self.rng) for p in self.programs_plain.values())
        self.pp = PublicParams(
            hpk=self.hpk,
            u_params=(n_data, g, m),
            structure=public_structure(self.tg, self.index_of),
            programs=programs_enc,
        )
        self.mem = _SessionMem()

    def session(self):
        """A new session of this developer: it shares the design, keys,
        programs and rng, and has its own empty memory."""
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

    # -- q1 / q2

    def _encode(self, body):
        self.mem.last = None
        qkind = body.get("qkind")
        if type(qkind) is not int or qkind not in (1, 2):
            return {"answer": None}
        return (self._encode_q1 if qkind == 1 else self._encode_q2)(body)

    def _encode_q1(self, body):
        m = self.pp.m
        h = m // 2
        name = body.get("input")
        if not (isinstance(name, str) and name in dict(self.pp.structure.inputs)):
            return {"answer": None}
        try:
            u = 1 | hex_bits(body.get("x"), h) << h  # the top value of payload x
        except ProtocolError:
            return {"answer": None}
        encoded = u ^ 1 << h if self.strategy == "flip-payload" else u
        w = he.enc_word(self.hpk, int_to_bits(encoded, m), self.rng)
        self.mem.words[name] = (w, u)
        self.mem.last = name
        return {"answer": cts_b64(w)}

    def _encode_q2(self, body):
        m = self.pp.m
        h = m // 2
        i = body.get("i")
        t = self.pp.structure.table(i)
        if t is None:
            return {"answer": None}
        external, feeds = t
        # the word the verifier joins, by its rule: an answer fires when its
        # plaintext's tag half is nonzero, and a ref not answered is null
        fired = {ref: Tagged(True, wu) if wu[1] & ((1 << h) - 1) else tables.BOT
                 for ref, wu in self.mem.words.items()}
        ports = join_ports(feeds, fired)
        if ports is None:
            return {"answer": None}
        u_plain = sum(u << j * m for j, (_, u) in enumerate(ports))
        v_word = table_step(self.pp, i, he.join_words(self.hpk, [w for w, _ in ports]))
        out = self._open_output(i, v_word, u_plain)
        self.mem.words[i] = (v_word, out)
        self.mem.last = i
        a = self._apply_strategy(external, checker_slice(out, external, h))
        return {"answer": None if a is None else bits_hex(a, m if external else h)}

    def _open_output(self, i, v_word, u_plain):
        """Plaintext output word of table i, whose inputs are u_plain."""
        return bits_uint(he.dec_word(self.hsk, v_word))

    def _open_checker(self, y, slice_plain, width):
        """The value y decrypts to: the SE encryption of the slice."""
        return bits_uint(he.dec_word(self.hsk, y))

    def _apply_strategy(self, external, a):
        """The q2 value the strategy gives for the honest value a, None for
        null. flip-payload flips payload bit 0 of a fired external table,
        flip-tag the tag of any other, and nulls an external bot, and
        swap-answers hands over the previous value, null where a table of
        the other kind could not give it."""
        if self.strategy == "flip-payload" and external and a & 1:
            return a ^ 1 << self.pp.m // 2
        if self.strategy == "flip-tag":
            return (a or None) if external else a ^ 1
        if self.strategy == "swap-answers":
            held, self.mem.swap_held = self.mem.swap_held, (external, a)
            if held is not None:
                return held[1] if held[0] == external or not held[1] else None
        return a

    # -- checker subprotocol

    def _checker(self, body):
        h = self.pp.m // 2
        # a checker frame ends the round before it, proven or not
        ref, self.mem.last, self.mem.pending = self.mem.last, None, {}
        if ref is None:  # no answer to pin, or this one's round is taken
            return {}
        known = self.mem.words[ref]
        whole = self.pp.structure.covers_whole(ref)
        p = checker_slice(known[0], whole, h, self.hpk)
        width = he.check_word(self.hpk, p)
        # SE encrypts the slice as one block: an even width of 4 or more bits
        if not block_width_ok(width):
            return {}
        try:
            y = b64_cts(body.get("y"), self.hpk, width)
        except ProtocolError:
            return {}
        d = self._open_checker(y, checker_slice(known[1], whole, h), width)
        s, n = se_keygen(COMMIT_SEED_BITS, self.rng), commit_bits(width)
        try:
            e, exposed = commit_respond(d, width, hex_bits(body.get("R"), 2 * n), s)
        except (ProtocolError, CommitError):  # R of another length, or weight
            return {}
        self.mem.pending = {"d": d, "width": width, "p": p, "y": y, "seed": s}
        return {"e": bits_hex(e, n), "exposed": bits_hex(exposed, n)}

    def _proof(self, body):
        pending, self.mem.pending = self.mem.pending, {}
        if not pending:
            return {}
        width = pending["width"]
        try:
            seed = hex_bits(body.get("seed"), ROUND_SEED_BITS)
        except ProtocolError:
            return {}
        _, ct_sk = checker_key(seed, width, self.hpk)
        if checker_value(self.pp, ct_sk, pending["p"]) != pending["y"]:
            return {}
        return {"d": bits_hex(pending["d"], width),
                "seed": bits_hex(pending["seed"], COMMIT_SEED_BITS)}

    # frame type -> answer method: the only frames a session carries
    ANSWERS = {
        "encode": _encode,
        "checker": _checker,
        "checker_proof": _proof,
    }


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
    "version", "mode", "public_params", "g_spec", "domains", "cp", "vga",
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


class Verifier:
    """Drives one session against the public parameters pp, the published
    dict.

    The verifier meets the developer and its own randomness through three
    hooks: _session_key draws the general-mode session secrets, _ask sends
    a query and returns the reply's body, and _opening runs a checker
    round's two frames, y and R for the commitment, then the seed for the
    reveal, and gives the round's key.
    audit.ReplayVerifier overrides just these three to play a certificate
    back. An encode answer is its value, checked once by _value: the
    certificate records it as given, or null when it fails the check. The
    session secrets are two seeds, never sent and disclosed in the
    certificate: every checker round's seed, and from it the round's key,
    comes from the key seed, and every challenge from the challenge seed,
    so the auditor draws them again. A round's challenge goes with its y,
    and its seed only once the developer has committed."""

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
    ):
        pp = PublicParams.from_dict(pp)  # the published public-parameter dict
        published = list(pp.structure.inputs)
        if Counter(published) != Counter(g_spec.external_inputs):
            raise ProtocolError(f"published external inputs {published} are not "
                                f"the specification's {g_spec.external_inputs}")
        if pp.m != g_spec.m:
            raise ProtocolError(f"published width {pp.m} is not the "
                                f"specification's {g_spec.m}")
        if mode not in ("honest", "general"):
            raise ProtocolError(f"unknown mode {mode!r}")
        if mode == "general" and (pp.m < 8 or pp.m % 4):
            # checker rounds encrypt tag halves as SE blocks (even, >= 4 bits)
            raise ProtocolError(f"general mode needs a width that is a multiple "
                                f"of 4 and at least 8; got width {pp.m}")
        uncovered = [n for n, _ in g_spec.external_inputs if not domains.get(n)]
        if uncovered:
            raise ProtocolError("domains give no values for external input(s) "
                                + ", ".join(uncovered))
        unknown = sorted(set(domains) - {n for n, _ in g_spec.external_inputs})
        if unknown:
            raise ProtocolError("domains name input(s) the specification does not "
                                "have: " + ", ".join(unknown))
        for X, _ in cp:
            omitted = [n for n, _ in g_spec.external_inputs if n not in X]
            if omitted:
                raise ProtocolError("a critical point gives no value for external "
                                    "input(s) " + ", ".join(omitted))
        # each input value is a word's payload (a bool is an int); a wider
        # int would be tested as its low bits
        values = word_values(pp.m)
        given = [(n, v) for n, vals in domains.items() for v in vals]
        given += [(n, v) for X, _ in cp for n, v in X.items()]
        wrong = sorted({n for n, v in given if not (isinstance(v, int) and v in values)})
        if wrong:
            raise ProtocolError("domains or critical points give a value that is not "
                                f"a boolean or an integer in [{values.start}, "
                                f"{values.stop}) for input(s) " + ", ".join(wrong))
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
        # the type of each external table's payload, as its output groups read it
        self.payload_types = {i: ptype for _, ptype, group in pp.structure.outputs
                              for i in group}
        if mode == "general":
            self.key_seed, self.challenge_seed = self._session_key()
            self.challenges = random.Random(self.challenge_seed)
        else:
            self.key_seed = self.challenge_seed = self.challenges = None
        self.qa_e = []
        self.qa_c = []
        self.failures = []

    # -- hooks (with _opening, under the checker round)

    def _session_key(self):
        """The session secrets: the key seed, of every checker round's seed,
        and the challenge seed, of every challenge."""
        return tuple(self.rng.getrandbits(SESSION_SEED_BITS) for _ in range(2))

    def _ask(self, chan, ftype, body):
        """The body of the developer's reply; {} when it is not a dict."""
        chan.send(make_frame(ftype, body))
        reply = chan.recv()
        body = reply.get("body") if isinstance(reply, dict) else None
        return body if isinstance(body, dict) else {}

    # -- encode queries

    def _encode_query(self, chan, q, v_word=b""):
        """The value of the developer's answer to the encode query q (_value),
        None for null; in general mode a checker round pins it down. q is
        recorded before it is asked, and a q2 is sent without its u, the
        input word that the developer joins from its own answers. v_word is
        a q2's table step, the word its answer opens."""
        record = {"q": q, "a": None}
        self.qa_e.append(record)
        sent = {k: q[k] for k in q if k != "u"}
        answer = self._ask(chan, "encode", sent).get("answer")
        value = self._value(q, answer)
        if value is not None:
            record["a"] = answer
            if self.mode == "general" and not self._checker_round(chan, q, value, v_word):
                key = "input" if q["qkind"] == 1 else "i"
                self.failures.append({"reason": "checker", key: q[key]})
        return value

    def _value(self, q, answer):
        """The value of an encode answer to the query q, the one check on
        it; None for null, and for an answer that fails the check, which
        counts as null. A q1's value is its word of m ciphertexts. A q2's
        is the plaintext its checker round pins, checker_slice of the
        table's output word: m bits for an external table (one with a
        payload type), h for any other. Its tag half is 0 or 1, a tag of 0
        has payload 0, and a bool payload is only bit 0, as tagged_word
        writes them."""
        m = self.pp.m
        h = m // 2
        ptype = self.payload_types.get(q.get("i"))
        try:
            if q["qkind"] == 1:
                return b64_cts(answer, self.pp.hpk, m)
            a = hex_bits(answer, h if ptype is None else m)
        except ProtocolError:
            return None
        tag, payload = a & ((1 << h) - 1), a >> h
        if tag > 1 or (payload and not tag) or (ptype == "bool" and payload > 1):
            return None
        return a

    # -- session driver

    def run(self, chan):
        """Drive the whole verification session; returns (verdict, certificate).
        ProtocolError, before the first frame, when two rows of one spec
        table hold at an input of the session."""
        suite = generate_suite(self.g_spec, self.domains, self.seed, self.vga_budget)
        inputs = {}  # input_key -> the first input of that key
        for X in suite + [X for X, _ in self.cp]:
            inputs.setdefault(input_key(X), X)
        wants = {k: spec_port_outputs(self.tg_spec, X) for k, X in inputs.items()}
        results = {k: self._eval_encrypted(chan, X) for k, X in inputs.items()}

        mismatches = [{"input": X, "expected": wants[k], "observed": results[k]}
                      for k, X in inputs.items()
                      if not outputs_equal(wants[k], results[k])]
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
            "public_params": self.pp.to_dict(),
            "g_spec": serialize_graph(self.g_spec),
            "domains": {k: list(v) for k, v in self.domains.items()},
            "cp": [[X, Y] for X, Y in self.cp],
            "vga": {"seed": self.seed, "budget": self.vga_budget},
            "qa_e": self.qa_e,
            "verdict": verdict,
            "outputs": {k: v for k, v in results.items()},
            "failures": self.failures,
            "mismatches": mismatches,
            "cp_results": cp_results,
        }
        if self.mode == "general":
            cert["qa_c"] = self.qa_c
            cert["key_seed"] = bits_hex(self.key_seed, SESSION_SEED_BITS)
            cert["challenge_seed"] = bits_hex(self.challenge_seed, SESSION_SEED_BITS)
        cert["binding"] = session_binding(cert)
        return verdict, cert

    def _eval_encrypted(self, chan, X):
        m = self.pp.m
        h = m // 2
        # per ref, as a Tagged value or None for null: what it feeds its
        # consumers (a q1 answer fires, and a q2 answer whose tag is 1,
        # carrying their ciphertexts); per table, what it gives an output
        # port (its payload bits, which only an external table answers)
        feeds, outs = {}, {}

        for name, ptype in self.pp.structure.inputs:
            value = bool(X[name]) if ptype == "bool" else X[name]  # as the spec reads it
            x = bits_hex(tagged_word(Tagged(True, value), m) >> h, h)
            w = self._encode_query(chan, {"qkind": 1, "input": name, "x": x})
            if w is None:
                self.failures.append({"reason": "q1-null", "input": name})
            feeds[name] = None if w is None else Tagged(True, w)

        for i, (_, ports) in enumerate(self.pp.structure.tables, 1):
            # a null or uniformly non-firing feed makes the consumer null,
            # matching the plaintext evaluation rules
            port_words = join_ports(ports, feeds)
            if port_words is None:
                feeds[i] = outs[i] = None
                continue

            u_word = he.join_words(self.pp.hpk, port_words)
            v_word = table_step(self.pp, i, u_word)
            a = self._encode_query(
                chan, {"i": i, "qkind": 2, "u": cts_b64(u_word)}, v_word)
            if a is None:
                self.failures.append({"reason": "q2-null", "i": i})
                feeds[i] = outs[i] = None
                continue
            feeds[i] = Tagged(True, v_word) if a & 1 else tables.BOT
            outs[i] = Tagged(True, a >> h) if a & 1 else tables.BOT

        outputs = {}
        for name, ptype, group in self.pp.structure.outputs:
            tops = sibling_group([outs.get(i) for i in group])
            if tops is None:
                outputs[name] = None
            elif not tops:
                outputs[name] = BOT
            elif len(tops) == 1:
                outputs[name] = payload_to_value(tops[0].payload, h, ptype)
            else:
                self.failures.append({"reason": "ambiguous-output", "port": name})
                outputs[name] = None
        return outputs

    # -- checker round (general mode)

    def _checker_round(self, chan, q, value, v_word):
        """Pin the answer to q, just given, down; whether the revealed value
        decrypts to exactly what it answers: a q2's value, the slice of its
        table step v_word, or a q1's top word 1 | x << h, its value's
        plaintext. The developer slices its own word."""
        h = self.pp.m // 2
        q1 = q["qkind"] == 1
        expected = 1 | hex_bits(q["x"], h) << h if q1 else value
        whole = self.pp.structure.covers_whole(q.get("input", q.get("i")))
        p = checker_slice(value if q1 else v_word, whole, h, self.pp.hpk)
        width = he.check_word(self.pp.hpk, p)
        # drawn before it asks and whatever the developer answers, so that
        # the auditor draws the same ones
        seed = round_seed(self.key_seed, len(self.qa_c))
        R = challenge(width, self.challenges)
        self.qa_c.append(None)
        sk, opened = self._opening(chan, p, width, R, seed)
        self.qa_c[-1] = opened
        return opened is not None and se_dec(sk, hex_bits(opened["d"], width),
                                             width) == expected

    def _opening(self, chan, p, width, R, seed):
        """Run the checker round of the given seed on the slice p of the
        answer just given: send y, p's SE encryption under the round's key
        word, with the challenge R, and the seed once the developer has
        committed. Returns the round's key and its record {d, e, exposed,
        seed} once it opens (_opens), else None."""
        sk, ct_sk = checker_key(seed, width, self.pp.hpk)
        y = checker_value(self.pp, ct_sk, p)
        commit = self._ask(chan, "checker", {"y": cts_b64(y),
                                             "R": bits_hex(R, 2 * commit_bits(width))})
        if not commit:  # refused: the seed is not sent
            return sk, None
        proof = self._ask(chan, "checker_proof",
                          {"seed": bits_hex(seed, ROUND_SEED_BITS)})
        opened = {"d": proof.get("d"), "e": commit.get("e"),
                  "exposed": commit.get("exposed"), "seed": proof.get("seed")}
        return sk, opened if self._opens(width, R, **opened) else None

    def _opens(self, width, R, d, e, exposed, seed):
        """Whether the commitment (e, exposed) opens to d, width bits, with
        its seed under the challenge R; False too when a field does not
        parse. The auditor passes a record's fields, so that a record of
        any other fields raises TypeError."""
        n = commit_bits(width)
        try:
            return verify_reveal(hex_bits(e, n), hex_bits(exposed, n),
                                 hex_bits(d, width), width, R,
                                 hex_bits(seed, COMMIT_SEED_BITS))
        except ProtocolError:
            return False


# --- output comparison helpers ----------------------------------------------------


def spec_port_outputs(tg_spec, X):
    """Per-output-port plaintext results of the public specification.

    The one check of the spec's one-row rule: ProtocolError when two rows
    of one spec table hold at X, whether the table feeds an output or
    another table."""
    outputs = evaluate_plain(tg_spec, X)
    fired = {}  # origin table -> its row tables that hold at X
    for tname, tt in tg_spec.tables.items():
        if outputs[tname] is not None and outputs[tname].tag:
            fired.setdefault(tt.origin, []).append(tname)
    for rows in fired.values():
        if len(rows) > 1:
            raise ProtocolError(f"the specification is ambiguous at input "
                                f"{canonical_json(X)}: its rows "
                                f"{canonical_json(rows)} all hold")
    groups = {}
    for tname, name in tg_spec.external_outputs:
        groups.setdefault(name, []).append(outputs[tname])
    result = {}
    for port, vals in groups.items():
        tops = sibling_group(vals)
        result[port] = None if tops is None else tops[0].payload if tops else BOT
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
