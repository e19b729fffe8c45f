"""Bit-level homomorphic evaluation for the sessions: the transparent backend.

A ciphertext carries the plaintext bit plus a nonce; eval computes the
output bits from the plaintexts, and output k's nonce is
sha256("tr-eval-v2", key id, sha256(input word), "name:label")[:16]. A
gate-list circuit (eval_word) is named by gates_digest(), its label is the
output wire and its bits come from simulating its gate list; only the tests
evaluate one. A circuit named by its construction and sizes has the label
k, and no gate list is built: a universal circuit (UniversalCircuit.name)
runs a program prepared once (prepare), slot by slot, and the SE circuit
(symcrypto.SECircuit.name, eval_named) its word Feistel. A testing oracle,
not encryption. The key is its 8-byte key id, which is both halves of the
key pair; its size is a constant of the certificate version. The toy
integer scheme of the acceptance criteria is a separate module, she, that
no session uses.

A word of ciphertexts is one bytes value in every layer: a 9-byte header,
the backend tag and the 8-byte key id, once, then one 17-byte payload per
ciphertext, the bit and a 16-byte nonce. A word of one ciphertext is
LAM_BYTES long. enc_word and eval_word return a word, a prepared program's
run takes and returns one, and dec_word and prepare take one. check_word is
the one check of a word (bytes, a header of the backend tag and the key id,
and a whole number of payloads); cut_word and join_words are the one way to
take ciphertexts out of a word and to put words together. Each bit of a
word is one strided slice of it. enc_word draws all its nonces in one call,
128 bits per ciphertext; from a random.Random these are the same nonces,
and leave the same state, as one draw per ciphertext. 128-bit nonces keep
collisions negligible for a testing oracle.
"""

import hashlib
import os
from dataclasses import dataclass

from .circuit import simulate, uc_layout

TAG_TRANSPARENT = 1
HEADER = 9  # bytes of a word's header: backend tag and key id
_TR = 17  # bytes of a payload: the bit and a 16-byte nonce
_NONCE = _TR - 1
LAM_BYTES = HEADER + _TR  # bytes of a word of one ciphertext


class HeError(Exception):
    pass


@dataclass(frozen=True)
class Key:
    key_id: bytes  # 8 bytes


@dataclass(frozen=True)
class HeKeyPair:
    hpk: Key
    hsk: Key


def _randbits(rng, n):
    if rng is None:
        return int.from_bytes(os.urandom((n + 7) // 8), "big") >> (
            (8 - n % 8) % 8
        )
    return rng.getrandbits(n)


def keygen(rng=None):
    key = Key(_randbits(rng, 64).to_bytes(8, "big"))
    return HeKeyPair(key, key)


# --- ciphertext words ---------------------------------------------------------


_LOW_BIT = bytes(b & 1 for b in range(256))  # a bit byte -> its bit
_BIT_TEXT = b"01" * 128  # the same, as the ASCII digit
_BIT_BYTE = (b"\0", b"\1")


def _header(h):
    return bytes([TAG_TRANSPARENT]) + h.key_id


def check_word(h, word):
    """The number of ciphertexts in word, once it is bytes of a header with
    the backend tag and the key's id and a whole number of payloads; h is
    either half of the key pair. HeError names the first of these checks
    that the word fails. The one ciphertext check: it compares the header
    once, whatever the number of ciphertexts."""
    if not isinstance(word, bytes):
        raise HeError("ciphertext word must be bytes")
    if len(word) < HEADER:
        raise HeError("malformed ciphertext word (short header)")
    n, rest = divmod(len(word) - HEADER, LAM_BYTES - HEADER)
    if rest:
        raise HeError("malformed ciphertext length")
    if word[0] != TAG_TRANSPARENT:
        raise HeError("malformed ciphertext (backend tag)")
    if word[1:HEADER] != h.key_id:
        raise HeError("ciphertext does not match this key pair")
    return n


def cut_word(h, word, start, stop=None):
    """The word of ciphertexts start to stop of word (to its end when stop
    is None), 0 <= start <= stop; HeError when word is not a word of h's
    key pair."""
    check_word(h, word)
    return word[:HEADER] + word[HEADER + start * _TR:
                                None if stop is None else HEADER + stop * _TR]


def join_words(h, words):
    """One word of the ciphertexts of words, in order; HeError when one of
    them is not a word of h's key pair."""
    for word in words:
        check_word(h, word)
    return _header(h) + b"".join([word[HEADER:] for word in words])


# --- enc / dec ------------------------------------------------------------------


def enc_word(hpk, bits, rng=None):
    """The word of one fresh ciphertext per bit; HeError when an item is not
    a bit. Every nonce comes from one _randbits call of 128 bits per
    ciphertext. A random.Random fills such a draw 32 bits at a time from
    the low end, so nonce j is chunk j of its little-endian bytes, reversed:
    the same nonces, and the same rng state, as one 128-bit draw each.
    Read big-endian, nonce j is that draw's 32-bit outputs 4j to 4j + 3,
    the first lowest: a word shows raw MT19937 outputs of its generator,
    from which that generator's later outputs follow. A checker round's
    key word is therefore drawn from a generator of that round's own,
    which draws nothing after it (protocol.checker_key)."""
    bits = tuple(bits)
    try:
        is_bits = set(bits) <= {0, 1}
    except TypeError:  # an unhashable item
        is_bits = False
    if not is_bits:
        raise HeError("plaintext must be a bit")
    try:
        plain = bytes(bits)  # ints and bools, in one call
    except TypeError:  # another number type equal to a bit, such as 1.0
        plain = bytes(map(int, bits))
    n = len(plain)
    nonces = _randbits(rng, 8 * _NONCE * n).to_bytes(_NONCE * n, "little")
    word = bytearray(_header(hpk) + bytes(_TR * n))
    word[HEADER::_TR] = plain
    for k in range(_NONCE):
        word[HEADER + 1 + k::_TR] = nonces[_NONCE - 1 - k::_NONCE]
    return bytes(word)


def dec_word(hsk, word):
    """The bits of a word, one per ciphertext."""
    check_word(hsk, word)
    return tuple(word[HEADER::_TR].translate(_LOW_BIT))


# --- homomorphic evaluation ------------------------------------------------------


def _outputs(hpk, inputs, labels, bits):
    """The word of output ciphertexts: bit k with the nonce
    sha256("tr-eval-v2", key id, inputs, label k)[:16], inputs being the
    digest of the input word."""
    prefix = b"tr-eval-v2" + hpk.key_id + inputs
    return _header(hpk) + b"".join([
        _BIT_BYTE[bit] + hashlib.sha256(prefix + label).digest()[:_NONCE]
        for label, bit in zip(labels, bits)])


def eval_word(hpk, circuit, word):
    """The word of every output of a gate-list circuit on an input word.

    Deterministic: identical (key, circuit, inputs) give byte-identical
    results, which the audit's recomputation checks rely on. Output k is
    byte-identical to the one output of the same circuit cut down to its
    output wire k. A universal circuit runs its programs through prepare.
    """
    n = check_word(hpk, word)
    if n != circuit.n_inputs:
        raise HeError(f"circuit expects {circuit.n_inputs} ciphertexts, got {n}")
    name = circuit.gates_digest()
    return _outputs(hpk, hashlib.sha256(word).digest(),
                    [f"{name}:{w}".encode() for w in circuit.outputs],
                    simulate(circuit, tuple(word[HEADER::_TR].translate(_LOW_BIT))))


def eval_named(hpk, c, word):
    """The word of the outputs of a circuit named by its construction and
    sizes (a symcrypto.SECircuit: name, n_inputs, labels and evaluate) on
    an input word. Output k is bit k of c.evaluate with the nonce labelled
    c.labels[k], name:k, as output k of a universal-circuit step is, and no
    gate list is built."""
    n = check_word(hpk, word)
    if n != c.n_inputs:
        raise HeError(f"{c.name} expects {c.n_inputs} ciphertexts, got {n}")
    return _outputs(hpk, hashlib.sha256(word).digest(), c.labels,
                    c.evaluate(word[HEADER::_TR].translate(_LOW_BIT)))


# --- prepared universal-circuit programs --------------------------------------------


def prepare(hpk, u, program):
    """A program word of the universal circuit u, parsed once for all the
    steps that run it. It is checked as every word is, and a bad one raises
    HeError here. The result's run(data) gives the word of u's outputs on
    the program and that data word."""
    n = check_word(hpk, program)
    if n != u.program_length:
        raise HeError(f"universal circuit expects {u.program_length} program "
                      f"ciphertexts, got {n}")
    return _Program(hpk, u, program)


class _Program:
    """The slots and output selectors a program's bits spell, and the input
    hash already fed the program word. Output k of a step is named by u's
    construction and budget (u.name) and k, and its nonce hashes the program
    and data words joined, as eval_word's hashes its input word."""

    def __init__(self, hpk, u, program):
        _, sb, plen = uc_layout(u.n_data, u.g, u.m)
        # program bit i is bit i of one int, read from the bits' text
        bits = int(program[HEADER::_TR].translate(_BIT_TEXT)[::-1], 2)
        zero = u.n_data  # the bus's constant-zero line

        def field(pos, k):  # the k bits from pos, least significant first
            return bits >> pos & ((1 << k) - 1)

        def line(pos, lines):
            # a selector past the bus as it stands reads the zero line
            sel = field(pos, sb)
            return sel if sel < lines else zero

        width = 2 * sb + 4
        self.slots = tuple(  # (left line, right line, truth table)
            (line(pos, zero + 1 + j), line(pos + sb, zero + 1 + j),
             field(pos + 2 * sb, 4))
            for j, pos in enumerate(range(0, u.g * width, width)))
        self.outs = tuple(line(pos, zero + 1 + u.g)
                          for pos in range(u.g * width, plen, sb))
        self.labels = tuple(f"{u.name}:{k}".encode() for k in range(u.m))
        self.inputs = hashlib.sha256(program)
        self.hpk, self.u = hpk, u

    def run(self, data):
        """The slots, one by one: each looks up its truth table at
        (a << 1) | c, a and c being the bus lines it names."""
        n = check_word(self.hpk, data)
        if n != self.u.n_data:
            raise HeError(f"universal circuit expects {self.u.n_data} data "
                          f"ciphertexts, got {n}")
        bus = list(data[HEADER::_TR].translate(_LOW_BIT))
        bus.append(0)
        for l, r, tt in self.slots:
            bus.append(tt >> (bus[l] << 1 | bus[r]) & 1)
        inputs = self.inputs.copy()
        inputs.update(data[HEADER:])  # the joined word has one header
        return _outputs(self.hpk, inputs.digest(), self.labels,
                        [bus[s] for s in self.outs])


def hpk_to_dict(hpk):
    """The published key: the backend's kind and the key id."""
    return {"kind": "transparent", "key_id": hpk.key_id.hex()}


def hpk_from_dict(d):
    """Parse a published key; HeError names another kind, a missing or
    unknown field, or a key id that hpk_to_dict would not write: 8 bytes
    as 16 lowercase hex digits."""
    if d.get("kind") != "transparent":
        raise HeError(f"unknown backend {d.get('kind')!r}")
    if set(d) != {"kind", "key_id"}:
        raise HeError("a transparent key has exactly the fields "
                      "['key_id', 'kind']")
    key_id = d["key_id"]
    if not (isinstance(key_id, str) and len(key_id) == 16
            and set(key_id) <= set("0123456789abcdef")):
        raise HeError(f"a key id must be 16 lowercase hex digits, got {key_id!r}")
    return Key(bytes.fromhex(key_id))
