"""Bit-level homomorphic encryption behind one interface.

Two backends share the same ciphertext container and operations:

  transparent   carries the plaintext bit plus a nonce; eval computes the
                output bits from the plaintexts, and output k's nonce is
                sha256("tr-eval-v2", key id, sha256(input word),
                "name:label")[:16]. A gate-list circuit (eval_word) is
                named by gates_digest(), its label is the output wire and
                its bits come from simulating its gate list; only the
                tests evaluate one. A circuit named by its construction
                and sizes has the label k, and no gate list is built: a
                universal circuit (UniversalCircuit.name) runs a program
                prepared once (prepare), slot by slot, and the SE circuit
                (symcrypto.SECircuit.name, eval_named) its word Feistel.
                A testing oracle, not encryption.
  integer-she   toy somewhat-homomorphic scheme over the integers:
                c = m + 2r + 2*(subset sum of public zeros) mod x0 with
                x0 = p*q0; XOR is addition, AND is multiplication. Noise is
                tracked per ciphertext and an explicit error is raised when
                an AND would exceed the budget; results are never silently
                corrupted.

A word of ciphertexts is one bytes value in every layer: a 9-byte header,
the backend tag and the 8-byte key id, once, then one fixed-length payload
per ciphertext (lam_bytes - 9 bytes: the bit and a 16-byte nonce, or the
noise and the value). A word of one ciphertext is lam_bytes long. enc_word
and eval_word return a word, a prepared program's run takes and returns
one, and dec_word and prepare take one. check_word is the one
check of a word (bytes, a header of the key pair's tag and key id, and a
whole number of payloads); cut_word and join_words are the one way to take
ciphertexts out of a word and to put words together. Each transparent bit
of a word is one strided slice of it. enc_word on the transparent backend
draws all its nonces in one call, 128 bits per ciphertext; from a
random.Random these are the same nonces, and leave the same state, as one
draw per ciphertext. 128-bit nonces keep collisions negligible for a
testing oracle.
"""

import hashlib
import os
from dataclasses import dataclass

from .circuit import simulate, uc_layout

TAG_TRANSPARENT = 1
TAG_SHE = 2
HEADER = 9  # bytes of a word's header: backend tag and key id
_TR = 17  # bytes of a transparent payload: the bit and a 16-byte nonce
_NONCE = _TR - 1

KINDS = ("transparent", "integer-she")


class HeError(Exception):
    pass


class DepthBudgetError(HeError):
    pass


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "transparent"
    eta: int = 8192  # secret modulus bits
    rho: int = 16  # fresh noise bits
    tau: int = 32  # public encryptions of zero
    gamma_extra: int = 1024  # public modulus slack bits

    @property
    def gamma(self):
        return self.eta + self.gamma_extra

    @property
    def fresh_noise_bits(self):
        # fresh ciphertext: m + 2r + 2 * subset sum of tau public zeros
        return self.rho + self.tau.bit_length() + 2

    @property
    def depth_budget(self):
        """Multiplicative levels before noise can reach the modulus."""
        d, noise = 0, self.fresh_noise_bits
        while 2 * noise + 1 <= self.eta - 2:
            noise = 2 * noise + 1
            d += 1
        return d


@dataclass(frozen=True)
class Hpk:
    kind: str
    key_id: bytes  # 8 bytes
    lam_bytes: int
    config: BackendConfig
    x0: int = 0
    zeros: tuple = ()  # tau public encryptions of zero


@dataclass(frozen=True)
class Hsk:
    kind: str
    key_id: bytes
    lam_bytes: int
    p: int = 0


@dataclass(frozen=True)
class HeKeyPair:
    hpk: Hpk
    hsk: Hsk


def _randbits(rng, n):
    if rng is None:
        return int.from_bytes(os.urandom((n + 7) // 8), "big") >> (
            (8 - n % 8) % 8
        )
    return rng.getrandbits(n)


def ciphertext_bytes(kind, config):
    """lam_bytes of a key pair: the length of a word of one ciphertext, its
    header and one payload."""
    if kind == "transparent":
        return HEADER + _TR
    return HEADER + 2 + (config.gamma + 7) // 8  # noise, value


def keygen(K, kind="transparent", config=None, rng=None):
    if K < 8:
        raise HeError("security parameter too small (need K >= 8)")
    if kind not in KINDS:
        raise HeError(f"unknown backend '{kind}'")
    config = config or BackendConfig(kind=kind)
    key_id = _randbits(rng, 64).to_bytes(8, "big")
    lam_bytes = ciphertext_bytes(kind, config)

    if kind == "transparent":
        hpk = Hpk(kind=kind, key_id=key_id, lam_bytes=lam_bytes, config=config)
        return HeKeyPair(hpk, Hsk(kind=kind, key_id=key_id, lam_bytes=lam_bytes))

    if config.depth_budget < 1:
        raise HeError("parameter set infeasible: depth budget is zero")
    eta, gamma = config.eta, config.gamma
    p = _randbits(rng, eta) | (1 << (eta - 1)) | 1  # odd, full width
    q0 = _randbits(rng, gamma - eta) | (1 << (gamma - eta - 1)) | 1
    x0 = p * q0
    zeros = []
    for _ in range(config.tau):
        q = _randbits(rng, gamma - eta - 2)
        r = _randbits(rng, config.rho)
        zeros.append((p * q + 2 * r) % x0)
    hpk = Hpk(
        kind=kind,
        key_id=key_id,
        lam_bytes=lam_bytes,
        config=config,
        x0=x0,
        zeros=tuple(zeros),
    )
    return HeKeyPair(hpk, Hsk(kind=kind, key_id=key_id, lam_bytes=lam_bytes, p=p))


# --- ciphertext words ---------------------------------------------------------


_TAGS = {"transparent": TAG_TRANSPARENT, "integer-she": TAG_SHE}
_LOW_BIT = bytes(b & 1 for b in range(256))  # a transparent bit byte -> its bit
_BIT_TEXT = b"01" * 128  # the same, as the ASCII digit
_BIT_BYTE = (b"\0", b"\1")


def _header(h):
    return bytes([_TAGS[h.kind]]) + h.key_id


def check_word(h, word):
    """The number of ciphertexts in word, once it is bytes of a header with
    the key pair's backend tag and key id and a whole number of its
    payloads; h is either half of the key pair. HeError names the first of
    these checks that the word fails. The one ciphertext check: it compares
    the header once, whatever the number of ciphertexts."""
    if not isinstance(word, bytes):
        raise HeError("ciphertext word must be bytes")
    if len(word) < HEADER:
        raise HeError("malformed ciphertext word (short header)")
    n, rest = divmod(len(word) - HEADER, h.lam_bytes - HEADER)
    if rest:
        raise HeError("malformed ciphertext length")
    if word[0] != _TAGS[h.kind]:
        raise HeError("malformed ciphertext (backend tag)")
    if word[1:HEADER] != h.key_id:
        raise HeError("ciphertext does not match this key pair")
    return n


def cut_word(h, word, start, stop=None):
    """The word of ciphertexts start to stop of word (to its end when stop
    is None), 0 <= start <= stop; HeError when word is not a word of h's
    key pair."""
    check_word(h, word)
    size = h.lam_bytes - HEADER
    return word[:HEADER] + word[HEADER + start * size:
                                None if stop is None else HEADER + stop * size]


def join_words(h, words):
    """One word of the ciphertexts of words, in order; HeError when one of
    them is not a word of h's key pair."""
    for word in words:
        check_word(h, word)
    return _header(h) + b"".join([word[HEADER:] for word in words])


def _she_payload(hpk, value, noise_bits):
    gb = (hpk.config.gamma + 7) // 8
    return noise_bits.to_bytes(2, "big") + value.to_bytes(gb, "big")


# --- enc / dec ------------------------------------------------------------------


def enc(hpk, bit, rng=None):
    """One fresh ciphertext: a word of one."""
    return enc_word(hpk, (bit,), rng)


def enc_word(hpk, bits, rng=None):
    """The word of one fresh ciphertext per bit; HeError when an item is not
    a bit. The transparent backend draws every nonce in one _randbits call
    of 128 bits per ciphertext. A random.Random fills such a draw 32 bits at
    a time from the low end, so nonce j is chunk j of its little-endian
    bytes, reversed: the same nonces, and the same rng state, as one 128-bit
    draw each."""
    bits = tuple(bits)
    try:
        plain = bytes(map(int, bits)) if set(bits) <= {0, 1} else None
    except TypeError:  # an unhashable item
        plain = None
    if plain is None:
        raise HeError("plaintext must be a bit")
    if hpk.kind != "transparent":
        return _header(hpk) + b"".join([_enc_she(hpk, bit, rng) for bit in plain])
    n = len(plain)
    nonces = _randbits(rng, 8 * _NONCE * n).to_bytes(_NONCE * n, "little")
    word = bytearray(_header(hpk) + bytes(_TR * n))
    word[HEADER::_TR] = plain
    for k in range(_NONCE):
        word[HEADER + 1 + k::_TR] = nonces[_NONCE - 1 - k::_NONCE]
    return bytes(word)


def _enc_she(hpk, bit, rng):
    """The payload of one fresh integer-she ciphertext."""
    cfg = hpk.config
    r = _randbits(rng, cfg.rho)
    acc = bit + 2 * r
    for z in hpk.zeros:
        if _randbits(rng, 1):
            acc += z  # z carries an even noise term, so parity is preserved
    return _she_payload(hpk, acc % hpk.x0, cfg.fresh_noise_bits)


def dec(hsk, ct):
    """The bit of one ciphertext."""
    bits = dec_word(hsk, ct)
    if len(bits) != 1:
        raise HeError(f"expected one ciphertext, got {len(bits)}")
    return bits[0]


def dec_word(hsk, word):
    """The bits of a word, one per ciphertext."""
    if hsk.kind == "transparent":
        check_word(hsk, word)
        return tuple(word[HEADER::_TR].translate(_LOW_BIT))
    p = hsk.p
    out = []
    for value, _ in _she_wires(hsk, word):
        v = value % p
        if v > p // 2:
            v -= p
        out.append(v & 1)
    return tuple(out)


# --- homomorphic evaluation ------------------------------------------------------


def _tr_outputs(hpk, inputs, labels, bits):
    """The word of transparent output ciphertexts: bit k with the nonce
    sha256("tr-eval-v2", key id, inputs, label k)[:16], inputs being the
    digest of the input word."""
    prefix = b"tr-eval-v2" + hpk.key_id + inputs
    return _header(hpk) + b"".join([
        _BIT_BYTE[bit] + hashlib.sha256(prefix + label).digest()[:_NONCE]
        for label, bit in zip(labels, bits)])


def _eval_transparent(hpk, circuit, word):
    bits = tuple(word[HEADER::_TR].translate(_LOW_BIT))
    name = circuit.gates_digest()
    return _tr_outputs(hpk, hashlib.sha256(word).digest(),
                       [f"{name}:{w}".encode() for w in circuit.outputs],
                       simulate(circuit, bits))


_ANF = {}  # tt -> (c0, c1, c2, c3): f(a,b) = c0 ^ c1 b ^ c2 a ^ c3 ab
for tt in range(16):
    t00, t01, t10, t11 = (tt >> 0) & 1, (tt >> 1) & 1, (tt >> 2) & 1, (tt >> 3) & 1
    _ANF[tt] = (t00, t01 ^ t00, t10 ^ t00, t11 ^ t10 ^ t01 ^ t00)


def _she_wires(h, word):
    """The (value, noise) pair of each integer-she ciphertext of a word."""
    check_word(h, word)
    size = h.lam_bytes - HEADER
    return [(int.from_bytes(word[o + 2:o + size], "big"),
             int.from_bytes(word[o:o + 2], "big"))
            for o in range(HEADER, len(word), size)]


def _eval_she(hpk, circuit, wires):
    """Run the gate list on the input wires, (value, noise) pairs; wires
    grows by one entry per gate."""
    cfg = hpk.config
    x0 = hpk.x0
    limit = cfg.eta - 2
    for l, r, tt in circuit.gates:
        (av, an), (bv, bn) = wires[l], wires[r]
        if l == r:
            # unary: f(a) = g0 xor (g0 xor g1) a, no multiplication needed
            g0, g1 = tt & 1, (tt >> 3) & 1
            if g0 == g1:
                wires.append((g0, 0))
            elif (g0, g1) == (0, 1):
                wires.append((av, an))
            else:
                if an + 1 > limit:
                    raise DepthBudgetError(
                        f"noise {an + 1} bits exceeds budget {limit}"
                    )
                wires.append(((1 + av) % x0, an + 1))
            continue
        c0, c1, c2, c3 = _ANF[tt]
        val, noise = c0, 0
        if c1:
            val += bv
            noise = max(noise, bn) + 1
        if c2:
            val += av
            noise = max(noise, an) + 1
        if c3:
            mn = an + bn + 1
            if mn > limit:
                raise DepthBudgetError(
                    f"noise {mn} bits exceeds budget {limit} at an AND gate"
                )
            val += av * bv
            noise = max(noise, mn) + 1
        if noise > limit:
            raise DepthBudgetError(f"noise {noise} bits exceeds budget {limit}")
        wires.append((val % x0, noise))
    return _header(hpk) + b"".join([_she_payload(hpk, *wires[w])
                                    for w in circuit.outputs])


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
    if hpk.kind == "transparent":
        return _eval_transparent(hpk, circuit, word)
    return _eval_she(hpk, circuit, _she_wires(hpk, word))


def eval_named(hpk, c, word):
    """The word of the outputs of a circuit named by its construction and
    sizes (a symcrypto.SECircuit: name, n_inputs, evaluate and the gate
    list gates) on an input word. On the transparent backend output k is
    bit k of c.evaluate with the nonce labelled name:k, as output k of a
    universal-circuit step is, and no gate list is built; integer-she runs
    the gate list."""
    n = check_word(hpk, word)
    if n != c.n_inputs:
        raise HeError(f"{c.name} expects {c.n_inputs} ciphertexts, got {n}")
    if hpk.kind != "transparent":
        return _eval_she(hpk, c.gates, _she_wires(hpk, word))
    bits = c.evaluate(word[HEADER::_TR].translate(_LOW_BIT))
    name = c.name
    return _tr_outputs(hpk, hashlib.sha256(word).digest(),
                       [f"{name}:{k}".encode() for k in range(len(bits))], bits)


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
    if hpk.kind == "transparent":
        return _TransparentProgram(hpk, u, program)
    return _SheProgram(hpk, u, program)


def _check_data(hpk, u, data):
    n = check_word(hpk, data)
    if n != u.n_data:
        raise HeError(f"universal circuit expects {u.n_data} data ciphertexts, "
                      f"got {n}")


class _TransparentProgram:
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
        _check_data(self.hpk, self.u, data)
        bus = list(data[HEADER::_TR].translate(_LOW_BIT))
        bus.append(0)
        for l, r, tt in self.slots:
            bus.append(tt >> (bus[l] << 1 | bus[r]) & 1)
        inputs = self.inputs.copy()
        inputs.update(data[HEADER:])  # the joined word has one header
        return _tr_outputs(self.hpk, inputs.digest(), self.labels,
                           [bus[s] for s in self.outs])


class _SheProgram:
    """A program's (value, noise) pairs; each step runs u's gate list."""

    def __init__(self, hpk, u, program):
        self.wires = _she_wires(hpk, program)
        self.hpk, self.u = hpk, u

    def run(self, data):
        _check_data(self.hpk, self.u, data)
        return _eval_she(self.hpk, self.u.circuit,
                         self.wires + _she_wires(self.hpk, data))


def hpk_to_dict(hpk):
    """The published key: kind and key id, and for integer-she also the
    parameter set and the public integers; lam_bytes follows from these."""
    d = {"kind": hpk.kind, "key_id": hpk.key_id.hex()}
    if hpk.kind == "integer-she":
        c = hpk.config
        d["config"] = {"eta": c.eta, "rho": c.rho, "tau": c.tau,
                       "gamma_extra": c.gamma_extra}
        d["x0"] = hex(hpk.x0)
        d["zeros"] = [hex(z) for z in hpk.zeros]
    return d


def hpk_from_dict(d):
    """Parse a published key; HeError names an unknown kind, a missing or
    unknown field, or a key id that is not 8 bytes."""
    kind = d.get("kind")
    if kind not in KINDS:
        raise HeError(f"unknown backend {kind!r}")
    fields = {"kind", "key_id"} | ({"config", "x0", "zeros"} if kind == "integer-she"
                                   else set())
    if set(d) != fields:
        raise HeError(f"a {kind} key has exactly the fields {sorted(fields)}")
    key_id = bytes.fromhex(d["key_id"])
    if len(key_id) != 8:
        raise HeError(f"key id must be 8 bytes, got {len(key_id)}")
    cfg = BackendConfig(kind=kind, **d.get("config", {}))
    return Hpk(
        kind=kind,
        key_id=key_id,
        lam_bytes=ciphertext_bytes(kind, cfg),
        config=cfg,
        x0=int(d["x0"], 16) if "x0" in d else 0,
        zeros=tuple(int(z, 16) for z in d.get("zeros", ())),
    )
