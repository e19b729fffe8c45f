"""A toy somewhat-homomorphic scheme over the integers.

The scheme of van Dijk, Gentry, Halevi and Vaikuntanathan ("Fully
homomorphic encryption over the integers", EUROCRYPT 2010) without
bootstrapping. The secret key is an odd eta-bit p; the public key is
x0 = p * q0 and tau encryptions of zero. A bit m encrypts to
m + 2r + 2 * (a random subset sum of the public zeros) mod x0, and
decrypts to the parity of that value reduced mod p into (-p/2, p/2]. XOR
is addition and AND is multiplication.

A ciphertext is a (value, noise) pair: noise bounds the bits of the noise
term, and eval_circuit raises DepthBudgetError as soon as a gate would take
it to eta - 2 bits, so a result is never silently wrong. The default
parameters allow 8 levels of AND, enough for the SE circuit
(symcrypto.SECircuit) and the smallest universal circuit, but not for the
universal circuit of any session's design. The sessions' backend is he;
this module stands beside it for the tests that check the scheme.
"""

from dataclasses import dataclass


class DepthBudgetError(Exception):
    pass


@dataclass(frozen=True)
class Params:
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
class PublicKey:
    params: Params
    x0: int
    zeros: tuple  # tau public encryptions of zero


def keygen(rng, params=Params()):
    """(pk, p): the public key and the secret odd modulus p. ValueError
    when the parameters leave no level of AND."""
    if params.depth_budget < 1:
        raise ValueError("parameter set infeasible: depth budget is zero")
    eta, gamma = params.eta, params.gamma
    p = rng.getrandbits(eta) | (1 << (eta - 1)) | 1  # odd, full width
    q0 = rng.getrandbits(gamma - eta) | (1 << (gamma - eta - 1)) | 1
    x0 = p * q0
    zeros = tuple((p * rng.getrandbits(gamma - eta - 2)
                   + 2 * rng.getrandbits(params.rho)) % x0 for _ in range(params.tau))
    return PublicKey(params, x0, zeros), p


def enc(pk, bit, rng):
    """A fresh ciphertext of bit; ValueError when bit is not 0 or 1."""
    if bit not in (0, 1):
        raise ValueError("plaintext must be a bit")
    acc = int(bit) + 2 * rng.getrandbits(pk.params.rho)
    for z in pk.zeros:
        if rng.getrandbits(1):
            acc += z  # z carries an even noise term, so parity is preserved
    return acc % pk.x0, pk.params.fresh_noise_bits


def dec(p, ct):
    """The bit of a ciphertext under the secret modulus p."""
    v = ct[0] % p
    if v > p // 2:
        v -= p
    return v & 1


# tt -> (c0, c1, c2, c3): f(a, b) = c0 ^ c1 b ^ c2 a ^ c3 ab
_ANF = {}
for tt in range(16):
    t00, t01, t10, t11 = (tt >> 0) & 1, (tt >> 1) & 1, (tt >> 2) & 1, (tt >> 3) & 1
    _ANF[tt] = (t00, t01 ^ t00, t10 ^ t00, t11 ^ t10 ^ t01 ^ t00)


def eval_circuit(pk, circuit, cts):
    """The ciphertexts of a gate-list circuit's outputs on the input
    ciphertexts cts; DepthBudgetError when a gate's noise would pass the
    budget."""
    if len(cts) != circuit.n_inputs:
        raise ValueError(f"circuit expects {circuit.n_inputs} ciphertexts, "
                         f"got {len(cts)}")
    x0, limit = pk.x0, pk.params.eta - 2
    wires = list(cts)
    for l, r, tt in circuit.gates:
        (av, an), (bv, bn) = wires[l], wires[r]
        if l == r:
            # unary: f(a) = g0 xor (g0 xor g1) a, no multiplication needed
            g0, g1 = tt & 1, (tt >> 3) & 1
            if g0 == g1:
                wires.append((g0, 0))
            elif g0 == 0:
                wires.append((av, an))
            elif an + 1 > limit:
                raise DepthBudgetError(f"noise {an + 1} bits exceeds budget {limit}")
            else:
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
                    f"noise {mn} bits exceeds budget {limit} at an AND gate")
            val += av * bv
            noise = max(noise, mn) + 1
        if noise > limit:
            raise DepthBudgetError(f"noise {noise} bits exceeds budget {limit}")
        wires.append((val % x0, noise))
    return [wires[w] for w in circuit.outputs]
