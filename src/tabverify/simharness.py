"""Simulation harness for the security argument.

Two pieces back the indistinguishability claims:

1. A simulation oracle that answers developer queries without ever
   decrypting. It is the real Developer with its two open hooks replaced:
   an encode answer opens the output word by evaluating the secret table in
   the clear on the plaintext inputs the session memory already holds, and
   a checker round opens y as the symmetric encryption of the answer slice
   under the round's key, which the oracle draws as the verifier does
   (protocol.round_seed, then protocol.checker_key) from the verifier's
   key seed, which it is told, and the round's index, which it counts.
   Every check on a query is the Developer's own, so against identical
   keys and randomness the oracle answers byte for byte like the real
   developer for any valid query sequence.

2. A structure-preserving fake-design generator plus a real/ideal
   experiment runner: the ideal run encrypts a fake design with the same
   interconnection structure while answers still come from the real
   tables, and public metadata of both runs must coincide.
"""

import random

from .circuit import budget_for, simulate
from .expr import parse_expr
from .protocol import (
    Developer,
    Verifier,
    checker_key,
    public_structure,
    round_seed,
    table_circuits,
    verify_session,
)
from .symcrypto import se_enc
from .tables import Table, TableGraph, bits_uint, int_to_bits, transform


class OracleDeveloper(Developer):
    """A Developer whose open hooks never touch the decryption key.

    cipher_graph drives everything public (keys, programs, structure);
    answer_graph supplies the table semantics that _open_output evaluates.
    They must share the interconnection structure. With answer_graph
    omitted this is a drop-in plaintext twin of Developer. In general mode
    _open_checker needs every checker round's key: learn_key_seed gives it
    the verifier's key seed, and each session counts the checker rounds it
    opens, from 0, so that it opens round r under the key of
    round_seed(key_seed, r). An honest verifier's every round opens, so r
    is the round's index in the verifier's qa_c.
    """

    def __init__(self, cipher_graph, answer_graph=None, **kw):
        super().__init__(cipher_graph, **kw)
        self.hsk = None  # any accidental decryption now fails loudly
        self.key_seed = self.rounds = None
        self.answer_circuits = self.circuits
        if answer_graph is not None:
            tg = transform(answer_graph)
            index_of, self.answer_circuits = table_circuits(tg)
            if public_structure(tg, index_of) != self.pp.structure:
                raise ValueError("answer graph has a different structure")

    def learn_key_seed(self, key_seed):
        """Take the verifier's key seed; the sessions made after this count
        their rounds from 0 (a session is a copy, so each counts its own)."""
        self.key_seed, self.rounds = key_seed, 0

    def _open_output(self, i, v_cts, u_plain):
        c = self.answer_circuits[i]
        return bits_uint(simulate(c, int_to_bits(u_plain, c.n_inputs)))

    def _open_checker(self, y, slice_plain, width):
        sk, _ = checker_key(round_seed(self.key_seed, self.rounds), width)
        self.rounds += 1
        return se_enc(sk, slice_plain, width)


def paired_session(graph, domains, dev_seed, v_seed, v_rng_seed, mode="general"):
    """One session against the real developer and one against its oracle
    twin, under the same keys and randomness. Returns both certificates.

    dev_seed seeds the developers' randomness, v_seed the verifiers' test
    suite and v_rng_seed the verifiers' keys and challenges.
    """
    certs = []
    for cls in (Developer, OracleDeveloper):
        dev = cls(graph, rng=random.Random(dev_seed))
        v = Verifier(dev.pp.to_dict(), graph, domains, [], seed=v_seed,
                     mode=mode, rng=random.Random(v_rng_seed))
        if cls is OracleDeveloper and mode == "general":
            dev.learn_key_seed(v.key_seed)
        certs.append(verify_session(dev, v)[1])
    return certs


# --- structure-preserving fake designs ---------------------------------------------


def fake_graph_like(g, seed):
    """A different design with the same tables-and-wiring shape as g."""
    rng = random.Random(f"fake:{seed}")
    tables = {}
    for t in g.tables.values():
        int_ports = [p for p, ty in t.inputs if ty == "int"]
        bool_ports = [p for p, ty in t.inputs if ty == "bool"]
        n = len(t.rows)
        preds = _fake_preds(int_ports, bool_ports, n, rng)
        rows = tuple(
            (parse_expr(pred),
             parse_expr(_fake_func(int_ports, bool_ports, t.output[1], rng)))
            for pred in preds
        )
        tables[t.name] = Table(name=t.name, inputs=t.inputs, output=t.output, rows=rows)
    return TableGraph(
        tables=tables,
        edges=list(g.edges),
        m=g.m,
        external_inputs=list(g.external_inputs),
    )


def _fake_preds(int_ports, bool_ports, n, rng):
    if n == 1:
        return ["true"]
    if int_ports:
        x = int_ports[0]
        cuts = sorted(rng.sample(range(-40, 41), n - 1))
        preds = [f"{x} < {cuts[0]}"]
        for lo, hi in zip(cuts, cuts[1:]):
            preds.append(f"{x} >= {lo} and {x} < {hi}")
        preds.append(f"{x} >= {cuts[-1]}")
        return preds
    if bool_ports and n == 2:
        b = bool_ports[0]
        return [f"{b} == true", f"{b} == false"]
    raise ValueError("cannot shape predicates for this table")


def _fake_func(int_ports, bool_ports, out_type, rng):
    if out_type == "int":
        if int_ports and rng.random() < 0.8:
            x = rng.choice(int_ports)
            return f"{x} + {rng.randint(-30, 30)}"
        return str(rng.randint(-50, 50))
    if int_ports and rng.random() < 0.5:
        return f"{rng.choice(int_ports)} < {rng.randint(-30, 30)}"
    if bool_ports and rng.random() < 0.5:
        return rng.choice(bool_ports)
    return rng.choice(["true", "false"])


# --- real vs ideal experiment --------------------------------------------------------


def shared_budget(*graphs):
    """Universal-circuit floor large enough for every listed design."""
    circuits = [
        c for g in graphs for c in table_circuits(transform(g))[1].values()
    ]
    return budget_for(circuits)[:2]


def run_experiment(graph, domains, cp, seed, mode="general", vga_budget=8):
    """One real and one ideal session over the same spec and seeds.

    Real: the actual developer on the actual design. Ideal: a fake design
    with the same structure is encrypted, while answers come from the real
    tables through the oracle developer's open hooks.
    """
    fake = fake_graph_like(graph, seed)
    budget = shared_budget(graph, fake)
    result = {}
    for side, dev in (
        ("real", Developer(graph, rng=random.Random(seed), u_budget=budget)),
        ("ideal", OracleDeveloper(fake, answer_graph=graph, rng=random.Random(seed),
                                  u_budget=budget)),
    ):
        v = Verifier(dev.pp.to_dict(), graph, domains, cp, seed=seed, mode=mode,
                     vga_budget=vga_budget, rng=random.Random(seed + 1))
        if side == "ideal" and mode == "general":
            dev.learn_key_seed(v.key_seed)
        verdict, cert = verify_session(dev, v)
        result[side] = {"verdict": verdict, "cert": cert}
    return result


def metadata_views(result):
    """The public, non-ciphertext metadata a distinguisher could compare."""
    views = {}
    for side in ("real", "ideal"):
        pp = result[side]["cert"]["public_params"]
        cert = result[side]["cert"]
        views[side] = {
            "structure": pp["structure"],
            "u_params": pp["u_params"],
            "backend": pp["hpk"]["kind"],
            "program_lengths": sorted(map(len, pp["programs"])),
            "verdict": cert["verdict"],
            "outputs": cert["outputs"],
            # a q2 answer is plaintext; of a q1's, only whether it came
            "answers": [r["a"] if r["q"]["qkind"] == 2 else r["a"] is not None
                        for r in cert["qa_e"]],
        }
    return views
