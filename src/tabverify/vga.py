"""Test-case generation and coverage from public information only.

The generator sees the anonymized structure and the public specification.
It enumerates source-to-sink paths in the structure, then derives external
inputs by seeded sampling of the spec's declared input domains, aiming to
fire every transformed spec row at least once. Everything is deterministic
in the seed so an auditor can regenerate the exact suite.
"""

import json
import math
import random
from dataclasses import dataclass

from .tables import transform

ROW_SEARCH_TRIES = 400


def input_key(X):
    """Canonical dict key for an external input assignment."""
    return json.dumps({k: X[k] for k in sorted(X)}, sort_keys=True)


def enumerate_paths(structure, limit):
    """Simple Input-to-Output paths over the anonymized node indices of the
    published structure."""
    succ, starts = {}, set()
    for idx, (_, feeds) in enumerate(structure.tables, 1):
        for feed in feeds:
            if isinstance(feed, str):  # an external input
                starts.add(idx)
            else:
                for ref in feed:
                    succ.setdefault(ref, []).append(idx)
    external = {i for i, (ext, _) in enumerate(structure.tables, 1) if ext}
    paths = []

    def walk(node, acc):
        if len(paths) >= limit:
            return
        if node in external:
            paths.append(tuple(acc))
            if len(paths) >= limit:
                return
        for nxt in sorted(succ.get(node, [])):
            if nxt not in acc:
                walk(nxt, acc + [nxt])

    for s in sorted(starts):
        walk(s, [s])
    return paths


def _sample_input(domains, rng):
    return {name: rng.choice(list(vals)) for name, vals in sorted(domains.items())}


def generate_suite(structure, g_spec, domains, seed, budget):
    """Deterministic (paths, external input list) for the given seed."""
    if budget < 1:
        return [], []
    paths = enumerate_paths(structure, budget)
    rng = random.Random(f"vga:{seed}")
    tg = transform(g_spec)
    inputs, seen = [], set()

    def push(X):
        k = input_key(X)
        if k not in seen and len(inputs) < budget:
            seen.add(k)
            inputs.append(X)

    from .tables import evaluate_plain

    for name in tg.order:
        found = None
        for _ in range(ROW_SEARCH_TRIES):
            X = _sample_input(domains, rng)
            v = evaluate_plain(tg, X)[name]
            if v is not None and v.tag:
                found = X
                break
        if found is not None:
            push(found)
    # top up with plain random samples so small graphs still get a spread,
    # while the domains allow an input not pushed yet
    distinct = math.prod(len({json.dumps(v) for v in vals})
                         for vals in domains.values())
    while len(inputs) < min(budget, len(tg.order) + 2, distinct):
        push(_sample_input(domains, rng))
    return paths, inputs


@dataclass
class CoverageReport:
    tables: dict  # index -> {"covered": bool, "anti_covered": bool, "reached": bool}

    @property
    def covered(self):
        return sorted(i for i, t in self.tables.items() if t["covered"])

    @property
    def anti_covered(self):
        return sorted(i for i, t in self.tables.items() if t["anti_covered"])

    @property
    def unreached(self):
        return sorted(i for i, t in self.tables.items() if not t["reached"])

    def summary(self):
        n = len(self.tables) or 1
        return {
            "covered_ratio": len(self.covered) / n,
            "anti_covered_ratio": len(self.anti_covered) / n,
            "unreached": self.unreached,
        }

    def render_text(self):
        lines = ["table  covered  anti-covered  reached"]
        for i in sorted(self.tables):
            t = self.tables[i]
            lines.append(
                f"{i:>5}  {str(t['covered']):>7}  {str(t['anti_covered']):>12}  "
                f"{str(t['reached']):>7}"
            )
        s = self.summary()
        lines.append(
            f"covered {s['covered_ratio']:.0%}, "
            f"anti-covered {s['anti_covered_ratio']:.0%}, "
            f"unreached {len(self.unreached)}"
        )
        return "\n".join(lines)


def coverage_report(qa_e, structure):
    """Row coverage from the public transcript's q2 answers alone."""
    tables = {
        i: {"covered": False, "anti_covered": False, "reached": False}
        for i in range(1, len(structure.tables) + 1)
    }
    for rec in qa_e:
        q, a = rec["q"], rec["a"]
        if q.get("qkind") != 2:
            continue
        entry = tables.get(q["i"])
        if entry is None:
            continue
        kind = a.get("kind")
        if kind in ("top", "payload"):
            entry["covered"] = True
            entry["reached"] = True
        elif kind == "bot":
            entry["anti_covered"] = True
            entry["reached"] = True
    return CoverageReport(tables=tables)
