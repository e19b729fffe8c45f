"""Test-case generation and coverage from public information only.

The suite is its inputs. The generator reads the public specification and
its declared input domains, and no part of the developer's published
structure: it samples external inputs, seeded, until each transformed spec
row has fired at least once, then tops the suite up with plain samples.
Everything is deterministic in the seed, so an auditor regenerates the
exact suite. Coverage is read from the public transcript afterwards.
"""

import json
import math
import random
from dataclasses import dataclass

from .channel import canonical_json
from .tables import transform

ROW_SEARCH_TRIES = 400


def input_key(X):
    """Canonical dict key for an external input assignment."""
    return canonical_json(X)


def _sample_input(domains, rng):
    return {name: rng.choice(list(vals)) for name, vals in sorted(domains.items())}


def generate_suite(g_spec, domains, seed, budget):
    """The deterministic list of external inputs for the given seed."""
    if budget < 1:
        return []
    rng = random.Random(f"vga:{seed}")
    tg = transform(g_spec)
    inputs, seen = [], set()

    def push(X):
        k = input_key(X)
        if k not in seen and len(inputs) < budget:
            seen.add(k)
            inputs.append(X)

    from .tables import evaluate_plain

    # inputs the domains allow; once the suite holds min(budget, distinct)
    # of them, push can add none, so the row search stops there
    distinct = math.prod(len({json.dumps(v) for v in vals})
                         for vals in domains.values())
    for name in tg.order:
        if len(inputs) == min(budget, distinct):
            break
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
    while len(inputs) < min(budget, len(tg.order) + 2, distinct):
        push(_sample_input(domains, rng))
    return inputs


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
    """Row coverage from the public transcript's q2 answers alone: an
    answer's hex ends in its tag half, whose bit 0 says whether the table
    fired; a null answer reaches nothing."""
    tables = {
        i: {"covered": False, "anti_covered": False, "reached": False}
        for i in range(1, len(structure.tables) + 1)
    }
    for rec in qa_e:
        q, a = rec["q"], rec["a"]
        entry = tables.get(q["i"]) if q.get("qkind") == 2 else None
        if entry is None or a is None:
            continue
        entry["covered" if int(a, 16) & 1 else "anti_covered"] = True
        entry["reached"] = True
    return CoverageReport(tables=tables)
