"""Seeded instance files for the benchmark, in the formats the README documents.

This module deliberately does not import `eqlearn`: the benchmark's inputs
must not change when the library's own fixtures or generators change.

Class file:         `elements: x0 x1 ...` then one 0/1 bitstring per concept.
Distribution file:  one `name p/q` line per element, weights summing to 1.
DFA file:           `states: n`, `accept: ...`, then `from symbol to` lines.
"""

from __future__ import annotations

import random
from itertools import product


class ClassSpec:
    """A concept class as element names plus one bitmask per concept
    (bit i is the label of element i)."""

    def __init__(self, elements, concepts):
        self.elements = list(elements)
        self.concepts = list(concepts)

    def text(self):
        n = len(self.elements)
        lines = ["elements: " + " ".join(self.elements)]
        for bits in self.concepts:
            lines.append("".join("1" if (bits >> i) & 1 else "0" for i in range(n)))
        return "\n".join(lines) + "\n"


def _points(n):
    return [f"x{i}" for i in range(n)]


def random_class(rng, n_elements, n_concepts):
    """Distinct concepts drawn uniformly from the 2^n totals."""
    chosen = []
    seen = set()
    while len(chosen) < n_concepts:
        bits = rng.getrandbits(n_elements)
        if bits not in seen:
            seen.add(bits)
            chosen.append(bits)
    return ClassSpec(_points(n_elements), chosen)


def singletons(n):
    """SING(n): one concept per point, labeling only that point 1."""
    return ClassSpec(_points(n), [1 << i for i in range(n)])


def tree(c, d):
    """TREE(c,d): elements a<tau> for sequences tau over [c] of length 1..d,
    ordered by length then lexicographically; one concept per length-d
    sequence, labeling exactly its prefixes 1."""
    seqs = []
    for length in range(1, d + 1):
        seqs.extend(product(range(c), repeat=length))
    index = {tau: i for i, tau in enumerate(seqs)}
    concepts = []
    for sigma in product(range(c), repeat=d):
        bits = 0
        for length in range(1, d + 1):
            bits |= 1 << index[sigma[:length]]
        concepts.append(bits)
    return ClassSpec(["a" + "".join(map(str, tau)) for tau in seqs], concepts)


def five():
    """FIVE: four concepts on {a,b,c,d,e} whose consistency and strong
    consistency dimensions differ."""
    rows = ["11100", "11010", "10111", "01111"]
    return ClassSpec(
        list("abcde"),
        [sum(1 << i for i, ch in enumerate(row) if ch == "1") for row in rows],
    )


def distribution_text(rng, elements, granularity=16):
    """Random positive rational weights with exact sum 1."""
    raw = [1 + rng.randrange(granularity) for _ in elements]
    total = sum(raw)
    return "".join(f"{name} {w}/{total}\n" for name, w in zip(elements, raw))


def random_dfa_text(rng, n_states):
    """A random complete DFA over {0,1} with state 0 as the start state."""
    accept = [s for s in range(n_states) if rng.random() < 0.5]
    lines = [f"states: {n_states}", "accept: " + " ".join(map(str, accept))]
    for s in range(n_states):
        for sym in (0, 1):
            lines.append(f"{s} {sym} {rng.randrange(n_states)}")
    return "\n".join(lines) + "\n"


def round_rng(workload, seed, round_index):
    """The generator for one round of one workload; string seeds hash with
    SHA-512, so the stream is the same on every platform and Python 3 build."""
    return random.Random(f"perfbench:{workload}:{seed}:{round_index}")
