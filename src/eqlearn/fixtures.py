"""Fixture concept classes used throughout the tests and the CLI generator.

SING(n)    singletons over n points
SINGE(n)   singletons plus the empty set (a hypothesis class for SING)
TREE(c,d)  chains a_tau indexed by sequences from [c] of length <= d, with one
           concept per length-d sequence containing exactly its prefixes
FIVE       the four-set class on {a,b,c,d,e} whose consistency and strong
           consistency dimensions differ
POW(k)     the full powerset of a k-point universe
"""

from __future__ import annotations

from itertools import product

from .core import ClassFormatError, Concept, ConceptClass, Distribution, Universe
from .rng import SplitMix64


def singletons(n):
    universe = Universe([f"x{i}" for i in range(n)])
    return ConceptClass(universe, [Concept(universe, 1 << i) for i in range(n)])


def singletons_with_empty(n):
    universe = Universe([f"x{i}" for i in range(n)])
    concepts = [Concept(universe, 1 << i) for i in range(n)]
    concepts.append(Concept(universe, 0))
    return ConceptClass(universe, concepts)


def tree_class(c, d):
    """Elements a_tau for sequences tau (1 <= len <= d) over [c], ordered by
    length then lexicographically; one concept per length-d sequence sigma,
    containing exactly the a_tau with tau a prefix of sigma."""
    if c < 2 or d < 1:
        raise ValueError("tree class needs c >= 2 and d >= 1")
    seqs = []
    for length in range(1, d + 1):
        seqs.extend(product(range(c), repeat=length))
    index = {tau: i for i, tau in enumerate(seqs)}
    universe = Universe(["a" + "".join(map(str, tau)) for tau in seqs])
    concepts = []
    for sigma in product(range(c), repeat=d):
        bits = 0
        for length in range(1, d + 1):
            bits |= 1 << index[sigma[:length]]
        concepts.append(Concept(universe, bits))
    return ConceptClass(universe, concepts)


def five_class():
    universe = Universe(list("abcde"))
    rows = ["11100", "11010", "10111", "01111"]
    return ConceptClass(universe, [Concept.from_bitstring(universe, r) for r in rows])


def powerset_class(k):
    universe = Universe([f"x{i}" for i in range(k)])
    return ConceptClass(universe, [Concept(universe, b) for b in range(1 << k)])


def random_class(n_elements, n_concepts, seed):
    """Distinct concepts drawn uniformly from the 2^n totals."""
    universe = Universe([f"x{i}" for i in range(n_elements)])
    if n_concepts > (1 << n_elements):
        raise ClassFormatError(
            f"cannot draw {n_concepts} distinct concepts from {1 << n_elements} totals"
        )
    rng = SplitMix64(seed)
    chosen = []
    seen = set()
    while len(chosen) < n_concepts:
        bits = rng.below(1 << n_elements)
        if bits not in seen:
            seen.add(bits)
            chosen.append(bits)
    return ConceptClass(universe, [Concept(universe, b) for b in chosen])


def random_distribution(universe, seed, granularity=16):
    """Random positive rational weights with exact sum 1."""
    rng = SplitMix64(seed)
    raw = [1 + rng.below(granularity) for _ in range(universe.size)]
    total = sum(raw)
    from fractions import Fraction

    return Distribution(universe, [Fraction(w, total) for w in raw])
