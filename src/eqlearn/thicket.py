"""Randomized-counterexample model: exact-rational query graph on a concept
class, query ranks, a shortest-path deficient-cycle check, and Monte-Carlo
estimation of the max-min learner's expected query count.

Distributions are read in integer units.  Edge weights and query ranks are
integer (drop, mass) pairs compared by cross-multiplying; a Fraction is made
only for a reported weight or rank, and floating point appears only in the
final Monte-Carlo summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .core import InvariantViolation
from .dimensions import ldim_subset
from .learners import ThicketGraph, maxmin_choice
from .rng import SplitMix64, mix64

_HALF = Fraction(1, 2)


def query_rank(concept_class, mu, concept):
    """Minimum outgoing edge weight of the concept (over all other members)."""
    if concept.universe != concept_class.universe:
        raise ValueError("concept universe differs from the class universe")
    i = concept_class.bits_index.get(concept.bits)
    if i is None:
        raise ValueError("concept is not a member of the class")
    return ThicketGraph(concept_class, mu).query_rank(i)


def shortest_deficient_cycle(weight, n, max_len):
    """A shortest cycle of distinct nodes 0..n-1 (length 2..max_len) whose
    weights `weight(i, j)` are all <= 1/2 with at least one strict, or None.

    Such a cycle is a strict edge u -> v closed by a path v -> u of weights
    <= 1/2, and a shortest such path visits distinct nodes, so one
    breadth-first search per v that a strict edge enters finds a shortest
    cycle.  Each ordered pair's weight is asked once, in the pass that lists
    the light edges and records the strict ones."""
    light = [[] for _ in range(n)]
    strict = set()  # the light edges (u, v) of weight < 1/2
    for i, j in permutations(range(n), 2):
        if (w := weight(i, j)) <= _HALF:
            light[i].append(j)
            if w < _HALF:
                strict.add((i, j))
    best = None
    for v in sorted({v for _, v in strict}):
        paths = {v: [v]}  # a shortest light path from v to each reached node
        frontier = [v]
        # the nodes reached in round k close cycles of length k + 1
        for _ in range((max_len if best is None else len(best) - 1) - 1):
            reached = []
            for a in frontier:
                for b in light[a]:
                    if b not in paths:
                        paths[b] = paths[a] + [b]
                        reached.append(b)
            closing = [u for u in reached if (u, v) in strict]
            if closing:
                best = paths[closing[0]]
                break
            frontier = reached
    return best


def deficient_cycle_search(concept_class, mu, max_len):
    """A shortest cycle of distinct concepts (lengths 2..max_len) with all
    weights <= 1/2 and at least one strict, or None (the expected outcome is
    always None)."""
    if max_len < 2:
        raise ValueError("cycle length must be at least 2")
    if max_len > len(concept_class):
        raise ValueError("cycle length cannot exceed the class size")
    graph = ThicketGraph(concept_class, mu)
    return shortest_deficient_cycle(graph.weight, len(concept_class), max_len)


@dataclass
class TrialStats:
    trials: int
    mean: float
    stderr: float
    max_queries: int
    per_target_mean: dict
    ldim: int
    mean_total: float

    @classmethod
    def of_counts(cls, counts, n, ldim):
        """The summary of exact per-trial counts, trial t's target being t % n."""
        mean = sum(counts) / len(counts)
        if len(counts) > 1:
            var = sum((c - mean) ** 2 for c in counts) / (len(counts) - 1)
            stderr = (var / len(counts)) ** 0.5
        else:
            stderr = 0.0
        per_target = {}
        for t, c in enumerate(counts):
            per_target.setdefault(t % n, []).append(c)
        return cls(
            trials=len(counts),
            mean=mean,
            stderr=stderr,
            max_queries=max(counts),
            per_target_mean={k: sum(v) / len(v) for k, v in sorted(per_target.items())},
            ldim=ldim,
            mean_total=mean + 1.0,
        )


def estimate_expected_queries(concept_class, mu, trials, seed):
    """Round-robin the target over the class; each trial runs the max-min
    learner against the random teacher with a seed derived from (seed, trial).

    A trial is a walk from the full version: query the max-min choice (one
    policy table, version -> index, serves every trial), draw a
    counterexample from `mu` on the points where it differs from the target
    with the stream `SplitMix64(mix64(seed, t))` (the random teacher's
    draws), and keep the concepts that agree with the target there.

    The per-trial count is the number of queries before the one identifying
    the target (the quantity the 2 * ldim expectation bound is about); the
    total including the final correct query is reported as `mean_total`.
    Counts are exact integers; mean and standard error are computed once at
    the end.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if mu.universe != concept_class.universe:
        raise ValueError("distribution universe differs from the class universe")
    counts = []
    policy = {}
    bits = [c.bits for c in concept_class.concepts]
    n = len(concept_class)
    for t in range(trials):
        target = bits[t % n]
        rng = SplitMix64(mix64(seed, t))
        version = concept_class.full_version
        for queries in range(n + 1):
            delta = bits[maxmin_choice(concept_class, mu, version, policy)] ^ target
            if not delta:
                break
            x = mu.pick(delta, rng.next_u64())
            if not (delta >> x) & 1:
                raise InvariantViolation("counterexample label agrees with the hypothesis")
            version = concept_class.restrict_version(version, x, (target >> x) & 1)
        else:
            raise InvariantViolation("max-min learner failed within |C| queries")
        counts.append(queries)
    d = ldim_subset(concept_class, concept_class.full_version)
    return TrialStats.of_counts(counts, n, d)
