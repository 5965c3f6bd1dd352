"""Randomized-counterexample model: exact-rational query graph on a concept
class, query ranks, deficient-cycle search, and Monte-Carlo estimation of the
max-min learner's expected query count.

All weights and ranks are exact Fractions end to end; floating point appears
only in the final Monte-Carlo summary statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .core import InvariantViolation
from .dimensions import ldim_subset
from .learners import ThicketMaxMinLearner, edge_weight_in, run_session
from .rng import mix64
from .teachers import RandomTeacher

_HALF = Fraction(1, 2)


def u_value(concept_class, concept, element):
    """Dimension drop when the class is constrained to agree with the concept
    at one element."""
    if concept.bits not in concept_class.bits_index:
        raise ValueError("concept is not a member of the class")
    full = concept_class.full_version
    d = ldim_subset(concept_class, full)
    sub = concept_class.restrict_version(full, element, concept.label(element))
    return d - ldim_subset(concept_class, sub)


def edge_weight(concept_class, mu, concept_a, concept_b):
    """Expected dimension drop when the teacher samples a point of the
    symmetric difference and reveals concept_b's label there."""
    for c in (concept_a, concept_b):
        if c.bits not in concept_class.bits_index:
            raise ValueError("concept is not a member of the class")
    if concept_a.bits == concept_b.bits:
        raise ValueError("edge weight is undefined for identical concepts")
    return edge_weight_in(
        concept_class, mu, concept_class.full_version, concept_a, concept_b
    )


class ThicketGraph:
    """Weighted directed graph over the class with edge weights d(A, B)."""

    def __init__(self, concept_class, mu):
        if mu.universe != concept_class.universe:
            raise ValueError("distribution universe differs from the class universe")
        self.cls = concept_class
        self.mu = mu
        self._weights = {}

    def weight(self, i, j):
        if i == j:
            raise ValueError("no self-edges in the query graph")
        key = (i, j)
        w = self._weights.get(key)
        if w is None:
            w = edge_weight(
                self.cls, self.mu, self.cls.concepts[i], self.cls.concepts[j]
            )
            self._weights[key] = w
        return w

    def query_rank(self, i):
        n = len(self.cls)
        if n < 2:
            raise ValueError("query rank needs at least two concepts")
        return min(self.weight(i, j) for j in range(n) if j != i)

    def max_query_rank(self):
        return max(self.query_rank(i) for i in range(len(self.cls)))


def query_rank(concept_class, mu, concept):
    """Minimum outgoing edge weight of the concept (over all other members)."""
    if len(concept_class) < 2:
        raise ValueError("query rank needs at least two concepts")
    if concept.bits not in concept_class.bits_index:
        raise ValueError("concept is not a member of the class")
    i = concept_class.bits_index[concept.bits]
    return ThicketGraph(concept_class, mu).query_rank(i)


def deficient_cycle_search(concept_class, mu, max_len):
    """Exhaustively search tuples of distinct concepts (lengths 2..max_len)
    for a cycle with all weights <= 1/2 and at least one strict; returns the
    first found or None (the expected outcome is always None)."""
    if max_len > len(concept_class):
        raise ValueError("cycle length cannot exceed the class size")
    graph = ThicketGraph(concept_class, mu)
    n = len(concept_class)
    for length in range(2, max_len + 1):
        for cycle in permutations(range(n), length):
            strict = False
            ok = True
            for k in range(length):
                w = graph.weight(cycle[k], cycle[(k + 1) % length])
                if w > _HALF:
                    ok = False
                    break
                if w < _HALF:
                    strict = True
            if ok and strict:
                return list(cycle)
    return None


@dataclass
class TrialStats:
    trials: int
    mean: float
    stderr: float
    max_queries: int
    per_target_mean: dict
    ldim: int
    mean_total: float


def estimate_expected_queries(concept_class, mu, trials, seed):
    """Round-robin the target over the class; each trial runs the max-min
    learner against the random teacher with a seed derived from (seed, trial).

    The per-trial count is the number of queries before the one identifying
    the target (the quantity the 2 * ldim expectation bound is about); the
    total including the final correct query is reported as `mean_total`.
    Counts are exact integers; mean and standard error are computed once at
    the end.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    counts = []
    per_target = {}
    policy = {}
    n = len(concept_class)
    budget = n + 1
    for t in range(trials):
        target = t % n
        teacher = RandomTeacher(concept_class, target, mu, mix64(seed, t))
        learner = ThicketMaxMinLearner(concept_class, mu, policy_cache=policy)
        transcript = run_session(learner, teacher, budget)
        if not transcript.success:
            raise InvariantViolation("max-min learner failed within |C| queries")
        counts.append(transcript.eq_count - 1)
        per_target.setdefault(target, []).append(transcript.eq_count - 1)
    mean = sum(counts) / len(counts)
    if len(counts) > 1:
        var = sum((c - mean) ** 2 for c in counts) / (len(counts) - 1)
        stderr = (var / len(counts)) ** 0.5
    else:
        stderr = 0.0
    d = ldim_subset(concept_class, concept_class.full_version)
    return TrialStats(
        trials=trials,
        mean=mean,
        stderr=stderr,
        max_queries=max(counts),
        per_target_mean={k: sum(v) / len(v) for k, v in sorted(per_target.items())},
        ldim=d,
        mean_total=mean + 1.0,
    )
