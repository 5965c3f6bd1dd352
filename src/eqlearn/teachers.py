"""Teacher strategies: honest teachers, adversaries, and the random teacher.

A teacher is a single-session stateful object with one method, respond().
Adversarial teachers maintain the bitset of concepts consistent with every
answer issued so far and raise InvariantViolation if an answer would empty
it, so coherence is checked on every move.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Concept, InvariantViolation, is_n_consistent
from .dimensions import ldim, ldim_subset
from .rng import SplitMix64


@dataclass(frozen=True)
class EqQuery:
    hypothesis: Concept


@dataclass(frozen=True)
class MqQuery:
    point: int


@dataclass(frozen=True)
class YesAnswer:
    pass


@dataclass(frozen=True)
class Counterexample:
    point: int
    label: int


@dataclass(frozen=True)
class MqAnswer:
    label: int


YES = YesAnswer()


class Teacher:
    def respond(self, move):
        raise NotImplementedError


def _check_target(concept_class, target_index):
    if not (0 <= target_index < len(concept_class)):
        raise ValueError(
            f"invalid target index {target_index} (class has {len(concept_class)} concepts)"
        )
    return concept_class.concepts[target_index]


def _honest_answer(target, move):
    """The answer of a teacher committed to `target`: its label, YES, or a
    counterexample at the least differing element."""
    if isinstance(move, MqQuery):
        return MqAnswer(target.label(move.point))
    diff = target.bits ^ move.hypothesis.bits
    if diff == 0:
        return YES
    x = (diff & -diff).bit_length() - 1
    return Counterexample(x, target.label(x))


class HonestTeacher(Teacher):
    """Committed to a target; counterexamples are the least differing element."""

    def __init__(self, concept_class, target_index):
        self.cls = concept_class
        self.target = _check_target(concept_class, target_index)

    def respond(self, move):
        return _honest_answer(self.target, move)


class _Adversary(Teacher):
    """Tracks the bitset of concepts consistent with every answer issued so
    far; once committed, answers honestly for the lowest-index survivor."""

    def __init__(self, concept_class):
        self.cls = concept_class
        self.consistent = concept_class.full_version
        self.committed = None

    def _commit(self, move):
        """Commit to the lowest-index survivor and answer `move` for it."""
        if not self.consistent:
            raise InvariantViolation(f"{self.name} has no consistent concept left")
        self.committed = self.cls.concepts[self.cls.lowest_index(self.consistent)]
        return _honest_answer(self.committed, move)


class TreeAdversary(_Adversary):
    """Walks a full-height mistake tree, answering each equivalence query with
    the current node's element labeled against the hypothesis; after the tree
    is exhausted it commits to the lowest-index concept still consistent.
    Membership queries keep the side of larger Littlestone dimension (ties
    answer 0); they are not covered by the d+1 lower-bound guarantee."""

    name = "tree adversary"

    def __init__(self, concept_class):
        super().__init__(concept_class)
        self.depth, self.node = ldim(concept_class)

    def respond(self, move):
        if self.committed is not None:
            return _honest_answer(self.committed, move)
        if isinstance(move, MqQuery):
            x = move.point
            s1 = self.cls.restrict_version(self.consistent, x, 1)
            s0 = self.cls.restrict_version(self.consistent, x, 0)
            if not s0 and not s1:
                raise InvariantViolation("tree adversary lost coherence")
            if ldim_subset(self.cls, s1) > ldim_subset(self.cls, s0):
                label = 1
            else:
                label = 0
            side = s1 if label else s0
            if not side:
                label = 1 - label
                side = s1 if label else s0
            self.consistent = side
            return MqAnswer(label)
        if self.node.is_leaf:
            return self._commit(move)
        x = self.node.element
        label = 1 - move.hypothesis.label(x)
        survivors = self.cls.restrict_version(self.consistent, x, label)
        if not survivors:
            # an earlier membership answer emptied this branch; play honestly
            return self._commit(move)
        self.consistent = survivors
        self.node = self.node.high if label else self.node.low
        return Counterexample(x, label)


class WitnessAdversary(_Adversary):
    """Defends a partial labeling that is n-consistent with the class but has
    no extension in the session hypothesis class, answering per the partial
    while any concept remains consistent with the data, then committing to
    the lowest-index consistent concept."""

    name = "witness adversary"

    def __init__(self, concept_class, partial, n, hypothesis_class=None):
        if n < 1:
            raise ValueError("n must be positive")
        if not is_n_consistent(partial, concept_class, n):
            raise ValueError("the defended partial is not n-consistent with the class")
        if hypothesis_class is not None and hypothesis_class.find_extension(partial):
            raise ValueError("the defended partial extends into the hypothesis class")
        super().__init__(concept_class)
        self.partial = partial
        self.n = n

    def respond(self, move):
        if self.committed is not None:
            return _honest_answer(self.committed, move)
        if isinstance(move, MqQuery):
            x = move.point
            label = self.partial.label(x)
            if label is not None:
                survivors = self.cls.restrict_version(self.consistent, x, label)
                if survivors:
                    self.consistent = survivors
                    return MqAnswer(label)
            return self._commit(move)
        hyp = move.hypothesis
        for x in self.partial.domain():
            label = self.partial.label(x)
            if hyp.label(x) == label:
                continue
            survivors = self.cls.restrict_version(self.consistent, x, label)
            if survivors:
                self.consistent = survivors
                return Counterexample(x, label)
        return self._commit(move)


class RandomTeacher(Teacher):
    """Committed to a target; counterexamples are drawn from the distribution
    conditioned on the symmetric difference, via the seeded generator."""

    def __init__(self, concept_class, target_index, mu, seed):
        if mu.universe != concept_class.universe:
            raise ValueError("distribution universe differs from the class universe")
        self.cls = concept_class
        self.target = _check_target(concept_class, target_index)
        self.mu = mu
        self.rng = SplitMix64(seed)

    def respond(self, move):
        if isinstance(move, MqQuery):
            return MqAnswer(self.target.label(move.point))
        hyp = move.hypothesis
        if hyp.bits == self.target.bits:
            return YES
        delta = [
            x
            for x in range(self.cls.universe.size)
            if hyp.label(x) != self.target.label(x)
        ]
        weights = [self.mu.weight(x) for x in delta]
        x = self.rng.choose_weighted(delta, weights)
        return Counterexample(x, self.target.label(x))
