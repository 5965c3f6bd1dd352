"""Learning strategies, the session driver, and learner composition.

Every learner is a single-session stateful object exposing next_move() and
observe().  The version space is the bitset of concept indices consistent
with everything observed; hypotheses submitted always agree with all
constrained points, so no refuted hypothesis is ever repeated.  Each learner
carries `certified_budget`, the query bound its construction guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .core import Concept, InvariantViolation, PartialConcept
from .dimensions import (
    consistency_dim,
    full_ldim_partial,
    ldim_subset,
    strong_consistency_dim,
)
from .teachers import Counterexample, EqQuery, MqAnswer, MqQuery, YesAnswer


class Learner:
    done = False

    @property
    def exhausted(self):
        return False

    def next_move(self):
        raise NotImplementedError

    def observe(self, response):
        raise NotImplementedError


@dataclass
class Transcript:
    entries: list = field(default_factory=list)
    eq_count: int = 0
    mq_count: int = 0
    outcome: str = "budget_exhausted"

    @property
    def success(self):
        return self.outcome == "success"

    @property
    def total_queries(self):
        return self.eq_count + self.mq_count


def transcript_lines(transcript, universe):
    """Render a transcript in the canonical one-line-per-turn format."""
    lines = []
    for move, resp in transcript.entries:
        if isinstance(move, EqQuery):
            head = f"EQ {move.hypothesis.bitstring()}"
            if isinstance(resp, YesAnswer):
                lines.append(f"{head} -> YES")
            else:
                lines.append(f"{head} -> CE {universe.name(resp.point)} {resp.label}")
        else:
            lines.append(f"MQ {universe.name(move.point)} -> {resp.label}")
    outcome = "success" if transcript.success else "exhausted"
    lines.append(
        f"result={outcome} eq={transcript.eq_count} mq={transcript.mq_count}"
    )
    return lines


def run_session(learner, teacher, budget):
    """Alternate moves and responses until a yes answer or the budget runs out."""
    if budget < 1:
        raise ValueError("budget must be positive")
    transcript = Transcript()
    for _ in range(budget):
        if learner.exhausted or learner.done:
            break
        move = learner.next_move()
        response = teacher.respond(move)
        if isinstance(move, EqQuery):
            transcript.eq_count += 1
            if isinstance(response, Counterexample):
                if response.label == move.hypothesis.label(response.point):
                    raise InvariantViolation(
                        "counterexample label agrees with the hypothesis"
                    )
            elif not isinstance(response, YesAnswer):
                raise InvariantViolation("equivalence query answered with a label")
        else:
            transcript.mq_count += 1
            if not isinstance(response, MqAnswer):
                raise InvariantViolation("membership query answered incorrectly")
        learner.observe(response)
        transcript.entries.append((move, response))
        if isinstance(response, YesAnswer):
            transcript.outcome = "success"
            break
    return transcript


class _VersionLearner(Learner):
    """Common bookkeeping: a version bitset updated by observed data."""

    def __init__(self, concept_class, version=None):
        self.cls = concept_class
        self.version = concept_class.full_version if version is None else version
        self._await_point = None

    @property
    def exhausted(self):
        return self.version == 0

    def _constrain(self, point, label):
        self.version = self.cls.restrict_version(self.version, point, label)

    def observe(self, response):
        if isinstance(response, YesAnswer):
            self.done = True
            return
        if isinstance(response, Counterexample):
            self._constrain(response.point, response.label)
        elif isinstance(response, MqAnswer):
            if self._await_point is None:
                raise InvariantViolation("membership answer without a pending query")
            self._constrain(self._await_point, response.label)
            self._await_point = None
        self._after_observe(response)

    def _after_observe(self, response):
        pass

    def _single_concept(self):
        return self.cls.concepts[self.cls.lowest_index(self.version)]


class OptimalEqLearner(_VersionLearner):
    """Submits the Littlestone-majority total at each step; every
    counterexample strictly lowers the version space's dimension, so at most
    ldim + 1 equivalence queries are used.  Intended for sessions where any
    total labeling is an admissible hypothesis."""

    def __init__(self, concept_class):
        super().__init__(concept_class)
        self.certified_budget = ldim_subset(concept_class, concept_class.full_version) + 1

    def next_move(self):
        bits = 0
        for x in range(self.cls.universe.size):
            ones = self.cls.element_ones[x]
            s1 = self.version & ones
            s0 = self.version & ~ones
            if ldim_subset(self.cls, s1) >= ldim_subset(self.cls, s0):
                bits |= 1 << x
        return EqQuery(Concept(self.cls.universe, bits))


class Sc2EqLearner(_VersionLearner):
    """For hypothesis classes at strong consistency dimension 2 (equivalently
    consistency dimension 2): extends the full-dimension partial of the
    version space into the hypothesis class; ldim + 1 queries suffice."""

    def __init__(self, concept_class, hypotheses, _consistency=None):
        super().__init__(concept_class)
        c = (
            _consistency
            if _consistency is not None
            else consistency_dim(concept_class, hypotheses)
        )
        if c > 2:
            raise ValueError(f"strategy needs consistency dimension <= 2, got {c}")
        self.hyp = hypotheses
        self.certified_budget = ldim_subset(concept_class, concept_class.full_version) + 1

    def next_move(self):
        partial = full_ldim_partial(self.cls, self.version)
        hyp = self.hyp.find_extension(partial)
        if hyp is None:
            raise InvariantViolation(
                "full-dimension partial has no extension despite SC <= 2"
            )
        return EqQuery(hyp)


class HalvingEqLearner(_VersionLearner):
    """Threshold-partial strategy: label 1 above a (c-1)/c majority, 0 below a
    1/c minority (strict, exact integer arithmetic), extended into the
    hypothesis class; each counterexample shrinks the version space by the
    factor (c-1)/c, giving ceil(c * ln|C|) queries for c >= 2.  At c = 1 the
    thresholds degenerate, so the Littlestone-majority strategy is used
    instead (ldim + 1 queries)."""

    def __init__(self, concept_class, hypotheses, _strong=None):
        super().__init__(concept_class)
        c = (
            _strong
            if _strong is not None
            else strong_consistency_dim(concept_class, hypotheses)
        )
        self.hyp = hypotheses
        self.c = c
        d = ldim_subset(concept_class, concept_class.full_version)
        if c >= 2:
            self.certified_budget = max(1, math.ceil(c * math.log(len(concept_class))))
        else:
            self.certified_budget = d + 1
        self._fallback = OptimalEqLearner(concept_class) if c < 2 else None

    def next_move(self):
        if self.version & (self.version - 1) == 0:
            return EqQuery(self._single_concept())
        if self._fallback is not None:
            self._fallback.version = self.version
            return self._fallback.next_move()
        c = self.c
        total = bin(self.version).count("1")
        mask = bits = 0
        for x in range(self.cls.universe.size):
            count = bin(self.version & self.cls.element_ones[x]).count("1")
            if count * c > (c - 1) * total:
                mask |= 1 << x
                bits |= 1 << x
            elif count * c < total:
                mask |= 1 << x
        partial = PartialConcept(self.cls.universe, mask, bits)
        hyp = self.hyp.find_extension(partial)
        if hyp is None:
            raise InvariantViolation(
                "threshold partial has no extension despite being c-consistent"
            )
        return EqQuery(hyp)


class ComposeLearner(Learner):
    """Runs sub-learners in order, each until success or until it has spent
    its certified equivalence-query budget; responses reach only the active
    sub-learner."""

    def __init__(self, subs):
        self.subs = [(learner, budget) for learner, budget in subs]
        self.active = 0
        self.spent = 0
        self._responding = None
        self.certified_budget = sum(b for _, b in self.subs)

    def _next_active(self):
        i, spent = self.active, self.spent
        while i < len(self.subs):
            learner, budget = self.subs[i]
            if learner.exhausted or spent >= budget:
                i += 1
                spent = 0
            else:
                break
        return i, spent

    @property
    def exhausted(self):
        i, _ = self._next_active()
        return i >= len(self.subs)

    def next_move(self):
        self.active, self.spent = self._next_active()
        if self.active >= len(self.subs):
            raise InvariantViolation("all composed learners are exhausted")
        learner = self.subs[self.active][0]
        move = learner.next_move()
        if isinstance(move, EqQuery):
            self.spent += 1
        self._responding = learner
        return move

    def observe(self, response):
        if isinstance(response, YesAnswer):
            self.done = True
        if self._responding is None:
            raise InvariantViolation("response without a pending move")
        self._responding.observe(response)
        self._responding = None


class CdimEqLearner(_VersionLearner):
    """The c^d recursion: split on an element when both halves drop the
    dimension, otherwise submit the full-dimension total when it is in H, and
    otherwise locate a small restriction of it with no extension in the
    version space and compose learners over the subclasses it induces.
    Consistency dimension 1 delegates to the Littlestone-majority strategy
    and 2 to the partial-extension strategy."""

    def __init__(self, concept_class, hypotheses, _consistency=None, _version=None):
        super().__init__(concept_class, _version)
        self.hyp = hypotheses
        self.c = (
            _consistency
            if _consistency is not None
            else consistency_dim(concept_class, hypotheses)
        )
        d = ldim_subset(concept_class, self.version)
        self._sub = None
        if _version is None and self.c <= 2:
            if self.c == 1:
                self._sub = OptimalEqLearner(concept_class)
            else:
                self._sub = Sc2EqLearner(concept_class, hypotheses, _consistency=2)
            self.certified_budget = self._sub.certified_budget
        else:
            self.certified_budget = self.c**d

    @property
    def exhausted(self):
        if self._sub is not None:
            return self._sub.exhausted
        return self.version == 0

    def _spawn(self, versions):
        subs = []
        for v in versions:
            if not v:
                continue
            sub = CdimEqLearner(
                self.cls, self.hyp, _consistency=self.c, _version=v
            )
            subs.append((sub, self.c ** ldim_subset(self.cls, v)))
        self._sub = ComposeLearner(subs)

    def next_move(self):
        if self._sub is not None:
            return self._sub.next_move()
        version = self.version
        if version & (version - 1) == 0:
            return EqQuery(self._single_concept())
        x = _splitting_element(self.cls, version)
        if x is not None:
            self._spawn([self.cls.restrict_version(version, x, label) for label in (0, 1)])
            return self._sub.next_move()
        bits = full_ldim_partial(self.cls, version).bits
        hypothesis = Concept(self.cls.universe, bits)
        if self.hyp.contains(hypothesis):
            return EqQuery(hypothesis)
        points = _unextendable_restriction(self.cls, version, bits, self.c)
        versions = [
            self.cls.restrict_version(version, x, 1 - ((bits >> x) & 1))
            for x in points
        ]
        self._spawn(versions)
        return self._sub.next_move()

    def observe(self, response):
        if self._sub is not None:
            if isinstance(response, YesAnswer):
                self.done = True
            self._sub.observe(response)
            return
        super().observe(response)


def _splitting_element(concept_class, version):
    """Lowest element whose both labels strictly lower the dimension of the
    (non-singleton) version, or None."""
    d = ldim_subset(concept_class, version)
    for x, ones in enumerate(concept_class.element_ones):
        s1 = version & ones
        s0 = version & ~ones
        if (
            s1
            and s0
            and ldim_subset(concept_class, s1) < d
            and ldim_subset(concept_class, s0) < d
        ):
            return x
    return None


def _unextendable_restriction(concept_class, version, bits, max_size):
    """Smallest restriction (size ascending, lexicographic) of the total
    `bits` with no extension among the surviving concepts."""
    size = concept_class.universe.size
    for k in range(1, max_size + 1):
        for subset in combinations(range(size), k):
            mask = 0
            for x in subset:
                mask |= 1 << x
            if concept_class.first_member(mask, bits & mask, version) is None:
                return subset
    raise InvariantViolation(
        "hypothesis outside H admits no small unextendable restriction"
    )


class EqMqLearner(_VersionLearner):
    """Query strategy mixing both types: membership queries resolve splitting
    elements and all but one point of an unextendable restriction; total
    queries stay within max(1, c-1) * ldim + 1."""

    def __init__(self, concept_class, hypotheses, _consistency=None):
        super().__init__(concept_class)
        self.hyp = hypotheses
        self.c = (
            _consistency
            if _consistency is not None
            else consistency_dim(concept_class, hypotheses)
        )
        self.cprime = max(1, self.c - 1)
        d = ldim_subset(concept_class, concept_class.full_version)
        self.certified_budget = self.cprime * d + 1
        self._plan = []
        self._deduce = None

    def next_move(self):
        if self._plan:
            point, _ = self._plan[0]
            self._await_point = point
            return MqQuery(point)
        version = self.version
        if version & (version - 1) == 0:
            return EqQuery(self._single_concept())
        x = _splitting_element(self.cls, version)
        if x is not None:
            self._await_point = x
            return MqQuery(x)
        bits = full_ldim_partial(self.cls, version).bits
        hypothesis = Concept(self.cls.universe, bits)
        if self.hyp.contains(hypothesis):
            return EqQuery(hypothesis)
        points = _unextendable_restriction(self.cls, version, bits, self.c)
        if len(points) < 2:
            raise InvariantViolation(
                "unextendable restriction of size < 2 contradicts the hypothesis choice"
            )
        self._plan = [(x, (bits >> x) & 1) for x in points[:-1]]
        last = points[-1]
        self._deduce = (last, 1 - ((bits >> last) & 1))
        point, _ = self._plan[0]
        self._await_point = point
        return MqQuery(point)

    def _after_observe(self, response):
        if not isinstance(response, MqAnswer) or not self._plan:
            return
        point, expected = self._plan.pop(0)
        if response.label != expected:
            # the target left the hypothesis here; the version update said it all
            self._plan = []
            self._deduce = None
        elif not self._plan:
            x, label = self._deduce
            self._deduce = None
            survivors = self.cls.restrict_version(self.version, x, label)
            if not survivors:
                raise InvariantViolation(
                    "witness deduction emptied the version space"
                )
            self.version = survivors


class ThicketMaxMinLearner(_VersionLearner):
    """Queries the concept maximizing the minimum expected dimension drop over
    the current version space (exact rationals; ties take the lowest concept
    index).  Designed for sessions against randomized teachers."""

    def __init__(self, concept_class, mu, policy_cache=None):
        super().__init__(concept_class)
        if mu.universe != concept_class.universe:
            raise ValueError("distribution universe differs from the class universe")
        self.mu = mu
        self._policy = {} if policy_cache is None else policy_cache
        self.certified_budget = len(concept_class)

    def next_move(self):
        version = self.version
        if version & (version - 1) == 0:
            return EqQuery(self._single_concept())
        pick = self._policy.get(version)
        if pick is None:
            indices = self.cls.version_indices(version)
            concepts = self.cls.concepts
            best_rank = None
            pick = indices[0]
            for a in indices:
                rank = min(
                    edge_weight_in(self.cls, self.mu, version, concepts[a], concepts[b])
                    for b in indices
                    if b != a
                )
                if best_rank is None or rank > best_rank:
                    best_rank = rank
                    pick = a
            self._policy[version] = pick
        return EqQuery(self.cls.concepts[pick])


def edge_weight_in(concept_class, mu, version, concept_a, concept_b):
    """Thicket edge weight within a version: the expected drop in the
    version's Littlestone dimension when the teacher samples a point of the
    symmetric difference of the two concepts from `mu` and reveals
    concept_b's label there."""
    d = ldim_subset(concept_class, version)
    delta = concept_a.bits ^ concept_b.bits
    num = Fraction(0)
    mass = Fraction(0)
    for x in range(concept_class.universe.size):
        if not (delta >> x) & 1:
            continue
        w = mu.weight(x)
        mass += w
        sub = concept_class.restrict_version(version, x, (concept_b.bits >> x) & 1)
        num += w * (d - ldim_subset(concept_class, sub))
    return num / mass
