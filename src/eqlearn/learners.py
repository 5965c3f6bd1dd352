"""Learning strategies, the session driver, and learner composition.

Every learner is a single-session stateful object exposing next_move() and
observe().  A learner's version space is the bitset of concept indices
consistent with what it has observed.  A composed learner runs on a stack
of frames (version, equivalence queries left): a split replaces the top
frame with one frame per part.  Each frame starts from the version its
split made, not from the one that earlier counterexamples narrowed, so the
c^d learner may submit a hypothesis that an earlier counterexample already
refuted.  Each learner carries `certified_budget`, the query bound its
construction guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    AllTotals,
    Concept,
    InvariantViolation,
    smallest_unextendable_restriction,
)
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
    """Common bookkeeping: a version bitset narrowed by counterexamples."""

    def __init__(self, concept_class):
        self.cls = concept_class
        self.version = concept_class.full_version

    @property
    def exhausted(self):
        return self.version == 0

    def _constrain(self, point, label):
        self.version = self.cls.restrict_version(self.version, point, label)

    def observe(self, response):
        if isinstance(response, YesAnswer):
            self.done = True
        elif isinstance(response, Counterexample):
            self._constrain(response.point, response.label)
        else:
            raise InvariantViolation("membership answer without a pending query")


def _majority_total(concept_class, version):
    """The Littlestone-majority total of a version: at each element, the label
    whose side keeps the larger dimension (label 1 on ties)."""
    bits = 0
    for x, ones in enumerate(concept_class.element_ones):
        s1 = version & ones
        s0 = version & ~ones
        if ldim_subset(concept_class, s1) >= ldim_subset(concept_class, s0):
            bits |= 1 << x
    return Concept(concept_class.universe, bits)


class HalvingEqLearner(_VersionLearner):
    """Threshold-partial strategy: label 1 above a (c-1)/c majority, 0 below a
    1/c minority (strict, exact integer arithmetic), extended into the
    hypothesis class; each counterexample shrinks the version space by the
    factor (c-1)/c, giving ceil(c * ln|C|) queries for c >= 2.  At c = 1 the
    thresholds degenerate, so the Littlestone-majority strategy is used
    instead (ldim + 1 queries)."""

    def __init__(self, concept_class, hypotheses):
        super().__init__(concept_class)
        c = strong_consistency_dim(concept_class, hypotheses)
        self.hyp = hypotheses
        self.c = c
        d = ldim_subset(concept_class, concept_class.full_version)
        if c >= 2:
            self.certified_budget = max(1, math.ceil(c * math.log(len(concept_class))))
        else:
            self.certified_budget = d + 1

    def next_move(self):
        c = self.c
        if c < 2:
            return EqQuery(_majority_total(self.cls, self.version))
        total = self.version.bit_count()
        mask = bits = 0
        for x in range(self.cls.universe.size):
            count = (self.version & self.cls.element_ones[x]).bit_count()
            if count * c > (c - 1) * total:
                mask |= 1 << x
                bits |= 1 << x
            elif count * c < total:
                mask |= 1 << x
        hyp = self.hyp.first_member(mask, bits)
        if hyp is None:
            raise InvariantViolation(
                "threshold partial has no extension despite being c-consistent"
            )
        return EqQuery(hyp)


class ComposeLearner(_VersionLearner):
    """Runs a stack of frames (version, equivalence queries left), top last.

    The top frame is dropped once its version is empty or its queries are
    spent.  Otherwise `_move` on its version gives either an equivalence
    query, which uses up one of the frame's queries, or a list of child
    versions, which replace the frame, the first child on top, each nonempty
    one with `_budget(child)` queries.  Every answer narrows `version`; a
    counterexample also narrows the top frame's version, and no other, so a
    later frame starts from the version its split made.  Subclasses give
    `_budget` and `_move`."""

    def __init__(self, concept_class):
        super().__init__(concept_class)
        self.certified_budget = self._budget(self.version)
        self.frames = ((self.version, self.certified_budget),)

    def _budget(self, version):
        raise NotImplementedError

    def _move(self, version):
        raise NotImplementedError

    @property
    def exhausted(self):
        return not any(version and left for version, left in self.frames)

    def next_move(self):
        frames = self.frames
        while frames:
            (version, left), frames = frames[-1], frames[:-1]
            if not version or not left:
                continue
            move = self._move(version)
            if isinstance(move, EqQuery):
                self.frames = frames + ((version, left - 1),)
                return move
            frames += tuple((v, self._budget(v)) for v in reversed(move) if v)
        raise InvariantViolation("every frame is exhausted")

    def observe(self, response):
        super().observe(response)
        if isinstance(response, Counterexample):
            version, left = self.frames[-1]
            version = self.cls.restrict_version(version, response.point, response.label)
            self.frames = self.frames[:-1] + ((version, left),)


class CdimEqLearner(ComposeLearner):
    """The c^d recursion: split on an element when both halves drop the
    dimension, otherwise submit the full-dimension total when it is in H, and
    otherwise locate a small restriction of it with no extension in the
    version space and split into the subclasses it induces.  At consistency
    dimension 1 it submits the Littlestone-majority total and at 2 the first
    extension of the full-dimension partial (ldim + 1 queries)."""

    def __init__(self, concept_class, hypotheses, _consistency=None):
        self.hyp = hypotheses
        self.c = (
            _consistency
            if _consistency is not None
            else consistency_dim(concept_class, hypotheses)
        )
        super().__init__(concept_class)

    def _budget(self, version):
        d = ldim_subset(self.cls, version)
        return d + 1 if self.c <= 2 else self.c**d

    def _move(self, version):
        if self.c == 1:
            return EqQuery(_majority_total(self.cls, version))
        if self.c == 2:
            full = full_ldim_partial(self.cls, version)
            hyp = self.hyp.first_member(full.mask, full.bits)
            if hyp is None:
                raise InvariantViolation(
                    "full-dimension partial has no extension despite SC <= 2"
                )
            return EqQuery(hyp)
        x, total = _split_or_total(self.cls, version)
        if total is None:
            return [self.cls.restrict_version(version, x, label) for label in (0, 1)]
        if self.hyp.contains_bits(total.bits):
            return EqQuery(total)
        points = _unextendable_restriction(self.cls, version, total.bits, self.c)
        return [self.cls.restrict_version(version, x, 1 - total.label(x)) for x in points]


class OptimalEqLearner(CdimEqLearner):
    """The c^d learner over all totals, where the consistency dimension is 1:
    it submits the Littlestone-majority total at each step; every
    counterexample strictly lowers the version space's dimension, so at most
    ldim + 1 equivalence queries are used."""

    def __init__(self, concept_class):
        super().__init__(concept_class, AllTotals(concept_class.universe))


class Sc2EqLearner(CdimEqLearner):
    """For hypothesis classes at strong consistency dimension 2 (equivalently
    consistency dimension 2): the c^d learner's c = 2 move, which extends the
    full-dimension partial of the version space into the hypothesis class;
    ldim + 1 queries suffice.  It plays that move at c = 1 too, where the c^d
    learner would submit the Littlestone-majority total."""

    def __init__(self, concept_class, hypotheses):
        c = consistency_dim(concept_class, hypotheses)
        if c > 2:
            raise ValueError(f"strategy needs consistency dimension <= 2, got {c}")
        super().__init__(concept_class, hypotheses, _consistency=2)


def _split_or_total(concept_class, version):
    """The step the c^d and EQ+MQ learners share: `(x, None)` for the lowest
    element x both of whose labels drop the version's dimension, else
    `(None, total)` for the version's full-dimension total."""
    full = full_ldim_partial(concept_class, version)
    split = ~full.mask & ((1 << concept_class.universe.size) - 1)
    if split:
        return (split & -split).bit_length() - 1, None
    return None, Concept(concept_class.universe, full.bits)


def _unextendable_restriction(concept_class, version, bits, max_size):
    """Smallest restriction (size ascending, lexicographic) of the total
    `bits` with no extension among the surviving concepts."""
    full = (1 << concept_class.universe.size) - 1
    points = smallest_unextendable_restriction(concept_class, full, bits, max_size, version)
    if points is None:
        raise InvariantViolation(
            "hypothesis outside H admits no small unextendable restriction"
        )
    return points


class EqMqLearner(_VersionLearner):
    """Query strategy mixing both types: membership queries resolve splitting
    elements and all but one point of an unextendable restriction; total
    queries stay within max(1, c-1) * ldim + 1.

    The last point of the restriction is never asked: once the answers agree
    with the total on the others, no survivor agrees with it on all of the
    restriction, so every survivor already has the other label there."""

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
        # pending membership queries: (point, the total's label there, or
        # None at a splitting element)
        self._plan = ()

    def next_move(self):
        if not self._plan:
            x, total = _split_or_total(self.cls, self.version)
            if total is None:
                self._plan = ((x, None),)
            elif self.hyp.contains_bits(total.bits):
                return EqQuery(total)
            else:
                points = _unextendable_restriction(self.cls, self.version, total.bits, self.c)
                if len(points) < 2:
                    raise InvariantViolation(
                        "unextendable restriction of size < 2 contradicts the hypothesis choice"
                    )
                self._plan = tuple((x, total.label(x)) for x in points[:-1])
        return MqQuery(self._plan[0][0])

    def observe(self, response):
        if not isinstance(response, MqAnswer):
            super().observe(response)
            return
        if not self._plan:
            raise InvariantViolation("membership answer without a pending query")
        (point, expected), self._plan = self._plan[0], self._plan[1:]
        self._constrain(point, response.label)
        if response.label != expected:
            # a split is resolved, or the target left the total here
            self._plan = ()


class ThicketMaxMinLearner(_VersionLearner):
    """Queries the concept maximizing the minimum expected dimension drop over
    the current version space (exact rationals; ties take the lowest concept
    index).  Designed for sessions against randomized teachers."""

    def __init__(self, concept_class, mu):
        super().__init__(concept_class)
        if mu.universe != concept_class.universe:
            raise ValueError("distribution universe differs from the class universe")
        self.mu = mu
        self._policy = {}
        self.certified_budget = len(concept_class)

    def next_move(self):
        return EqQuery(
            self.cls.concepts[maxmin_choice(self.cls, self.mu, self.version, self._policy)]
        )


def maxmin_choice(concept_class, mu, version, policy):
    """The max-min learner's query on a nonempty version: its only concept,
    or else its first concept of largest query rank, kept in the dict
    `policy` (version -> index) for the next call on that version."""
    if version & (version - 1) == 0:
        # the query rank needs two concepts
        return concept_class.lowest_index(version)
    choice = policy.get(version)
    if choice is None:
        choice = policy[version] = ThicketGraph(concept_class, mu, version).best_query()
    return choice


class ThicketGraph:
    """Weighted directed query graph over a version's concepts (the whole
    class by default); weights and query ranks are taken within the version,
    and an edge with an endpoint outside it is refused.

    The weight of i -> j is the expected drop in the version's Littlestone
    dimension when the teacher samples a point where i and j differ from
    `mu` and reveals j's label there.  Only the points depend on the pair,
    so each element's drop for either label is tabled once, in mu's units.
    A pair's weight is the integer pair (drop, mass), both in mu's units,
    that `_pair` sums from that table on every call; ranks are compared by
    cross-multiplying, and only `weight` (which sums the pair in its own
    loop), `query_rank` and `max_query_rank` make a Fraction."""

    def __init__(self, concept_class, mu, version=None):
        if mu.universe != concept_class.universe:
            raise ValueError("distribution universe differs from the class universe")
        self.cls = concept_class
        self.mu = mu
        self.version = concept_class.full_version if version is None else version
        self.indices = concept_class.version_indices(self.version)
        d = ldim_subset(concept_class, self.version)
        # _drops[x][label]: mu.units[x] times the drop when x is revealed as label
        self._drops = [
            [
                mu.units[x] * (d - ldim_subset(concept_class, self.version & side))
                for side in (~ones, ones)
            ]
            for x, ones in enumerate(concept_class.element_ones)
        ]

    def _pair(self, i, j):
        """The weight of i -> j as (mu-weighted drop, mu mass), in mu's units,
        over the points where i and j differ."""
        b = self.cls.concepts[j].bits
        delta = self.cls.concepts[i].bits ^ b
        drops = self._drops
        units = self.mu.units
        drop = mass = 0
        while delta:
            x = (delta & -delta).bit_length() - 1
            drop += drops[x][(b >> x) & 1]
            mass += units[x]
            delta &= delta - 1
        return drop, mass

    def _rank(self, i):
        """The query rank of i as a (drop, mass) pair: its lightest edge."""
        low = None
        for j in self.indices:
            if j != i:
                drop, mass = self._pair(i, j)
                if low is None or drop * low[1] < low[0] * mass:
                    low = drop, mass
        return low

    def weight(self, i, j):
        if i == j:
            raise ValueError("no self-edges in the query graph")
        if not (self.version >> i) & (self.version >> j) & 1:
            raise ValueError(f"edge {i} -> {j} leaves the graph's version")
        # summed here, not through `_pair`: the cycle check asks for every
        # ordered pair's weight, and a second call per pair shows there
        b = self.cls.concepts[j].bits
        delta = self.cls.concepts[i].bits ^ b
        drops = self._drops
        units = self.mu.units
        drop = mass = 0
        while delta:
            x = (delta & -delta).bit_length() - 1
            drop += drops[x][(b >> x) & 1]
            mass += units[x]
            delta &= delta - 1
        return Fraction(drop, mass)

    def query_rank(self, i):
        if len(self.indices) < 2:
            raise ValueError("query rank needs at least two concepts")
        if not (self.version >> i) & 1:
            raise ValueError(f"edge {i} -> {self.indices[0]} leaves the graph's version")
        return Fraction(*self._rank(i))

    def best_query(self):
        """The first index of largest query rank: the max-min learner's query."""
        if len(self.indices) < 2:
            raise ValueError("query rank needs at least two concepts")
        best = high = None
        for i in self.indices:
            drop, mass = self._rank(i)
            if high is None or drop * high[1] > high[0] * mass:
                best, high = i, (drop, mass)
        return best

    def max_query_rank(self):
        return Fraction(*self._rank(self.best_query()))
