"""Shared fixtures, independent oracles, and instance generators.

The oracles here deliberately avoid the library's fast paths: the Littlestone
oracle searches for explicit proper trees, the VC oracle packs each member's
pattern on a subset bit by bit, the dimension oracles scan with the
definitional consistency predicate from core, the game oracles are a
plain unmemoized recursion and a memoized one that tries every hypothesis
and element at every version, the splitting-element, exceptional-partial and
compression oracles test each point's constraint with its own dimension
call, and the deficient-cycle oracle tries every tuple of distinct nodes.
They exist so the optimized implementations are checked against a second,
slower route.
"""

import sys
import traceback
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import strategies as st

from eqlearn import fixtures
from eqlearn.core import (
    Concept,
    ConceptClass,
    ExplicitHypotheses,
    InvariantViolation,
    PartialConcept,
    Universe,
    is_n_consistent,
)
from eqlearn.dimensions import ldim_subset
from eqlearn.rng import SplitMix64


@st.composite
def concept_classes(draw, max_x=4, max_c=6):
    nx = draw(st.integers(2, max_x))
    bits = draw(
        st.sets(st.integers(0, (1 << nx) - 1), min_size=1, max_size=max_c)
    )
    universe = Universe([f"x{i}" for i in range(nx)])
    return ConceptClass(universe, [Concept(universe, b) for b in sorted(bits)])


@pytest.fixture(scope="session")
def sing4():
    return fixtures.singletons(4)


@pytest.fixture(scope="session")
def singe4():
    return fixtures.singletons_with_empty(4)


@pytest.fixture(scope="session")
def tree32():
    return fixtures.tree_class(3, 2)


@pytest.fixture(scope="session")
def five():
    return fixtures.five_class()


@pytest.fixture(scope="session")
def pow2():
    return fixtures.powerset_class(2)


@pytest.fixture(scope="session")
def pow3():
    return fixtures.powerset_class(3)


# ---------------------------------------------------------------------------
# independent oracles


def ldim_oracle(cls):
    """Largest h such that a proper mistake tree of height h exists."""

    def buildable(indices, h):
        if h == 0:
            return len(indices) >= 1
        for x in range(cls.universe.size):
            s1 = [k for k in indices if cls.concepts[k].label(x) == 1]
            s0 = [k for k in indices if cls.concepts[k].label(x) == 0]
            if s1 and s0 and buildable(s0, h - 1) and buildable(s1, h - 1):
                return True
        return False

    indices = list(range(len(cls)))
    h = 0
    while buildable(indices, h + 1):
        h += 1
    return h


def all_partials(universe):
    for labels in product((None, 0, 1), repeat=universe.size):
        mask = bits = 0
        for i, lab in enumerate(labels):
            if lab is None:
                continue
            mask |= 1 << i
            if lab:
                bits |= 1 << i
        yield PartialConcept(universe, mask, bits)


def all_totals(universe):
    for bits in range(1 << universe.size):
        yield Concept(universe, bits)


def vc_oracle(cls):
    """Largest k such that some k-subset of the universe is shattered, each
    member's pattern on the subset packed bit by bit."""
    n = cls.universe.size
    member_bits = cls.member_bits()
    best = 0
    for k in range(1, n + 1):
        if len(cls) < (1 << k):
            break
        found = False
        for subset in combinations(range(n), k):
            patterns = set()
            for bits in member_bits:
                p = 0
                for j, x in enumerate(subset):
                    p |= ((bits >> x) & 1) << j
                patterns.add(p)
                if len(patterns) == (1 << k):
                    break
            if len(patterns) == (1 << k):
                found = True
                break
        if not found:
            break
        best = k
    return best


def cdim_oracle(cls, hyp):
    """Definition-level scan: least n making every n-consistent total a member of H."""
    for n in range(1, cls.universe.size + 1):
        ok = True
        for total in all_totals(cls.universe):
            if is_n_consistent(total.as_partial(), cls, n) and not hyp.contains(total):
                ok = False
                break
        if ok:
            return n
    raise AssertionError("unreachable")


def scdim_oracle(cls, hyp):
    """Definition-level scan over all 3^|X| partials."""
    for n in range(1, cls.universe.size + 1):
        ok = True
        for partial in all_partials(cls.universe):
            if is_n_consistent(partial, cls, n) and hyp.find_extension(partial) is None:
                ok = False
                break
        if ok:
            return n
    raise AssertionError("unreachable")


def lc_reference(cls, hyp, allow_mq):
    """Plain unmemoized minimax recursion (small instances only)."""
    hyp_bits = sorted(set(hyp.enumerate_bits()))
    size = cls.universe.size

    def value(version):
        best = None
        for bits in hyp_bits:
            idx = cls.bits_index.get(bits)
            in_version = idx is not None and (version >> idx) & 1
            worst = 0
            useless = False
            any_cex = False
            for x in range(size):
                label = 1 - ((bits >> x) & 1)
                survivors = cls.restrict_version(version, x, label)
                if not survivors:
                    continue
                if survivors == version:
                    useless = True
                    break
                any_cex = True
                worst = max(worst, 1 + value(survivors))
            if useless:
                continue
            cost = worst if any_cex else 1
            if not any_cex and not in_version:
                continue
            if best is None or cost < best:
                best = cost
        if allow_mq:
            for x in range(size):
                s1 = cls.restrict_version(version, x, 1)
                s0 = cls.restrict_version(version, x, 0)
                if not s1 or not s0:
                    continue
                cost = 1 + max(value(s0), value(s1))
                if best is None or cost < best:
                    best = cost
        assert best is not None
        return best

    return value(cls.full_version)


def lc_memo_oracle(cls, hyp, allow_mq):
    """Memoized minimax recursion over every hypothesis and element at every
    version, with no cutoffs (mid-size instances)."""
    hyp_bits = sorted(set(hyp.enumerate_bits()))
    size = cls.universe.size
    memo = {}

    def value(version):
        cached = memo.get(version)
        if cached is not None:
            return cached
        best = None
        for bits in hyp_bits:
            idx = cls.bits_index.get(bits)
            in_version = idx is not None and (version >> idx) & 1
            worst = 0
            useless = False
            any_cex = False
            for x in range(size):
                label = 1 - ((bits >> x) & 1)
                survivors = cls.restrict_version(version, x, label)
                if not survivors:
                    continue
                if survivors == version:
                    useless = True
                    break
                any_cex = True
                sub = 1 + value(survivors)
                if sub > worst:
                    worst = sub
            if useless:
                continue
            if any_cex:
                cost = worst
            elif in_version:
                cost = 1  # the teacher is forced to answer yes
            else:
                raise AssertionError("hypothesis outside version with no counterexample")
            if best is None or cost < best:
                best = cost
        if allow_mq:
            for x in range(size):
                ones = cls.element_ones[x]
                s1 = version & ones
                s0 = version & ~ones
                if not s1 or not s0:
                    continue  # the adversary would answer the common label
                cost = 1 + max(value(s0), value(s1))
                if best is None or cost < best:
                    best = cost
        if best is None:
            raise AssertionError("no admissible learner move")
        memo[version] = best
        return best

    return value(cls.full_version)


def splitting_element_oracle(concept_class, version):
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


def is_exceptional_oracle(partial, concept_class, version=None):
    """Every specified point keeps the (sub)class at full dimension."""
    if version is None:
        version = concept_class.full_version
    d = ldim_subset(concept_class, version)
    for x in partial.domain():
        sub = concept_class.restrict_version(version, x, partial.label(x))
        if ldim_subset(concept_class, sub) != d:
            return False
    return True


def full_ldim_partial_oracle(concept_class, version):
    """The full-dimension partial by a per-point dimension test: each point
    takes the label whose constraint keeps ldim(version), if one does."""
    d = ldim_subset(concept_class, version)
    mask = bits = 0
    for x in range(concept_class.universe.size):
        for label in (0, 1):
            sub = concept_class.restrict_version(version, x, label)
            if ldim_subset(concept_class, sub) == d:
                mask |= 1 << x
                bits |= label << x
    return PartialConcept(concept_class.universe, mask, bits)


def compress_oracle(concept_class, sample):
    """The compression encoder with a per-point dimension test at every pick:
    while the sample is not exceptional in the running subclass, pick a
    positive point whose constraint drops the dimension (lowest index), then
    a negative one; then the same tuple layout as the library."""
    if concept_class.first_member(sample.mask, sample.bits) is None:
        raise ValueError("sample is not a restriction of any member of the class")
    d = ldim_subset(concept_class, concept_class.full_version)
    if d == 0:
        return ()
    if sample.mask == 0:
        raise ValueError("cannot encode an empty-domain sample when ldim >= 1")
    version = concept_class.full_version
    positives = []
    negatives = []
    for _ in range(d):
        if is_exceptional_oracle(sample, concept_class, version):
            break
        dim = ldim_subset(concept_class, version)
        picked = False
        for wanted, bucket in ((1, positives), (0, negatives)):
            for x in sample.domain():
                if sample.label(x) != wanted:
                    continue
                sub = concept_class.restrict_version(version, x, wanted)
                if ldim_subset(concept_class, sub) < dim:
                    bucket.append(x)
                    version = sub
                    picked = True
                    break
            if picked:
                break
        if not picked:
            raise InvariantViolation("non-exceptional sample with no dropping point")
    tup = positives + negatives or [min(sample.domain())]
    return tuple(tup + tup[:1] * (d - len(tup)))


def deficient_cycle_oracle(weight, n, max_len):
    """Exhaustive search over tuples of distinct nodes (lengths 2..max_len)
    for a cycle with all weights <= 1/2 and at least one strict; returns the
    first found or None."""
    half = Fraction(1, 2)
    for length in range(2, max_len + 1):
        for cycle in permutations(range(n), length):
            strict = False
            ok = True
            for k in range(length):
                w = weight(cycle[k], cycle[(k + 1) % length])
                if w > half:
                    ok = False
                    break
                if w < half:
                    strict = True
            if ok and strict:
                return list(cycle)
    return None


# ---------------------------------------------------------------------------
# seeded instance generators


def random_instance(seed, max_x=6, max_c=8, max_extra=4):
    """A (class, explicit hypothesis superclass) pair for the sandwich suites."""
    rng = SplitMix64(seed)
    nx = 2 + rng.below(max_x - 1)
    nc = min(2 + rng.below(max_c - 1), 1 << nx)
    cls = fixtures.random_class(nx, nc, rng.next_u64())
    extra = rng.below(max_extra + 1)
    hyp_bits = list(cls.bits_index)
    seen = set(hyp_bits)
    while extra > 0 and len(seen) < (1 << nx):
        bits = rng.below(1 << nx)
        if bits not in seen:
            seen.add(bits)
            hyp_bits.append(bits)
            extra -= 1
    hyp_cls = ConceptClass(
        cls.universe, [Concept(cls.universe, b) for b in hyp_bits]
    )
    return cls, ExplicitHypotheses(hyp_cls)


def random_class_only(seed, max_x=7, max_c=10):
    rng = SplitMix64(seed)
    nx = 2 + rng.below(max_x - 1)
    nc = min(2 + rng.below(max_c - 1), 1 << nx)
    return fixtures.random_class(nx, nc, rng.next_u64())


def steps_under_raising_limit(attempt, inner):
    """Call `attempt` under Python's recursion limit raised one step at a
    time from the current depth until it returns, and list what each step
    gave: "refused" (a ValueError naming the limit) and, last, "value".  A
    RecursionError may come only from the code before the recursion guard,
    never from inside the functions named in `inner`."""
    here = len(traceback.extract_stack())
    saved = sys.getrecursionlimit()
    seen = []
    try:
        for limit in range(here, here + 200):
            try:
                sys.setrecursionlimit(limit)
            except RecursionError:
                continue  # below the current depth
            try:
                attempt()
                seen.append("value")
                break
            except ValueError as exc:
                assert f"recursion limit of {limit}" in str(exc)
                seen.append("refused")
            except RecursionError as exc:
                sys.setrecursionlimit(saved)
                frames = {f.name for f in traceback.extract_tb(exc.__traceback__)}
                assert not frames & inner, limit
    finally:
        sys.setrecursionlimit(saved)
    return seen


# ---------------------------------------------------------------------------
# exhaustive adversary play-outs


def enumerate_playouts(learner_factory, cls, max_depth):
    """Completed-session lengths over every coherent teacher answer sequence,
    replaying the learner from scratch along each branch.  Handles both query
    types; a session completes when the teacher can answer yes."""
    from eqlearn.teachers import Counterexample, MqAnswer, MqQuery

    def consistent_version(prefix):
        v = cls.full_version
        for move, resp in prefix:
            if isinstance(resp, Counterexample):
                v = cls.restrict_version(v, resp.point, resp.label)
            elif isinstance(resp, MqAnswer):
                v = cls.restrict_version(v, move.point, resp.label)
        return v

    def replay(prefix):
        learner = learner_factory()
        for _, resp in prefix:
            learner.next_move()
            learner.observe(resp)
        return learner

    results = []

    def walk(prefix):
        learner = replay(prefix)
        if len(prefix) > max_depth:
            raise AssertionError("play-out exceeded the depth cap")
        move = learner.next_move()
        version = consistent_version(prefix)
        if isinstance(move, MqQuery):
            for label in (0, 1):
                if cls.restrict_version(version, move.point, label):
                    walk(prefix + [(move, MqAnswer(label))])
            return
        hyp = move.hypothesis
        options = []
        for x in range(cls.universe.size):
            label = 1 - hyp.label(x)
            if cls.restrict_version(version, x, label):
                options.append(Counterexample(x, label))
        idx = cls.bits_index.get(hyp.bits)
        can_yes = idx is not None and (version >> idx) & 1
        if can_yes:
            results.append(len(prefix) + 1)
        if not options and not can_yes:
            raise AssertionError("teacher has no coherent answer")
        for ce in options:
            walk(prefix + [(move, ce)])

    walk([])
    return results
