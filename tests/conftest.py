"""Shared fixtures, independent oracles, and instance generators.

The oracles here deliberately avoid the library's fast paths: the
Littlestone oracle searches for explicit proper trees, the Littlestone memo
oracle is the splitting recursion with no pruning, the Littlestone
certificate checker justifies each entry of the class's tables from its
sides' entries alone, the VC oracle packs each
member's pattern on a subset bit by bit, the dimension oracles scan with a
definitional consistency predicate that tests every restriction against
every concept of the version, the DFA oracles run each automaton string by
string, the game oracles are a plain unmemoized recursion and a memoized one
that tries every hypothesis and element at every version, the
splitting-element, exceptional-partial and compression oracles test each
point's constraint with its own dimension call, the round-trip oracle
decodes every sample afresh, the thicket edge-weight oracle sums the drop
point by point within the pair's symmetric difference, the weighted-pick
oracle inverts the cumulative Fractions at u / 2^64, the Monte-Carlo
oracle plays every trial as a full session of learner and random-teacher
objects, the
deficient-cycle oracle tries every tuple of distinct nodes, the 3^|X|
array oracles make one in-place numpy pass per element, the consistency
level oracle scans every subset of X by size over all 2^|X| totals, and
the c^d learner oracle builds a tree of sub-learner objects at every split.
They exist so the optimized implementations are checked against a second,
slower route.
"""

import sys
import traceback
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import strategies as st

from eqlearn import dimensions, fixtures
from eqlearn.automata import Dfa, bounded_strings
from eqlearn.core import (
    Concept,
    ConceptClass,
    InvariantViolation,
    PartialConcept,
    Universe,
)
from eqlearn.dimensions import consistency_dim, full_ldim_partial, ldim_subset
from eqlearn.learners import (
    Learner,
    ThicketMaxMinLearner,
    _majority_total,
    _split_or_total,
    _unextendable_restriction,
    _VersionLearner,
    run_session,
)
from eqlearn.rng import SplitMix64, mix64
from eqlearn.teachers import EqQuery, RandomTeacher, YesAnswer


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


def ldim_memo_oracle(cls, version, memo):
    """Littlestone dimension of a nonempty version by the unpruned splitting
    recursion: both sides of every splitting element, memoized in `memo`."""
    cached = memo.get(version)
    if cached is not None:
        return cached
    if version & (version - 1) == 0:
        memo[version] = 0
        return 0
    best = 0
    for ones in cls.element_ones:
        s1 = version & ones
        if not s1:
            continue
        s0 = version & ~ones
        if not s0:
            continue
        cand = 1 + min(ldim_memo_oracle(cls, s0, memo), ldim_memo_oracle(cls, s1, memo))
        if cand > best:
            best = cand
    memo[version] = best
    return best


def check_ldim_certificate(cls, d):
    """Check that the class's Littlestone memo proves ldim(cls) = d.

    The memo must hold the exact entry (d, d) for the whole class, and every
    entry (lo, hi) must follow from its sides' entries, which makes the
    table a proof by induction on the version's size:
    - a lower bound k >= 2 needs one splitting element whose sides both
      have lower bounds >= k - 1 (a nonempty version has 0, and one of two
      concepts has 1);
    - an upper bound k below floor(log2 |v|) needs, for every splitting
      element, a side with an upper bound <= k - 1, where floor(log2 |side|)
      counts as one.
    Fails on the first entry that does not follow."""
    memo = cls._ldim_memo
    assert memo.get(cls.full_version) == (d, d)

    def lower(version):
        return memo.get(version, (min(1, version.bit_count() - 1),))[0]

    def upper(version):
        return memo.get(version, (0, version.bit_count().bit_length() - 1))[1]

    for version, (lo, hi) in memo.items():
        n = version.bit_count()
        assert n and 0 <= lo <= hi, (version, lo, hi)
        splits = [
            (version & ones, version & ~ones)
            for ones in cls.element_ones
            if version & ones and version & ~ones
        ]
        if lo >= 2:
            assert any(min(lower(s1), lower(s0)) >= lo - 1 for s1, s0 in splits), (version, lo)
        else:
            assert lo <= n - 1, (version, lo)
        if hi < n.bit_length() - 1:
            assert all(min(upper(s1), upper(s0)) <= hi - 1 for s1, s0 in splits), (version, hi)


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


def unextendable_restriction_oracle(
    concept_class, mask, bits, max_size, version=None, min_size=1
):
    """`core.smallest_unextendable_restriction` by its definition: the
    subsets of the domain in `combinations` order, each tested against every
    concept of the version in turn."""
    if version is None:
        version = concept_class.full_version
    members = [c.bits for c in concept_class.concepts]
    dom = [x for x in range(concept_class.universe.size) if (mask >> x) & 1]
    for k in range(min_size, min(max_size, len(dom)) + 1):
        for subset in combinations(dom, k):
            ymask = 0
            for x in subset:
                ymask |= 1 << x
            if not any(
                (version >> i) & 1 and (c & ymask) == (bits & ymask)
                for i, c in enumerate(members)
            ):
                return subset
    return None


def n_consistent_oracle(partial, cls, n):
    """Every restriction of min(n, domain size) points of the partial has an
    extension in the class."""
    k = min(n, partial.size)
    return unextendable_restriction_oracle(cls, partial.mask, partial.bits, k, min_size=k) is None


def cdim_oracle(cls, hyp):
    """Definition-level scan: least n making every n-consistent total a member of H."""
    for n in range(1, cls.universe.size + 1):
        ok = True
        for total in all_totals(cls.universe):
            if n_consistent_oracle(total.as_partial(), cls, n) and not hyp.contains_bits(total.bits):
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
            if n_consistent_oracle(partial, cls, n) and hyp.first_member(partial.mask, partial.bits) is None:
                ok = False
                break
        if ok:
            return n
    raise AssertionError("unreachable")


def extendable_oracle(bits, size):
    """`dimensions._extendable` as one in-place numpy pass per element over a
    `(3^(size-1-i), 3, 3^i)` view: the unspecified digit ORs in its two
    labels."""
    import numpy as np

    place = np.zeros(1 << size, dtype=np.int64)  # place[mask] = sum of 3^i over i in mask
    for i in range(size):
        place[1 << i : 2 << i] = place[: 1 << i] + 3**i
    out = np.zeros(3**size, dtype=bool)
    out[place[-1] + place[bits]] = True
    for i in range(size):
        cells = out.reshape(3 ** (size - 1 - i), 3, 3**i)
        cells[:, 0] |= cells[:, 1] | cells[:, 2]
    return out


def smallest_unextendable_oracle(concept_class):
    """`dimensions._smallest_unextendable` as in-place numpy passes per
    element: one adding 1 to the specified digits for the size, one lowering
    the specified digits to the unspecified one."""
    import numpy as np

    size = concept_class.universe.size
    smallest = np.zeros(3**size, dtype=np.int8)
    for i in range(size):
        smallest.reshape(3 ** (size - 1 - i), 3, 3**i)[:, 1:] += 1
    member = np.array(concept_class.member_bits(), dtype=np.int64)
    np.copyto(smallest, dimensions._INF, where=extendable_oracle(member, size))
    for i in range(size):
        cells = smallest.reshape(3 ** (size - 1 - i), 3, 3**i)
        np.minimum(cells[:, 1:], cells[:, :1], out=cells[:, 1:])
    return smallest


def consistency_levels_oracle(concept_class):
    """Per total (indexed by its bits): the size of its smallest restriction
    with no extension in the class, and |X|+1 for members, as an int8 array,
    one restriction size at a time until only members survive: for each
    subset of that size, the members' restrictions to it are marked in a
    boolean table, and every surviving total whose restriction is unmarked
    gets the size."""
    size = concept_class.universe.size
    dimensions._check_size(size, dimensions._MAX_SCAN_SIZE, "the scan over all 2^|X| totals")
    import numpy as np

    levels = np.full(1 << size, size + 1, dtype=np.int8)
    member = np.array(concept_class.member_bits(), dtype=np.int64)
    alive = np.arange(1 << size, dtype=np.int64)
    seen = np.zeros(1 << size, dtype=bool)
    for k in range(1, size + 1):
        if alive.size == member.size:
            break
        for subset in combinations(range(size), k):
            mask = sum(1 << x for x in subset)
            marks = member & mask
            seen[marks] = True
            keep = seen[alive & mask]
            seen[marks] = False
            levels[alive[~keep]] = k
            alive = alive[keep]
    return levels


def lc_reference(cls, hyp, allow_mq):
    """Plain unmemoized minimax recursion (small instances only)."""
    hyp_bits = sorted(set(hyp.member_bits()))
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
    hyp_bits = sorted(set(hyp.member_bits()))
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


def samples(concept_class):
    """Every sample of the round-trip theorem (a distinct restriction of a
    member to a nonempty domain), once each: masks descending from the full
    domain, then the class order of the first member with that restriction.
    `check_roundtrip` reports its failures in this order."""
    universe = concept_class.universe
    for mask in range((1 << universe.size) - 1, 0, -1):
        for bits in dict.fromkeys(c.bits & mask for c in concept_class.concepts):
            yield PartialConcept(universe, mask, bits)


def roundtrip_failures_oracle(concept_class, decode):
    """The exhaustive round trip with no decode cache: every sample of
    `samples`, encoded by `compress_oracle` and read back by
    `decode(concept_class, i, tup)` for every i in 0..d.  Returns (sample
    count, the failing samples in `samples` order)."""
    d = ldim_subset(concept_class, concept_class.full_version)
    count = 0
    failures = []
    for sample in samples(concept_class):
        count += 1
        tup = compress_oracle(concept_class, sample)
        totals = [decode(concept_class, i, tup) for i in range(d + 1)]
        if not any(t is not None and sample.extended_by(t) for t in totals):
            failures.append(sample)
    return count, failures


def dfa_accepts(dfa, string):
    """Run the automaton on the string symbol by symbol from state 0."""
    state = 0
    for ch in string:
        state = dfa.transitions[state][int(ch)]
    return state in dfa.accepting


def dfa_language_oracle(dfa, m):
    """The bitset of the strings of length <= m that the automaton accepts,
    each run on its own."""
    return sum(1 << i for i, s in enumerate(bounded_strings(m)) if dfa_accepts(dfa, s))


def enumerate_dfas(n):
    """All DFAs with at most n states, lexicographic by (state count,
    transition table, accepting-set bitmask)."""
    for k in range(1, n + 1):
        for table in product(range(k), repeat=2 * k):
            transitions = [(table[2 * s], table[2 * s + 1]) for s in range(k)]
            for acc_bits in range(1 << k):
                accepting = [s for s in range(k) if (acc_bits >> s) & 1]
                yield Dfa(k, transitions, accepting)


def edge_weight_oracle(cls, mu, version, a, b):
    """The thicket weight a -> b by its defining sum: over the points where
    concepts a and b differ, the mu-weighted drop in the version's
    Littlestone dimension when b's label is revealed, divided by their mass."""
    ca, cb = cls.concepts[a], cls.concepts[b]
    d = ldim_subset(cls, version)
    delta = [x for x in range(cls.universe.size) if ca.label(x) != cb.label(x)]
    drop = sum(
        mu.weights[x]
        * (d - ldim_subset(cls, cls.restrict_version(version, x, cb.label(x))))
        for x in delta
    )
    return drop / sum(mu.weights[x] for x in delta)


def choose_weighted_oracle(u, items, weights):
    """Pick an item with probability proportional to its exact weight: the
    rational inversion the generator's `choose_weighted` used, with the
    64-bit draw u passed in instead of drawn."""
    if len(items) != len(weights) or not items:
        raise ValueError("items and weights must be nonempty and aligned")
    total = sum((Fraction(w) for w in weights), Fraction(0))
    if total <= 0:
        raise ValueError("total weight must be positive")
    r = Fraction(u, 1 << 64) * total
    acc = Fraction(0)
    for item, w in zip(items, weights):
        acc += w
        if acc > r:
            return item
    return items[-1]


def trial_counts_oracle(cls, mu, trials, seed):
    """The Monte-Carlo counts by whole sessions: trial t runs a fresh max-min
    learner against a random teacher with target t % |C| and seed
    mix64(seed, t), and counts the queries before the one that identifies
    the target."""
    counts = []
    for t in range(trials):
        teacher = RandomTeacher(cls, t % len(cls), mu, mix64(seed, t))
        learner = ThicketMaxMinLearner(cls, mu)
        transcript = run_session(learner, teacher, len(cls) + 1)
        if not transcript.success:
            raise InvariantViolation("max-min learner failed within |C| queries")
        counts.append(transcript.eq_count - 1)
    return counts


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
    return cls, hyp_cls


def random_class_only(seed, max_x=7, max_c=10):
    rng = SplitMix64(seed)
    nx = 2 + rng.below(max_x - 1)
    nc = min(2 + rng.below(max_c - 1), 1 << nx)
    return fixtures.random_class(nx, nc, rng.next_u64())


def indicator_blocks(k):
    """k disjoint copies of POW(2), each with its own indicator element listed
    before its two free elements: 4k concepts over 3k elements.  A recursion
    that computed the exact dimension of both sides of each split would
    enter the larger side past each block, k + 2 calls deep."""
    universe = Universe([f"{e}{b}" for b in range(k) for e in "iab"])
    return ConceptClass(
        universe,
        [Concept(universe, (1 | free << 1) << 3 * b) for b in range(k) for free in range(4)],
    )


def ldim_nesting(cls):
    """The Littlestone dimension of `cls` and the deepest nesting of
    `dimensions._at_least` calls that computing it from an empty memo
    reached."""
    inner = dimensions._at_least
    depth = deepest = 0

    def counting(concept_class, version, k):
        nonlocal depth, deepest
        depth += 1
        deepest = max(deepest, depth)
        try:
            return inner(concept_class, version, k)
        finally:
            depth -= 1

    cls._ldim_memo = {}
    dimensions._at_least = counting
    try:
        d = ldim_subset(cls, cls.full_version)
    finally:
        dimensions._at_least = inner
    return d, deepest


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


# ---------------------------------------------------------------------------
# the c^d learner as a tree of learner objects


class ListComposeLearner(Learner):
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


class TreeCdimEqLearner(_VersionLearner):
    """The c^d recursion with a new learner object for every part of a
    split, composed by `ListComposeLearner`; moves and answers pass down the
    `_sub` chain, and the root's version stops narrowing at its first
    split."""

    def __init__(self, concept_class, hypotheses, _consistency=None, _version=None):
        super().__init__(concept_class)
        if _version is not None:
            self.version = _version
        self.hyp = hypotheses
        self.c = (
            _consistency
            if _consistency is not None
            else consistency_dim(concept_class, hypotheses)
        )
        d = ldim_subset(concept_class, self.version)
        self.certified_budget = d + 1 if self.c <= 2 else self.c**d
        self._sub = None

    @property
    def exhausted(self):
        if self._sub is not None:
            return self._sub.exhausted
        return self.version == 0

    def next_move(self):
        if self._sub is not None:
            return self._sub.next_move()
        version = self.version
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
            versions = [self.cls.restrict_version(version, x, label) for label in (0, 1)]
        elif self.hyp.contains_bits(total.bits):
            return EqQuery(total)
        else:
            points = _unextendable_restriction(self.cls, version, total.bits, self.c)
            versions = [
                self.cls.restrict_version(version, x, 1 - total.label(x)) for x in points
            ]
        subs = [
            TreeCdimEqLearner(self.cls, self.hyp, _consistency=self.c, _version=v)
            for v in versions
        ]
        self._sub = ListComposeLearner([(sub, sub.certified_budget) for sub in subs])
        return self._sub.next_move()

    def observe(self, response):
        if self._sub is None:
            super().observe(response)
            return
        if isinstance(response, YesAnswer):
            self.done = True
        self._sub.observe(response)
