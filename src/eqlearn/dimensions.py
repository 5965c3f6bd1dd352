"""Exact combinatorial dimensions of finite concept classes.

Littlestone dimension is computed by the splitting recursion with a memo
table keyed on the bitset of surviving concept indices (the table lives on
the ConceptClass and is shared with the learners and the game-tree oracle).
Consistency dimension, the consistency threshold and H_m read one array of
consistency levels over all 2^|X| totals, filled once per class.
Strong consistency dimension works on arrays with one cell per partial
labeling (3^|X| cells in base-3 order), updated in place by one numpy pass
per element.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import (
    AllTotals,
    Concept,
    ConceptClass,
    ExplicitHypotheses,
    PartialConcept,
    check_subclass,
)

# Exhaustive arrays are refused above these universe sizes rather than
# allocated.  Measured as peak-memory growth: the level scan takes about 20
# bytes per total (2^24 totals: about 340 MB), and the strong-consistency
# arrays about 2.4 bytes per partial labeling (3^17 cells: about 310 MB).
_MAX_SCAN_SIZE = 24
_MAX_PARTIALS_SIZE = 17


def _check_size(size, limit, what):
    if size > limit:
        raise ValueError(f"{what} is limited to |X| <= {limit}; this universe has {size} elements")


def _fits(frames):
    """Whether `frames` more nested calls fit under the recursion limit.

    Measured rather than estimated, since the frames below the caller, and
    the C calls among them, already use part of the limit."""
    try:
        return frames == 0 or _fits(frames - 1)
    except RecursionError:
        return False


def check_recursion_depth(concept_class, n_concepts, what):
    """Refuse a recursion that would not fit under Python's recursion limit.

    `what` constrains a new element and shrinks a version of `n_concepts`
    concepts at each step, so it goes at most depth = min(|X|, n_concepts -
    1) + 1 calls deep, and its deepest call may make one more (a
    comprehension or `max`); the check itself probes depth + 2 frames deep
    from the caller, which covers that."""
    depth = min(concept_class.universe.size, n_concepts - 1) + 1
    if not _fits(depth):
        raise ValueError(
            f"{what} would go {depth} calls deep on this class, "
            f"past Python's recursion limit of {sys.getrecursionlimit()}"
        )


# ---------------------------------------------------------------------------
# Littlestone dimension


def ldim_subset(concept_class, version):
    """Littlestone dimension of the subclass given by a concept-index bitset.

    Returns -1 for the empty bitset; used internally so that "element does
    not split" falls out of the max/min recursion naturally.  On a memo miss,
    a version whose recursion would not fit under Python's recursion limit
    is refused.
    """
    if version == 0:
        return -1
    cached = concept_class._ldim_memo.get(version)
    if cached is not None:
        return cached
    check_recursion_depth(concept_class, version.bit_count(), "the Littlestone recursion")
    return _ldim(concept_class, version)


def _ldim(concept_class, version):
    """The memoized splitting recursion behind `ldim_subset`."""
    memo = concept_class._ldim_memo
    cached = memo.get(version)
    if cached is not None:
        return cached
    if version & (version - 1) == 0:
        memo[version] = 0
        return 0
    best = 0
    for ones in concept_class.element_ones:
        s1 = version & ones
        if not s1:
            continue
        s0 = version & ~ones
        if not s0:
            continue
        cand = 1 + min(_ldim(concept_class, s0), _ldim(concept_class, s1))
        if cand > best:
            best = cand
    memo[version] = best
    return best


@dataclass
class MistakeTree:
    """Complete binary tree witnessing a Littlestone-dimension lower bound.

    Internal nodes carry an element index and two subtrees (low = branch
    label 0, high = branch label 1); leaves carry a concept index.
    """

    element: int | None = None
    concept: int | None = None
    low: "MistakeTree | None" = None
    high: "MistakeTree | None" = None

    @property
    def is_leaf(self):
        return self.element is None

    def height(self):
        if self.is_leaf:
            return 0
        return 1 + max(self.low.height(), self.high.height())

    def is_proper(self, concept_class):
        """Every leaf concept matches all (element, branch-label) pairs on its
        path and the tree is complete."""

        def walk(node, constraints):
            if node.is_leaf:
                if node.concept is None:
                    return False
                concept = concept_class.concepts[node.concept]
                return all(concept.label(x) == lab for x, lab in constraints)
            if node.low is None or node.high is None:
                return False
            return walk(node.low, constraints + [(node.element, 0)]) and walk(
                node.high, constraints + [(node.element, 1)]
            )

        return walk(self, [])


def _witness(concept_class, version, h):
    if h == 0:
        return MistakeTree(concept=concept_class.lowest_index(version))
    for x in range(concept_class.universe.size):
        ones = concept_class.element_ones[x]
        s1 = version & ones
        s0 = version & ~ones
        if not s1 or not s0:
            continue
        if min(ldim_subset(concept_class, s0), ldim_subset(concept_class, s1)) >= h - 1:
            return MistakeTree(
                element=x,
                low=_witness(concept_class, s0, h - 1),
                high=_witness(concept_class, s1, h - 1),
            )
    raise AssertionError("no splitting element found for witness tree")


def ldim(concept_class):
    """Littlestone dimension together with a proper mistake tree of that height."""
    d = ldim_subset(concept_class, concept_class.full_version)
    return d, _witness(concept_class, concept_class.full_version, d)


def full_ldim_partial(concept_class, version=None):
    """The partial labeling each of whose points keeps the subclass at full
    Littlestone dimension: label j where constraining to j preserves the
    dimension (at most one label can, for nonempty halves), unspecified where
    both labels drop it.  The only per-element dimension test: the learners'
    splitting element, `is_exceptional`, the picks in `compress` and
    `decompress` read their answers off this partial.  Memoized per version
    on the class; the partial is immutable, so callers share it."""
    if version is None:
        version = concept_class.full_version
    memo = concept_class._full_partial_memo
    full = memo.get(version)
    if full is not None:
        return full
    d = ldim_subset(concept_class, version)
    mask = bits = 0
    for x, ones in enumerate(concept_class.element_ones):
        if ldim_subset(concept_class, version & ones) == d:
            mask |= 1 << x
            bits |= 1 << x
        elif ldim_subset(concept_class, version & ~ones) == d:
            mask |= 1 << x
    full = memo[version] = PartialConcept(concept_class.universe, mask, bits)
    return full


# ---------------------------------------------------------------------------
# VC dimension


def vc_dim(concept_class):
    """Size of the largest shattered subset of the universe (exhaustive scan)."""
    n = concept_class.universe.size
    member_bits = concept_class.member_bits()
    best = 0
    for k in range(1, n + 1):
        if len(concept_class) < (1 << k):
            break
        for subset in combinations(range(n), k):
            mask = sum(1 << x for x in subset)
            if len({bits & mask for bits in member_bits}) == 1 << k:
                best = k
                break
        else:
            break
    return best


# ---------------------------------------------------------------------------
# consistency dimension (one scan over totals per class)


def _hypothesis_bits(hypotheses):
    return np.array(hypotheses.enumerate_bits(), dtype=np.int64)


def consistency_levels(concept_class):
    """Per total (indexed by its bits): the size of its smallest restriction
    with no extension in the class, and |X|+1 for members.

    Filled once per class, one restriction size at a time, until only members
    survive: for each subset of that size, the members' restrictions to it
    are marked in a boolean table, and every surviving total whose
    restriction is unmarked gets the size.
    """
    levels = concept_class._consistency_levels
    if levels is None:
        size = concept_class.universe.size
        _check_size(size, _MAX_SCAN_SIZE, "the scan over all 2^|X| totals")
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
        levels.flags.writeable = False
        concept_class._consistency_levels = levels
    return levels


def m_consistent_totals(concept_class, m):
    """All totals (as bitmasks) m-consistent with the class, ascending."""
    n = min(m, concept_class.universe.size)
    return [int(v) for v in np.flatnonzero(consistency_levels(concept_class) > n)]


def consistency_dim(concept_class, hypotheses):
    """Least n such that every total n-consistent with the class lies in H:
    the largest level of a total outside H, and at least 1."""
    check_subclass(concept_class, hypotheses)
    if isinstance(hypotheses, AllTotals):
        return 1
    levels = consistency_levels(concept_class)
    outside = np.ones(levels.size, dtype=bool)
    outside[_hypothesis_bits(hypotheses)] = False
    return int(levels.max(where=outside, initial=1))


def consistency_threshold(concept_class):
    """Least n at which n-consistency of totals already implies membership
    (the finite reading of finite consistency)."""
    return consistency_dim(concept_class, ExplicitHypotheses(concept_class))


# ---------------------------------------------------------------------------
# strong consistency dimension (per-element passes over all partials)

_INF = np.iinfo(np.int8).max


def _extendable(bits, size):
    """Per partial labeling, in base-3 cell order (digit i of a cell is 0
    when element i is unspecified and 1 + its label otherwise): whether one
    of the totals `bits` extends it."""
    place = np.zeros(1 << size, dtype=np.int64)  # place[mask] = sum of 3^i over i in mask
    for i in range(size):
        place[1 << i : 2 << i] = place[: 1 << i] + 3**i
    out = np.zeros(3**size, dtype=bool)
    out[place[-1] + place[bits]] = True
    for i in range(size):
        cells = out.reshape(3 ** (size - 1 - i), 3, 3**i)
        cells[:, 0] |= cells[:, 1] | cells[:, 2]
    return out


def _smallest_unextendable(concept_class):
    """Per partial labeling (base-3 cells as in `_extendable`): the size of
    its smallest restriction with no extension in the class, or `_INF` when
    the class extends it."""
    size = concept_class.universe.size
    _check_size(size, _MAX_PARTIALS_SIZE, "the array over all 3^|X| partial labelings")
    smallest = np.zeros(3**size, dtype=np.int8)
    for i in range(size):
        smallest.reshape(3 ** (size - 1 - i), 3, 3**i)[:, 1:] += 1
    member = np.array(concept_class.member_bits(), dtype=np.int64)
    np.copyto(smallest, _INF, where=_extendable(member, size))
    for i in range(size):
        cells = smallest.reshape(3 ** (size - 1 - i), 3, 3**i)
        np.minimum(cells[:, 1:], cells[:, :1], out=cells[:, 1:])
    return smallest


def strong_consistency_dim(concept_class, hypotheses):
    """Least n such that every partial n-consistent with the class has a total
    extension in H.

    One int8 array holds a cell per partial labeling (3^|X| cells, base-3
    order). Each cell starts at the partial's size, or `_INF` when the class
    extends it; one pass per element then lowers every cell that specifies
    the element to the cell that leaves it unspecified, so each cell ends at
    the size of its smallest restriction with no extension in the class.
    The answer is the largest such size over the partials H does not extend
    (`_extendable`), and at least 1.
    """
    check_subclass(concept_class, hypotheses)
    if isinstance(hypotheses, AllTotals):
        return 1
    size = concept_class.universe.size
    smallest = _smallest_unextendable(concept_class)
    outside = _extendable(_hypothesis_bits(hypotheses), size)
    np.logical_not(outside, out=outside)
    worst = int(smallest.max(where=outside, initial=1))
    if worst == _INF:
        raise AssertionError("partial consistent with the class but unextendable in a superclass")
    return worst


# ---------------------------------------------------------------------------
# H_m construction and the summary report


def hypothesis_hm(concept_class, m):
    """The minimal hypothesis class with consistency dimension at most m: every
    total m-consistent with the class, ordered by (label of element 0, label
    of element 1, ...), so `find_extension` returns the least extension in
    that order."""
    if m < 1:
        raise ValueError("m must be positive")
    universe = concept_class.universe
    members = sorted(
        m_consistent_totals(concept_class, m),
        key=lambda bits: format(bits, f"0{universe.size}b")[::-1],
    )
    return ExplicitHypotheses(ConceptClass(universe, [Concept(universe, b) for b in members]))


def enumerate_hypotheses(hypotheses):
    """Materialize a hypothesis class as an explicit ConceptClass."""
    universe = hypotheses.universe
    return ConceptClass(
        universe, [Concept(universe, b) for b in sorted(set(hypotheses.enumerate_bits()))]
    )


@dataclass
class DimensionReport:
    ldim: int
    vcdim: int
    threshold: int
    cdim: int | None = None
    scdim: int | None = None


def dimension_report(concept_class, hypotheses=None, strong=False):
    report = DimensionReport(
        ldim=ldim_subset(concept_class, concept_class.full_version),
        vcdim=vc_dim(concept_class),
        threshold=consistency_threshold(concept_class),
    )
    if hypotheses is not None:
        report.cdim = consistency_dim(concept_class, hypotheses)
        if strong:
            report.scdim = strong_consistency_dim(concept_class, hypotheses)
    return report
