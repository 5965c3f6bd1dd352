"""Exact combinatorial dimensions of finite concept classes.

Littlestone dimension is computed by the splitting recursion with a memo
table keyed on the bitset of surviving concept indices (the table lives on
the ConceptClass and is shared with the learners and the game-tree oracle).
Consistency dimension scans all 2^|X| totals; strong consistency dimension
runs a dynamic program over all 3^|X| partials.  Both scans are vectorized
with numpy because they are pure array filtering.
"""

from __future__ import annotations

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
    is_n_consistent,
)

# ---------------------------------------------------------------------------
# Littlestone dimension


def ldim_subset(concept_class, version):
    """Littlestone dimension of the subclass given by a concept-index bitset.

    Returns -1 for the empty bitset; used internally so that "element does
    not split" falls out of the max/min recursion naturally.
    """
    if version == 0:
        return -1
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
        cand = 1 + min(ldim_subset(concept_class, s0), ldim_subset(concept_class, s1))
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
    both labels drop it."""
    if version is None:
        version = concept_class.full_version
    d = ldim_subset(concept_class, version)
    mask = bits = 0
    for x in range(concept_class.universe.size):
        label = full_side_label(concept_class, version, d, x)
        if label is not None:
            mask |= 1 << x
            bits |= label << x
    return PartialConcept(concept_class.universe, mask, bits)


def full_side_label(concept_class, version, d, x):
    """The label at `x` keeping the subclass `version` (of dimension `d`) at
    full dimension, or None when both labels drop it (label 1 checked first)."""
    ones = concept_class.element_ones[x]
    if ldim_subset(concept_class, version & ones) == d:
        return 1
    if ldim_subset(concept_class, version & ~ones) == d:
        return 0
    return None


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


# ---------------------------------------------------------------------------
# consistency dimension (scan over totals)


def _hypothesis_bits(hypotheses):
    return np.array(sorted(set(hypotheses.enumerate_bits())), dtype=np.int64)


def _filter_level(alive, masks, proj_sets):
    """Keep the totals whose projection on every mask is realized by the class."""
    for mask, proj in zip(masks, proj_sets):
        if alive.size == 0:
            break
        vals = alive & mask
        keep = np.isin(vals, proj)
        alive = alive[keep]
    return alive


def _level_masks(concept_class, n):
    size = concept_class.universe.size
    member = np.array(concept_class.member_bits(), dtype=np.int64)
    masks = []
    projs = []
    for subset in combinations(range(size), n):
        mask = 0
        for i in subset:
            mask |= 1 << i
        masks.append(mask)
        projs.append(np.unique(member & mask))
    return masks, projs


def consistent_total_levels(concept_class):
    """Yield (n, alive) for n = 1..|X| where alive holds the n-consistent totals."""
    size = concept_class.universe.size
    alive = np.arange(1 << size, dtype=np.int64)
    for n in range(1, size + 1):
        masks, projs = _level_masks(concept_class, n)
        alive = _filter_level(alive, masks, projs)
        yield n, alive


def m_consistent_totals(concept_class, m):
    """All totals (as bitmasks) m-consistent with the class, ascending."""
    size = concept_class.universe.size
    alive = np.arange(1 << size, dtype=np.int64)
    for n in range(1, min(m, size) + 1):
        masks, projs = _level_masks(concept_class, n)
        alive = _filter_level(alive, masks, projs)
    return [int(v) for v in alive]


def consistency_dim(concept_class, hypotheses):
    """Least n such that every total n-consistent with the class lies in H."""
    check_subclass(concept_class, hypotheses)
    if isinstance(hypotheses, AllTotals):
        return 1
    hyp = _hypothesis_bits(hypotheses)
    for n, alive in consistent_total_levels(concept_class):
        if np.isin(alive, hyp).all():
            return n
    raise AssertionError("unreachable: |X|-consistent totals are class members")


def consistency_threshold(concept_class):
    """Least n at which n-consistency of totals already implies membership
    (the finite reading of finite consistency)."""
    return consistency_dim(concept_class, ExplicitHypotheses(concept_class))


# ---------------------------------------------------------------------------
# strong consistency dimension (DP over all partials)


def _compress_onto(values, positions):
    """Project bitmask array onto the given bit positions, packed low-first."""
    out = np.zeros_like(values)
    for j, x in enumerate(positions):
        out |= ((values >> x) & 1) << j
    return out


_INF = np.int16(127)


def strong_consistency_dim(concept_class, hypotheses):
    """Least n such that every partial n-consistent with the class has a total
    extension in H.

    Runs a DP over all 3^|X| partials: for each inconsistent partial, the
    size of its smallest inconsistent restriction is the minimum over its
    one-point-removals (or its own size when every removal is consistent).
    The answer is the maximum of that quantity over partials with no
    extension in H.
    """
    check_subclass(concept_class, hypotheses)
    if isinstance(hypotheses, AllTotals):
        return 1
    size = concept_class.universe.size
    member = np.array(concept_class.member_bits(), dtype=np.int64)
    hyp = _hypothesis_bits(hypotheses)

    order = sorted(range(1 << size), key=lambda m: (bin(m).count("1"), m))
    tables = {}
    result = 1
    for mask in order:
        positions = [x for x in range(size) if (mask >> x) & 1]
        k = len(positions)
        width = 1 << k
        cproj = np.unique(_compress_onto(member, positions))
        consistent = np.zeros(width, dtype=bool)
        consistent[cproj] = True
        if k == 0:
            tables[0] = np.full(1, _INF, dtype=np.int16)
            continue
        best = np.full(width, _INF, dtype=np.int16)
        idx = np.arange(width)
        for p, x in enumerate(positions):
            child = tables[mask ^ (1 << x)]
            child_idx = ((idx >> (p + 1)) << p) | (idx & ((1 << p) - 1))
            np.minimum(best, child[child_idx], out=best)
        best = np.where((best == _INF) & ~consistent, np.int16(k), best)
        best[consistent] = _INF
        tables[mask] = best

        hproj = np.unique(_compress_onto(hyp, positions))
        extendable = np.zeros(width, dtype=bool)
        extendable[hproj] = True
        bad = ~extendable
        if bad.any():
            worst = int(best[bad].max())
            if worst >= int(_INF):
                raise AssertionError(
                    "partial consistent with the class but unextendable in a superclass"
                )
            if worst > result:
                result = worst
    return result


# ---------------------------------------------------------------------------
# H_m construction and the summary report


class MConsistentHypotheses:
    """All totals m-consistent with a base class (the minimal class H_m)."""

    kind = "m-consistent"

    def __init__(self, base, m):
        if m < 1:
            raise ValueError("m must be positive")
        self.base = base
        self.m = m
        self.universe = base.universe
        self._members = None

    def contains(self, concept):
        return is_n_consistent(concept.as_partial(), self.base, self.m)

    def enumerate_bits(self):
        if self._members is None:
            self._members = m_consistent_totals(self.base, self.m)
        return list(self._members)

    def find_extension(self, partial):
        """Depth-first completion, label 0 first, pruned by m-consistency."""
        if not is_n_consistent(partial, self.base, self.m):
            return None
        total = self._complete(partial)
        return Concept(self.universe, total.bits) if total is not None else None

    def _complete(self, partial):
        if partial.is_total():
            return partial
        i = next(
            k for k in range(self.universe.size) if not (partial.mask >> k) & 1
        )
        for label in (0, 1):
            cand = partial.with_point(i, label)
            if self._point_consistent(cand, i):
                done = self._complete(cand)
                if done is not None:
                    return done
        return None

    def _point_consistent(self, partial, point):
        """Check only the size-m restrictions that involve the new point."""
        dom = [i for i in partial.domain() if i != point]
        take = min(self.m - 1, len(dom))
        for rest in combinations(dom, take):
            ymask = 1 << point
            for i in rest:
                ymask |= 1 << i
            if self.base.first_member(ymask, partial.bits & ymask) is None:
                return False
        return True


def hypothesis_hm(concept_class, m):
    """The minimal hypothesis class with consistency dimension at most m."""
    return MConsistentHypotheses(concept_class, m)


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
    d, _ = ldim(concept_class)
    report = DimensionReport(
        ldim=d,
        vcdim=vc_dim(concept_class),
        threshold=consistency_threshold(concept_class),
    )
    if hypotheses is not None:
        report.cdim = consistency_dim(concept_class, hypotheses)
        if strong:
            report.scdim = strong_consistency_dim(concept_class, hypotheses)
    return report
