"""Exact combinatorial dimensions of finite concept classes.

Littlestone dimension is computed by a threshold search: "is ldim(v) >= k?"
holds iff some element splits v into two sides that each answer yes at
k - 1 (see `_at_least`), and the exact value is raised one question at a
time (see `ldim_subset`).  One table on the ConceptClass, `_ldim_memo`,
keyed on the bitset of surviving concept indices, holds what is known: the
bounds (lo, hi) the questions have proved, exact when lo == hi, as it is
for every version whose dimension the learners, teachers, the compression
scheme, the thicket code and the full-dimension partials have read.
Consistency dimension, the consistency threshold and H_m are answered by a
depth-first search over prefixes of totals (`_totals_above`), which prunes a
prefix once k of its points AND the class to nothing, so it visits few
totals beyond those of level above k.  That test is the hitting-set search
`core._hits`, the one behind `core.smallest_unextendable_restriction` and
`is_n_consistent` too; a total's exact level is the least budget at which
it succeeds (`core._unextendable_size`).  Only H_m, which lists its totals,
is refused past 24 elements.  VC dimension is a depth-first search over
shattered sets (`vc_dim`).
Strong consistency dimension works on arrays with one cell per partial
labeling (3^|X| cells in base-3 order), updated by one numpy pass per
element, each over long contiguous runs (`_digit_passes`).  The class's
array of smallest unextendable restrictions is built at most once and kept
on the class; a total's level is its cell there, so a class that holds that
array (as `dims --strong` and the halving learner arrange) has its
consistency answers gathered from it, and the search never runs on it.
numpy is imported by the kernels that build and read these arrays, on first
use, so a command that builds none does not load it.
"""

from __future__ import annotations

from .core import (
    AllTotals,
    Concept,
    ConceptClass,
    PartialConcept,
    _hits,
    _unextendable_size,
    check_subclass,
)

# Exhaustive work is refused above these universe sizes rather than started.
# H_m may hold all 2^|X| totals (H_2 of a random 18x60 class holds all
# 262,144, listed in about 2 s), so listing it stops at 24; the threshold and
# cdim list no totals and take any size.
# `strong_consistency_dim` takes about 2.2 bytes per partial labeling,
# measured as peak-memory growth, the class's kept array included
# (tracemalloc peak at |X| = 14 on a class with no array yet: 2.00 with H
# the class, 2.14 with H_2; 3^17 cells: about 280 MB).
_MAX_SCAN_SIZE = 24
_MAX_PARTIALS_SIZE = 17


def _check_size(size, limit, what):
    if size > limit:
        raise ValueError(f"{what} is limited to |X| <= {limit}; this universe has {size} elements")


# ---------------------------------------------------------------------------
# Littlestone dimension


def ldim_subset(concept_class, version):
    """Littlestone dimension of the subclass given by a concept-index bitset.

    Returns -1 for the empty bitset, so that an empty side of a split never
    ties a nonempty one.  Unless the version's memo entry is exact, the
    dimension is raised from its lower bound (the entry's lo, else 1 when it
    holds two concepts) one threshold question (`_at_least`) at a time, and
    recorded as exact: (d, d).
    """
    if version == 0:
        return -1
    memo = concept_class._ldim_memo
    d, hi = memo.get(version) or (min(1, version & (version - 1)), None)
    if d != hi:
        while _at_least(concept_class, version, d + 1):
            d += 1
        memo[version] = (d, d)
    return d


def _at_least(concept_class, version, k):
    """Whether ldim(version) >= k, for a nonempty version.

    ldim(v) >= k iff some element splits v into two sides that each have
    ldim >= k - 1 (Littlestone 1988), so only yes/no questions at k - 1 are
    asked of the sides.  The answer is read off the version's memo entry
    (lo, hi), which starts at hi = floor(log2 |v|) and lo = 1 when v holds
    two concepts (some element splits them).  Otherwise each splitting
    element is tried, skipped when floor(log2 |small side|) < k - 1, with
    the smaller side asked first; the answer is recorded as lo = k or
    hi = k - 1.  Each nested call asks one less, so the nesting is at most
    ldim(v) + 2 <= floor(log2 |v|) + 2 calls.
    """
    memo = concept_class._ldim_memo
    n = version.bit_count()
    hi = n.bit_length() - 1
    lo, hi = memo.get(version) or (min(1, hi), hi)
    if k <= lo:
        return True
    if k > hi:
        return False
    for ones in concept_class.element_ones:
        s1 = version & ones
        if not s1:
            continue
        s0 = version ^ s1
        if not s0:
            continue
        n1 = s1.bit_count()
        small, large, m = (s1, s0, n1) if 2 * n1 <= n else (s0, s1, n - n1)
        if m.bit_length() < k:
            continue
        if _at_least(concept_class, small, k - 1) and _at_least(concept_class, large, k - 1):
            memo[version] = (k, hi)
            return True
    memo[version] = (lo, k - 1)
    return False


def ldim(concept_class):
    """Littlestone dimension of the class, an int."""
    return ldim_subset(concept_class, concept_class.full_version)


def full_ldim_partial(concept_class, version=None):
    """The partial labeling each of whose points keeps the subclass at full
    Littlestone dimension: label j where constraining to j preserves the
    dimension (at most one label can, for nonempty halves), unspecified where
    both labels drop it.  The learners' splitting element, `is_exceptional`
    and the picks of `compress` and `decompress` read their answers off this
    partial.  Memoized per version on the class; the partial is immutable,
    so callers share it."""
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
    """Size of the largest shattered subset of the universe.

    A depth-first search over shattered sets, each held as its 2^k patterns:
    the bitsets of the concepts that label its points in each of the 2^k
    ways.  A set is extended only by points above its largest, and the
    extension is shattered iff the point splits every pattern into two
    nonempty halves.  An extension to k + 1 points can lead past the best
    size found only if each of its patterns splits 2^(best - k) ways more,
    so it is kept only when every half holds at least that many concepts
    and enough points remain above it.  The best size may grow while a set
    waits on the stack, so the test is made again when it is taken off."""
    ones = concept_class.element_ones
    n = len(ones)
    best = 0
    stack = [((concept_class.full_version,), 0)]  # (patterns, least point to add)
    while stack:
        patterns, start = stack.pop()
        k = len(patterns).bit_length() - 1
        if min(p.bit_count() for p in patterns) < 2 << (best - k):
            continue
        for x in range(start, n):
            short = best - k  # points to add after x to pass best
            if x + short >= n:
                break
            need = 1 << short
            halves = []
            for p in patterns:
                p1 = p & ones[x]
                p0 = p ^ p1
                if p1.bit_count() < need or p0.bit_count() < need:
                    break
                halves += (p0, p1)
            else:
                best = max(best, k + 1)
                stack.append((halves, x + 1))
    return best


# ---------------------------------------------------------------------------
# consistency dimension (a search over prefixes of totals)
#
# A total's level is the size of its smallest restriction with no extension
# in the class, and |X|+1 for members: the least number of its points whose
# agreement bitsets AND the class to nothing, i.e. its teaching dimension in
# the class plus itself (Goldman & Kearns 1995).


def _hypothesis_bits(hypotheses):
    import numpy as np

    return np.array(hypotheses.member_bits(), dtype=np.int64)


def _totals_above(concept_class, k):
    """The totals whose level exceeds k, as bits, ordered by (label of element
    0, label of element 1, ...).

    A depth-first search over prefixes, element 0 first and label 0 first.
    A prefix of level > k extended by label y at x_j keeps level > k iff some
    concept agrees with the extension (no points can remove it), or no k - 1
    earlier points AND the concepts labelling x_j as y down to nothing
    (`_hits`).  At k <= 0 every total is listed."""
    size = concept_class.universe.size
    ones = concept_class.element_ones
    member = concept_class.member_bits()
    full = concept_class.full_version
    agreeing = [full] * (size + 1)
    tried = [0] * (size + 1)  # labels tried at each depth
    t = j = 0
    while j >= 0:
        if j == size:
            yield t
            j -= 1
            continue
        y = tried[j]
        if y == 2:
            j -= 1
            continue
        tried[j] = y + 1
        if y:
            t |= 1 << j
            side = ones[j]
        else:
            t &= ~(1 << j)
            side = full ^ ones[j]
        a = agreeing[j] & side
        if a or not _hits(member, ones, t, (1 << j) - 1, side, k - 1, {}):
            agreeing[j + 1] = a
            j += 1
            tried[j] = 0


def _consistency_levels(concept_class):
    """Per total (indexed by its bits): its level, gathered from the total
    cells of the class's 3^|X| array (`_smallest_unextendable`), which the
    class must hold.  Kept on the class, read-only."""
    levels = concept_class._consistency_levels
    if levels is None:
        size = concept_class.universe.size
        levels = concept_class._smallest_unextendable[_total_cells(size)]
        levels[levels == _INF] = size + 1
        levels.flags.writeable = False
        concept_class._consistency_levels = levels
    return levels


def m_consistent_totals(concept_class, m):
    """All totals (as bitmasks) m-consistent with the class, ordered by
    (label of element 0, label of element 1, ...): ascending in their bits
    read backwards.

    The search lists them in that order.  From the class's 3^|X| array the
    levels are read at bit-reversed indices, which puts them in that order
    too, so neither source is sorted."""
    size = concept_class.universe.size
    _check_size(size, _MAX_SCAN_SIZE, "the list of m-consistent totals (H_m)")
    n = min(m, size)
    if concept_class._smallest_unextendable is not None:
        reversed_bits = _subset_sums([1 << (size - 1 - i) for i in range(size)])
        levels = _consistency_levels(concept_class)
        return reversed_bits[levels[reversed_bits] > n].tolist()
    return list(_totals_above(concept_class, n))


def consistency_dim(concept_class, hypotheses):
    """Least n such that every total n-consistent with the class lies in H:
    the largest level of a total outside H, and at least 1.

    Read off the class's 3^|X| array when it holds one.  Otherwise k is
    raised from 1 by jumps, each to the exact level of the first total
    outside H whose level exceeds k, until no such total is left; each jump
    restarts the search, which then prunes more."""
    check_subclass(concept_class, hypotheses)
    if isinstance(hypotheses, AllTotals):
        return 1
    if concept_class._smallest_unextendable is not None:
        levels = _consistency_levels(concept_class).copy()
        levels[_hypothesis_bits(hypotheses)] = 0  # totals in H do not count
        return int(levels.max(initial=1))
    size = concept_class.universe.size
    full, version = (1 << size) - 1, concept_class.full_version
    k = 1
    while True:
        outside = (t for t in _totals_above(concept_class, k) if not hypotheses.contains_bits(t))
        t = next(outside, None)
        if t is None:
            return k
        k = _unextendable_size(concept_class, full, t, version, k + 1, size)


def consistency_threshold(concept_class):
    """Least n at which n-consistency of totals already implies membership
    (the finite reading of finite consistency)."""
    return consistency_dim(concept_class, concept_class)


# ---------------------------------------------------------------------------
# strong consistency dimension (per-element passes over all partials)

# the int8 maximum (the arrays' dtype), above every restriction size
_INF = 127
# rows of the (high digits, low digits) table `_digit_passes` transposes at once
_SLAB_ROWS = 243


def _digit_passes(flat, size, op):
    """Run `op` once per element over `flat`, a cell array in base-3 order
    (digit i of a cell is 0 when element i is unspecified and 1 + its label
    otherwise).  `op(cells)` updates a `(rest, 3, run)` view in place, whose
    middle axis is the element's digit; the passes of different elements
    commute, so they may run in any order.

    Seen as a table of rows (the high half of the digits) by columns (the
    low half), a high digit's pass runs in place over runs of at least one
    row.  A low digit's run would be only 3^i cells long, so the low digits
    run instead on a transposed copy of `_SLAB_ROWS` rows at a time, where
    a digit's run is 3^i times the slab's rows long."""
    import numpy as np

    low = size // 2
    for i in range(low, size):
        op(flat.reshape(3 ** (size - 1 - i), 3, 3**i))
    if low == 0:
        return
    rows = flat.reshape(-1, 3**low)
    buffer = np.empty(min(_SLAB_ROWS, len(rows)) * 3**low, dtype=flat.dtype)
    for start in range(0, len(rows), _SLAB_ROWS):
        slab = rows[start : start + _SLAB_ROWS]
        width = len(slab)
        columns = buffer[: width * 3**low].reshape(3**low, width)
        np.copyto(columns, slab.T)
        for i in range(low):
            op(columns.reshape(3 ** (low - 1 - i), 3, 3**i * width))
        np.copyto(slab, columns.T)


def _or_into_unspecified(cells):
    cells[:, 0] |= cells[:, 1]
    cells[:, 0] |= cells[:, 2]


def _min_into_specified(cells):
    import numpy as np

    np.minimum(cells[:, 1:], cells[:, :1], out=cells[:, 1:])


def _subset_sums(weights):
    """Per mask over len(weights) elements: the sum of weights[i] over the
    elements i in the mask, as int64."""
    import numpy as np

    sums = np.zeros(1 << len(weights), dtype=np.int64)
    for i, w in enumerate(weights):
        sums[1 << i : 2 << i] = sums[: 1 << i] + w
    return sums


def _total_cells(size):
    """Per total (indexed by its bits): its cell in base-3 order, every digit
    specified at 1 + its label."""
    place = _subset_sums([3**i for i in range(size)])
    place += place[-1]
    return place


def _extendable(bits, size):
    """Per partial labeling, in base-3 cell order (as in `_digit_passes`):
    whether one of the totals `bits` extends it."""
    import numpy as np

    out = np.zeros(3**size, dtype=bool)
    out[_total_cells(size)[bits]] = True
    _digit_passes(out, size, _or_into_unspecified)
    return out


def _smallest_unextendable(concept_class):
    """Per partial labeling (base-3 cells as in `_digit_passes`): the size of
    its smallest restriction with no extension in the class, or `_INF` when
    the class extends it.

    Each cell starts at the partial's size, and the class-extendable cells
    are raised to `_INF` by OR-ing in the class's extendability scaled to
    0 or `_INF`, so no masked write runs over the cells.  Built once per
    class and kept on it read-only."""
    smallest = concept_class._smallest_unextendable
    if smallest is not None:
        return smallest
    size = concept_class.universe.size
    _check_size(size, _MAX_PARTIALS_SIZE, "the array over all 3^|X| partial labelings")
    import numpy as np

    member = np.array(concept_class.member_bits(), dtype=np.int64)
    extendable = _extendable(member, size)
    # each partial's size: the cells with digit i specified are the cells
    # below 3^i, one larger, concatenated twice
    smallest = np.zeros(3**size, dtype=np.int8)
    for i in range(size):
        np.add(smallest[: 3**i], 1, out=smallest[3**i : 3 ** (i + 1)].reshape(2, 3**i))
    # sizes are at most 17 < 127 = 0b1111111 = _INF, so OR-ing in _INF sets
    # a cell to _INF, and OR-ing in 0 keeps it
    mark = extendable.view(np.int8)
    mark *= _INF
    smallest |= mark
    del extendable, mark  # freed before the min-closure allocates its slab buffer
    _digit_passes(smallest, size, _min_into_specified)
    smallest.flags.writeable = False
    concept_class._smallest_unextendable = smallest
    return smallest


def strong_consistency_dim(concept_class, hypotheses):
    """Least n such that every partial n-consistent with the class has a total
    extension in H.

    One int8 array holds a cell per partial labeling (3^|X| cells, base-3
    order). Each cell starts at the partial's size, or `_INF` when the class
    extends it; one pass per element then lowers every cell that specifies
    the element to the cell that leaves it unspecified, so each cell ends at
    the size of its smallest restriction with no extension in the class, and
    at `_INF` exactly where the class extends it.  The answer is the largest
    such size over the partials H does not extend, and at least 1.  H holds
    the class, so when it has no other total those are the cells below
    `_INF`, and the answer is one unmasked maximum over the cells shifted up
    by one.  Otherwise the cells no total of H extends (`_extendable`) are
    kept by multiplying H's extendability mask, negated, by the cells, and
    the answer is that product's maximum.  The array is the class's shared
    one, and is only read.
    """
    check_subclass(concept_class, hypotheses)
    if isinstance(hypotheses, AllTotals):
        return 1
    import numpy as np

    smallest = _smallest_unextendable(concept_class)
    if len(hypotheses) == len(concept_class):
        # in int8, _INF + 1 = 128 wraps to -128, below every size + 1, so
        # the class-extendable cells never give the maximum
        largest = int(np.add(smallest, 1, dtype=np.int8).max()) - 1
    else:
        unextended = _extendable(_hypothesis_bits(hypotheses), concept_class.universe.size)
        np.logical_not(unextended, out=unextended)
        # H extends every `_INF` cell, so each product is 0 or a size
        kept = unextended.view(np.int8)
        kept *= smallest
        largest = int(kept.max())
    return max(1, largest)


# ---------------------------------------------------------------------------
# H_m construction


def hypothesis_hm(concept_class, m):
    """The minimal hypothesis class with consistency dimension at most m: every
    total m-consistent with the class, as a `ConceptClass` in the order
    `m_consistent_totals` lists them, (label of element 0, label of element
    1, ...), so `first_member` returns the least extension in that order."""
    if m < 1:
        raise ValueError("m must be positive")
    universe = concept_class.universe
    members = m_consistent_totals(concept_class, m)
    return ConceptClass(universe, [Concept(universe, b) for b in members])
