"""Sample compression for finite concept classes.

A finite sample (a restriction of some member) is encoded by a tuple of
d = ldim(C) of its own points; d + 1 reconstruction functions suffice to
recover it.  Every tuple has one layout: k <= d distinct picks, positives
first, padded with d - k copies of the first pick.  Reconstruction function
i reads the first i picks as positive and the other k - i as negative.  No
single decoder needs to disambiguate every tuple: the round-trip guarantee
is existential over the family.  Few distinct tuples occur, so the
exhaustive check decodes each one once with all d + 1 functions.

The exhaustive check decides whole cubes of domains at once.  For a member
c, each step of the encoder reads only which points of one set G (the
points that drop the running subclass's dimension under c's labels) the
domain holds, so one walk per member that branches on the pick partitions
the nonempty domains into cubes {must <= mask <= full - avoid}, all of whose
samples of c encode to the same tuple.  Agreeing with a decoded total only
gets easier as the domain shrinks, so a cube is tested at its largest
domain, and only a failing cube tests its domains one by one.
"""

from __future__ import annotations

from .core import Concept, PartialConcept
from .dimensions import full_ldim_partial, ldim_subset


def is_exceptional(partial, concept_class, version=None):
    """Every specified point keeps the (sub)class at full dimension."""
    return partial.is_restriction_of(full_ldim_partial(concept_class, version))


def _zero_fill(partial):
    return Concept(partial.universe, partial.bits)


def compress(concept_class, sample):
    """Encode a finite sample as a tuple of ldim(C) of its own points.

    While some sample point's constraint drops the dimension of the running
    subclass, pick the lowest such positive point, or else the lowest such
    negative one.  Emit the k <= d picks, positives first, then d - k
    copies of the first pick; an immediate halt emits d copies of the least
    sample point.  Picks are distinct (a picked point is constant on the
    running subclass, so it never drops the dimension again), and after an
    early halt the sample is a restriction of the subclass's full-dimension
    partial.
    """
    if concept_class.first_member(sample.mask, sample.bits) is None:
        raise ValueError("sample is not a restriction of any member of the class")
    d = ldim_subset(concept_class, concept_class.full_version)
    if d == 0:
        return ()
    mask, bits = sample.mask, sample.bits
    if mask == 0:
        raise ValueError("cannot encode an empty-domain sample when ldim >= 1")
    element_ones = concept_class.element_ones
    version = concept_class.full_version
    positives = []
    negatives = []
    for _ in range(d):
        full = full_ldim_partial(concept_class, version)
        # a sample point drops the dimension when `full` leaves it
        # unspecified or labels it otherwise
        drops = mask & ~(full.mask & ~(full.bits ^ bits))
        if not drops:
            break
        picks = drops & bits
        if picks:
            x = (picks & -picks).bit_length() - 1
            positives.append(x)
            version &= element_ones[x]
        else:
            x = (drops & -drops).bit_length() - 1
            negatives.append(x)
            version &= ~element_ones[x]
    tup = positives + negatives or [(mask & -mask).bit_length() - 1]
    return tuple(tup + tup[:1] * (d - len(tup)))


def _constrained_extension(concept_class, ones, zeros):
    """Zero-filled extension of the exceptional partial of the constrained
    subclass, or None when the constraints are unsatisfiable."""
    version = concept_class.full_version
    for x in ones:
        version = concept_class.restrict_version(version, x, 1)
    for x in zeros:
        version = concept_class.restrict_version(version, x, 0)
    if version == 0:
        return None
    return _zero_fill(full_ldim_partial(concept_class, version))


def decompress(concept_class, index, tup):
    """Apply reconstruction function `index` to a tuple; returns a total
    labeling (not necessarily a class member) or None when the tuple is
    unparseable under this function's readings.

    The tuple holds k = d + 1 - (copies of its first entry) distinct picks
    followed by the d - k copies; function i reads the first i picks as
    positive and the rest as negative, and returns the member they pin when
    k = d, else the zero-filled full-dimension partial of the subclass they
    cut out.  On the all-equal tuple (x, ..., x), function full.label(x)
    instead returns the zero-filled full-dimension partial of the whole
    class (the immediate halt); a one-pick encoding of x is never read by
    it, since a pick's label is one that drops the dimension.
    """
    d = ldim_subset(concept_class, concept_class.full_version)
    if not (0 <= index <= d):
        raise ValueError(f"reconstruction index {index} out of range 0..{d}")
    if len(tup) != d:
        raise ValueError(f"tuple length {len(tup)} differs from ldim {d}")
    size = concept_class.universe.size
    for x in tup:
        if not (0 <= x < size):
            raise ValueError(f"tuple entry {x} is not an element index")
    if d == 0:
        return concept_class.concepts[0]

    first = tup[0]
    k = d + 1 - tup.count(first)
    if k == 1:
        full = full_ldim_partial(concept_class)
        if index == full.label(first):
            # overwritten decoder: the immediate-halt encoding
            return _zero_fill(full)
    if index > k or tup[k:] != tup[:1] * (d - k) or len(set(tup[:k])) != k:
        return None
    if k == d:
        mask = sum(1 << x for x in tup)
        ones = sum(1 << x for x in tup[:index])
        return concept_class.first_member(mask, ones)
    return _constrained_extension(concept_class, tup[:index], tup[index:k])


class CompressionScheme:
    """The paired encoder and reconstruction family for one class."""

    def __init__(self, concept_class):
        self.cls = concept_class
        self.dimension = ldim_subset(concept_class, concept_class.full_version)

    @property
    def reconstruction_count(self):
        return self.dimension + 1


def sample_count(concept_class):
    """The number of samples (the sample space of the round-trip theorem):
    over every nonempty domain, the number of distinct restrictions of
    members to it.

    One pass over the elements.  A block is a set of members that agree on
    the domain's points so far, kept as the set of its distinct column tails
    (each member's labels from the current element on), with a weight: the
    number of domain prefixes that leave it.  The next element either stays
    out of the domain (the block carries on) or joins it (the block splits
    by its label there).  A block of one tail never splits again, so it
    counts once for each of the 2^rest choices of the remaining elements.
    """
    n = concept_class.universe.size
    count = 0
    blocks = {frozenset(concept_class.member_bits()): 1}
    for x in range(n):
        after = {}
        for tails, weight in blocks.items():
            if len(tails) == 1:
                count += weight << (n - x)
                continue
            ones = frozenset(t >> 1 for t in tails if t & 1)
            zeros = frozenset(t >> 1 for t in tails if not t & 1)
            for block in (frozenset(t >> 1 for t in tails), ones, zeros):
                if block:
                    after[block] = after.get(block, 0) + weight
        blocks = after
    return count + sum(blocks.values()) - 1  # less the empty domain


def _cubes(concept_class, d, c):
    """The encoder's walk for every domain of member c's samples at once:
    yields (tuple, must, avoid) per cube of nonempty domains
    {must <= mask <= full - avoid}, whose samples of c all encode to tuple.

    At version v with full-dimension partial f, the drop set of c's sample
    on mask is mask & g with g = ~f.mask | (f.bits ^ c), so the pick (the
    lowest point of mask & g & c, else the lowest of mask & g) and the halt
    depend only on which points of g the domain holds.  A picked point is
    constant on the running subclass, so it is never in a later g, and
    must never meets avoid: every cube holds a real sample.
    """
    full = (1 << concept_class.universe.size) - 1
    element_ones = concept_class.element_ones
    stack = [(concept_class.full_version, (), (), 0, 0)]
    while stack:
        version, positives, negatives, must, avoid = stack.pop()
        if len(positives) + len(negatives) == d:
            yield positives + negatives, must, avoid
            continue
        f = full_ldim_partial(concept_class, version)
        g = full & ~(f.mask & ~(f.bits ^ c))
        # the lowest positive drop point of the domain is x
        rest = g & c & ~avoid
        while rest:
            bit = rest & -rest
            rest ^= bit
            x = bit.bit_length() - 1
            below = avoid | (g & c & (bit - 1))
            stack.append((version & element_ones[x], positives + (x,), negatives, must | bit, below))
        # no positive drop point; the lowest negative one is x
        avoid |= g & c
        rest = g & ~c & ~avoid
        while rest:
            bit = rest & -rest
            rest ^= bit
            x = bit.bit_length() - 1
            below = avoid | (g & ~c & (bit - 1))
            stack.append((version & ~element_ones[x], positives, negatives + (x,), must | bit, below))
        # no drop point: the walk halts
        avoid |= g
        tup = positives + negatives
        if tup:
            yield tup + tup[:1] * (d - len(tup)), must, avoid
            continue
        # an immediate halt encodes the domain's lowest point
        rest = full & ~avoid
        while rest:
            bit = rest & -rest
            rest ^= bit
            yield ((bit.bit_length() - 1,) * d, bit, avoid | (bit - 1))


def check_roundtrip(concept_class):
    """Exhaustive round-trip check; returns (`sample_count`, failing
    samples).  The failures come in descending mask order, and within a
    mask in the class order of the first member with that restriction.

    Each member walks its cubes of domains (`_cubes`).  A cube passes when
    some total of its tuple agrees with the member on the cube's largest
    domain, since it then agrees on every smaller one.  Only a failing cube
    tests its domains one by one.  A sample shared by several members is
    found by each of them, so failures are kept once, under the first
    member with that restriction.  Each tuple is decoded on its first cube.
    """
    d = ldim_subset(concept_class, concept_class.full_version)
    full = (1 << concept_class.universe.size) - 1
    decoded = {}  # tuple -> the bits of its decoders' non-None totals
    failed = {}  # (mask, bits) -> the index of the first member with them
    for index, c in enumerate(concept_class.member_bits()):
        for tup, must, avoid in _cubes(concept_class, d, c):
            totals = decoded.get(tup)
            if totals is None:
                reads = (decompress(concept_class, i, tup) for i in range(d + 1))
                totals = decoded[tup] = [t.bits for t in reads if t is not None]
            top = full & ~avoid
            if any(not (t ^ c) & top for t in totals):
                continue
            free = top & ~must
            sub = free
            while True:
                mask = must | sub
                if mask and not any(not (t ^ c) & mask for t in totals):
                    failed.setdefault((mask, c & mask), index)
                if not sub:
                    break
                sub = (sub - 1) & free
    universe = concept_class.universe
    order = sorted(failed, key=lambda key: (-key[0], failed[key]))
    return sample_count(concept_class), [PartialConcept(universe, m, b) for m, b in order]
