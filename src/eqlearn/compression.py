"""Sample compression for finite concept classes.

A finite sample (a restriction of some member) is encoded by a tuple of
d = ldim(C) of its own points; d + 1 reconstruction functions suffice to
recover it.  Every tuple has one layout: k <= d distinct picks, positives
first, padded with d - k copies of the first pick.  Reconstruction function
i reads the first i picks as positive and the other k - i as negative.  No
single decoder needs to disambiguate every tuple: the round-trip guarantee
is existential over the family.
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
    if sample.mask == 0:
        raise ValueError("cannot encode an empty-domain sample when ldim >= 1")
    version = concept_class.full_version
    positives = []
    negatives = []
    for _ in range(d):
        full = full_ldim_partial(concept_class, version)
        # a sample point drops the dimension when `full` leaves it
        # unspecified or labels it otherwise
        drops = sample.mask & ~(full.mask & ~(full.bits ^ sample.bits))
        picks = (drops & sample.bits) or drops
        if not picks:
            break
        x = (picks & -picks).bit_length() - 1
        label = (sample.bits >> x) & 1
        (positives if label else negatives).append(x)
        version = concept_class.restrict_version(version, x, label)
    tup = positives + negatives or [min(sample.domain())]
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

    def kappa(self, sample):
        return compress(self.cls, sample)

    def rho(self, index, tup):
        return decompress(self.cls, index, tup)

    def roundtrip_ok(self, sample):
        tup = self.kappa(sample)
        for i in range(self.reconstruction_count):
            total = self.rho(i, tup)
            if total is not None and sample.extended_by(total):
                return True
        return False

    def enumerate_samples(self):
        """All distinct nonempty-domain restrictions of members (the sample
        space of the round-trip theorem)."""
        universe = self.cls.universe
        member_bits = self.cls.member_bits()
        full = (1 << universe.size) - 1
        mask = full
        while mask:
            for bits in dict.fromkeys(b & mask for b in member_bits):
                yield PartialConcept(universe, mask, bits)
            mask = (mask - 1) & full


def check_roundtrip(concept_class):
    """Exhaustive round-trip check; returns (sample count, failing samples)."""
    scheme = CompressionScheme(concept_class)
    failures = []
    count = 0
    for sample in scheme.enumerate_samples():
        count += 1
        if not scheme.roundtrip_ok(sample):
            failures.append(sample)
    return count, failures
