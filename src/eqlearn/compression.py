"""Sample compression for finite concept classes.

A finite sample (a restriction of some member) is encoded by a tuple of
d = ldim(C) of its own points; d + 1 reconstruction functions suffice to
recover it.  Full runs of the point-picking loop yield tuples of distinct
entries decoded by membership constraints; early halts are encoded with
duplicate-element patterns that only the first two reconstruction functions
know how to parse.  No single decoder needs to disambiguate every tuple:
the round-trip guarantee is existential over the family.
"""

from __future__ import annotations

from .core import Concept, InvariantViolation, PartialConcept
from .dimensions import full_ldim_partial, full_side_label, ldim_subset


def is_exceptional(partial, concept_class, version=None):
    """Every specified point keeps the (sub)class at full dimension."""
    if version is None:
        version = concept_class.full_version
    d = ldim_subset(concept_class, version)
    for x in partial.domain():
        sub = concept_class.restrict_version(version, x, partial.label(x))
        if ldim_subset(concept_class, sub) != d:
            return False
    return True


def _zero_fill(partial):
    return Concept(partial.universe, partial.bits)


def compress(concept_class, sample):
    """Encode a finite sample as a tuple of ldim(C) of its own points.

    While the sample is not exceptional in the running subclass, pick a
    positive point whose constraint drops the dimension (lowest index), then
    a negative one; a full run of d picks emits the positive picks followed
    by the negative picks.  Early halts emit duplicate-padded encodings of
    the picks made so far; an immediate halt emits d copies of the least
    sample point.
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
        if is_exceptional(sample, concept_class, version):
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
    steps = len(positives) + len(negatives)
    if steps == d:
        return tuple(positives + negatives)
    if positives:
        first = positives[0]
        tup = positives + [first] + negatives
        tup += [first] * (d - len(tup))
        return tuple(tup)
    if negatives:
        first = negatives[0]
        tup = negatives + [first] * (d - len(negatives))
        return tuple(tup)
    least = min(sample.domain())
    return (least,) * d


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
    unparseable under this function's readings."""
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

    if all(x == tup[0] for x in tup):
        point = tup[0]
        full_side = full_side_label(concept_class, concept_class.full_version, d, point)
        if index == full_side:
            # overwritten decoder: the immediate-halt encoding
            return _zero_fill(full_ldim_partial(concept_class))
        if index == 1:
            return _constrained_extension(concept_class, [point], [])
        if index == 0:
            return _constrained_extension(concept_class, [], [point])
        return None

    if len(set(tup)) == d:
        # distinct entries: the first `index` are positive picks, the rest negative
        mask = sum(1 << x for x in tup)
        ones = sum(1 << x for x in tup[:index])
        return concept_class.first_member(mask, ones)

    if index == 1:
        return _parse_positive_padded(concept_class, tup)
    if index == 0:
        return _parse_negative_padded(concept_class, tup)
    return None


def _parse_positive_padded(concept_class, tup):
    """Parse (a-picks, a', d-picks, a', ..., a') with a' the first positive pick."""
    first = tup[0]
    second = None
    for j in range(1, len(tup)):
        if tup[j] == first:
            second = j
            break
    if second is None:
        return None
    ones = list(tup[:second])
    if len(set(ones)) != len(ones):
        return None
    rest = list(tup[second + 1 :])
    while rest and rest[-1] == first:
        rest.pop()
    zeros = rest
    if first in zeros or len(set(zeros)) != len(zeros):
        return None
    if set(ones) & set(zeros):
        return None
    return _constrained_extension(concept_class, ones, zeros)


def _parse_negative_padded(concept_class, tup):
    """Parse (d-picks, d', ..., d') with d' the first negative pick."""
    first = tup[0]
    k = len(tup)
    while k > 0 and tup[k - 1] == first:
        k -= 1
    if k == 0 or k == len(tup):
        return None
    zeros = list(tup[:k])
    if len(set(zeros)) != len(zeros):
        return None
    return _constrained_extension(concept_class, [], zeros)


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
        seen = set()
        universe = self.cls.universe
        full = (1 << universe.size) - 1
        for concept in self.cls.concepts:
            mask = full
            while mask:
                key = (mask, concept.bits & mask)
                if key not in seen:
                    seen.add(key)
                    yield PartialConcept(universe, mask, concept.bits & mask)
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
