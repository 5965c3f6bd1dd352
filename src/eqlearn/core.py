"""Ground data model: universes, concepts, partial concepts, concept classes.

Concepts are total 0/1 labelings of a finite ordered universe and are stored
as bitmasks (bit i = label of element i).  Partial concepts carry a second
bitmask marking which elements are specified.  Everything here is immutable
after construction, so all operations are pure and safe to share.
"""

from __future__ import annotations

import math
from fractions import Fraction


class ClassFormatError(ValueError):
    """A class, distribution, partial-concept, or automaton text is malformed."""


class InvariantViolation(RuntimeError):
    """An internal guarantee was broken (incoherent teacher, bound breach)."""


class Universe:
    """Ordered finite ground set; element indices are the canonical ids."""

    __slots__ = ("elements", "size", "_index")

    def __init__(self, elements):
        elements = tuple(elements)
        if not elements:
            raise ClassFormatError("universe must contain at least one element")
        index = {}
        for i, name in enumerate(elements):
            if not name:
                raise ClassFormatError("element names must be nonempty")
            if name in index:
                raise ClassFormatError(f"duplicate element name {name!r}")
            index[name] = i
        self.elements = elements
        self.size = len(elements)
        self._index = index

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ClassFormatError(f"unknown element {name!r}") from None

    def name(self, i):
        return self.elements[i]

    def __len__(self):
        return self.size

    def __eq__(self, other):
        return isinstance(other, Universe) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"Universe({list(self.elements)!r})"


class Concept:
    """A total 0/1 labeling of a universe, stored as a bitmask."""

    __slots__ = ("universe", "bits")

    def __init__(self, universe, bits):
        if bits < 0 or bits >> universe.size:
            raise ValueError("concept bits out of range for universe")
        self.universe = universe
        self.bits = bits

    def label(self, i):
        return (self.bits >> i) & 1

    def bitstring(self):
        return format(self.bits, f"0{self.universe.size}b")[::-1]

    @classmethod
    def from_bitstring(cls, universe, text):
        if len(text) != universe.size:
            raise ClassFormatError(
                f"bitstring {text!r} has length {len(text)}, expected {universe.size}"
            )
        bits = 0
        for i, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << i
            elif ch != "0":
                raise ClassFormatError(f"bad character {ch!r} in bitstring {text!r}")
        return cls(universe, bits)

    def as_partial(self):
        full = (1 << self.universe.size) - 1
        return PartialConcept(self.universe, full, self.bits)

    def __eq__(self, other):
        return (
            isinstance(other, Concept)
            and self.bits == other.bits
            and self.universe.elements == other.universe.elements
        )

    def __hash__(self):
        return hash((self.universe.elements, self.bits))

    def __repr__(self):
        return f"Concept({self.bitstring()})"


class PartialConcept:
    """A partial 0/1 labeling: `mask` marks specified elements, `bits` their labels.

    `bits` is always a submask of `mask` (unspecified positions carry 0 bits).
    """

    __slots__ = ("universe", "mask", "bits")

    def __init__(self, universe, mask, bits):
        if mask < 0 or mask >> universe.size:
            raise ValueError("domain mask out of range for universe")
        if bits & ~mask:
            raise ValueError("labels set outside the specified domain")
        self.universe = universe
        self.mask = mask
        self.bits = bits

    @classmethod
    def empty(cls, universe):
        return cls(universe, 0, 0)

    @property
    def size(self):
        return self.mask.bit_count()

    def domain(self):
        return tuple(i for i in range(self.universe.size) if (self.mask >> i) & 1)

    def label(self, i):
        if (self.mask >> i) & 1:
            return (self.bits >> i) & 1
        return None

    def restrict(self, indices):
        """Restriction to a subset of the specified domain."""
        ymask = 0
        for i in indices:
            ymask |= 1 << i
        if ymask & ~self.mask:
            raise ValueError("restriction set is not contained in the domain")
        return PartialConcept(self.universe, ymask, self.bits & ymask)

    def extended_by(self, concept):
        """True when the total `concept` agrees with this partial on its domain."""
        return (concept.bits & self.mask) == self.bits

    def is_restriction_of(self, other):
        return (self.mask & ~other.mask) == 0 and (other.bits & self.mask) == self.bits

    def literal(self):
        out = []
        for i in range(self.universe.size):
            lab = self.label(i)
            out.append("*" if lab is None else str(lab))
        return "".join(out)

    def __eq__(self, other):
        return (
            isinstance(other, PartialConcept)
            and self.mask == other.mask
            and self.bits == other.bits
            and self.universe.elements == other.universe.elements
        )

    def __hash__(self):
        return hash((self.universe.elements, self.mask, self.bits))

    def __repr__(self):
        return f"PartialConcept({self.literal()})"


def parse_partial(universe, text):
    """Parse a {0,1,*} literal into a PartialConcept."""
    if len(text) != universe.size:
        raise ClassFormatError(
            f"partial literal {text!r} has length {len(text)}, expected {universe.size}"
        )
    mask = bits = 0
    for i, ch in enumerate(text):
        if ch == "*":
            continue
        if ch == "1":
            bits |= 1 << i
        elif ch != "0":
            raise ClassFormatError(f"bad character {ch!r} in partial literal")
        mask |= 1 << i
    return PartialConcept(universe, mask, bits)


class ConceptClass:
    """An ordered collection of distinct concepts over one universe.

    The list order is the canonical tie-break order.  The instance carries a
    Littlestone-dimension memo table shared by every algorithm that walks
    subclasses of this class (keyed by the bitset of surviving concept
    indices), holding the bounds (lo, hi) that the threshold search has
    proved, exact when lo == hi (see `dimensions._at_least`), the
    full-dimension partial of each version asked for (see
    `dimensions.full_ldim_partial`; every nonempty version in it has an
    exact entry in the Littlestone memo, so it never outgrows that table), the
    3^|X| strong-consistency array once it has been built (see
    `dimensions._smallest_unextendable`) and the consistency levels of all
    totals gathered from that array, filled only by
    `dimensions._consistency_levels` on their first read from a class that
    holds it (a class without the array keeps no levels: its consistency
    answers come from a search).  Both arrays are read-only.  The
    per-element label columns `element_ones` are built on first read, so a
    hypothesis class, which is only asked `contains_bits`, `member_bits` and
    `first_member`, never builds them.  All of this lasts as long as the
    caller holds the class: every command holds the class it parsed, and
    `dfa` the class of its `dfa_class_summary`.
    """

    def __init__(self, universe, concepts):
        concepts = tuple(concepts)
        if not concepts:
            raise ClassFormatError("concept class must be nonempty")
        seen = {}
        for k, c in enumerate(concepts):
            if c.universe is not universe and c.universe != universe:
                raise ValueError("all concepts must share the class universe")
            if c.bits in seen:
                raise ClassFormatError(
                    f"duplicate concept {c.bitstring()!r} (positions {seen[c.bits]} and {k})"
                )
            seen[c.bits] = k
        self.universe = universe
        self.concepts = concepts
        self.bits_index = seen
        self.full_version = (1 << len(concepts)) - 1
        self._element_ones = None
        self._ldim_memo = {}
        self._full_partial_memo = {}
        self._smallest_unextendable = None
        self._consistency_levels = None

    @property
    def element_ones(self):
        """Per element: the bitset of concept indices labeling it 1, read off
        the columns of the bit matrix (rows: concepts, last first; columns:
        elements, last first).  Built on first read into an attribute that
        `__init__` sets.  Not a `functools.cached_property`: it stores through
        the instance `__dict__`, and once that is read, CPython 3.11 loads
        every attribute of the instance about twice as slowly."""
        ones = self._element_ones
        if ones is None:
            rows = [format(c.bits, f"0{self.universe.size}b") for c in reversed(self.concepts)]
            ones = self._element_ones = tuple(int("".join(col), 2) for col in zip(*rows))[::-1]
        return ones

    def __len__(self):
        return len(self.concepts)

    def __iter__(self):
        return iter(self.concepts)

    def member_bits(self):
        return [c.bits for c in self.concepts]

    def contains_bits(self, bits):
        return bits in self.bits_index

    def restrict_version(self, version, element, label):
        """Surviving-concept bitset after constraining one element's label."""
        ones = self.element_ones[element]
        return version & (ones if label else ~ones)

    def version_indices(self, version):
        return [k for k in range(len(self.concepts)) if (version >> k) & 1]

    def lowest_index(self, version):
        """Index of the lowest-index concept in a nonempty version."""
        return (version & -version).bit_length() - 1

    def first_member(self, mask, bits):
        """First concept in class order that agrees with the labels `bits` on
        the elements in `mask`, or None."""
        for c in self.concepts:
            if (c.bits & mask) == bits:
                return c
        return None

    def __repr__(self):
        return f"ConceptClass(|X|={self.universe.size}, |C|={len(self.concepts)})"


def parse_class(text):
    """Parse the class file format: an `elements:` header, then one bitstring per line.

    Lines starting with `#` and blank lines are ignored.
    """
    universe = None
    concepts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if universe is None:
            if not line.startswith("elements:"):
                raise ClassFormatError(
                    f"line {lineno}: expected 'elements:' header, got {line!r}"
                )
            names = line[len("elements:"):].split()
            universe = Universe(names)
            continue
        concepts.append(Concept.from_bitstring(universe, line))
    if universe is None:
        raise ClassFormatError("missing 'elements:' header")
    return ConceptClass(universe, concepts)


def format_class(concept_class):
    lines = ["elements: " + " ".join(concept_class.universe.elements)]
    lines.extend(c.bitstring() for c in concept_class.concepts)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# consistency predicates


def _hits(member, ones, t, points, version, budget, memo):
    """Whether at most `budget` of the points in the bitset `points`, labelled
    as in the total t, AND the concepts of `version` down to nothing: whether
    they hit the disagreement set of every concept in it.  Branches on the
    points where the version's lowest concept disagrees with t, with `memo`
    keyed on (version, budget) for this t and these points.

    One loop, so any budget runs in one frame: the open question is
    (version, budget) with `apart` its points not yet tried, and `stack`
    holds the questions it was opened from, as (version, budget, points
    left).  A branch that empties the version, or one that leaves budget 0,
    is answered in place."""
    if not version:
        return budget >= 0
    if budget <= 0:
        return False
    hit = memo.get((version, budget))
    if hit is not None:
        return hit
    stack = []
    apart = (member[(version & -version).bit_length() - 1] ^ t) & points
    while True:
        while apart:
            x = (apart & -apart).bit_length() - 1
            apart &= apart - 1
            rest = version & ones[x] if (t >> x) & 1 else version & ~ones[x]
            if not rest:
                hit = True
                break
            if budget > 1:
                hit = memo.get((rest, budget - 1))
                if hit is None:
                    stack.append((version, budget, apart))
                    version, budget = rest, budget - 1
                    apart = (member[(rest & -rest).bit_length() - 1] ^ t) & points
                elif hit:
                    break
        else:
            hit = False
        memo[version, budget] = hit
        while hit and stack:
            version, budget, _ = stack.pop()
            memo[version, budget] = True
        if not stack:
            return hit
        version, budget, apart = stack.pop()


def _unextendable_size(concept_class, mask, bits, version, low, high):
    """The least k from `low` to min(`high`, |mask|) such that k points of
    `mask`, labelled as in `bits`, AND `version` down to nothing, or None.
    Past the least size, padding the set with more points keeps it
    unextendable, so "at most k" (`_hits`) is "exactly k".  One memo serves
    every budget.  A labeling that a concept of the version extends has no
    such points, and is answered first, by ANDing in every point of `mask`."""
    survivors, rest = version, mask
    while survivors and rest:
        x = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        survivors = concept_class.restrict_version(survivors, x, (bits >> x) & 1)
    if survivors:
        return None
    member = concept_class.member_bits()
    memo = {}
    for k in range(low, min(high, mask.bit_count()) + 1):
        if _hits(member, concept_class.element_ones, bits, mask, version, k, memo):
            return k
    return None


def smallest_unextendable_restriction(concept_class, mask, bits, max_size, version=None):
    """The smallest restriction (size ascending, then lexicographic) of at
    most `max_size` points of the labels `bits` on `mask` with no extension
    in the class (within `version` when given), as a tuple of points, or
    None.

    The size k comes from `_unextendable_size`.  The points are then chosen
    in ascending order: each is the least remaining point x such that the
    points chosen, x, and at most the rest of the k among the points above
    x AND the version down to nothing (`_hits`).  Padding up to k needs no
    check: a point below the next point of the first k-set leaves more
    points above it than that set does."""
    if version is None:
        version = concept_class.full_version
    k = _unextendable_size(concept_class, mask, bits, version, 1, max_size)
    if k is None:
        return None
    member = concept_class.member_bits()
    ones = concept_class.element_ones
    points = []
    rest = mask
    while len(points) < k:
        x = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        after = concept_class.restrict_version(version, x, (bits >> x) & 1)
        if _hits(member, ones, bits, rest, after, k - len(points) - 1, {}):
            points.append(x)
            version = after
    return tuple(points)


def is_n_consistent(partial, concept_class, n):
    """Every size-n restriction of `partial` has an extension in the class.

    When n exceeds the domain size the check degrades to "the partial itself
    has an extension" (which keeps consistency monotone in n).  A restriction
    with no extension keeps none when points are added to it, so the
    restrictions of exactly min(n, domain size) points decide.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    k = min(n, partial.size)
    version = concept_class.full_version
    return _unextendable_size(concept_class, partial.mask, partial.bits, version, k, k) is None


# ---------------------------------------------------------------------------
# hypothesis classes


class AllTotals:
    """The powerset hypothesis class: every total labeling is allowed.  It
    answers the hypothesis-class questions a `ConceptClass` answers, without
    listing its 2^|X| members until asked to."""

    def __init__(self, universe):
        self.universe = universe

    def contains_bits(self, bits):
        return 0 <= bits < 1 << self.universe.size

    def member_bits(self):
        return list(range(1 << self.universe.size))

    def first_member(self, mask, bits):
        # fill unspecified points with 0
        return Concept(self.universe, bits)


def check_subclass(concept_class, hypotheses):
    """The hypothesis class (a `ConceptClass` or `AllTotals`) shares the
    class universe and holds every concept."""
    if hypotheses.universe != concept_class.universe:
        raise ValueError("the hypothesis class universe differs from the class universe")
    for c in concept_class.concepts:
        if not hypotheses.contains_bits(c.bits):
            raise ValueError(
                f"concept {c.bitstring()} is outside the hypothesis class"
            )


# ---------------------------------------------------------------------------
# distributions


class Distribution:
    """Exact-rational positive weights on a universe, summing to 1; `units`
    holds them as integers over their least common denominator."""

    def __init__(self, universe, weights):
        weights = tuple(Fraction(w) for w in weights)
        if len(weights) != universe.size:
            raise ClassFormatError("distribution must weight every element")
        for w in weights:
            if w <= 0:
                raise ClassFormatError("distribution weights must be positive")
        den = math.lcm(*(w.denominator for w in weights))
        self.units = tuple(w.numerator * (den // w.denominator) for w in weights)
        if sum(self.units) != den:
            raise ClassFormatError("distribution weights must sum to exactly 1")
        self.universe = universe
        self.weights = weights

    @classmethod
    def uniform(cls, universe):
        n = universe.size
        return cls(universe, [Fraction(1, n)] * n)

    def pick(self, points, u):
        """The point of the nonempty bitset `points` where the 64-bit draw u
        falls: the first in ascending order whose cumulative weight exceeds
        u / 2^64 of the weight of `points` (equality is no crossing), tested
        exactly in units shifted left 64 bits."""
        if points <= 0 or points >> self.universe.size:
            raise ValueError("points must be a nonempty subset of the universe")
        xs = [x for x in range(points.bit_length()) if (points >> x) & 1]
        target = u * sum(self.units[x] for x in xs)
        acc = 0
        for x in xs:
            acc += self.units[x] << 64
            if acc > target:
                return x
        return x  # only a draw past 2^64 - 1 gets here: the last point


def parse_distribution(universe, text):
    """Parse `name p/q` lines; every element exactly once, exact sum 1."""
    weights = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ClassFormatError(f"line {lineno}: expected 'name p/q'")
        name, frac = parts
        i = universe.index(name)
        if i in weights:
            raise ClassFormatError(f"line {lineno}: duplicate weight for {name!r}")
        try:
            if "/" in frac:
                p, q = frac.split("/")
                w = Fraction(int(p), int(q))
            else:
                w = Fraction(int(frac))
        except (ValueError, ZeroDivisionError) as exc:
            raise ClassFormatError(f"line {lineno}: bad weight {frac!r}") from exc
        weights[i] = w
    missing = [universe.name(i) for i in range(universe.size) if i not in weights]
    if missing:
        raise ClassFormatError(f"distribution is missing elements: {missing}")
    return Distribution(universe, [weights[i] for i in range(universe.size)])
