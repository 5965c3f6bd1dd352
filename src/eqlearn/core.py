"""Ground data model: universes, concepts, partial concepts, concept classes.

Concepts are total 0/1 labelings of a finite ordered universe and are stored
as bitmasks (bit i = label of element i).  Partial concepts carry a second
bitmask marking which elements are specified.  Everything here is immutable
after construction, so all operations are pure and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


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
        return "".join(str(self.label(i)) for i in range(self.universe.size))

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
        return bin(self.mask).count("1")

    def domain(self):
        return tuple(i for i in range(self.universe.size) if (self.mask >> i) & 1)

    def label(self, i):
        if (self.mask >> i) & 1:
            return (self.bits >> i) & 1
        return None

    def is_total(self):
        return self.mask == (1 << self.universe.size) - 1

    def to_concept(self):
        if not self.is_total():
            raise ValueError("partial concept is not total")
        return Concept(self.universe, self.bits)

    def restrict(self, indices):
        """Restriction to a subset of the specified domain."""
        ymask = 0
        for i in indices:
            ymask |= 1 << i
        if ymask & ~self.mask:
            raise ValueError("restriction set is not contained in the domain")
        return PartialConcept(self.universe, ymask, self.bits & ymask)

    def with_point(self, i, label):
        bit = 1 << i
        bits = (self.bits | bit) if label else (self.bits & ~bit)
        return PartialConcept(self.universe, self.mask | bit, bits)

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
    indices), the full-dimension partial of each version asked for (see
    `dimensions.full_ldim_partial`; every nonempty version in it is also a
    key of the Littlestone memo, so it never outgrows that table) and the
    consistency levels of all totals once they have been scanned (see
    `dimensions.consistency_levels`).
    """

    def __init__(self, universe, concepts):
        concepts = tuple(concepts)
        if not concepts:
            raise ClassFormatError("concept class must be nonempty")
        seen = {}
        for k, c in enumerate(concepts):
            if c.universe != universe:
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
        # per element: bitset of concept indices labeling it 1, read off the
        # columns of the bit matrix (rows: concepts, last first; columns:
        # elements, last first)
        rows = [format(c.bits, f"0{universe.size}b") for c in reversed(concepts)]
        self.element_ones = tuple(int("".join(col), 2) for col in zip(*rows))[::-1]
        self._ldim_memo = {}
        self._full_partial_memo = {}
        self._consistency_levels = None

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

    def first_member(self, mask, bits, version=None):
        """First concept in class order (within `version` when given) that
        agrees with the labels `bits` on the elements in `mask`, or None."""
        for c in self.concepts:
            if (c.bits & mask) == bits and (
                version is None or (version >> self.bits_index[c.bits]) & 1
            ):
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


def is_n_consistent(partial, concept_class, n):
    """Every size-n restriction of `partial` has an extension in the class.

    When n exceeds the domain size the check degrades to "the partial itself
    has an extension" (which keeps consistency monotone in n).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    dom = partial.domain()
    if n >= len(dom):
        return concept_class.first_member(partial.mask, partial.bits) is not None
    for subset in combinations(dom, n):
        ymask = 0
        for i in subset:
            ymask |= 1 << i
        if concept_class.first_member(ymask, partial.bits & ymask) is None:
            return False
    return True


def consistent_total_extension(partial, concept_class):
    """Total extension of `partial` that stays consistent with the class.

    Extends one element at a time in universe order, preferring label 0
    whenever both labels keep an extension alive.  On a finite universe the
    result is a member of the class.  Returns None when no member extends
    `partial` at all.
    """
    if concept_class.universe != partial.universe:
        raise ValueError("partial and class universes differ")
    if concept_class.first_member(partial.mask, partial.bits) is None:
        return None
    current = partial
    for i in range(partial.universe.size):
        if current.label(i) is not None:
            continue
        candidate = current.with_point(i, 0)
        if concept_class.first_member(candidate.mask, candidate.bits) is None:
            candidate = current.with_point(i, 1)
        current = candidate
    return current.to_concept()


# ---------------------------------------------------------------------------
# hypothesis classes


class ExplicitHypotheses:
    """A hypothesis class given as an explicit concept class."""

    def __init__(self, concept_class):
        self.concept_class = concept_class
        self.universe = concept_class.universe

    def contains(self, concept):
        return self.concept_class.contains_bits(concept.bits)

    def enumerate_bits(self):
        return self.concept_class.member_bits()

    def find_extension(self, partial):
        """First member (in class order) extending the partial, or None."""
        return self.concept_class.first_member(partial.mask, partial.bits)


class AllTotals:
    """The powerset hypothesis class: every total labeling is allowed."""

    def __init__(self, universe):
        self.universe = universe

    def contains(self, concept):
        return concept.universe == self.universe

    def enumerate_bits(self):
        return list(range(1 << self.universe.size))

    def find_extension(self, partial):
        # fill unspecified points with 0
        return Concept(self.universe, partial.bits)


def check_subclass(concept_class, hypotheses):
    """Every concept must be a member of the hypothesis class."""
    for c in concept_class.concepts:
        if not hypotheses.contains(c):
            raise ValueError(
                f"concept {c.bitstring()} is outside the hypothesis class"
            )


# ---------------------------------------------------------------------------
# distributions


class Distribution:
    """Exact-rational positive weights on a universe, summing to 1."""

    def __init__(self, universe, weights):
        weights = tuple(Fraction(w) for w in weights)
        if len(weights) != universe.size:
            raise ClassFormatError("distribution must weight every element")
        for w in weights:
            if w <= 0:
                raise ClassFormatError("distribution weights must be positive")
        if sum(weights) != 1:
            raise ClassFormatError("distribution weights must sum to exactly 1")
        self.universe = universe
        self.weights = weights

    @classmethod
    def uniform(cls, universe):
        n = universe.size
        return cls(universe, [Fraction(1, n)] * n)

    def weight(self, i):
        return self.weights[i]

    def mass(self, indices):
        return sum((self.weights[i] for i in indices), Fraction(0))


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
