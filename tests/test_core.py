"""Data model: parsing, restriction, consistency predicates, hypothesis classes."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlearn import fixtures
from eqlearn.automata import parse_dfa
from eqlearn.core import (
    AllTotals,
    ClassFormatError,
    Concept,
    Distribution,
    PartialConcept,
    Universe,
    format_class,
    is_n_consistent,
    parse_class,
    parse_distribution,
    parse_partial,
    smallest_unextendable_restriction,
)
from eqlearn.dimensions import hypothesis_hm
from eqlearn.rng import SplitMix64, mix64

from conftest import (
    all_partials,
    choose_weighted_oracle,
    concept_classes,
    random_class_only,
    unextendable_restriction_oracle,
)


def test_parse_class_basic():
    cls = parse_class("elements: a b\n10\n01")
    assert cls.universe.elements == ("a", "b")
    assert [c.bitstring() for c in cls.concepts] == ["10", "01"]


@given(n=st.integers(1, 200), data=st.data())
@settings(max_examples=60, deadline=None)
def test_bitstring_lists_labels_in_element_order(n, data):
    universe = Universe([f"x{i}" for i in range(n)])
    concept = Concept(universe, data.draw(st.integers(0, (1 << n) - 1)))
    text = concept.bitstring()
    assert text == "".join(str(concept.label(i)) for i in range(n))
    assert Concept.from_bitstring(universe, text) == concept


def test_parse_class_comments_and_blanks():
    cls = parse_class("# fixture\nelements: a b\n\n10\n# mid\n01\n")
    assert len(cls) == 2


def test_parse_class_duplicate_concept():
    with pytest.raises(ClassFormatError, match="duplicate concept"):
        parse_class("elements: a b\n10\n10")


@pytest.mark.parametrize(
    "text,match",
    [
        ("10\n01", "header"),
        ("elements: a b\n101", "length"),
        ("elements:\n", "at least one element"),
        ("elements: a a\n10", "duplicate element"),
        ("elements: a b\n", "nonempty"),
        ("elements: a b\n1x", "bad character"),
        ("", "header"),
    ],
)
def test_parse_class_errors(text, match):
    with pytest.raises(ClassFormatError, match=match):
        parse_class(text)


def test_tree_fixture_counts():
    cls = fixtures.tree_class(3, 2)
    assert cls.universe.size == 3 + 9  # c + c^2
    assert len(cls) == 9  # c^d
    # file round trip
    again = parse_class(format_class(cls))
    assert again.universe == cls.universe
    assert [c.bits for c in again.concepts] == [c.bits for c in cls.concepts]


def test_restrict_examples():
    universe = Universe(["a", "b", "c"])
    total = parse_partial(universe, "101")
    r = total.restrict([0, 2])
    assert r.literal() == "1*1"
    assert total.restrict([]).literal() == "***"
    partial = parse_partial(universe, "10*")
    assert partial.restrict([1]).literal() == "*0*"


def test_restrict_outside_domain():
    universe = Universe(["a", "b", "c"])
    partial = parse_partial(universe, "10*")
    with pytest.raises(ValueError):
        partial.restrict([2])


def test_restrict_composition_exhaustive():
    universe = Universe(["a", "b", "c", "d"])
    partial = parse_partial(universe, "10*1")
    dom = partial.domain()
    for ymask in range(1 << len(dom)):
        y = [dom[i] for i in range(len(dom)) if (ymask >> i) & 1]
        for zmask in range(1 << len(y)):
            z = [y[i] for i in range(len(y)) if (zmask >> i) & 1]
            assert partial.restrict(y).restrict(z) == partial.restrict(z)


def test_is_n_consistent_sing4(sing4):
    allzero = parse_partial(sing4.universe, "0000")
    assert is_n_consistent(allzero, sing4, 3)
    assert not is_n_consistent(allzero, sing4, 4)
    for concept in sing4.concepts:
        for n in range(0, 7):
            assert is_n_consistent(concept.as_partial(), sing4, n)


@given(seed=st.integers(0, 2**32), n=st.integers(0, 8), data=st.data())
@settings(max_examples=60, deadline=None)
def test_n_consistency_monotone(seed, n, data):
    cls = random_class_only(seed, max_x=5, max_c=6)
    literal = data.draw(
        st.text(alphabet="01*", min_size=cls.universe.size, max_size=cls.universe.size)
    )
    partial = parse_partial(cls.universe, literal)
    n_prime = data.draw(st.integers(n, 9))
    if is_n_consistent(partial, cls, n_prime):
        assert is_n_consistent(partial, cls, n)


@given(cls=concept_classes(max_x=5, max_c=8), n=st.integers(0, 7), data=st.data())
@settings(max_examples=200, deadline=None)
def test_n_consistency_against_its_definition(cls, n, data):
    literal = data.draw(
        st.text(alphabet="01*", min_size=cls.universe.size, max_size=cls.universe.size)
    )
    partial = parse_partial(cls.universe, literal)
    dom = partial.domain()

    def extendable(restrictions):
        masks = [sum(1 << x for x in y) for y in restrictions]
        return all(
            any((c.bits & ymask) == (partial.bits & ymask) for c in cls.concepts)
            for ymask in masks
        )

    expected = extendable(combinations(dom, min(n, len(dom))))
    # by monotonicity the one size decides what every size up to n does
    every_size = extendable(y for k in range(1, n + 1) for y in combinations(dom, k))
    assert is_n_consistent(partial, cls, n) == expected == every_size, (literal, n)


@given(cls=concept_classes(max_x=7, max_c=12), data=st.data())
@settings(max_examples=300, deadline=None)
def test_unextendable_restriction_matches_its_definition(cls, data):
    n = cls.universe.size
    mask = data.draw(st.integers(0, (1 << n) - 1), label="mask")
    bits = data.draw(st.integers(0, (1 << n) - 1), label="labels") & mask
    version = data.draw(
        st.one_of(st.none(), st.integers(0, cls.full_version)), label="version"
    )
    # max_size = 0 leaves no sizes, so None
    max_size = data.draw(st.integers(0, n + 1), label="max_size")
    args = (cls, mask, bits, max_size, version)
    assert smallest_unextendable_restriction(*args) == unextendable_restriction_oracle(*args)


def test_unextendable_restriction_on_sing40():
    """The all-zero total on 40 points extends to a singleton on every
    restriction but the whole of it: the search finds the 40 points without
    trying the 2^40 smaller sets, and n-consistency at n = 20 without trying
    the C(40, 20) restrictions of that size."""
    cls = fixtures.singletons(40)
    full = (1 << 40) - 1
    assert smallest_unextendable_restriction(cls, full, 0, 40) == tuple(range(40))
    allzero = PartialConcept(cls.universe, full, 0)
    assert is_n_consistent(allzero, cls, 20)
    assert not is_n_consistent(allzero, cls, 40)


def test_total_full_consistency_is_membership(sing4):
    size = sing4.universe.size
    for bits in range(1 << size):
        total = Concept(sing4.universe, bits)
        assert is_n_consistent(total.as_partial(), sing4, size) == sing4.contains_bits(
            bits
        )


def test_consistent_total_extension_examples(sing4):
    # a single positive point pins the matching singleton
    one = parse_partial(sing4.universe, "**1*")
    assert sing4.first_member(one.mask, one.bits).bitstring() == "0010"
    # the empty partial is extended by every member; the first in class order
    # is the first singleton
    empty = PartialConcept.empty(sing4.universe)
    assert sing4.first_member(empty.mask, empty.bits).bitstring() == "1000"
    # two positive points are inconsistent with singletons
    two = parse_partial(sing4.universe, "11**")
    assert sing4.first_member(two.mask, two.bits) is None


def test_consistent_total_extension_iff_extendable():
    cls = random_class_only(9107, max_x=5, max_c=6)
    for partial in all_partials(cls.universe):
        result = cls.first_member(partial.mask, partial.bits)
        extendable = any(partial.extended_by(c) for c in cls.concepts)
        assert (result is not None) == extendable
        if result is not None:
            assert partial.extended_by(result)
            assert cls.contains_bits(result.bits)


@given(cls=concept_classes(max_x=6, max_c=10))
@settings(max_examples=60, deadline=None)
def test_element_ones_are_label_columns(cls):
    """Built on first read, then kept on the class."""
    assert cls._element_ones is None
    assert len(cls.element_ones) == cls.universe.size
    for x, ones in enumerate(cls.element_ones):
        assert ones == sum(c.label(x) << k for k, c in enumerate(cls.concepts))
    assert cls._element_ones is cls.element_ones


def test_empty_class_rejected():
    with pytest.raises(ClassFormatError, match="nonempty"):
        parse_class("elements: a b\n")


def test_partial_literal_roundtrip():
    universe = Universe(["a", "b", "c"])
    for text in ["***", "01*", "111", "*0*"]:
        assert parse_partial(universe, text).literal() == text
    with pytest.raises(ClassFormatError):
        parse_partial(universe, "0*")
    with pytest.raises(ClassFormatError):
        parse_partial(universe, "02*")


# ---------------------------------------------------------------------------
# hypothesis classes


def test_explicit_hypotheses(sing4, singe4):
    hyp = singe4
    assert hyp.contains_bits(Concept(sing4.universe, 0).bits)
    assert not hyp.contains_bits(Concept(sing4.universe, 0b11).bits)
    assert sorted(hyp.member_bits()) == [0, 1, 2, 4, 8]
    partial = parse_partial(sing4.universe, "0***")
    found = hyp.first_member(partial.mask, partial.bits)
    assert found.bitstring() == "0100"  # first member in class order


def test_all_totals(sing4):
    hyp = AllTotals(sing4.universe)
    assert hyp.contains_bits(Concept(sing4.universe, 0b1111).bits)
    assert len(hyp.member_bits()) == 16
    partial = parse_partial(sing4.universe, "1**1")
    assert hyp.first_member(partial.mask, partial.bits).bitstring() == "1001"


@pytest.mark.parametrize("k", range(1, 5))
def test_all_totals_matches_the_explicit_powerset(k):
    explicit = fixtures.powerset_class(k)
    lazy = AllTotals(explicit.universe)
    assert lazy.member_bits() == explicit.member_bits()
    # every total, and one value out of range on each side
    for bits in range(-1, (1 << k) + 1):
        assert lazy.contains_bits(bits) == explicit.contains_bits(bits)
    # the explicit powerset lists the totals ascending, so its first
    # extension is the zero-fill
    for mask in range(1 << k):
        for bits in range(1 << k):
            if bits & ~mask:
                continue
            found = explicit.first_member(mask, bits)
            assert lazy.first_member(mask, bits).bits == found.bits == bits


def test_m_consistent_membership_and_enumeration(sing4):
    hyp = hypothesis_hm(sing4, 2)
    # 2-consistent totals over singletons: the singletons and the empty set
    members = sorted(hyp.member_bits())
    assert members == [0, 1, 2, 4, 8]
    for bits in range(16):
        concept = Concept(sing4.universe, bits)
        assert hyp.contains_bits(concept.bits) == (bits in members)


def test_m_consistent_find_extension(sing4):
    hyp = hypothesis_hm(sing4, 2)
    # all-zero partial on three points extends to the empty set
    partial = parse_partial(sing4.universe, "000*")
    ext = hyp.first_member(partial.mask, partial.bits)
    assert ext.bitstring() == "0000"
    partial = parse_partial(sing4.universe, "11**")
    assert hyp.first_member(partial.mask, partial.bits) is None


# ---------------------------------------------------------------------------
# distributions


def test_distribution_parse(sing4):
    text = "x0 1/2\nx1 1/4\nx2 1/8\nx3 1/8\n"
    mu = parse_distribution(sing4.universe, text)
    assert mu.weights[0] == Fraction(1, 2)
    assert mu.weights[2] + mu.weights[3] == Fraction(1, 4)


@pytest.mark.parametrize(
    "text,match",
    [
        ("x0 1/2\nx1 1/4\nx2 1/8\nx3 1/4", "sum"),
        ("x0 1/2\nx1 1/2", "missing"),
        ("x0 1/2\nx0 1/4\nx1 1/8\nx2 1/16\nx3 1/16", "duplicate"),
        ("x0 0/2\nx1 1/2\nx2 1/4\nx3 1/4", "positive"),
        ("x0 1/2 3\nx1 1/4\nx2 1/8\nx3 1/8", "name p/q"),
        ("y9 1/2\nx1 1/4\nx2 1/8\nx3 1/8", "unknown element"),
    ],
)
def test_distribution_errors(sing4, text, match):
    with pytest.raises(ClassFormatError, match=match):
        parse_distribution(sing4.universe, text)


def test_uniform_distribution(sing4):
    mu = Distribution.uniform(sing4.universe)
    assert sum(mu.weights) == 1
    assert mu.weights[0] == Fraction(1, 4)


_COPRIME = "x0 1/2\nx1 1/6\nx2 1/5\nx3 2/15\n"
_EDGE_DRAWS = [0, 1, 1 << 63, (1 << 64) - 1]


def test_distribution_units_over_the_least_common_denominator(sing4):
    assert parse_distribution(sing4.universe, _COPRIME).units == (15, 5, 6, 4)
    assert Distribution.uniform(sing4.universe).units == (1, 1, 1, 1)


@st.composite
def _picks(draw):
    """A distribution, a nonempty mask of its points and a 64-bit draw."""
    granularity = draw(st.sampled_from([1, 16, 1000, None]))
    if granularity is None:
        mu = parse_distribution(fixtures.singletons(4).universe, _COPRIME)
    else:
        universe = Universe([f"x{i}" for i in range(draw(st.integers(1, 12)))])
        seed = draw(st.integers(0, (1 << 64) - 1))
        mu = fixtures.random_distribution(universe, seed, granularity)
    points = draw(st.integers(1, (1 << mu.universe.size) - 1))
    u = draw(st.sampled_from(_EDGE_DRAWS) | st.integers(0, (1 << 64) - 1))
    return mu, points, u


@settings(max_examples=400, deadline=None)
@given(_picks())
def test_pick_matches_the_rational_inversion(case):
    mu, points, u = case
    xs = [x for x in range(mu.universe.size) if (points >> x) & 1]
    oracle = choose_weighted_oracle(u, xs, [mu.weights[x] for x in xs])
    assert mu.pick(points, u) == oracle


def test_pick_equal_cumulative_weight_is_no_crossing():
    mu = Distribution.uniform(Universe(["a", "b"]))
    # the first point's weight is exactly half the mass: the draw passes it
    assert mu.pick(0b11, 1 << 63) == 1
    assert choose_weighted_oracle(1 << 63, [0, 1], list(mu.weights)) == 1
    assert mu.pick(0b11, (1 << 63) - 1) == 0


def test_pick_refuses_empty_and_foreign_points(sing4):
    mu = Distribution.uniform(sing4.universe)
    for points in (0, 1 << 4, 0b10011, -1):
        for u in _EDGE_DRAWS:
            with pytest.raises(ValueError, match="nonempty subset"):
                mu.pick(points, u)


def test_below_stream_fixed_up_to_2_64():
    # one 64-bit draw per candidate for every n <= 2^64: these draws are frozen
    rng = SplitMix64(7)
    ns = [1, 2, 3, 10, 1000, (1 << 32) + 1, (1 << 63) + 5, (1 << 64) - 1, 1 << 64]
    assert [rng.below(n) for n in ns] == [
        0,
        0,
        0,
        3,
        674,
        2346969995,
        8632209307422871798,
        6051947643683389182,
        2476628477891077985,
    ]


def test_seeds_lie_in_64_bits():
    # the ends of the range keep their streams; nothing outside is reduced
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF
    assert SplitMix64((1 << 64) - 1).next_u64() == 16490336266968443936
    assert mix64((1 << 64) - 1, 0) == 16490336266968443936
    assert mix64(0, 0) == 16294208416658607535
    for seed in (-1, 1 << 64, -(1 << 64)):
        with pytest.raises(ValueError, match=r"outside the range 0\.\.2\^64-1"):
            SplitMix64(seed)
        with pytest.raises(ValueError, match=r"outside the range 0\.\.2\^64-1"):
            mix64(seed, 0)


@pytest.mark.parametrize("n", [(1 << 64) + 1, 1 << 65, 3 << 100])
def test_below_above_2_64_in_range(n):
    rng = SplitMix64(3)
    draws = [rng.below(n) for _ in range(20)]
    assert all(0 <= u < n for u in draws)
    assert max(draws) >= n // 2  # the candidates span the whole range


_VALID_TEXTS = {
    "class": "# fixture\nelements: a b c\n100\n010\n001\n",
    "partial": "1*0",
    "distribution": "a 1/2\nb 1/4\nc 1/4\n",
    "dfa": "states: 3\naccept: 0 1\n0 0 1\n0 1 0\n1 0 2\n1 1 2\n2 0 0\n2 1 2\n",
}

_FUZZ_TOKENS = st.sampled_from(
    list("01*-/ :#\nabcx9") + ["elements:", "states:", "accept:", "5", "-1", "1/0", "\u0663"]
)


@st.composite
def _mutated(draw, text):
    """A valid file with a few spans deleted, replaced or inserted."""
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 6)))
        tokens = st.lists(_FUZZ_TOKENS, max_size=3).map("".join)
        insert = draw(st.one_of(st.text(max_size=3), tokens))
        text = text[:i] + insert + text[j:]
    return text


@given(parser=st.sampled_from(sorted(_VALID_TEXTS)), data=st.data())
@settings(max_examples=500, deadline=None)
def test_text_parsers_return_or_raise_class_format_error(parser, data):
    text = data.draw(
        st.one_of(st.text(max_size=80), _mutated(_VALID_TEXTS[parser])), label="text"
    )
    universe = Universe(["a", "b", "c"])
    parse = {
        "class": parse_class,
        "partial": lambda t: parse_partial(universe, t),
        "distribution": lambda t: parse_distribution(universe, t),
        "dfa": parse_dfa,
    }[parser]
    try:
        parse(text)
    except ClassFormatError:
        pass
