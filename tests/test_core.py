"""Data model: parsing, restriction, consistency predicates, hypothesis classes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlearn import fixtures
from eqlearn.core import (
    AllTotals,
    ClassFormatError,
    Concept,
    Distribution,
    ExplicitHypotheses,
    PartialConcept,
    Universe,
    consistent_total_extension,
    format_class,
    is_n_consistent,
    parse_class,
    parse_distribution,
    parse_partial,
)
from eqlearn.dimensions import MConsistentHypotheses

from conftest import all_partials, random_class_only


def test_parse_class_basic():
    cls = parse_class("elements: a b\n10\n01")
    assert cls.universe.elements == ("a", "b")
    assert [c.bitstring() for c in cls.concepts] == ["10", "01"]


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
    assert consistent_total_extension(one, sing4).bitstring() == "0010"
    # the empty partial completes by label-0 preference: the first consistent
    # completion in that order is the last singleton
    empty = PartialConcept.empty(sing4.universe)
    assert consistent_total_extension(empty, sing4).bitstring() == "0001"
    # two positive points are inconsistent with singletons
    two = parse_partial(sing4.universe, "11**")
    assert consistent_total_extension(two, sing4) is None


def test_consistent_total_extension_iff_extendable():
    cls = random_class_only(9107, max_x=5, max_c=6)
    for partial in all_partials(cls.universe):
        result = consistent_total_extension(partial, cls)
        extendable = any(partial.extended_by(c) for c in cls.concepts)
        assert (result is not None) == extendable
        if result is not None:
            assert partial.extended_by(result)
            assert cls.contains_bits(result.bits)


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
    hyp = ExplicitHypotheses(singe4)
    assert hyp.contains(Concept(sing4.universe, 0))
    assert not hyp.contains(Concept(sing4.universe, 0b11))
    assert sorted(hyp.enumerate_bits()) == [0, 1, 2, 4, 8]
    found = hyp.find_extension(parse_partial(sing4.universe, "0***"))
    assert found.bitstring() == "0100"  # first member in class order


def test_all_totals(sing4):
    hyp = AllTotals(sing4.universe)
    assert hyp.contains(Concept(sing4.universe, 0b1111))
    assert len(hyp.enumerate_bits()) == 16
    assert hyp.find_extension(parse_partial(sing4.universe, "1**1")).bitstring() == "1001"


def test_m_consistent_membership_and_enumeration(sing4):
    hyp = MConsistentHypotheses(sing4, 2)
    # 2-consistent totals over singletons: the singletons and the empty set
    members = sorted(hyp.enumerate_bits())
    assert members == [0, 1, 2, 4, 8]
    for bits in range(16):
        concept = Concept(sing4.universe, bits)
        assert hyp.contains(concept) == (bits in members)


def test_m_consistent_find_extension(sing4):
    hyp = MConsistentHypotheses(sing4, 2)
    # all-zero partial on three points extends to the empty set
    ext = hyp.find_extension(parse_partial(sing4.universe, "000*"))
    assert ext.bitstring() == "0000"
    assert hyp.find_extension(parse_partial(sing4.universe, "11**")) is None


# ---------------------------------------------------------------------------
# distributions


def test_distribution_parse(sing4):
    text = "x0 1/2\nx1 1/4\nx2 1/8\nx3 1/8\n"
    mu = parse_distribution(sing4.universe, text)
    assert mu.weight(0) == Fraction(1, 2)
    assert mu.mass([2, 3]) == Fraction(1, 4)


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
    assert mu.weight(0) == Fraction(1, 4)
