"""Compression scheme: canonical partial, encoder, decoders, round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlearn import fixtures
from eqlearn.compression import (
    CompressionScheme,
    check_roundtrip,
    compress,
    decompress,
    is_exceptional,
)
from eqlearn.core import PartialConcept, parse_partial
from eqlearn.dimensions import full_ldim_partial

from conftest import (
    compress_oracle,
    concept_classes,
    is_exceptional_oracle,
    random_class_only,
)


def test_f_partial_fixture_values(sing4, tree32, pow2):
    # the canonical maximal exceptional partial f of the whole class
    assert full_ldim_partial(sing4).literal() == "0000"
    assert full_ldim_partial(pow2).literal() == "**"
    assert full_ldim_partial(tree32).literal() == "0" * 12


def test_is_exceptional_examples(sing4):
    assert is_exceptional(PartialConcept.empty(sing4.universe), sing4)
    assert is_exceptional(parse_partial(sing4.universe, "***0"), sing4)
    assert not is_exceptional(parse_partial(sing4.universe, "**1*"), sing4)


@given(cls=concept_classes(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_is_exceptional_is_restriction_of_full_ldim_partial(cls, data):
    version = data.draw(st.integers(1, cls.full_version), label="version")
    full = (1 << cls.universe.size) - 1
    mask = data.draw(st.integers(0, full), label="mask")
    bits = data.draw(st.integers(0, full), label="bits") & mask
    partial = PartialConcept(cls.universe, mask, bits)
    assert is_exceptional_oracle(partial, cls, version) == partial.is_restriction_of(
        full_ldim_partial(cls, version)
    )


@given(cls=concept_classes(max_x=7, max_c=12), data=st.data())
@settings(max_examples=150, deadline=None)
def test_is_exceptional_matches_oracle(cls, data):
    version = data.draw(st.integers(1, cls.full_version), label="version")
    full = (1 << cls.universe.size) - 1
    mask = data.draw(st.integers(0, full), label="mask")
    bits = data.draw(st.integers(0, full), label="bits") & mask
    partial = PartialConcept(cls.universe, mask, bits)
    assert is_exceptional(partial, cls, version) == is_exceptional_oracle(
        partial, cls, version
    )
    assert is_exceptional(partial, cls) == is_exceptional_oracle(partial, cls)


@given(cls=concept_classes(max_x=7, max_c=12))
@settings(max_examples=40, deadline=None)
def test_compress_matches_oracle_on_every_sample(cls):
    for sample in CompressionScheme(cls).enumerate_samples():
        assert compress(cls, sample) == compress_oracle(cls, sample)


@given(cls=concept_classes(max_x=6, max_c=12))
@settings(max_examples=60, deadline=None)
def test_enumerate_samples_is_every_restriction_once(cls):
    keys = [(s.mask, s.bits) for s in CompressionScheme(cls).enumerate_samples()]
    full = (1 << cls.universe.size) - 1
    expected = {(m, b & m) for m in range(1, full + 1) for b in cls.member_bits()}
    assert len(keys) == len(set(keys)) and set(keys) == expected


def test_compress_examples(sing4, pow3):
    # one positive pick pins the class
    assert compress(sing4, parse_partial(sing4.universe, "**10")) == (2,)
    # exceptional immediately: encode the least domain point
    assert compress(sing4, parse_partial(sing4.universe, "*0*0")) == (1,)
    # POW(3) halts after a positive and a negative pick: padded with the first
    assert compress(pow3, parse_partial(pow3.universe, "01*")) == (1, 0, 1)
    # dimension-zero class: empty tuple
    single = fixtures.random_class(3, 1, seed=40)
    sample = single.concepts[0].as_partial().restrict([0, 1])
    assert compress(single, sample) == ()


def _assert_one_layout(cls, sample):
    """The tuple is k distinct picks, positives first, then d - k copies of
    the first pick, and decoder #positives reads back an extension."""
    tup = compress(cls, sample)
    d = len(tup)
    k = d + 1 - tup.count(tup[0])
    picks = tup[:k]
    assert len(set(picks)) == k and tup[k:] == (tup[0],) * (d - k), tup
    labels = [sample.label(x) for x in picks]
    positives = labels.count(1)
    assert labels == [1] * positives + [0] * (k - positives), (tup, labels)
    total = decompress(cls, positives, tup)
    assert total is not None and sample.extended_by(total), (sample.literal(), tup)


@given(cls=concept_classes(max_x=6, max_c=12))
@settings(max_examples=60, deadline=None)
def test_one_layout_read_by_decoder_positives(cls):
    scheme = CompressionScheme(cls)
    if scheme.dimension:
        for sample in scheme.enumerate_samples():
            _assert_one_layout(cls, sample)


def test_one_layout_on_pow3(pow3):
    for sample in CompressionScheme(pow3).enumerate_samples():
        _assert_one_layout(pow3, sample)


def test_compress_rejects_non_samples(sing4):
    with pytest.raises(ValueError, match="not a restriction"):
        compress(sing4, parse_partial(sing4.universe, "11**"))


def test_compress_rejects_empty_domain(sing4):
    with pytest.raises(ValueError, match="empty-domain"):
        compress(sing4, PartialConcept.empty(sing4.universe))


def test_compress_entries_in_domain(tree32):
    scheme = CompressionScheme(tree32)
    for sample in scheme.enumerate_samples():
        tup = scheme.kappa(sample)
        assert len(tup) == scheme.dimension
        assert all((sample.mask >> x) & 1 for x in tup)


def test_decompress_examples(sing4):
    # distinct reading with the overwrite precedence on single-entry tuples
    assert decompress(sing4, 1, (2,)).bitstring() == "0010"
    assert decompress(sing4, 0, (1,)).bitstring() == "0000"
    single = fixtures.random_class(3, 1, seed=41)
    assert decompress(single, 0, ()).bits == single.concepts[0].bits


def test_decompress_rejects_misplaced_repeats_and_too_many_positives(pow3):
    # a repeat of the first entry must fill the tail exactly
    for tup in ((0, 0, 1), (1, 1, 2)):
        assert [decompress(pow3, i, tup) for i in range(4)] == [None] * 4
    # two picks (0, 1): decoders 0..2 read them, decoder 3 would need a third
    got = [decompress(pow3, i, (0, 1, 0)) for i in range(4)]
    assert [t.bitstring() for t in got[:3]] == ["000", "100", "110"]
    assert got[3] is None
    # one pick (2, 2, 2): only decoders 0 and 1
    assert decompress(pow3, 1, (2, 2, 2)).bitstring() == "001"
    assert decompress(pow3, 2, (2, 2, 2)) is None


def test_decompress_validation(sing4, tree32):
    with pytest.raises(ValueError, match="out of range"):
        decompress(sing4, 2, (0,))
    with pytest.raises(ValueError, match="length"):
        decompress(sing4, 0, (0, 1))
    with pytest.raises(ValueError, match="element index"):
        decompress(tree32, 0, (0, 99))


def test_reconstruction_family_size(sing4, tree32, pow3, five):
    for cls, d in ((sing4, 1), (tree32, 2), (pow3, 3), (five, None)):
        scheme = CompressionScheme(cls)
        if d is not None:
            assert scheme.dimension == d
        assert scheme.reconstruction_count == scheme.dimension + 1


def test_roundtrip_fixtures(sing4, tree32, pow3, five):
    for cls in (sing4, tree32, pow3, five):
        count, failures = check_roundtrip(cls)
        assert count > 0 and not failures


@pytest.mark.parametrize("seed", range(40))
def test_roundtrip_random(seed):
    cls = random_class_only(seed + 7000, max_x=5, max_c=8)
    count, failures = check_roundtrip(cls)
    assert count > 0 and not failures


@given(cls=concept_classes())
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(cls):
    count, failures = check_roundtrip(cls)
    assert count > 0 and not failures


def test_roundtrip_requires_existential_decoder(tree32):
    # the same tuple can be parseable by several decoders; the guarantee is
    # that at least one works per sample, not that each tuple is unambiguous
    scheme = CompressionScheme(tree32)
    sample = parse_partial(tree32.universe, "1***********")
    tup = scheme.kappa(sample)
    winners = [
        i
        for i in range(scheme.reconstruction_count)
        if scheme.rho(i, tup) is not None and sample.extended_by(scheme.rho(i, tup))
    ]
    assert winners
