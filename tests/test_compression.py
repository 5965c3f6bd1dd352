"""Compression scheme: canonical partial, encoder, decoders, round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlearn import compression, fixtures
from eqlearn.compression import (
    CompressionScheme,
    check_roundtrip,
    compress,
    decompress,
    sample_count,
)
from eqlearn.core import Concept, ConceptClass, PartialConcept, parse_partial
from eqlearn.dimensions import full_ldim_partial, ldim_subset

from conftest import (
    check_ldim_certificate,
    compress_oracle,
    concept_classes,
    full_ldim_partial_oracle,
    is_exceptional_oracle,
    random_class_only,
    roundtrip_failures_oracle,
    samples,
)


def test_f_partial_fixture_values(sing4, tree32, pow2):
    # the canonical maximal exceptional partial f of the whole class
    assert full_ldim_partial(sing4).literal() == "0000"
    assert full_ldim_partial(pow2).literal() == "**"
    assert full_ldim_partial(tree32).literal() == "0" * 12


@given(cls=concept_classes(max_x=5, max_c=7), data=st.data())
@settings(max_examples=60, deadline=None)
def test_memoized_full_ldim_partial_matches_oracle_on_every_version(cls, data):
    # the warm class fills its memo in a drawn order; the oracle runs on a
    # fresh copy of the class, in ascending version order
    versions = range(1, cls.full_version + 1)
    order = data.draw(st.permutations(versions), label="order")
    for version in order:
        full_ldim_partial(cls, version)
    fresh = ConceptClass(cls.universe, cls.concepts)
    for version in versions:
        full = full_ldim_partial(cls, version)
        assert full is full_ldim_partial(cls, version)
        assert full == full_ldim_partial_oracle(fresh, version), version


def test_is_exceptional_examples(sing4):
    full = full_ldim_partial(sing4)
    assert PartialConcept.empty(sing4.universe).is_restriction_of(full)
    assert parse_partial(sing4.universe, "***0").is_restriction_of(full)
    assert not parse_partial(sing4.universe, "**1*").is_restriction_of(full)


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
    assert partial.is_restriction_of(
        full_ldim_partial(cls, version)
    ) == is_exceptional_oracle(partial, cls, version)
    assert partial.is_restriction_of(full_ldim_partial(cls)) == is_exceptional_oracle(
        partial, cls
    )


@given(cls=concept_classes(max_x=7, max_c=12))
@settings(max_examples=40, deadline=None)
def test_compress_matches_oracle_on_every_sample(cls):
    for sample in samples(cls):
        assert compress(cls, sample) == compress_oracle(cls, sample)


@given(cls=concept_classes(max_x=6, max_c=12))
@settings(max_examples=60, deadline=None)
def test_enumerate_samples_is_every_restriction_once(cls):
    # every restriction once, in the order `check_roundtrip` reports its
    # failures in: masks descending, then the first member with it
    keys = [(s.mask, s.bits) for s in samples(cls)]
    full = (1 << cls.universe.size) - 1
    first = {}
    for index, b in enumerate(cls.member_bits()):
        for m in range(1, full + 1):
            first.setdefault((m, b & m), index)
    assert keys == sorted(first, key=lambda key: (-key[0], first[key]))


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
        for sample in samples(cls):
            _assert_one_layout(cls, sample)


def test_one_layout_on_pow3(pow3):
    for sample in samples(pow3):
        _assert_one_layout(pow3, sample)


def test_compress_rejects_non_samples(sing4):
    with pytest.raises(ValueError, match="not a restriction"):
        compress(sing4, parse_partial(sing4.universe, "11**"))


def test_compress_rejects_empty_domain(sing4):
    with pytest.raises(ValueError, match="empty-domain"):
        compress(sing4, PartialConcept.empty(sing4.universe))


def test_compress_entries_in_domain(tree32):
    scheme = CompressionScheme(tree32)
    for sample in samples(tree32):
        tup = compress(tree32, sample)
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


def test_full_partial_memo_keys_are_ldim_memo_keys():
    classes = [
        fixtures.singletons(4),
        fixtures.tree_class(3, 2),
        fixtures.powerset_class(3),
        fixtures.five_class(),
    ]
    classes += [random_class_only(7100 + k, max_x=6, max_c=10) for k in range(10)]
    for cls in classes:
        check_roundtrip(cls)
        assert cls._full_partial_memo
        for version in cls._full_partial_memo:
            lo, hi = cls._ldim_memo[version]
            assert lo == hi, version


_RANDOM_SIZES = ((6, 9), (7, 10), (8, 12), (9, 14))


@pytest.mark.parametrize(
    "cls",
    [fixtures.random_class(nx, nc, seed=7200 + nx) for nx, nc in _RANDOM_SIZES]
    + [fixtures.singletons(7), fixtures.singletons(8), fixtures.five_class()]
    + [fixtures.tree_class(3, 2)],
    ids=[f"random{nx}x{nc}" for nx, nc in _RANDOM_SIZES]
    + ["SING(7)", "SING(8)", "FIVE", "TREE(3,2)"],
)
def test_roundtrip_leaves_an_ldim_certificate(cls):
    """On each class family that `compress --check-all` is timed on, the
    round trip asks the dimension of many versions, some first bounded
    (lo, hi) by the threshold search and later made exact (d, d); the memo
    it leaves still certifies the class's dimension entry by entry."""
    count, failures = check_roundtrip(cls)
    assert count > 0 and not failures
    check_ldim_certificate(cls, ldim_subset(cls, cls.full_version))


@pytest.mark.parametrize("name", ["tree32", "pow3"])
def test_decode_cache_reports_every_sample_of_a_failing_tuple(name, request, monkeypatch):
    # a tuple that no decoder reads back fails every sample encoded to it,
    # not only the first one whose decodes were cached
    cls = request.getfixturevalue(name)
    every = list(samples(cls))
    tuples = [compress_oracle(cls, s) for s in every]
    chosen = max(sorted(set(tuples)), key=tuples.count)
    decode = compression.decompress

    def broken(concept_class, index, tup):
        return None if tup == chosen else decode(concept_class, index, tup)

    monkeypatch.setattr(compression, "decompress", broken)
    count, failures = check_roundtrip(cls)
    expected = {(s.mask, s.bits) for s, t in zip(every, tuples) if t == chosen}
    assert count == len(every) and len(expected) > 1
    assert sorted((s.mask, s.bits) for s in failures) == sorted(expected)


def _mutant(refused, index=None, flip=None):
    """A decoder family that differs from `decompress` on one tuple: it
    refuses the tuple's decoder `index` (every decoder when None), or, with
    `flip`, returns that decoder's total with the label at point `flip`
    flipped."""
    decode = compression.decompress

    def broken(concept_class, i, tup):
        total = decode(concept_class, i, tup)
        if tup != refused or index not in (None, i) or total is None:
            return total
        if flip is None:
            return None
        return Concept(total.universe, total.bits ^ (1 << flip))

    return broken


def _roundtrip_under(cls, broken):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compression, "decompress", broken)
        return check_roundtrip(cls)


def _assert_failures_match_the_oracle(cls, broken):
    count, failures = _roundtrip_under(cls, broken)
    expected_count, expected = roundtrip_failures_oracle(cls, broken)
    assert count == expected_count
    assert [(s.mask, s.bits) for s in failures] == [(s.mask, s.bits) for s in expected]
    return failures


@given(cls=concept_classes(max_x=6, max_c=10), data=st.data())
@settings(max_examples=40, deadline=None)
def test_roundtrip_failures_match_the_oracle_in_order(cls, data):
    # the CLI prints failures[0], so the failing samples and their order
    # are both part of the output; the mutant refuses a whole tuple, one of
    # its decoders, or flips one label of one decoder's total
    scheme = CompressionScheme(cls)
    tuples = sorted({compress_oracle(cls, s) for s in samples(cls)})
    refused = data.draw(st.sampled_from(tuples), label="refused")
    index = data.draw(st.none() | st.integers(0, scheme.dimension), label="index")
    flip = None
    if index is not None:
        flip = data.draw(st.none() | st.integers(0, cls.universe.size - 1), label="flip")
    failures = _assert_failures_match_the_oracle(cls, _mutant(refused, index, flip))
    assert failures or index is not None


@pytest.mark.parametrize("name", ["tree32", "pow3"])
def test_a_cube_that_fails_in_part_reports_only_its_failing_domains(name, request):
    # refusing one decoder of a tuple fails whole cubes: every other decoder
    # disagrees with the sample at one of its picks.  A total with one label
    # flipped fails only the domains that hold that point, so on TREE(3,2)
    # some cube's largest domain fails while smaller domains pass (a cube
    # of POW(3) is one domain)
    cls = request.getfixturevalue(name)
    scheme = CompressionScheme(cls)
    tuples = [compress_oracle(cls, s) for s in samples(cls)]
    chosen = max(sorted(set(tuples)), key=tuples.count)
    last = cls.universe.size - 1
    whole = _assert_failures_match_the_oracle(cls, _mutant(chosen, 0))
    failures = _assert_failures_match_the_oracle(cls, _mutant(chosen, 0, flip=last))
    failed = {(s.mask, s.bits) for s in failures}
    assert failures and failed <= {(s.mask, s.bits) for s in whole}
    if name == "tree32":
        assert len(failures) < len(whole)
        full = (1 << cls.universe.size) - 1
        split = 0
        for c in cls.member_bits():
            for _, _, must, avoid in compression._cubes(cls, scheme.dimension, c):
                free = full & ~avoid & ~must
                sub, seen = free, set()
                while True:
                    seen.add((must | sub, c & (must | sub)) in failed)
                    if not sub:
                        break
                    sub = (sub - 1) & free
                split += seen == {True, False}
        assert split


def _own_readings(cls):
    """Each sample's (tuple, own reading): the tuple it encodes to, and the
    number of the sample's ones among the tuple's points."""
    for sample in samples(cls):
        tup = compress_oracle(cls, sample)
        yield tup, sum(sample.label(x) for x in set(tup))


@pytest.mark.parametrize(
    "cls",
    [fixtures.tree_class(3, 2), fixtures.powerset_class(3), fixtures.random_class(6, 9, 1)],
    ids=["TREE(3,2)", "POW(3)", "random6x9"],
)
def test_a_swapped_reading_is_found_by_the_other_decoders(cls):
    # the most common (tuple, own reading) loses its own decoder's total to
    # the next decoder: a check that tried the own reading alone would fail
    # every sample that now decodes through the next one
    d = CompressionScheme(cls).dimension
    pairs = list(_own_readings(cls))
    chosen, own = max(sorted(set(pairs)), key=pairs.count)
    swapped = (own + 1) % (d + 1)
    decode = compression.decompress

    def broken(concept_class, i, tup):
        if tup == chosen and i == own:
            return None
        if tup == chosen and i == swapped:
            return decode(concept_class, own, tup)
        return decode(concept_class, i, tup)

    _assert_failures_match_the_oracle(cls, broken)


@pytest.mark.parametrize(
    "cls",
    [
        fixtures.tree_class(3, 2),
        fixtures.five_class(),
        fixtures.singletons(8),
        fixtures.random_class(7, 10, seed=7207),
    ],
    ids=["TREE(3,2)", "FIVE", "SING(8)", "random7x10"],
)
def test_roundtrip_decodes_only_the_own_readings(cls, monkeypatch):
    # with the library's decoders every sample is read back by its own
    # reading, so each (tuple, own reading) is decoded once and no other
    # reading ever is
    calls = []
    decode = compression.decompress

    def counted(concept_class, i, tup):
        calls.append((tup, i))
        return decode(concept_class, i, tup)

    monkeypatch.setattr(compression, "decompress", counted)
    count, failures = check_roundtrip(cls)
    assert count > 0 and not failures
    assert len(calls) == len(set(calls))
    assert set(calls) == set(_own_readings(cls))


@pytest.mark.parametrize("n", [1, 2, 5, 9, 20])
def test_sample_count_of_singletons(n):
    count, failures = check_roundtrip(fixtures.singletons(n))
    assert count == n * 2 ** (n - 1) + 2**n - 2 and not failures


@pytest.mark.parametrize("n", range(1, 7))
def test_sample_count_of_powerset(n):
    count, failures = check_roundtrip(fixtures.powerset_class(n))
    assert count == 3**n - 1 and not failures


@pytest.mark.parametrize("n", [1, 4, 10])
def test_sample_count_of_one_concept(n):
    count, failures = check_roundtrip(fixtures.random_class(n, 1, seed=7300 + n))
    assert count == 2**n - 1 and not failures


@given(cls=concept_classes())
@settings(max_examples=60, deadline=None)
def test_sample_count_matches_oracle(cls):
    expected, _ = roundtrip_failures_oracle(cls, compression.decompress)
    assert sample_count(cls) == expected == len(list(samples(cls)))


def test_sample_count_of_singletons_1100_is_a_loop():
    # one pass over 1,100 elements: no recursion to outgrow
    n = 1100
    assert sample_count(fixtures.singletons(n)) == n * 2 ** (n - 1) + 2**n - 2


def test_roundtrip_requires_existential_decoder(tree32):
    # the same tuple can be parseable by several decoders; the guarantee is
    # that at least one works per sample, not that each tuple is unambiguous
    scheme = CompressionScheme(tree32)
    sample = parse_partial(tree32.universe, "1***********")
    tup = compress(tree32, sample)
    winners = [
        i
        for i in range(scheme.reconstruction_count)
        if decompress(tree32, i, tup) is not None
        and sample.extended_by(decompress(tree32, i, tup))
    ]
    assert winners
