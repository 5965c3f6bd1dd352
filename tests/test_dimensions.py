"""Dimension computations against paper values and definition-level oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlearn import dimensions, fixtures
from eqlearn.automata import enumerate_dfa_class
from eqlearn.compression import check_roundtrip
from eqlearn.core import (
    AllTotals,
    Concept,
    ConceptClass,
    Universe,
    check_subclass,
    is_n_consistent,
)
from eqlearn.dimensions import (
    consistency_dim,
    consistency_threshold,
    full_ldim_partial,
    hypothesis_hm,
    ldim,
    ldim_subset,
    m_consistent_totals,
    strong_consistency_dim,
    vc_dim,
)
from eqlearn.learners import HalvingEqLearner, run_session
from eqlearn.rng import SplitMix64
from eqlearn.teachers import TreeAdversary

from conftest import (
    cdim_oracle,
    check_ldim_certificate,
    concept_classes,
    consistency_levels_oracle,
    extendable_oracle,
    indicator_blocks,
    ldim_memo_oracle,
    ldim_nesting,
    ldim_oracle,
    random_class_only,
    random_instance,
    scdim_oracle,
    smallest_unextendable_oracle,
    vc_oracle,
)


# ---------------------------------------------------------------------------
# Littlestone dimension


def test_ldim_fixture_values(sing4, tree32, pow3, five):
    assert ldim(tree32) == 2  # the chain construction has dimension d
    assert ldim(pow3) == 3
    assert ldim(sing4) == 1
    assert ldim(five) == ldim_oracle(five)


def test_ldim_witness_proper(sing4, tree32, pow3, five):
    for cls in (sing4, tree32, pow3, five):
        check_ldim_certificate(cls, ldim(cls))


@pytest.mark.parametrize("seed", range(25))
def test_ldim_matches_oracle(seed):
    cls = random_class_only(seed, max_x=5, max_c=7)
    d = ldim(cls)
    assert d == ldim_oracle(cls)
    check_ldim_certificate(cls, d)


@given(cls=concept_classes())
@settings(max_examples=80, deadline=None)
def test_ldim_witness_properties(cls):
    d = ldim(cls)
    check_ldim_certificate(cls, d)
    assert vc_dim(cls) <= d


def test_ldim_subset_empty_and_singleton(sing4):
    assert ldim_subset(sing4, 0) == -1
    assert ldim_subset(sing4, 0b0100) == 0


@given(cls=concept_classes(max_x=8, max_c=64))
@settings(max_examples=150, deadline=None)
def test_ldim_nesting_is_at_most_ldim_plus_two(cls):
    """Each threshold question asks the sides one less, so the nesting is
    bounded by the dimension, not by the class size."""
    d, deepest = ldim_nesting(cls)
    assert deepest <= d + 2


@pytest.mark.parametrize(
    "cls, expected",
    [(fixtures.powerset_class(k), (k, k)) for k in range(1, 11)]
    + [(indicator_blocks(k), (min(k + 1, 3), min(k + 1, 3))) for k in (1, 2, 3, 10, 100, 200)]
    + [(fixtures.singletons(1100), (1, 1)), (fixtures.tree_class(2, 6), (6, 6))],
    ids=[f"POW({k})" for k in range(1, 11)]
    + [f"blocks({k})" for k in (1, 2, 3, 10, 100, 200)]
    + ["SING(1100)", "TREE(2,6)"],
)
def test_ldim_nesting_measured(cls, expected):
    """POW(k) asks "ldim >= k?" of the class, k - 1 of a half, and so on
    down to 1, which the bounds answer: k calls.  Indicator blocks, where a
    search for exact side values went k + 2 calls deep, take at most 3."""
    assert ldim_nesting(cls) == expected


def test_ldim_subset_returns_an_int():
    for cls in (fixtures.singletons(1), fixtures.singletons(5), fixtures.tree_class(3, 2)):
        for version in (cls.full_version, cls.full_version & 0b101, 0):
            assert type(ldim_subset(cls, version)) is int
            assert type(ldim_subset(cls, version)) is int  # a memo hit as well


@given(cls=concept_classes(max_x=6, max_c=24), data=st.data())
@settings(max_examples=150, deadline=None)
def test_ldim_memo_brackets_every_value_and_is_exact_where_read(cls, data):
    """After `ldim`, full-dimension partials of drawn versions and the
    compression round trip have read the threshold search, every memo entry
    (lo, hi) brackets the unpruned recursion's value, every version whose
    dimension was read has an exact entry (lo == hi, an int), and the table
    certifies the dimension entry by entry."""
    d = ldim(cls)
    versions = data.draw(st.lists(st.integers(1, cls.full_version), max_size=6))
    for version in versions:
        full_ldim_partial(cls, version)
    if cls.universe.size <= 4:
        check_roundtrip(cls)
    oracle = {}
    for version, (lo, hi) in cls._ldim_memo.items():
        assert lo <= ldim_memo_oracle(cls, version, oracle) <= hi, version
        assert type(lo) is int and type(hi) is int
    for version in [cls.full_version, *versions]:
        assert cls._ldim_memo[version] == (ldim_memo_oracle(cls, version, oracle),) * 2
    check_ldim_certificate(cls, d)


@given(cls=concept_classes(max_x=6, max_c=24), data=st.data())
@settings(max_examples=150, deadline=None)
def test_at_least_records_the_answer_it_gives(cls, data):
    """The threshold questions at a drawn version's dimension d and at
    d + 1, asked in a drawn order, answer yes and no, and each leaves the
    version's entry (lo, hi), or the trivial bounds where it writes none,
    answering it again with no search: k <= lo after a yes, k > hi after a
    no."""
    oracle = {}
    for version in data.draw(st.lists(st.integers(1, cls.full_version), min_size=1, max_size=6)):
        d = ldim_memo_oracle(cls, version, oracle)
        for k in data.draw(st.permutations([d, d + 1])):
            answer = dimensions._at_least(cls, version, k)
            assert answer == (k == d), (version, k)
            log = version.bit_count().bit_length() - 1
            lo, hi = cls._ldim_memo.get(version, (min(1, log), log))
            assert k <= lo if answer else k > hi, (version, k, lo, hi)


class _BoundedMemo(dict):
    """A memo table that fails as soon as it holds more than `bound`
    entries."""

    def __init__(self, bound):
        super().__init__()
        self.bound = bound

    def __setitem__(self, key, value):
        if key not in self and len(self) >= self.bound:
            raise AssertionError(f"the Littlestone memo outgrew {self.bound} entries")
        super().__setitem__(key, value)


@pytest.mark.parametrize(
    "cls, expected, bound",
    [
        (fixtures.singletons(64), 1, 8),
        (fixtures.tree_class(2, 6), 6, 256),
        (fixtures.powerset_class(10), 10, 4096),
    ],
    ids=["SING(64)", "TREE(2,6)", "POW(10)"],
)
def test_ldim_memo_entries_stay_within_bound(cls, expected, bound):
    """The threshold search's work, counted in entries of the memo: the
    unpruned recursion needs 2^64 - 1 on SING(64) and about 3^10 on POW(10),
    and does not finish within a minute on TREE(2,6)."""
    cls._ldim_memo = _BoundedMemo(bound)
    d = ldim(cls)
    assert d == expected
    check_ldim_certificate(cls, d)


# ---------------------------------------------------------------------------
# VC dimension


def test_vc_fixture_values(sing4, tree32, pow3):
    assert vc_dim(pow3) == 3
    assert vc_dim(sing4) == 1
    assert vc_dim(tree32) == 1


@pytest.mark.parametrize("seed", range(60))
def test_vc_matches_oracle(seed):
    """A sparse random class, and two dense ones over 3 <= k <= 8 elements: a
    random class of 2^k - k to 2^k concepts, and POW(k) without a few of its
    totals (in the dense ones, the pruning by pattern size decides)."""
    cls = random_class_only(seed + 700, max_x=8, max_c=24)
    assert vc_dim(cls) == vc_oracle(cls)
    rng = SplitMix64(seed + 7000)
    k = 3 + rng.below(6)
    dense = fixtures.random_class(k, (1 << k) - rng.below(k + 1), rng.next_u64())
    assert vc_dim(dense) == vc_oracle(dense)
    universe = Universe([f"x{i}" for i in range(k)])
    missing = {rng.below(1 << k) for _ in range(1 + rng.below(4))}
    powerset_less = ConceptClass(
        universe, [Concept(universe, b) for b in range(1 << k) if b not in missing]
    )
    assert vc_dim(powerset_less) == vc_oracle(powerset_less)


def test_vc_of_wide_and_dfa_classes():
    # 600 elements: indicator blocks shatter two free elements and no more
    assert vc_dim(indicator_blocks(200)) == 2
    assert vc_dim(enumerate_dfa_class(3, 3)) == 7


@pytest.mark.parametrize("seed", range(20))
def test_vc_at_most_ldim(seed):
    cls = random_class_only(seed + 100, max_x=6, max_c=9)
    assert vc_dim(cls) <= ldim(cls)


# ---------------------------------------------------------------------------
# consistency dimension


def test_cdim_fixture_values(sing4, singe4, tree32, five):
    assert consistency_dim(tree32, tree32) == 4  # c + 1
    assert consistency_dim(five, five) == 3
    assert consistency_dim(sing4, singe4) == 2


def test_cdim_requires_subclass(sing4):
    smaller = fixtures.singletons(4)
    hyp = fixtures.powerset_class(4)  # fine: contains everything
    assert consistency_dim(smaller, hyp) == 1
    not_super = fixtures.random_class(4, 2, seed=5)
    with pytest.raises(ValueError, match="outside the hypothesis class"):
        consistency_dim(sing4, not_super)


def test_hypotheses_over_another_universe_are_refused(sing4):
    # same size and the same member bits, but other element names
    other = Universe(["y0", "y1", "y2", "y3"])
    explicit = ConceptClass(other, [Concept(other, c.bits) for c in sing4])
    for hyp in (explicit, AllTotals(other)):
        with pytest.raises(ValueError, match="universe differs"):
            check_subclass(sing4, hyp)
        with pytest.raises(ValueError, match="universe differs"):
            consistency_dim(sing4, hyp)
        with pytest.raises(ValueError, match="universe differs"):
            strong_consistency_dim(sing4, hyp)
    check_subclass(sing4, sing4)
    check_subclass(sing4, AllTotals(sing4.universe))


@pytest.mark.parametrize("seed", range(15))
def test_cdim_matches_oracle(seed):
    cls, hyp = random_instance(seed + 300, max_x=5, max_c=6, max_extra=3)
    assert consistency_dim(cls, hyp) == cdim_oracle(cls, hyp)


@given(
    cls=concept_classes(max_x=6, max_c=10),
    extra=st.sets(st.integers(0, (1 << 6) - 1), max_size=4),
    hm_first=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_cdim_matches_oracle_for_self_hm_and_supersets(cls, extra, hm_first):
    # H_m requested before or after the threshold reads the same levels
    if hm_first:
        hms = [hypothesis_hm(cls, m) for m in (1, 2, 3)]
        threshold = consistency_threshold(cls)
    else:
        threshold = consistency_threshold(cls)
        hms = [hypothesis_hm(cls, m) for m in (1, 2, 3)]
    self_hyp = cls
    assert threshold == cdim_oracle(cls, self_hyp)
    universe = cls.universe
    superset = set(cls.bits_index) | {b & ((1 << universe.size) - 1) for b in extra}
    bigger = ConceptClass(universe, [Concept(universe, b) for b in sorted(superset)])
    for hyp in [self_hyp, *hms, bigger]:
        assert consistency_dim(cls, hyp) == cdim_oracle(cls, hyp)


# ---------------------------------------------------------------------------
# strong consistency dimension


def test_scdim_fixture_values(tree32, five):
    assert strong_consistency_dim(tree32, tree32) == 9  # c^d
    sc_five = strong_consistency_dim(five, five)
    assert sc_five >= 4  # the four-ones partial with e unspecified is 3-consistent
    assert sc_five == scdim_oracle(five, five) == 4


def test_scdim_all_totals(sing4):
    assert strong_consistency_dim(sing4, AllTotals(sing4.universe)) == 1


def test_scdim_explicit_powerset(sing4, tree32):
    for cls in (sing4, tree32):
        totals = [Concept(cls.universe, b) for b in range(1 << cls.universe.size)]
        hyp = ConceptClass(cls.universe, totals)
        assert strong_consistency_dim(cls, hyp) == 1


def test_scdim_single_element():
    universe = Universe(["a"])
    powerset = ConceptClass(universe, [Concept(universe, b) for b in (1, 0)])
    for bits in ([0], [1], [0, 1]):
        cls = ConceptClass(universe, [Concept(universe, b) for b in bits])
        for hyp in (cls, AllTotals(universe), powerset):
            assert strong_consistency_dim(cls, hyp) == 1


@given(cls=concept_classes(max_x=5, max_c=8))
@settings(max_examples=80, deadline=None)
def test_smallest_unextendable_totals_are_consistency_levels(cls):
    size = cls.universe.size
    smallest = dimensions._smallest_unextendable(cls)
    levels = consistency_levels_oracle(cls)
    for bits in range(1 << size):
        cell = sum(3**i * (1 + ((bits >> i) & 1)) for i in range(size))
        value = int(smallest[cell])
        if cls.contains_bits(bits):
            assert value == dimensions._INF and levels[bits] == size + 1
        else:
            assert value == levels[bits] <= size
    # the levels gathered from the array are the scanned ones
    assert np.array_equal(dimensions._consistency_levels(cls), levels)


def test_the_kept_arrays_are_read_only():
    cls = fixtures.random_class(6, 10, 3)
    smallest = dimensions._smallest_unextendable(cls)
    assert dimensions._smallest_unextendable(cls) is smallest
    gathered = dimensions._consistency_levels(cls)
    assert dimensions._consistency_levels(cls) is gathered
    for array in (smallest, gathered):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def _searching_fails(monkeypatch):
    def fail(*args):
        raise AssertionError("the totals were searched, not gathered from the array")

    monkeypatch.setattr(dimensions, "_totals_above", fail)


def test_the_levels_are_filled_only_by_consistency_levels(monkeypatch):
    # building the 3^|X| array does not fill the levels
    cls = fixtures.tree_class(3, 2)
    strong_consistency_dim(cls, cls)
    assert cls._consistency_levels is None
    cls = fixtures.tree_class(3, 2)
    assert run_session(HalvingEqLearner(cls, cls), TreeAdversary(cls), 60).success
    assert cls._smallest_unextendable is not None and cls._consistency_levels is None
    # a class without the array keeps no levels: its answers are searched for
    searched = fixtures.tree_class(3, 2)
    assert consistency_threshold(searched) == 4
    assert searched._consistency_levels is None and searched._smallest_unextendable is None
    # on a class with the array, their first read gathers them from it
    with monkeypatch.context() as patch:
        _searching_fails(patch)
        assert consistency_threshold(cls) == 4
    gathered = cls._consistency_levels
    assert not gathered.flags.writeable
    assert np.array_equal(gathered, consistency_levels_oracle(cls))


@pytest.mark.parametrize("size", [5, 8, 11])
def test_scdim_on_one_class_object_matches_fresh_objects(size):
    rng = SplitMix64(size)
    extra = sorted({rng.below(1 << size) for _ in range(3)})

    def new_class():
        return fixtures.random_class(size, 2 * size, size + 70)

    def hypotheses(cls):
        others = [b for b in extra if not cls.contains_bits(b)]
        assert others
        superset = list(cls.concepts) + [Concept(cls.universe, b) for b in others]
        return [cls, hypothesis_hm(cls, 2), ConceptClass(cls.universe, superset)]

    expected = []
    for k in range(3):
        fresh = new_class()
        expected.append(strong_consistency_dim(fresh, hypotheses(fresh)[k]))
    assert len(set(expected)) > 1, expected  # the H do not all give one value
    cls = new_class()
    hyps = hypotheses(cls)
    kept = dimensions._smallest_unextendable(cls).copy()
    for order in (range(3), reversed(range(3))):
        assert {k: strong_consistency_dim(cls, hyps[k]) for k in order} == dict(enumerate(expected))
    assert np.array_equal(dimensions._smallest_unextendable(cls), kept)


def _hm_from_the_scan_the_search_and_the_array(monkeypatch, cls):
    size = cls.universe.size
    levels = consistency_levels_oracle(cls)
    ms = range(1, size + 2)
    from_scan = [
        sorted((levels > min(m, size)).nonzero()[0].tolist(), key=_labels_from_element_0(size))
        for m in ms
    ]
    searched = ConceptClass(cls.universe, cls.concepts)
    from_search = [hypothesis_hm(searched, m).member_bits() for m in ms]
    _searching_fails(monkeypatch)
    gathered = ConceptClass(cls.universe, cls.concepts)
    dimensions._smallest_unextendable(gathered)
    from_array = [hypothesis_hm(gathered, m).member_bits() for m in ms]
    assert from_search == from_scan
    assert from_array == from_scan


@pytest.mark.parametrize("seed", range(10))
def test_hm_is_the_same_from_the_scan_and_from_the_array(monkeypatch, seed):
    cls = random_class_only(seed + 1500, max_x=8, max_c=12)
    _hm_from_the_scan_the_search_and_the_array(monkeypatch, cls)


def _array_classes(size):
    """A random class, SING(n) and, at 12 elements, TREE(3,2)."""
    yield fixtures.random_class(size, min(1 << size, size + 6), size)
    yield fixtures.singletons(size)
    if size == 12:
        yield fixtures.tree_class(3, 2)


@pytest.mark.parametrize("size", [1, 12])
def test_hm_is_the_same_from_the_scan_and_from_the_array_at_the_edge_sizes(monkeypatch, size):
    # the array's totals are read at bit-reversed indices: a table of 2 and
    # of 4,096 entries
    for cls in _array_classes(size):
        with monkeypatch.context() as patch:
            _hm_from_the_scan_the_search_and_the_array(patch, cls)


def test_array_sizes_run_the_slab_loop_once_and_many_times():
    # rows of the (high digits, low digits) table, over the slab height
    slabs = [-(-(3 ** (size - size // 2)) // dimensions._SLAB_ROWS) for size in range(2, 14)]
    assert slabs[0] == 1 and slabs[-1] >= 9


@pytest.mark.parametrize("slab_rows", [dimensions._SLAB_ROWS, 1, 5])
@pytest.mark.parametrize("size", range(1, 14))
def test_digit_pass_arrays_match_the_per_element_oracle(monkeypatch, size, slab_rows):
    # heights 1 and 5 run the slab loop many times at every size, 5 with a
    # shorter last slab
    monkeypatch.setattr(dimensions, "_SLAB_ROWS", slab_rows)
    rng = SplitMix64(size)
    for cls in _array_classes(size):
        member = np.array(cls.member_bits(), dtype=np.int64)
        others = np.array([rng.below(1 << size) for _ in range(5)], dtype=np.int64)
        for bits in (member, others):
            assert np.array_equal(dimensions._extendable(bits, size), extendable_oracle(bits, size))
        smallest = dimensions._smallest_unextendable(cls)
        assert smallest.dtype == np.int8
        assert np.array_equal(smallest, smallest_unextendable_oracle(cls))


@pytest.mark.parametrize("size", [12, 13, 14])
def test_scdim_matches_the_oracle_arrays(size):
    cls = fixtures.random_class(size, 2 * size, size)
    rng = SplitMix64(size)
    extra = {rng.below(1 << size) for _ in range(3)} - set(cls.bits_index)
    superset = ConceptClass(
        cls.universe, list(cls.concepts) + [Concept(cls.universe, b) for b in sorted(extra)]
    )
    oracle = smallest_unextendable_oracle(cls)
    for hyp in (cls, hypothesis_hm(cls, 2), superset):
        expected = oracle.copy()
        hyp_bits = np.array(hyp.member_bits(), dtype=np.int64)
        expected[extendable_oracle(hyp_bits, size)] = 0
        assert strong_consistency_dim(cls, hyp) == int(expected.max(initial=1))


@pytest.mark.parametrize(
    "make, self_value, h2_value",
    [
        (lambda: fixtures.powerset_class(1), 1, 1),
        (lambda: fixtures.powerset_class(6), 1, 1),
        (lambda: fixtures.singletons(12), 12, 2),
    ],
    ids=["POW(1)", "POW(6)", "SING(12)"],
)
def test_scdim_maxima_at_the_edges(make, self_value, h2_value):
    # every cell of POW(n) is class-extendable, at _INF, so neither maximum
    # sees a size and the answer is the floor 1
    cls = make()
    assert strong_consistency_dim(cls, cls) == self_value
    assert strong_consistency_dim(cls, hypothesis_hm(cls, 2)) == h2_value
    assert cls._smallest_unextendable is not None


def test_scdim_peak_memory_is_the_two_arrays():
    # the class's array and the class's extendability, one byte per cell
    # each; the extendability and its int8 view are freed before the
    # min-closure allocates its slab buffer
    cls = fixtures.random_class(14, 28, 1)
    cells = 3**14
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert strong_consistency_dim(cls, cls) == 7
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert round(peak / cells, 2) <= 2.00, peak / cells


@pytest.mark.parametrize("seed", range(15))
def test_scdim_matches_oracle(seed):
    cls, hyp = random_instance(seed + 600, max_x=5, max_c=6, max_extra=3)
    assert strong_consistency_dim(cls, hyp) == scdim_oracle(cls, hyp)


@pytest.mark.parametrize("seed", range(25))
def test_cdim_at_most_scdim_and_small_levels_equal(seed):
    cls, hyp = random_instance(seed + 900, max_x=5, max_c=6, max_extra=3)
    c = consistency_dim(cls, hyp)
    sc = strong_consistency_dim(cls, hyp)
    assert c <= sc
    if c in (1, 2):
        assert sc == c


# ---------------------------------------------------------------------------
# consistency threshold


def test_threshold_fixture_values(sing4, tree32, pow2):
    assert consistency_threshold(pow2) == 1
    assert consistency_threshold(sing4) == 4
    assert consistency_threshold(tree32) == 4  # {a0} is 3- but not 4-consistent


def test_threshold_equivalences(sing4):
    n = consistency_threshold(sing4)
    size = sing4.universe.size
    # every n-consistent total is |X|-consistent; some (n-1)-consistent total is not
    def full_consistent(bits):
        return sing4.contains_bits(bits)

    for bits in range(1 << size):
        total = Concept(sing4.universe, bits).as_partial()
        if is_n_consistent(total, sing4, n):
            assert full_consistent(bits)
    assert any(
        is_n_consistent(Concept(sing4.universe, bits).as_partial(), sing4, n - 1)
        and not full_consistent(bits)
        for bits in range(1 << size)
    )
    # threshold equals the consistency dimension against H_infinity
    h_inf = hypothesis_hm(sing4, size)
    assert consistency_dim(sing4, h_inf) == n


# ---------------------------------------------------------------------------
# the m-consistent hypothesis construction


def test_hm_sing4_enumeration(sing4):
    hm = hypothesis_hm(sing4, 2)
    assert sorted(hm.member_bits()) == [0, 1, 2, 4, 8]


def test_hm_at_universe_size_is_class(sing4, tree32, five):
    for cls in (sing4, tree32, five):
        size = cls.universe.size
        for m in (size, size + 1, size + 5, 99):
            hm = hypothesis_hm(cls, m)
            assert sorted(hm.member_bits()) == sorted(cls.bits_index), m


def _labels_from_element_0(size):
    return lambda bits: format(bits, f"0{size}b")[::-1]


@given(cls=concept_classes(max_x=7, max_c=12), m=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_hm_orders_members_by_labels_from_element_0(cls, m):
    size = cls.universe.size
    expected = sorted(m_consistent_totals(cls, m), key=_labels_from_element_0(size))
    assert hypothesis_hm(cls, m).member_bits() == expected


def test_hm_tree32_contains_chain_root(tree32):
    hm = hypothesis_hm(tree32, 3)
    a0_total = Concept(tree32.universe, 1)  # {a0} alone, c-consistent
    assert hm.contains_bits(a0_total.bits)
    assert a0_total.bits in hm.member_bits()


def fixed_ldim_check(cls):
    d = ldim_subset(cls, cls.full_version)
    hm = hypothesis_hm(cls, d + 1)
    assert ldim(hm) == d
    assert consistency_dim(cls, hm) <= d + 1


def test_fixed_ldim_on_fixtures(sing4, tree32, five, pow3):
    for cls in (sing4, tree32, five, pow3):
        fixed_ldim_check(cls)


@pytest.mark.parametrize("seed", range(200))
def test_fixed_ldim_random(seed):
    fixed_ldim_check(random_class_only(seed + 5000, max_x=7, max_c=10))


# ---------------------------------------------------------------------------
# reports


def test_dimension_report(tree32):
    hyp = tree32
    ldim_value = ldim_subset(tree32, tree32.full_version)
    vcdim = vc_dim(tree32)
    cdim = consistency_dim(tree32, hyp)
    scdim = strong_consistency_dim(tree32, hyp)
    threshold = consistency_threshold(tree32)
    assert (ldim_value, vcdim, cdim, scdim, threshold) == (2, 1, 4, 9, 4)
    assert vcdim <= ldim_value and cdim <= scdim


# ---------------------------------------------------------------------------
# the consistency levels: the search, the scan oracle and the 3^|X| array


@given(cls=concept_classes(max_x=5, max_c=8))
@settings(max_examples=80, deadline=None)
def test_consistency_levels_match_predicate(cls):
    size = cls.universe.size
    levels = consistency_levels_oracle(cls)
    for n in range(size + 1):
        consistent = set(m_consistent_totals(cls, n))
        for bits in range(1 << size):
            total = Concept(cls.universe, bits).as_partial()
            expected = is_n_consistent(total, cls, n)
            assert (bits in consistent) == bool(levels[bits] > n) == expected, (bits, n)
    # beyond |X|, n-consistency of a total is membership
    for m in (size, size + 1, size + 3):
        assert sorted(m_consistent_totals(cls, m)) == sorted(cls.bits_index)


def _consistency_answers(cls, superset):
    """The threshold, cdim against the superset and against each H_m, and
    the m-consistent totals, for m = 1..|X|+2."""
    ms = range(1, cls.universe.size + 3)
    hms = [hypothesis_hm(cls, m) for m in ms]
    return (
        consistency_threshold(cls),
        consistency_dim(cls, superset),
        [consistency_dim(cls, hm) for hm in hms],
        [sorted(m_consistent_totals(cls, m)) for m in ms],
    )


def _oracle_answers(cls, superset):
    size = cls.universe.size
    levels = consistency_levels_oracle(cls)

    def cdim(hyp):
        outside = np.ones(1 << size, dtype=bool)
        outside[hyp.member_bits()] = False
        return int(levels.max(initial=1, where=outside))

    ms = range(1, size + 3)
    totals = [(levels > min(m, size)).nonzero()[0].tolist() for m in ms]
    hms = [ConceptClass(cls.universe, [Concept(cls.universe, b) for b in t]) for t in totals]
    return cdim(cls), cdim(superset), [cdim(hm) for hm in hms], totals


@given(
    cls=concept_classes(max_x=8, max_c=40),
    extra=st.sets(st.integers(0, (1 << 8) - 1), min_size=1, max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_the_search_gives_the_oracle_and_the_array_answers(cls, extra):
    universe = cls.universe
    superset = set(cls.bits_index) | {b & ((1 << universe.size) - 1) for b in extra}
    superset = ConceptClass(universe, [Concept(universe, b) for b in sorted(superset)])
    searched = _consistency_answers(cls, superset)
    assert searched == _oracle_answers(cls, superset)
    gathered = ConceptClass(universe, cls.concepts)
    dimensions._smallest_unextendable(gathered)
    with pytest.MonkeyPatch.context() as patch:
        _searching_fails(patch)
        assert _consistency_answers(gathered, superset) == searched


def _pow_without_all_ones(n):
    full = fixtures.powerset_class(n)
    return ConceptClass(full.universe, [c for c in full if c.bits != (1 << n) - 1])


@pytest.mark.parametrize(
    "make, threshold",
    [
        (lambda: _pow_without_all_ones(10), 10),
        (lambda: fixtures.singletons(20), 20),
        (lambda: enumerate_dfa_class(3, 3), 7),
        (lambda: fixtures.tree_class(3, 2), 4),
    ],
    ids=["POW(10)-1^10", "SING(20)", "DFA(3,3)", "TREE(3,2)"],
)
def test_search_thresholds_on_pinned_shapes(make, threshold):
    assert consistency_threshold(make()) == threshold


def test_tree32_hm_sizes_from_the_search():
    cls = fixtures.tree_class(3, 2)
    assert [len(m_consistent_totals(cls, m)) for m in (2, 3)] == [13, 12]
    assert cls._smallest_unextendable is None


@pytest.mark.parametrize("threshold_first", [True, False])
def test_levels_are_scanned_once_to_the_end(monkeypatch, threshold_first):
    # TREE(3,2) holding its 3^|X| array: whichever request comes first, the
    # search never runs, the levels are gathered from the array once and in
    # full (members at |X|+1), and every answer equals the searched one
    searched = fixtures.tree_class(3, 2)
    expected = (
        consistency_threshold(searched),
        consistency_dim(searched, hypothesis_hm(searched, 2)),
        hypothesis_hm(searched, 2).member_bits(),
        hypothesis_hm(searched, 6).member_bits(),
    )
    assert expected[:2] == (4, 2) and sorted(expected[3]) == sorted(searched.bits_index)
    cls = fixtures.tree_class(3, 2)
    strong_consistency_dim(cls, cls)
    _searching_fails(monkeypatch)
    if threshold_first:
        assert consistency_threshold(cls) == expected[0]
    hm = hypothesis_hm(cls, 2)
    levels = cls._consistency_levels
    assert np.array_equal(levels, consistency_levels_oracle(cls))
    got = (
        consistency_threshold(cls),
        consistency_dim(cls, hm),
        hm.member_bits(),
        hypothesis_hm(cls, 6).member_bits(),
    )
    assert got == expected
    assert cls._consistency_levels is levels
