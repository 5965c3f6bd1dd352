"""Dimension computations against paper values and definition-level oracles."""

import pytest
from hypothesis import given, settings

from eqlearn import fixtures
from eqlearn.core import (
    AllTotals,
    Concept,
    ExplicitHypotheses,
    is_n_consistent,
)
from eqlearn.dimensions import (
    MConsistentHypotheses,
    consistency_dim,
    consistency_threshold,
    dimension_report,
    enumerate_hypotheses,
    hypothesis_hm,
    ldim,
    ldim_subset,
    strong_consistency_dim,
    vc_dim,
)

from conftest import (
    cdim_oracle,
    concept_classes,
    ldim_oracle,
    random_class_only,
    random_instance,
    scdim_oracle,
)


# ---------------------------------------------------------------------------
# Littlestone dimension


def test_ldim_fixture_values(sing4, tree32, pow3, five):
    assert ldim(tree32)[0] == 2  # the chain construction has dimension d
    assert ldim(pow3)[0] == 3
    assert ldim(sing4)[0] == 1
    assert ldim(five)[0] == ldim_oracle(five)


def test_ldim_witness_proper(sing4, tree32, pow3, five):
    for cls in (sing4, tree32, pow3, five):
        d, tree = ldim(cls)
        assert tree.height() == d
        assert tree.is_proper(cls)


@pytest.mark.parametrize("seed", range(25))
def test_ldim_matches_oracle(seed):
    cls = random_class_only(seed, max_x=5, max_c=7)
    d, tree = ldim(cls)
    assert d == ldim_oracle(cls)
    assert tree.height() == d
    assert tree.is_proper(cls)


@given(cls=concept_classes())
@settings(max_examples=80, deadline=None)
def test_ldim_witness_properties(cls):
    d, tree = ldim(cls)
    assert tree.height() == d
    assert tree.is_proper(cls)
    assert vc_dim(cls) <= d


def test_ldim_subset_empty_and_singleton(sing4):
    assert ldim_subset(sing4, 0) == -1
    assert ldim_subset(sing4, 0b0100) == 0


# ---------------------------------------------------------------------------
# VC dimension


def test_vc_fixture_values(sing4, tree32, pow3):
    assert vc_dim(pow3) == 3
    assert vc_dim(sing4) == 1
    assert vc_dim(tree32) == 1


@pytest.mark.parametrize("seed", range(20))
def test_vc_at_most_ldim(seed):
    cls = random_class_only(seed + 100, max_x=6, max_c=9)
    assert vc_dim(cls) <= ldim(cls)[0]


# ---------------------------------------------------------------------------
# consistency dimension


def test_cdim_fixture_values(sing4, singe4, tree32, five):
    assert consistency_dim(tree32, ExplicitHypotheses(tree32)) == 4  # c + 1
    assert consistency_dim(five, ExplicitHypotheses(five)) == 3
    assert consistency_dim(sing4, ExplicitHypotheses(singe4)) == 2


def test_cdim_requires_subclass(sing4):
    smaller = fixtures.singletons(4)
    hyp = ExplicitHypotheses(
        fixtures.powerset_class(4)
    )  # fine: contains everything
    assert consistency_dim(smaller, hyp) == 1
    not_super = ExplicitHypotheses(
        fixtures.random_class(4, 2, seed=5)
    )
    with pytest.raises(ValueError, match="outside the hypothesis class"):
        consistency_dim(sing4, not_super)


@pytest.mark.parametrize("seed", range(15))
def test_cdim_matches_oracle(seed):
    cls, hyp = random_instance(seed + 300, max_x=5, max_c=6, max_extra=3)
    assert consistency_dim(cls, hyp) == cdim_oracle(cls, hyp)


# ---------------------------------------------------------------------------
# strong consistency dimension


def test_scdim_fixture_values(tree32, five):
    assert strong_consistency_dim(tree32, ExplicitHypotheses(tree32)) == 9  # c^d
    sc_five = strong_consistency_dim(five, ExplicitHypotheses(five))
    assert sc_five >= 4  # the four-ones partial with e unspecified is 3-consistent
    assert sc_five == scdim_oracle(five, ExplicitHypotheses(five)) == 4


def test_scdim_all_totals(sing4):
    assert strong_consistency_dim(sing4, AllTotals(sing4.universe)) == 1


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
    h_inf = MConsistentHypotheses(sing4, size)
    assert consistency_dim(sing4, h_inf) == n


# ---------------------------------------------------------------------------
# the m-consistent hypothesis construction


def test_hm_sing4_enumeration(sing4):
    hm = hypothesis_hm(sing4, 2)
    assert sorted(hm.enumerate_bits()) == [0, 1, 2, 4, 8]


def test_hm_at_universe_size_is_class(sing4, tree32, five):
    for cls in (sing4, tree32, five):
        hm = hypothesis_hm(cls, cls.universe.size)
        assert sorted(hm.enumerate_bits()) == sorted(cls.bits_index)


def test_hm_tree32_contains_chain_root(tree32):
    hm = hypothesis_hm(tree32, 3)
    a0_total = Concept(tree32.universe, 1)  # {a0} alone, c-consistent
    assert hm.contains(a0_total)
    assert a0_total.bits in hm.enumerate_bits()


def fixed_ldim_check(cls):
    d = ldim_subset(cls, cls.full_version)
    hm = hypothesis_hm(cls, d + 1)
    as_class = enumerate_hypotheses(hm)
    assert ldim(as_class)[0] == d
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
    report = dimension_report(tree32, ExplicitHypotheses(tree32), strong=True)
    assert (report.ldim, report.vcdim, report.cdim, report.scdim, report.threshold) == (
        2,
        1,
        4,
        9,
        4,
    )
    assert report.vcdim <= report.ldim and report.cdim <= report.scdim
