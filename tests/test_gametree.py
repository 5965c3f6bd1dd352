"""Minimax oracle: frozen values, the reference oracles, and sandwiches."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlearn import fixtures
from eqlearn.core import AllTotals, Concept, ConceptClass, Universe
from eqlearn.dimensions import (
    consistency_dim,
    hypothesis_hm,
    ldim,
    strong_consistency_dim,
)
from eqlearn.gametree import lc_eq_exact, lc_eqmq_exact, lc_exact_with_stats

from conftest import (
    lc_memo_oracle,
    lc_reference,
    random_instance,
    steps_under_raising_limit,
)


def test_lc_eq_fixture_values(sing4, singe4, tree32):
    assert lc_eq_exact(sing4, sing4) == 4
    assert lc_eq_exact(sing4, singe4) == 2
    assert lc_eq_exact(tree32, tree32) == 9


def test_lc_eqmq_fixture_values(sing4, singe4):
    assert lc_eqmq_exact(sing4, sing4) == 4
    assert lc_eqmq_exact(sing4, singe4) == 2
    single = fixtures.random_class(3, 1, seed=1)
    assert lc_eqmq_exact(single, single) == 1
    assert lc_eq_exact(single, single) == 1


def test_all_totals_guard():
    cls = fixtures.singletons(6)
    with pytest.raises(ValueError, match="limited"):
        lc_eq_exact(cls, AllTotals(cls.universe))


def test_all_totals_small(sing4):
    # guessing the empty set forces the teacher to name the target
    assert lc_eq_exact(sing4, AllTotals(sing4.universe)) == 2


@pytest.mark.parametrize("seed", range(20))
def test_powerset_complexity_is_exactly_ldim_plus_one(seed):
    # the adversarial lower bound meets the majority strategy's upper bound
    cls = random_instance(seed + 2800, max_x=5, max_c=6)[0]
    assert lc_eq_exact(cls, AllTotals(cls.universe)) == ldim(cls) + 1


def test_sc2_complexity_is_exactly_ldim_plus_one():
    hits = 0
    for seed in range(60):
        cls, hyp = random_instance(seed + 2900, max_x=5, max_c=6)
        if consistency_dim(cls, hyp) != 2:
            continue
        hits += 1
        assert lc_eq_exact(cls, hyp) == ldim(cls) + 1
    assert hits >= 3  # the sweep must actually exercise dimension-2 instances


def test_enumerated_hm_hypotheses(sing4):
    # H_2 over the singletons adds exactly the empty set
    assert lc_eq_exact(sing4, hypothesis_hm(sing4, 2)) == 2
    assert lc_eqmq_exact(sing4, hypothesis_hm(sing4, 2)) == 2


def test_node_count_reported(sing4):
    value, nodes = lc_exact_with_stats(sing4, sing4, "eq")
    assert value == 4 and nodes >= 1


@pytest.mark.parametrize("seed", range(20))
def test_memoized_matches_reference(seed):
    cls, hyp = random_instance(seed + 1200, max_x=4, max_c=5, max_extra=2)
    assert lc_eq_exact(cls, hyp) == lc_reference(cls, hyp, allow_mq=False)
    assert lc_eqmq_exact(cls, hyp) == lc_reference(cls, hyp, allow_mq=True)


@given(seed=st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_oracle_matches_memo_oracle(seed):
    """The child-table search with cutoffs equals the plain memoized
    recursion in both modes, for H = self, H_1..H_3, a random superset and
    (on small universes) the powerset."""
    cls, superset = random_instance(seed, max_x=8, max_c=16, max_extra=6)
    hyps = [cls, superset]
    hyps += [hypothesis_hm(cls, m) for m in (1, 2, 3)]
    if cls.universe.size <= 4:
        hyps.append(AllTotals(cls.universe))
    for hyp in hyps:
        assert lc_eq_exact(cls, hyp) == lc_memo_oracle(cls, hyp, allow_mq=False)
        assert lc_eqmq_exact(cls, hyp) == lc_memo_oracle(cls, hyp, allow_mq=True)


@given(seed=st.integers(0, 2**32), data=st.data())
@settings(max_examples=40, deadline=None)
def test_value_never_grows_on_a_subclass(seed, data):
    """A subset of a version has no larger value: every answer consistent
    with the subset is consistent with the version.  The oracle's floor (the
    largest child value seen) rests on this."""
    cls, superset = random_instance(seed, max_x=7, max_c=12, max_extra=4)
    keep = data.draw(st.sets(st.integers(0, len(cls) - 1), min_size=1))
    sub = ConceptClass(cls.universe, [cls.concepts[k] for k in sorted(keep)])
    for hyp in (cls, superset, hypothesis_hm(cls, 2)):
        for allow_mq in (False, True):
            assert lc_memo_oracle(sub, hyp, allow_mq) <= lc_memo_oracle(
                cls, hyp, allow_mq
            )


@pytest.mark.parametrize("size", [2, 3, 4])
def test_three_concepts_closed_form(size):
    """Every three-concept class on |X| <= 4: the value is 2 exactly when the
    bitwise majority total is a hypothesis, else 3, in both modes, with H the
    class, the powerset, and the class plus one other total: the majority
    when the class lacks it, and the lowest total that is neither."""
    universe = Universe([f"x{i}" for i in range(size)])
    totals = range(1 << size)
    for bits in itertools.combinations(totals, 3):
        a, b, c = bits
        majority = (a & b) | (a & c) | (b & c)
        cls = ConceptClass(universe, [Concept(universe, t) for t in bits])
        other = next(t for t in totals if t not in bits and t != majority)
        extras = [other] if majority in bits else [majority, other]
        # the unmemoized reference is exponential in |H|, so the powerset is
        # checked against the memoized one
        hyps = [(cls, lc_reference), (AllTotals(universe), lc_memo_oracle)]
        hyps += [
            (
                ConceptClass(universe, [*cls.concepts, Concept(universe, t)]),
                lc_reference,
            )
            for t in extras
        ]
        for hyp, reference in hyps:
            expected = 2 if hyp.contains_bits(majority) else 3
            for mode, allow_mq in (("eq", False), ("eqmq", True)):
                assert lc_exact_with_stats(cls, hyp, mode) == (expected, 1)
                assert reference(cls, hyp, allow_mq) == expected


def test_nodes_count_versions_of_two_or_more_concepts(sing4):
    # SING(4) with itself: the full version and the four versions of three
    # singletons that its hypotheses leave are valued, the latter by closed
    # form (their majority, the empty set, is not a hypothesis)
    assert lc_exact_with_stats(sing4, sing4, "eq") == (4, 5)
    for n_concepts, expected in ((2, (2, 1)), (1, (1, 0))):
        cls = fixtures.random_class(3, n_concepts, seed=1)
        for mode in ("eq", "eqmq"):
            assert lc_exact_with_stats(cls, cls, mode) == expected


def test_recursion_guard_admits_only_what_fits():
    """Raising Python's recursion limit step by step, the search is first
    refused and then gives the value; no RecursionError ever comes from
    inside it.  The first line of play on SING(10) goes the full depth."""
    cls = fixtures.singletons(10)
    hyp = cls

    def attempt():
        assert lc_exact_with_stats(cls, hyp, "eq")[0] == 10
        assert lc_exact_with_stats(cls, hyp, "eqmq")[0] == 10

    seen = steps_under_raising_limit(attempt, {"value", "_expand"})
    assert seen[-1] == "value" and "refused" in seen


def sandwich_eq(cls, hyp):
    d = ldim(cls)
    c = consistency_dim(cls, hyp)
    sc = strong_consistency_dim(cls, hyp)
    lc = lc_eq_exact(cls, hyp)
    assert d + 1 <= lc
    assert sc <= lc
    if c >= 2:
        assert lc <= c**d
        assert lc <= math.ceil(sc * math.log(len(cls)))
    else:
        # the c^d theorem assumes c > 1; with c = 1 the majority strategy
        # gives exactly the d + 1 bound
        assert lc <= d + 1
    return lc


def sandwich_eqmq(cls, hyp, lc_eq):
    d = ldim(cls)
    c = consistency_dim(cls, hyp)
    lc = lc_eqmq_exact(cls, hyp)
    # no d + 1 floor: a membership query can drop the Littlestone dimension
    # by more than one (see test_membership_query_can_drop_ldim_by_two)
    assert c <= lc
    assert lc <= max(1, c - 1) * d + 1
    assert lc <= lc_eq
    return lc


def test_sandwich_fixtures(sing4, singe4, tree32, five, pow3):
    pairs = [
        (sing4, sing4),
        (sing4, singe4),
        (tree32, tree32),
        (five, five),
        (pow3, pow3),
    ]
    for cls, hyp in pairs:
        lc = sandwich_eq(cls, hyp)
        sandwich_eqmq(cls, hyp, lc)


def test_membership_query_can_drop_ldim_by_two():
    """A class of ldim 3 whose EQ+MQ value is 3, below ldim + 1: x0 = 0
    with x1..x4 labelled as SING(4) or all 0, and x0 = 1 with x1..x4
    labelled as a complement of SING(4) or all 1.  Its EQ value is 4."""
    universe = Universe([f"x{i}" for i in range(5)])
    rows = ["01000", "00100", "00010", "00001", "00000"]
    rows += ["10111", "11011", "11101", "11110", "11111"]
    cls = ConceptClass(universe, [Concept.from_bitstring(universe, r) for r in rows])
    assert ldim(cls) == 3 and consistency_dim(cls, cls) == 3
    for hyp in (cls, AllTotals(universe)):
        lc = sandwich_eq(cls, hyp)
        assert lc == lc_memo_oracle(cls, hyp, allow_mq=False) == 4
        assert sandwich_eqmq(cls, hyp, lc) == lc_memo_oracle(cls, hyp, allow_mq=True) == 3


@pytest.mark.parametrize("seed", range(40))
def test_sandwich_random(seed):
    cls, hyp = random_instance(seed + 2000)
    lc = sandwich_eq(cls, hyp)
    sandwich_eqmq(cls, hyp, lc)


@pytest.mark.parametrize("seed", range(6))
def test_learner_playouts_bracket_exact_value(seed):
    """Worst play-out length sits between the exact complexity and the
    learner's certified bound, exhaustively over adversary answers."""
    from eqlearn.learners import (
        CdimEqLearner,
        EqMqLearner,
        HalvingEqLearner,
        OptimalEqLearner,
    )
    from conftest import enumerate_playouts

    cls, hyp = random_instance(seed + 3100, max_x=4, max_c=5, max_extra=2)
    lc_eq = lc_eq_exact(cls, hyp)
    lc_mq = lc_eqmq_exact(cls, hyp)
    lc_pow = lc_eq_exact(cls, AllTotals(cls.universe))

    factories = [
        (lambda: OptimalEqLearner(cls), lc_pow),
        (lambda: CdimEqLearner(cls, hyp), lc_eq),
        (lambda: HalvingEqLearner(cls, hyp), lc_eq),
        (lambda: EqMqLearner(cls, hyp), lc_mq),
    ]
    for factory, exact in factories:
        budget = factory().certified_budget
        lengths = enumerate_playouts(factory, cls, max_depth=budget + 1)
        assert lengths
        assert max(lengths) >= exact
        assert max(lengths) <= budget
