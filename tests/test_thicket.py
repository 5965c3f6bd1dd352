"""Thicket query graph: exact-rational weights, ranks, cycles, Monte-Carlo."""

import math
from fractions import Fraction

import pytest

from eqlearn import fixtures
from eqlearn.core import Distribution, parse_class
from eqlearn.dimensions import ldim_subset
from eqlearn.learners import edge_weight_in
from eqlearn.thicket import (
    ThicketGraph,
    deficient_cycle_search,
    edge_weight,
    estimate_expected_queries,
    query_rank,
    u_value,
)

from conftest import random_class_only

HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def pair_class():
    return parse_class("elements: x\n0\n1")


def test_u_value_examples(sing4):
    assert u_value(sing4, sing4.concepts[0], 0) == 1
    assert u_value(sing4, sing4.concepts[0], 1) == 0
    single = fixtures.random_class(3, 1, seed=30)
    for a in range(3):
        assert u_value(single, single.concepts[0], a) == 0


def test_u_value_requires_membership(sing4):
    from eqlearn.core import Concept

    with pytest.raises(ValueError, match="member"):
        u_value(sing4, Concept(sing4.universe, 0b1111), 0)


def test_edge_weight_examples(sing4, pair_class):
    mu = Distribution.uniform(sing4.universe)
    w = edge_weight(sing4, mu, sing4.concepts[0], sing4.concepts[1])
    assert w == HALF
    mu1 = Distribution.uniform(pair_class.universe)
    assert edge_weight(pair_class, mu1, pair_class.concepts[0], pair_class.concepts[1]) == 1


def _tree32_version(tree32, name):
    full = tree32.full_version
    if name == "full":
        return full
    if name == "pair":
        return (1 << 0) | (1 << 4)
    if name == "without-1":
        return full & ~(1 << 1)
    # "agree": constrain the first point where concepts 0 and 4 agree
    a, b = tree32.concepts[0], tree32.concepts[4]
    x = next(x for x in range(12) if a.label(x) == b.label(x))
    return tree32.restrict_version(full, x, a.label(x))


@pytest.mark.parametrize("version_name", ["full", "pair", "without-1", "agree"])
def test_edge_weight_tree32_against_direct_sum(tree32, version_name):
    # brute-force the defining sum for one pair with an independent ldim path
    mu = Distribution.uniform(tree32.universe)
    a = tree32.concepts[0]  # sigma = (0,0)
    b = tree32.concepts[4]  # sigma = (1,1)
    version = _tree32_version(tree32, version_name)
    assert (version & 1) and (version >> 4) & 1
    d = ldim_subset(tree32, version)
    delta = [x for x in range(12) if a.label(x) != b.label(x)]
    total = Fraction(0)
    for x in delta:
        v = tree32.restrict_version(version, x, b.label(x))
        total += Fraction(1, 12) * (d - ldim_subset(tree32, v))
    expected = total / Fraction(len(delta), 12)
    assert edge_weight_in(tree32, mu, version, a, b) == expected
    if version_name == "full":
        assert edge_weight(tree32, mu, a, b) == expected
        # four delta points; revealing b's labels drops 0, 0 (chain points of a),
        # 1 (b's level-1 point), 2 (b's leaf pins a singleton)
        assert expected == Fraction(3, 4)
    if version_name == "pair":
        # every revealed label of b pins b
        assert expected == 1


def test_edge_weight_rejects_equal(sing4):
    mu = Distribution.uniform(sing4.universe)
    with pytest.raises(ValueError, match="identical"):
        edge_weight(sing4, mu, sing4.concepts[0], sing4.concepts[0])


def test_query_rank_examples(sing4, pair_class):
    mu = Distribution.uniform(sing4.universe)
    for concept in sing4.concepts:
        assert query_rank(sing4, mu, concept) == HALF
    mu1 = Distribution.uniform(pair_class.universe)
    assert query_rank(pair_class, mu1, pair_class.concepts[0]) == 1


def test_query_rank_rejects_singleton():
    single = fixtures.random_class(3, 1, seed=31)
    mu = Distribution.uniform(single.universe)
    with pytest.raises(ValueError, match="two concepts"):
        query_rank(single, mu, single.concepts[0])


def test_max_query_rank_random_seed7():
    cls = fixtures.random_class(6, 6, seed=7)
    mu = Distribution.uniform(cls.universe)
    assert ThicketGraph(cls, mu).max_query_rank() >= HALF


def _instances(count, start_seed, max_x=6, max_c=6):
    for k in range(count):
        cls = random_class_only(start_seed + k, max_x=max_x, max_c=max_c)
        mu = fixtures.random_distribution(cls.universe, start_seed + 7919 * k)
        yield cls, mu


def test_pair_sum_and_rank_invariants_fixtures(sing4, tree32, five, pair_class):
    for cls in (sing4, tree32, five, pair_class):
        mu = Distribution.uniform(cls.universe)
        graph = ThicketGraph(cls, mu)
        n = len(cls)
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert graph.weight(i, j) + graph.weight(j, i) >= 1
        assert graph.max_query_rank() >= HALF


@pytest.mark.parametrize("seed", range(20))
def test_pair_sum_and_u_lemma_random(seed):
    cls, mu = next(_instances(1, 1000 + seed * 13))
    graph = ThicketGraph(cls, mu)
    n = len(cls)
    d_full = ldim_subset(cls, cls.full_version)
    for i in range(n):
        for j in range(i + 1, n):
            assert graph.weight(i, j) + graph.weight(j, i) >= 1
            a_bits = cls.concepts[i].bits
            b_bits = cls.concepts[j].bits
            for x in range(cls.universe.size):
                if ((a_bits ^ b_bits) >> x) & 1:
                    ua = u_value(cls, cls.concepts[i], x)
                    ub = u_value(cls, cls.concepts[j], x)
                    assert ua + ub >= 1
    assert graph.max_query_rank() >= HALF


def test_deficient_cycles_none_fixtures(sing4, pair_class):
    mu = Distribution.uniform(sing4.universe)
    assert deficient_cycle_search(sing4, mu, 4) is None
    mu1 = Distribution.uniform(pair_class.universe)
    assert deficient_cycle_search(pair_class, mu1, 2) is None


def test_deficient_cycles_length_guard(sing4):
    mu = Distribution.uniform(sing4.universe)
    with pytest.raises(ValueError, match="exceed"):
        deficient_cycle_search(sing4, mu, 5)


@pytest.mark.parametrize("seed", range(50))
def test_deficient_cycles_none_random(seed):
    cls, mu = next(_instances(1, 9000 + seed * 17))
    assert deficient_cycle_search(cls, mu, len(cls)) is None


# ---------------------------------------------------------------------------
# Monte-Carlo estimation


def test_estimate_singleton_class():
    single = fixtures.random_class(3, 1, seed=33)
    mu = Distribution.uniform(single.universe)
    stats = estimate_expected_queries(single, mu, 50, seed=1)
    # the only query identifies the target immediately
    assert stats.mean == 0.0 and stats.stderr == 0.0
    assert stats.mean_total == 1.0


def test_estimate_deterministic(sing4):
    mu = Distribution.uniform(sing4.universe)
    a = estimate_expected_queries(sing4, mu, 500, seed=42)
    b = estimate_expected_queries(sing4, mu, 500, seed=42)
    assert (a.mean, a.stderr, a.max_queries, a.per_target_mean) == (
        b.mean,
        b.stderr,
        b.max_queries,
        b.per_target_mean,
    )


def test_estimate_bounds_sing4(sing4):
    mu = Distribution.uniform(sing4.universe)
    stats = estimate_expected_queries(sing4, mu, 3000, seed=42)
    assert stats.mean <= 2 * stats.ldim + 3 * stats.stderr
    assert set(stats.per_target_mean) == {0, 1, 2, 3}


def test_estimate_bounds_tree32(tree32):
    mu = Distribution.uniform(tree32.universe)
    stats = estimate_expected_queries(tree32, mu, 3000, seed=42)
    assert stats.mean <= 2 * stats.ldim + 3 * stats.stderr


def test_estimate_tail_sanity(sing4, tree32):
    for cls, trials in ((sing4, 4000), (tree32, 4000)):
        mu = Distribution.uniform(cls.universe)
        d = ldim_subset(cls, cls.full_version)
        # replay the counts to measure tail fractions
        from eqlearn.learners import ThicketMaxMinLearner, run_session
        from eqlearn.rng import mix64
        from eqlearn.teachers import RandomTeacher

        counts = []
        policy = {}
        for t in range(trials):
            teacher = RandomTeacher(cls, t % len(cls), mu, mix64(42, t))
            learner = ThicketMaxMinLearner(cls, mu, policy_cache=policy)
            transcript = run_session(learner, teacher, len(cls) + 1)
            counts.append(transcript.eq_count - 1)
        for n in (4 * d, 8 * d):
            frac = sum(1 for c in counts if c > n) / trials
            hoeffding = math.exp(-2 * (n / (2 * d) - d) ** 2 / n)
            se = math.sqrt(max(frac * (1 - frac), 1e-12) / trials)
            assert frac <= hoeffding + 5 * se


def test_estimate_validates_trials(sing4):
    mu = Distribution.uniform(sing4.universe)
    with pytest.raises(ValueError):
        estimate_expected_queries(sing4, mu, 0, seed=1)
