"""Thicket query graph: exact-rational weights, ranks, cycles, Monte-Carlo."""

import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlearn import fixtures
from eqlearn.core import Concept, Distribution, Universe, parse_class
from eqlearn.dimensions import ldim_subset
from eqlearn.thicket import (
    ThicketGraph,
    TrialStats,
    deficient_cycle_search,
    estimate_expected_queries,
    query_rank,
    shortest_deficient_cycle,
)

from conftest import (
    concept_classes,
    deficient_cycle_oracle,
    edge_weight_oracle,
    random_class_only,
    trial_counts_oracle,
)

HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def pair_class():
    return parse_class("elements: x\n0\n1")


def u_value(cls, concept, element):
    """Dimension drop when the class is constrained to agree with the concept
    at one element."""
    full = cls.full_version
    sub = cls.restrict_version(full, element, concept.label(element))
    return ldim_subset(cls, full) - ldim_subset(cls, sub)


def test_u_value_examples(sing4):
    assert u_value(sing4, sing4.concepts[0], 0) == 1
    assert u_value(sing4, sing4.concepts[0], 1) == 0
    single = fixtures.random_class(3, 1, seed=30)
    for a in range(3):
        assert u_value(single, single.concepts[0], a) == 0


def test_query_rank_requires_membership(sing4):
    mu = Distribution.uniform(sing4.universe)
    with pytest.raises(ValueError, match="member"):
        query_rank(sing4, mu, Concept(sing4.universe, 0b1111))


def test_query_rank_refuses_a_concept_over_another_universe(sing4):
    # both concepts carry the bits of SING(4)'s first member
    mu = Distribution.uniform(sing4.universe)
    other = Universe([f"y{i}" for i in range(4)])
    for concept in (Concept(other, 1), fixtures.singletons(5).concepts[0]):
        assert concept.bits == sing4.concepts[0].bits
        with pytest.raises(ValueError, match="universe differs"):
            query_rank(sing4, mu, concept)


def test_edge_weight_examples(sing4, pair_class):
    mu = Distribution.uniform(sing4.universe)
    assert ThicketGraph(sing4, mu, sing4.full_version).weight(0, 1) == HALF
    mu1 = Distribution.uniform(pair_class.universe)
    assert ThicketGraph(pair_class, mu1, pair_class.full_version).weight(0, 1) == 1


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
    assert ThicketGraph(tree32, mu, version).weight(0, 4) == expected
    if version_name == "full":
        assert ThicketGraph(tree32, mu).weight(0, 4) == expected
        # four delta points; revealing b's labels drops 0, 0 (chain points of a),
        # 1 (b's level-1 point), 2 (b's leaf pins a singleton)
        assert expected == Fraction(3, 4)
    if version_name == "pair":
        # every revealed label of b pins b
        assert expected == 1


@settings(max_examples=60, deadline=None)
@given(
    concept_classes(max_x=6, max_c=8).filter(lambda cls: len(cls) >= 2),
    st.integers(0, 2**64 - 1),
    st.data(),
)
def test_every_edge_weight_matches_the_defining_sum(cls, seed, data):
    members = st.lists(st.sampled_from(range(len(cls))), min_size=2, unique=True)
    version = sum(1 << k for k in data.draw(members))
    mu = fixtures.random_distribution(cls.universe, seed)
    graph = ThicketGraph(cls, mu, version)
    for a in graph.indices:
        for b in graph.indices:
            if a != b:
                assert graph.weight(a, b) == edge_weight_oracle(cls, mu, version, a, b)


def test_edge_weight_rejects_equal(sing4):
    mu = Distribution.uniform(sing4.universe)
    with pytest.raises(ValueError, match="no self-edges"):
        ThicketGraph(sing4, mu).weight(0, 0)


def test_edge_weight_and_query_rank_refuse_concepts_outside_the_version(sing4):
    # concepts 2 and 3 are outside the version {0, 1}, so no edge there has a weight
    mu = Distribution.uniform(sing4.universe)
    graph = ThicketGraph(sing4, mu, 0b11)
    assert graph.weight(0, 1) == 1
    for i, j in ((2, 3), (0, 3)):
        with pytest.raises(ValueError, match="leaves the graph's version"):
            graph.weight(i, j)
    with pytest.raises(ValueError, match="leaves the graph's version"):
        graph.query_rank(3)
    assert graph.query_rank(0) == 1


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


def test_deficient_cycles_rejects_short_lengths(sing4):
    mu = Distribution.uniform(sing4.universe)
    for max_len in (1, 0, -1):
        with pytest.raises(ValueError, match="at least 2"):
            deficient_cycle_search(sing4, mu, max_len)


@pytest.mark.parametrize("seed", range(50))
def test_deficient_cycles_none_random(seed):
    cls, mu = next(_instances(1, 9000 + seed * 17))
    assert deficient_cycle_search(cls, mu, len(cls)) is None
    graph = ThicketGraph(cls, mu)
    assert deficient_cycle_oracle(graph.weight, len(cls), len(cls)) is None


# ---------------------------------------------------------------------------
# the shortest-path cycle check on hand-built and random weight matrices

Q, H, T, ONE = Fraction(1, 4), HALF, Fraction(3, 4), Fraction(1)


def _matrix(rows):
    def weight(i, j):
        if i == j:
            raise ValueError("no self-edges")
        return rows[i][j]

    return weight


def _assert_deficient_cycle(weight, cycle, max_len):
    length = len(cycle)
    assert 2 <= length <= max_len and len(set(cycle)) == length
    weights = [weight(cycle[k], cycle[(k + 1) % length]) for k in range(length)]
    assert all(w <= HALF for w in weights) and any(w < HALF for w in weights)


def _counted(weight):
    """`weight`, and the number of times each ordered pair was asked of it."""
    asked = Counter()

    def counting(i, j):
        asked[i, j] += 1
        return weight(i, j)

    return counting, asked


def _check_against_oracle(weight, n, max_len):
    counting, asked = _counted(weight)
    found = shortest_deficient_cycle(counting, n, max_len)
    assert max(asked.values()) == 1  # no ordered pair's weight is asked twice
    expected = deficient_cycle_oracle(weight, n, max_len)
    assert (found is None) == (expected is None)
    if found is not None:
        _assert_deficient_cycle(weight, found, max_len)
        assert len(found) == len(expected)
    return found


def test_hand_built_deficient_two_cycle():
    # 0 -> 1 is strict and 1 -> 0 sits at 1/2; everything else is heavy
    weight = _matrix([[None, Q, ONE], [H, None, ONE], [ONE, ONE, None]])
    for max_len in (2, 3):
        assert sorted(_check_against_oracle(weight, 3, max_len)) == [0, 1]


def test_hand_built_deficient_three_cycle():
    # 0 -> 1 -> 2 -> 0 at 1/2, 1/2, 1/4 is the only deficient cycle; the
    # 2-cycle 0 <-> 3 sits at exactly 1/2 both ways and is not deficient
    weight = _matrix(
        [
            [None, H, T, H],
            [T, None, H, T],
            [Q, T, None, T],
            [H, T, T, None],
        ]
    )
    assert _check_against_oracle(weight, 4, 2) is None
    for max_len in (3, 4):
        cycle = _check_against_oracle(weight, 4, max_len)
        assert cycle[cycle.index(0):] + cycle[: cycle.index(0)] == [0, 1, 2]


def test_hand_built_cycle_longer_than_max_len():
    # the ring 0 -> 1 -> 2 -> 3 -> 4 -> 0 is light with one strict edge;
    # every other edge is heavy, so the only deficient cycle has length 5
    n = 5
    rows = [[ONE] * n for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = H
    rows[4][0] = Q
    weight = _matrix(rows)
    for max_len in (2, 3, 4):
        assert _check_against_oracle(weight, n, max_len) is None
    assert len(_check_against_oracle(weight, n, 5)) == 5


def test_cycle_search_on_query_graphs_asks_each_weight_once(tree32):
    sing6 = fixtures.singletons(6)
    for cls, mu in [
        (tree32, Distribution.uniform(tree32.universe)),
        (sing6, Distribution.uniform(sing6.universe)),
        *_instances(3, 4242),
    ]:
        weight = ThicketGraph(cls, mu).weight
        for max_len in range(2, len(cls) + 1):
            counting, asked = _counted(weight)
            assert shortest_deficient_cycle(counting, len(cls), max_len) is None
            assert max(asked.values()) == 1


def test_query_graph_and_cycle_search_keep_no_per_pair_state():
    # SING(120) has 14,280 ordered pairs: a Fraction kept for each of them
    # peaks above 2 MB here, while the light adjacency lists peak near 0.2 MB
    cls = fixtures.singletons(120)
    mu = Distribution.uniform(cls.universe)
    tracemalloc.start()
    try:
        assert ThicketGraph(cls, mu).max_query_rank() == HALF
        assert deficient_cycle_search(cls, mu, len(cls)) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024, peak


@st.composite
def _weight_matrices(draw):
    n = draw(st.integers(2, 6))
    values = st.sampled_from([Fraction(0), Q, H, T, ONE])
    rows = [[None if i == j else draw(values) for j in range(n)] for i in range(n)]
    return n, rows, draw(st.integers(2, n))


@settings(max_examples=300, deadline=None)
@given(_weight_matrices())
def test_shortest_cycle_matches_oracle(case):
    n, rows, max_len = case
    _check_against_oracle(_matrix(rows), n, max_len)


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
        counts = trial_counts_oracle(cls, mu, trials, 42)
        for n in (4 * d, 8 * d):
            frac = sum(1 for c in counts if c > n) / trials
            hoeffding = math.exp(-2 * (n / (2 * d) - d) ** 2 / n)
            se = math.sqrt(max(frac * (1 - frac), 1e-12) / trials)
            assert frac <= hoeffding + 5 * se


def _assert_walk_matches_sessions(cls, mu, trials, seed):
    stats = estimate_expected_queries(cls, mu, trials, seed)
    counts = trial_counts_oracle(cls, mu, trials, seed)
    assert stats == TrialStats.of_counts(counts, len(cls), ldim_subset(cls, cls.full_version))
    assert stats.trials == trials and stats.max_queries == max(counts)
    assert stats.mean == sum(counts) / trials


@pytest.mark.parametrize("seed", range(24))
def test_estimate_walk_matches_whole_sessions_random(seed):
    cls = random_class_only(3100 + seed, max_x=8, max_c=14)
    mu = fixtures.random_distribution(cls.universe, 3200 + seed, granularity=1 + seed % 5 * 7)
    _assert_walk_matches_sessions(cls, mu, 3 * len(cls) + seed % 4, seed)


@pytest.mark.parametrize("name", ["sing8", "five", "tree32"])
def test_estimate_walk_matches_whole_sessions_fixtures(name):
    cls = {
        "sing8": fixtures.singletons(8),
        "five": fixtures.five_class(),
        "tree32": fixtures.tree_class(3, 2),
    }[name]
    for k, mu in enumerate(
        (Distribution.uniform(cls.universe), fixtures.random_distribution(cls.universe, 77))
    ):
        _assert_walk_matches_sessions(cls, mu, 150, 5 + k)


def test_estimate_validates_trials(sing4):
    mu = Distribution.uniform(sing4.universe)
    with pytest.raises(ValueError):
        estimate_expected_queries(sing4, mu, 0, seed=1)
    # the distribution and the seed are checked as the random teacher checks them
    other = Distribution.uniform(Universe([f"y{i}" for i in range(4)]))
    with pytest.raises(ValueError, match="universe differs"):
        estimate_expected_queries(sing4, other, 5, seed=1)
    with pytest.raises(ValueError, match="outside the range"):
        estimate_expected_queries(sing4, mu, 5, seed=-1)
