"""Exhaustive small-universe cross-checks.

Every nonempty class over a two-element universe is checked against the
definition-level oracles with every hypothesis superclass, and the adversary
teachers are played against *all* learner strategies by minimaxing over the
teacher's deterministic responses.  These catch edge cases random sampling
can miss (constant elements, full classes, minimal hypothesis gaps).
"""

from itertools import combinations

import pytest

from eqlearn import fixtures
from eqlearn.compression import check_roundtrip
from eqlearn.core import (
    AllTotals,
    Concept,
    ConceptClass,
    Universe,
    is_n_consistent,
    parse_partial,
)
from eqlearn.dimensions import (
    consistency_dim,
    hypothesis_hm,
    ldim,
    strong_consistency_dim,
)
from eqlearn.gametree import lc_eq_exact, lc_eqmq_exact
from eqlearn.teachers import (
    Counterexample,
    EqQuery,
    TreeAdversary,
    WitnessAdversary,
    YesAnswer,
)

from conftest import (
    all_partials,
    cdim_oracle,
    lc_reference,
    random_class_only,
    scdim_oracle,
)


def _all_classes(nx):
    universe = Universe([f"x{i}" for i in range(nx)])
    totals = list(range(1 << nx))
    for size in range(1, len(totals) + 1):
        for subset in combinations(totals, size):
            yield ConceptClass(universe, [Concept(universe, b) for b in subset])


def _supersets(cls):
    rest = [b for b in range(1 << cls.universe.size) if b not in cls.bits_index]
    for extra_size in range(len(rest) + 1):
        for extra in combinations(rest, extra_size):
            yield ConceptClass(
                cls.universe,
                list(cls.concepts) + [Concept(cls.universe, b) for b in extra],
            )


def test_all_two_element_instances_match_oracles():
    for cls in _all_classes(2):
        for hyp in _supersets(cls):
            assert consistency_dim(cls, hyp) == cdim_oracle(cls, hyp)
            assert strong_consistency_dim(cls, hyp) == scdim_oracle(cls, hyp)
            assert lc_eq_exact(cls, hyp) == lc_reference(cls, hyp, allow_mq=False)
            assert lc_eqmq_exact(cls, hyp) == lc_reference(cls, hyp, allow_mq=True)


def test_all_three_element_instances_match_dimension_oracles():
    pairs = 0
    for cls in _all_classes(3):
        for hyp in _supersets(cls):
            assert consistency_dim(cls, hyp) == cdim_oracle(cls, hyp)
            assert strong_consistency_dim(cls, hyp) == scdim_oracle(cls, hyp)
            pairs += 1
    assert pairs == 3**8 - 2**8  # each of the 8 totals: outside, in H only, or in the class


def test_all_two_element_classes_roundtrip():
    for cls in _all_classes(2):
        count, failures = check_roundtrip(cls)
        assert count > 0 and not failures


def test_all_three_element_classes_roundtrip():
    for cls in _all_classes(3):
        _, failures = check_roundtrip(cls)
        assert not failures


# ---------------------------------------------------------------------------
# adversaries vs. every learner: minimax over the teacher's deterministic play


def _best_learner_queries(cls, hypothesis_bits, teacher, state_of, cap):
    """Fewest queries any equivalence-query learner needs against the fixed
    deterministic teacher: the omniscient learner minimizes over hypotheses
    from every reachable teacher state (the teachers only ever reassign
    their state attributes, so shallow copies fork the game)."""
    import copy

    memo = {}
    IN_PROGRESS = object()

    def explore(current, depth):
        assert depth <= cap, "teacher held out past the exploration cap"
        state = state_of(current)
        cached = memo.get(state)
        if cached is IN_PROGRESS:
            return None  # looping back cannot be part of a minimal strategy
        if cached is not None:
            return cached
        memo[state] = IN_PROGRESS
        best = None
        for bits in hypothesis_bits:
            fork = copy.copy(current)
            resp = fork.respond(EqQuery(Concept(cls.universe, bits)))
            if isinstance(resp, YesAnswer):
                cost = 1
            else:
                assert isinstance(resp, Counterexample)
                sub = explore(fork, depth + 1)
                cost = None if sub is None else 1 + sub
            if cost is not None and (best is None or cost < best):
                best = cost
        assert best is not None, "no finishing strategy found"
        memo[state] = best
        return best

    return explore(teacher, 0)


def _tree_state(teacher):
    return (
        teacher.node,
        teacher.consistent,
        teacher.committed.bits if teacher.committed else None,
    )


def _witness_state(teacher):
    return (
        teacher.consistent,
        teacher.committed.bits if teacher.committed else None,
    )


def test_tree_adversary_forces_any_learner():
    tree32 = fixtures.tree_class(3, 2)
    for cls, hyp_bits in (
        (fixtures.singletons(4), list(range(16))),
        (fixtures.powerset_class(3), list(range(8))),
        (tree32, [c.bits for c in tree32.concepts]),
    ):
        d = ldim(cls)
        best = _best_learner_queries(
            cls, hyp_bits, TreeAdversary(cls), _tree_state, cap=20
        )
        assert best >= d + 1


def test_witness_adversary_forces_any_learner():
    sing4 = fixtures.singletons(4)
    allzero = parse_partial(sing4.universe, "0000")
    teacher = WitnessAdversary(sing4, allzero, 3)
    best = _best_learner_queries(
        sing4, [c.bits for c in sing4.concepts], teacher, _witness_state, cap=20
    )
    assert best == 4  # n + 1, matching the exact complexity


# ---------------------------------------------------------------------------
# m-consistent extension search vs. brute force


@pytest.mark.parametrize("seed", range(8))
def test_m_consistent_extension_matches_bruteforce(seed):
    cls = random_class_only(seed + 15_000, max_x=4, max_c=5)
    size = cls.universe.size
    for m in range(1, size + 2):
        hyp = hypothesis_hm(cls, m)
        member_bits = set(hyp.member_bits())
        for partial in all_partials(cls.universe):
            found = hyp.first_member(partial.mask, partial.bits)
            extensions = [
                bits for bits in member_bits if (bits & partial.mask) == partial.bits
            ]
            exists = bool(extensions)
            assert (found is not None) == exists
            if found is not None:
                assert partial.extended_by(found)
                assert found.bits in member_bits
                assert is_n_consistent(found.as_partial(), cls, m)
                # least in the order (label of element 0, label of element 1, ...)
                least = min(extensions, key=lambda b: Concept(cls.universe, b).bitstring())
                assert found.bits == least


@pytest.mark.parametrize("seed", range(12))
def test_lazy_and_explicit_powerset_give_the_same_values(seed):
    cls = random_class_only(seed + 17_000, max_x=4, max_c=6)
    lazy = AllTotals(cls.universe)
    explicit = fixtures.powerset_class(cls.universe.size)
    for measure in (consistency_dim, strong_consistency_dim, lc_eq_exact, lc_eqmq_exact):
        assert measure(cls, lazy) == measure(cls, explicit), measure.__name__
