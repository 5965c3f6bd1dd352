"""Learning strategies: frozen behaviors, certified bounds, composition, soundness."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eqlearn import fixtures
from eqlearn.automata import enumerate_dfa_class
from eqlearn.core import AllTotals, Concept, ConceptClass, Distribution, parse_partial
from eqlearn.dimensions import (
    consistency_dim,
    full_ldim_partial,
    hypothesis_hm,
    ldim,
    ldim_subset,
    strong_consistency_dim,
)
from eqlearn.learners import (
    CdimEqLearner,
    ComposeLearner,
    EqMqLearner,
    HalvingEqLearner,
    OptimalEqLearner,
    Sc2EqLearner,
    ThicketGraph,
    ThicketMaxMinLearner,
    _unextendable_restriction,
    run_session,
    transcript_lines,
)
from eqlearn.rng import SplitMix64
from eqlearn.teachers import (
    Counterexample,
    EqQuery,
    HonestTeacher,
    MqAnswer,
    RandomTeacher,
    TreeAdversary,
    WitnessAdversary,
    YesAnswer,
)

from conftest import (
    TreeCdimEqLearner,
    concept_classes,
    edge_weight_oracle,
    enumerate_playouts,
    random_class_only,
    splitting_element_oracle,
)


def test_run_session_budget_validation(sing4):
    with pytest.raises(ValueError):
        run_session(OptimalEqLearner(sing4), TreeAdversary(sing4), 0)


def test_run_session_examples(sing4, tree32):
    transcript = run_session(OptimalEqLearner(sing4), TreeAdversary(sing4), 10)
    assert transcript.success and transcript.eq_count == 2

    transcript = run_session(OptimalEqLearner(sing4), TreeAdversary(sing4), 1)
    assert transcript.outcome == "budget_exhausted" and not transcript.success

    hyp = tree32
    learner = CdimEqLearner(tree32, hyp)
    transcript = run_session(learner, HonestTeacher(tree32, 0), 16)
    assert transcript.success and transcript.eq_count <= 16


def test_transcript_success_iff_final_yes(sing4):
    transcript = run_session(OptimalEqLearner(sing4), HonestTeacher(sing4, 2), 10)
    assert transcript.success
    move, resp = transcript.entries[-1]
    assert isinstance(move, EqQuery) and isinstance(resp, YesAnswer)


def test_transcript_lines_format(sing4):
    transcript = run_session(OptimalEqLearner(sing4), HonestTeacher(sing4, 2), 10)
    lines = transcript_lines(transcript, sing4.universe)
    assert lines[0] == "EQ 0000 -> CE x2 1"
    assert lines[1] == "EQ 0010 -> YES"
    assert lines[-1] == "result=success eq=2 mq=0"


def test_transcript_lines_exhausted(sing4):
    transcript = run_session(OptimalEqLearner(sing4), TreeAdversary(sing4), 1)
    lines = transcript_lines(transcript, sing4.universe)
    assert lines[-1] == "result=exhausted eq=1 mq=0"


# ---------------------------------------------------------------------------
# the Littlestone-majority strategy


def test_optimal_first_hypothesis_sing4(sing4):
    assert OptimalEqLearner(sing4).next_move().hypothesis.bitstring() == "0000"


def test_optimal_singleton_class():
    cls = fixtures.random_class(4, 1, seed=2)
    learner = OptimalEqLearner(cls)
    assert learner.next_move().hypothesis.bits == cls.concepts[0].bits
    transcript = run_session(OptimalEqLearner(cls), HonestTeacher(cls, 0), 5)
    assert transcript.success and transcript.eq_count == 1


def test_optimal_pow3_exhaustive_playouts(pow3):
    counts = enumerate_playouts(lambda: OptimalEqLearner(pow3), pow3, max_depth=6)
    assert counts and max(counts) <= 4  # ldim + 1


def test_optimal_monotone_ldim_decrease(sing4, tree32, pow3):
    for cls in (sing4, tree32, pow3):
        for target in range(len(cls)):
            learner = OptimalEqLearner(cls)
            teacher = HonestTeacher(cls, target)
            last = ldim_subset(cls, learner.version)
            while not learner.done:
                move = learner.next_move()
                learner.observe(teacher.respond(move))
                now = ldim_subset(cls, learner.version)
                if not learner.done:
                    assert now < last
                last = now


# ---------------------------------------------------------------------------
# consistency-dimension strategy


def test_cdim_tree32_all_targets(tree32):
    hyp = tree32
    budget = CdimEqLearner(tree32, hyp).certified_budget
    assert budget == 16  # c^d = 4^2
    for target in range(len(tree32)):
        learner = CdimEqLearner(tree32, hyp)
        transcript = run_session(learner, HonestTeacher(tree32, target), budget)
        assert transcript.success and transcript.eq_count <= budget


def test_cdim_delegates_small_dimensions(sing4, singe4):
    hyp = singe4
    learner = CdimEqLearner(sing4, hyp)  # c = 2 delegates to the sc2 strategy
    assert learner.certified_budget == 2  # min(c^d, d+1)
    for target in range(len(sing4)):
        transcript = run_session(
            CdimEqLearner(sing4, hyp), HonestTeacher(sing4, target), 10
        )
        assert transcript.success and transcript.eq_count <= 2


def test_cdim_singleton_class():
    cls = fixtures.random_class(3, 1, seed=9)
    learner = CdimEqLearner(cls, cls)
    transcript = run_session(learner, HonestTeacher(cls, 0), 5)
    assert transcript.success and transcript.eq_count == 1


# ---------------------------------------------------------------------------
# composition


class _OneFramePerConcept(ComposeLearner):
    """Splits the class into one frame per concept, each submitting its
    concept once."""

    def _budget(self, version):
        return version.bit_count()

    def _move(self, version):
        if version & (version - 1):
            return [1 << k for k in self.cls.version_indices(version)]
        return EqQuery(self.cls.concepts[self.cls.lowest_index(version)])


def test_compose_two_singletons():
    cls = fixtures.singletons(2)
    for target in range(2):
        composed = _OneFramePerConcept(cls)
        transcript = run_session(composed, HonestTeacher(cls, target), 10)
        assert transcript.success and transcript.eq_count <= 2


def test_compose_tree31_by_first_coordinate():
    cls = fixtures.tree_class(3, 1)  # three singleton chains
    for target in range(3):
        composed = _OneFramePerConcept(cls)
        transcript = run_session(composed, HonestTeacher(cls, target), 10)
        assert transcript.success and transcript.eq_count <= 3
        assert transcript.eq_count <= composed.certified_budget


def test_compose_budget_is_sum():
    cls = fixtures.singletons(2)
    composed = _OneFramePerConcept(cls)
    assert composed.certified_budget == 2


# ---------------------------------------------------------------------------
# strong-consistency-2 strategy


def test_sc2_requires_small_dimension(sing4):
    with pytest.raises(ValueError, match="consistency dimension"):
        Sc2EqLearner(sing4, sing4)  # c = 4 there


def test_sc2_sing4_all_targets_all_teachers(sing4, singe4):
    hyp = singe4
    mu = Distribution.uniform(sing4.universe)
    witness_partial = parse_partial(sing4.universe, "11**")
    teachers = [
        lambda t: HonestTeacher(sing4, t),
        lambda t: TreeAdversary(sing4),
        lambda t: WitnessAdversary(sing4, witness_partial, 1, hypothesis_class=hyp),
        lambda t: RandomTeacher(sing4, t, mu, seed=17),
    ]
    for target in range(len(sing4)):
        for make in teachers:
            learner = Sc2EqLearner(sing4, hyp)
            transcript = run_session(learner, make(target), 10)
            assert transcript.success and transcript.eq_count <= 2


def test_sc2_sing6(sing4):
    cls = fixtures.singletons(6)
    hyp = fixtures.singletons_with_empty(6)
    for target in range(6):
        transcript = run_session(Sc2EqLearner(cls, hyp), HonestTeacher(cls, target), 10)
        assert transcript.success and transcript.eq_count <= 2


def test_sc2_keeps_its_move_at_consistency_dimension_1(pow2):
    # over all totals c = 1: the SC-2 learner still extends the
    # full-dimension partial (empty here, since both elements split), while
    # the optimal learner submits the Littlestone-majority total
    hyp = AllTotals(pow2.universe)
    assert consistency_dim(pow2, hyp) == 1
    assert Sc2EqLearner(pow2, hyp).next_move().hypothesis.bitstring() == "00"
    assert OptimalEqLearner(pow2).next_move().hypothesis.bitstring() == "11"


def test_sc2_singleton_class():
    cls = fixtures.random_class(3, 1, seed=11)
    learner = Sc2EqLearner(cls, cls)
    transcript = run_session(learner, HonestTeacher(cls, 0), 5)
    assert transcript.success and transcript.eq_count == 1


# ---------------------------------------------------------------------------
# halving strategy


def test_halving_budgets(sing4, singe4, tree32):
    assert HalvingEqLearner(tree32, tree32).certified_budget == 20
    assert HalvingEqLearner(sing4, singe4).certified_budget == 3


def test_halving_tree32_all_targets(tree32):
    hyp = tree32
    for target in range(len(tree32)):
        learner = HalvingEqLearner(tree32, hyp)
        transcript = run_session(learner, HonestTeacher(tree32, target), 20)
        assert transcript.success and transcript.eq_count <= 20


def test_halving_sing4(sing4, singe4):
    hyp = singe4
    for target in range(len(sing4)):
        transcript = run_session(
            HalvingEqLearner(sing4, hyp), HonestTeacher(sing4, target), 10
        )
        assert transcript.success and transcript.eq_count <= 3


def test_halving_singleton_class():
    cls = fixtures.random_class(3, 1, seed=13)
    learner = HalvingEqLearner(cls, cls)
    transcript = run_session(learner, HonestTeacher(cls, 0), 5)
    assert transcript.success and transcript.eq_count == 1


# ---------------------------------------------------------------------------
# equivalence-plus-membership strategy


def test_eqmq_tree32_all_targets(tree32):
    hyp = tree32
    learner = EqMqLearner(tree32, hyp)
    assert learner.certified_budget == 7  # (c-1) d + 1 with c = 4, d = 2
    for target in range(len(tree32)):
        learner = EqMqLearner(tree32, hyp)
        transcript = run_session(learner, HonestTeacher(tree32, target), 7)
        assert transcript.success and transcript.total_queries <= 7


def test_eqmq_sing4(sing4, singe4):
    hyp = singe4
    learner = EqMqLearner(sing4, hyp)
    assert learner.certified_budget == 2  # c = 2 gives c' = 1, d = 1
    for target in range(len(sing4)):
        transcript = run_session(
            EqMqLearner(sing4, hyp), HonestTeacher(sing4, target), 5
        )
        assert transcript.success and transcript.total_queries <= 2


def test_eqmq_singleton_class():
    cls = fixtures.random_class(3, 1, seed=15)
    learner = EqMqLearner(cls, cls)
    transcript = run_session(learner, HonestTeacher(cls, 0), 5)
    assert transcript.success and transcript.total_queries == 1


def test_eqmq_vs_tree_adversary(tree32):
    hyp = tree32
    learner = EqMqLearner(tree32, hyp)
    transcript = run_session(learner, TreeAdversary(tree32), 7)
    assert transcript.success and transcript.total_queries <= 7


# ---------------------------------------------------------------------------
# thicket max-min strategy


def test_maxmin_first_query_breaks_ties_low(sing4):
    mu = Distribution.uniform(sing4.universe)
    learner = ThicketMaxMinLearner(sing4, mu)
    assert learner.next_move().hypothesis.bits == sing4.concepts[0].bits


def test_maxmin_singleton_and_pair():
    single = fixtures.random_class(3, 1, seed=21)
    mu = Distribution.uniform(single.universe)
    transcript = run_session(
        ThicketMaxMinLearner(single, mu), HonestTeacher(single, 0), 5
    )
    assert transcript.success and transcript.eq_count == 1

    from eqlearn.core import parse_class

    pair = parse_class("elements: x\n0\n1")
    mu = Distribution.uniform(pair.universe)
    for target in range(2):
        transcript = run_session(
            ThicketMaxMinLearner(pair, mu),
            RandomTeacher(pair, target, mu, seed=target),
            5,
        )
        assert transcript.success and transcript.eq_count <= 2


def _maxmin_by_definition(cls, mu, version):
    """The lowest-index concept of the version maximizing the minimum, over
    the version's other concepts, of the defining expected-drop sum, with
    each concept's rank."""
    members = [k for k in range(len(cls)) if (version >> k) & 1]
    ranks = {
        a: min(edge_weight_oracle(cls, mu, version, a, b) for b in members if b != a)
        for a in members
    }
    best = max(ranks.values())
    return next(a for a in members if ranks[a] == best), ranks


def _restricted_versions(cls, seed):
    """The full version, single-point restrictions, and random subsets,
    each with at least two concepts."""
    full = cls.full_version
    versions = [full]
    for x in range(min(3, cls.universe.size)):
        versions += [cls.restrict_version(full, x, label) for label in (0, 1)]
    rng = SplitMix64(seed)
    versions += [rng.below(full + 1) for _ in range(6)]
    return [v for v in versions if bin(v).count("1") >= 2]


@pytest.mark.parametrize("seed", [None, 5000, 5001, 5010])
def test_maxmin_pick_on_restricted_versions(seed):
    # seed None is TREE(3,2); the random classes have 6, 7 and 5 concepts
    if seed is None:
        cls = fixtures.tree_class(3, 2)
        mus = [Distribution.uniform(cls.universe)]
    else:
        cls = random_class_only(seed, max_x=6, max_c=10)
        mus = []
    mus.append(fixtures.random_distribution(cls.universe, 61 + (seed or 0)))
    for mu in mus:
        for version in _restricted_versions(cls, len(cls)):
            expected, ranks = _maxmin_by_definition(cls, mu, version)
            graph = ThicketGraph(cls, mu, version)
            assert graph.indices == sorted(ranks)
            assert {a: graph.query_rank(a) for a in graph.indices} == ranks
            assert graph.max_query_rank() == ranks[expected]
            # the library's own ranks agree: the first index of the largest
            top = max(graph.query_rank(a) for a in graph.indices)
            assert graph.best_query() == expected
            assert expected == next(a for a in graph.indices if graph.query_rank(a) == top)
            assert graph.max_query_rank() == top
            learner = ThicketMaxMinLearner(cls, mu)
            learner.version = version
            move = learner.next_move()
            assert move.hypothesis.bits == cls.concepts[expected].bits, (seed, version)


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_maxmin_ties_take_the_first_index(n):
    # under a uniform mu all singletons tie (rank 1 on two of them, 1/2 on
    # more), so the first one is queried
    cls = fixtures.singletons(n)
    mu = Distribution.uniform(cls.universe)
    graph = ThicketGraph(cls, mu)
    assert {graph.query_rank(a) for a in graph.indices} == {Fraction(1, 1 if n == 2 else 2)}
    assert graph.best_query() == 0
    assert ThicketMaxMinLearner(cls, mu).next_move().hypothesis.bits == cls.concepts[0].bits
    if n > 2:
        # a version without concept 0 takes its own first concept
        assert ThicketGraph(cls, mu, cls.full_version & ~1).best_query() == 1


# ---------------------------------------------------------------------------
# soundness and the bound suite (small edition; the full sweep is acceptance)


def _version_sound_learners(cls, hyp):
    return [
        lambda: OptimalEqLearner(cls),
        lambda: CdimEqLearner(cls, hyp),
        lambda: HalvingEqLearner(cls, hyp),
        lambda: EqMqLearner(cls, hyp),
        lambda: ThicketMaxMinLearner(cls, Distribution.uniform(cls.universe)),
    ]


@pytest.mark.parametrize("seed", range(8))
def test_version_space_never_drops_target(seed):
    cls = random_class_only(seed + 700, max_x=5, max_c=6)
    hyp = cls
    for factory in _version_sound_learners(cls, hyp):
        for target in range(len(cls)):
            learner = factory()
            teacher = HonestTeacher(cls, target)
            while not learner.done:
                move = learner.next_move()
                learner.observe(teacher.respond(move))
                if not learner.done:
                    assert (learner.version >> target) & 1, "target eliminated"


@pytest.mark.parametrize("seed", [None, *range(6)])
def test_version_is_what_every_answer_allows(seed, tree32):
    # after every turn `version` is exactly the concepts consistent with all
    # answers so far, including after the c^d learner's splits
    cls = tree32 if seed is None else random_class_only(seed + 900, max_x=6, max_c=10)
    teachers = [lambda t=t: HonestTeacher(cls, t) for t in range(len(cls))]
    for factory in _version_sound_learners(cls, cls):
        for make_teacher in teachers + [lambda: TreeAdversary(cls)]:
            learner = factory()
            teacher = make_teacher()
            version = cls.full_version
            while not learner.done:
                move = learner.next_move()
                response = teacher.respond(move)
                learner.observe(response)
                if isinstance(response, Counterexample):
                    version = cls.restrict_version(version, response.point, response.label)
                elif isinstance(response, MqAnswer):
                    version = cls.restrict_version(version, move.point, response.label)
                assert learner.version == version


def test_never_repeats_refuted_hypothesis(tree32):
    hyp = tree32
    for target in range(len(tree32)):
        for factory in (
            lambda: OptimalEqLearner(tree32),
            lambda: HalvingEqLearner(tree32, hyp),
        ):
            learner = factory()
            teacher = HonestTeacher(tree32, target)
            refuted = set()
            while not learner.done:
                move = learner.next_move()
                if isinstance(move, EqQuery):
                    assert move.hypothesis.bits not in refuted
                resp = teacher.respond(move)
                if isinstance(move, EqQuery) and not isinstance(resp, YesAnswer):
                    refuted.add(move.hypothesis.bits)
                learner.observe(resp)


def test_learner_bounds_random_suite():
    violations = []
    for seed in range(30):
        cls = random_class_only(seed + 4000, max_x=6, max_c=8)
        hyp = cls
        d = ldim(cls)
        c = consistency_dim(cls, hyp)
        sc = strong_consistency_dim(cls, hyp)
        halving_bound = max(1, math.ceil(sc * math.log(len(cls)))) if sc >= 2 else d + 1
        for target in range(len(cls)):
            for make_teacher in (
                lambda: HonestTeacher(cls, target),
                lambda: TreeAdversary(cls),
            ):
                runs = [
                    (OptimalEqLearner(cls), d + 1, "eq"),
                    (CdimEqLearner(cls, hyp, _consistency=c), None, "eq"),
                    (HalvingEqLearner(cls, hyp), halving_bound, "eq"),
                    (EqMqLearner(cls, hyp, _consistency=c), None, "total"),
                ]
                if c == 2:
                    runs.append((Sc2EqLearner(cls, hyp), d + 1, "eq"))
                for learner, bound, counting in runs:
                    bound = learner.certified_budget if bound is None else bound
                    transcript = run_session(learner, make_teacher(), bound)
                    used = (
                        transcript.eq_count
                        if counting == "eq"
                        else transcript.total_queries
                    )
                    if not transcript.success or used > bound:
                        violations.append((seed, target, type(learner).__name__))
    assert not violations


@given(cls=concept_classes(max_x=7, max_c=12), data=st.data())
@settings(max_examples=200, deadline=None)
def test_splitting_element_is_lowest_unspecified_point(cls, data):
    # the learners split on the lowest element the full-dimension partial
    # leaves unspecified
    version = data.draw(st.integers(1, cls.full_version), label="version")
    full = full_ldim_partial(cls, version)
    free = [x for x in range(cls.universe.size) if full.label(x) is None]
    assert (free[0] if free else None) == splitting_element_oracle(cls, version)


@given(cls=concept_classes(max_x=7, max_c=12), data=st.data())
@settings(max_examples=200, deadline=None)
def test_last_point_of_unextendable_restriction_is_implied(cls, data):
    # why the EQ+MQ learner never asks about the last point of a smallest
    # unextendable restriction S of a total: the survivors that agree with
    # the total on S minus its last point all disagree with it there
    n = cls.universe.size
    version = data.draw(st.integers(1, cls.full_version), label="version")
    # the totals outside the version whose S has two or more points
    candidates = []
    for bits in range(1 << n):
        index = cls.bits_index.get(bits)
        if index is None or not (version >> index) & 1:
            points = _unextendable_restriction(cls, version, bits, n)
            if len(points) >= 2:
                candidates.append((bits, points))
    assume(candidates)
    bits, points = data.draw(st.sampled_from(candidates), label="total")
    agreeing = version
    for x in points[:-1]:
        agreeing = cls.restrict_version(agreeing, x, (bits >> x) & 1)
    last = points[-1]
    assert agreeing  # S is a smallest one
    assert cls.restrict_version(agreeing, last, (bits >> last) & 1) == 0


def _same_moves(learner, reference, teacher):
    """Run both learners on one teacher's answers, asserting equal moves."""
    assert learner.certified_budget == reference.certified_budget
    for _ in range(reference.certified_budget):
        move = learner.next_move()
        assert move == reference.next_move()
        response = teacher.respond(move)
        learner.observe(response)
        reference.observe(response)
        if isinstance(response, YesAnswer):
            return
    raise AssertionError("no success within the certified budget")


@given(cls=concept_classes(max_x=6, max_c=10))
@settings(max_examples=100, deadline=None)
def test_cdim_at_small_dimensions_moves_as_optimal_and_sc2(cls):
    # at c = 1 the c^d learner makes the Littlestone-majority move and at
    # c = 2 the partial-extension move, turn by turn
    for hyp in (
        cls,
        hypothesis_hm(cls, 1),
        hypothesis_hm(cls, 2),
        AllTotals(cls.universe),
    ):
        c = consistency_dim(cls, hyp)
        if c > 2:
            continue
        reference = (
            (lambda: OptimalEqLearner(cls)) if c == 1 else (lambda: Sc2EqLearner(cls, hyp))
        )
        teachers = [lambda t=t: HonestTeacher(cls, t) for t in range(len(cls))]
        for make_teacher in teachers + [lambda: TreeAdversary(cls)]:
            _same_moves(CdimEqLearner(cls, hyp), reference(), make_teacher())


def _with_totals(cls, extra_bits):
    """The class followed by the given totals that are not members."""
    extra = [b for b in dict.fromkeys(extra_bits) if not cls.contains_bits(b)]
    return ConceptClass(
        cls.universe, list(cls.concepts) + [Concept(cls.universe, b) for b in extra]
    )


def _frames_move_as_tree_oracle(cls, extra_bits, seed):
    # the c^d learner on frames against the object-tree learner it replaced,
    # turn by turn, with every honest target, the tree adversary and a
    # seeded random teacher
    mu = Distribution.uniform(cls.universe)
    teachers = [lambda t=t: HonestTeacher(cls, t) for t in range(len(cls))]
    teachers += [
        lambda: TreeAdversary(cls),
        lambda: RandomTeacher(cls, seed % len(cls), mu, seed),
    ]
    for hyp in (cls, hypothesis_hm(cls, 2), _with_totals(cls, extra_bits)):
        c = consistency_dim(cls, hyp)
        for make_teacher in teachers:
            _same_moves(
                CdimEqLearner(cls, hyp, _consistency=c),
                TreeCdimEqLearner(cls, hyp, _consistency=c),
                make_teacher(),
            )


@given(
    cls=concept_classes(max_x=7, max_c=12),
    extra=st.lists(st.integers(min_value=0), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_cdim_frames_move_as_tree_oracle(cls, extra, seed):
    full = (1 << cls.universe.size) - 1
    _frames_move_as_tree_oracle(cls, [b & full for b in extra], seed)


@pytest.mark.parametrize(
    "make_class",
    [
        lambda: fixtures.tree_class(3, 2),
        fixtures.five_class,
        lambda: enumerate_dfa_class(2, 3),
    ],
    ids=["tree32", "five", "dfa23"],
)
def test_cdim_frames_move_as_tree_oracle_on_fixtures(make_class):
    cls = make_class()
    rng = SplitMix64(21)
    extra = [rng.below(1 << cls.universe.size) for _ in range(3)]
    _frames_move_as_tree_oracle(cls, extra, rng.next_u64())
