"""Teacher strategies: honesty, adversarial lower bounds, coherence, determinism."""

import pytest

from eqlearn import fixtures
from eqlearn.core import Concept, ConceptClass, Distribution, Universe, parse_partial
from eqlearn.dimensions import ldim, ldim_subset
from eqlearn.learners import (
    CdimEqLearner,
    HalvingEqLearner,
    OptimalEqLearner,
    run_session,
    transcript_lines,
)
from eqlearn.rng import SplitMix64
from eqlearn.teachers import (
    Counterexample,
    EqQuery,
    HonestTeacher,
    MqAnswer,
    MqQuery,
    RandomTeacher,
    TreeAdversary,
    WitnessAdversary,
    YesAnswer,
)

from conftest import random_class_only


def test_honest_teacher(sing4):
    teacher = HonestTeacher(sing4, 2)
    assert isinstance(teacher.respond(EqQuery(sing4.concepts[2])), YesAnswer)
    resp = teacher.respond(EqQuery(sing4.concepts[0]))
    assert resp == Counterexample(0, 0)  # least differing element
    assert teacher.respond(MqQuery(2)) == MqAnswer(1)
    assert teacher.respond(MqQuery(3)) == MqAnswer(0)


class _ScriptedLearner:
    """Feeds a fixed move list; used to probe teachers directly."""

    def __init__(self, moves):
        self.moves = list(moves)
        self.done = False

    @property
    def exhausted(self):
        return not self.moves

    def next_move(self):
        return self.moves.pop(0)

    def observe(self, response):
        if isinstance(response, YesAnswer):
            self.done = True


def _coherent_throughout(cls, transcript):
    version = cls.full_version
    for move, resp in transcript.entries:
        if isinstance(resp, Counterexample):
            version = cls.restrict_version(version, resp.point, resp.label)
        elif isinstance(resp, MqAnswer):
            version = cls.restrict_version(version, move.point, resp.label)
        if not version:
            return False
    return True


def test_tree_adversary_forces_optimal(sing4, pow3, tree32):
    for cls, expected in [(sing4, 2), (pow3, 4), (tree32, 3)]:
        transcript = run_session(OptimalEqLearner(cls), TreeAdversary(cls), 50)
        assert transcript.success
        assert transcript.eq_count == expected == ldim(cls) + 1


def test_tree_adversary_forces_all_eq_learners(sing4, singe4):
    d = ldim(sing4)
    hyp = singe4
    for factory in (
        lambda: OptimalEqLearner(sing4),
        lambda: CdimEqLearner(sing4, hyp),
        lambda: HalvingEqLearner(sing4, hyp),
    ):
        transcript = run_session(factory(), TreeAdversary(sing4), 50)
        assert transcript.success
        assert transcript.eq_count >= d + 1


def test_tree_adversary_forces_every_eq_learner_on_fixtures(
    sing4, singe4, tree32, five, pow3
):
    from eqlearn.learners import Sc2EqLearner

    configs = [
        (sing4, singe4),
        (tree32, tree32),
        (five, five),
        (pow3, pow3),
    ]
    for cls, hyp in configs:
        d = ldim(cls)
        from eqlearn.dimensions import consistency_dim

        c = consistency_dim(cls, hyp)
        factories = [
            lambda: OptimalEqLearner(cls),
            lambda: CdimEqLearner(cls, hyp),
            lambda: HalvingEqLearner(cls, hyp),
        ]
        if c == 2:
            factories.append(lambda: Sc2EqLearner(cls, hyp))
        for factory in factories:
            transcript = run_session(factory(), TreeAdversary(cls), 100)
            assert transcript.success
            assert transcript.eq_count >= d + 1


def test_tree_adversary_singleton_class():
    cls = fixtures.random_class(3, 1, seed=3)
    transcript = run_session(OptimalEqLearner(cls), TreeAdversary(cls), 5)
    assert transcript.success and transcript.eq_count == 1


def test_tree_adversary_construction_asks_only_the_class_dimension():
    """The adversary walks its own path: building it fills the Littlestone
    memo exactly as the class's dimension alone does, with no side of a
    mistake tree asked ahead of the first query."""
    built = fixtures.powerset_class(10)
    TreeAdversary(built)
    fresh = fixtures.powerset_class(10)
    ldim_subset(fresh, fresh.full_version)
    assert built._ldim_memo == fresh._ldim_memo


def test_tree_adversary_coherent_with_probes(tree32):
    rng = SplitMix64(11)
    moves = []
    for _ in range(6):
        if rng.below(2):
            moves.append(EqQuery(Concept(tree32.universe, rng.below(1 << 12))))
        else:
            moves.append(MqQuery(rng.below(12)))
    moves.append(EqQuery(tree32.concepts[0]))
    teacher = TreeAdversary(tree32)
    transcript = run_session(_ScriptedLearner(moves), teacher, 20)
    assert _coherent_throughout(tree32, transcript)


def test_witness_adversary_preconditions(sing4):
    allzero = parse_partial(sing4.universe, "0000")
    with pytest.raises(ValueError, match="positive"):
        WitnessAdversary(sing4, allzero, 0)
    with pytest.raises(ValueError, match="not n-consistent"):
        WitnessAdversary(sing4, allzero, 4)
    extendable = parse_partial(sing4.universe, "1***")
    with pytest.raises(ValueError, match="extends into"):
        WitnessAdversary(
            sing4, extendable, 1, hypothesis_class=sing4
        )


def test_witness_adversary_refuses_a_hypothesis_class_not_over_the_class(sing4, singe4):
    # the all-zero total is 3-consistent and outside each H below, so only
    # the subclass check can refuse them
    allzero = parse_partial(sing4.universe, "0000")
    other = Universe([f"y{i}" for i in range(4)])
    renamed = ConceptClass(other, [Concept(other, c.bits) for c in sing4.concepts])
    with pytest.raises(ValueError, match="universe differs"):
        WitnessAdversary(sing4, allzero, 3, hypothesis_class=renamed)
    with pytest.raises(ValueError, match="outside the hypothesis class"):
        WitnessAdversary(singe4, allzero, 3, hypothesis_class=sing4)


def test_witness_adversary_forces_sing4(sing4):
    # the all-zero total is 3-consistent but outside H = SING(4)
    allzero = parse_partial(sing4.universe, "0000")
    hyp = sing4
    for factory in (
        lambda: CdimEqLearner(sing4, hyp),
        lambda: HalvingEqLearner(sing4, hyp),
    ):
        learner = factory()
        teacher = WitnessAdversary(sing4, allzero, 3, hypothesis_class=hyp)
        transcript = run_session(learner, teacher, 50)
        assert transcript.success
        assert transcript.eq_count >= 4  # n + 1, matching the exact complexity


def test_witness_adversary_forces_tree32(tree32):
    # all-zero on the leaf level, unspecified on the chains: 8-consistent,
    # no extension inside the class
    literal = "***" + "0" * 9
    partial = parse_partial(tree32.universe, literal)
    hyp = tree32
    for factory in (
        lambda: CdimEqLearner(tree32, hyp),
        lambda: HalvingEqLearner(tree32, hyp),
    ):
        teacher = WitnessAdversary(tree32, partial, 8, hypothesis_class=hyp)
        transcript = run_session(factory(), teacher, 60)
        assert transcript.success
        assert transcript.eq_count >= 9


def test_witness_adversary_forces_combined_queries(sing4):
    # the total all-zero labeling defends the combined-query lower bound too:
    # membership answers follow it while possible
    from eqlearn.learners import EqMqLearner

    allzero = parse_partial(sing4.universe, "0000")
    hyp = sing4
    learner = EqMqLearner(sing4, hyp)
    teacher = WitnessAdversary(sing4, allzero, 3, hypothesis_class=hyp)
    transcript = run_session(learner, teacher, learner.certified_budget)
    assert transcript.success
    assert transcript.total_queries >= 4  # n + 1 combined queries


def test_witness_adversary_coherent_with_probes(tree32):
    literal = "***" + "0" * 9
    partial = parse_partial(tree32.universe, literal)
    rng = SplitMix64(7)
    moves = []
    for _ in range(8):
        if rng.below(2):
            moves.append(EqQuery(Concept(tree32.universe, rng.below(1 << 12))))
        else:
            moves.append(MqQuery(rng.below(12)))
    teacher = WitnessAdversary(tree32, partial, 8)
    transcript = run_session(_ScriptedLearner(moves), teacher, 20)
    assert _coherent_throughout(tree32, transcript)


def test_random_teacher_basics(sing4):
    mu = Distribution.uniform(sing4.universe)
    teacher = RandomTeacher(sing4, 1, mu, seed=5)
    assert isinstance(teacher.respond(EqQuery(sing4.concepts[1])), YesAnswer)
    assert teacher.respond(MqQuery(3)) == MqAnswer(0)
    resp = teacher.respond(EqQuery(sing4.concepts[0]))
    assert isinstance(resp, Counterexample)
    assert resp.point in (0, 1)
    assert resp.label == sing4.concepts[1].label(resp.point)


def test_random_teacher_conditional_split(sing4):
    # EQ({x0}) against target {x1}: counterexample at 0 or 1, about half each
    mu = Distribution.uniform(sing4.universe)
    counts = {0: 0, 1: 0}
    trials = 4096
    for seed in range(trials):
        teacher = RandomTeacher(sing4, 1, mu, seed)
        resp = teacher.respond(EqQuery(sing4.concepts[0]))
        counts[resp.point] += 1
    assert abs(counts[0] / trials - 0.5) < 0.05


def test_random_teacher_deterministic_transcripts(tree32):
    from eqlearn.learners import ThicketMaxMinLearner

    mu = Distribution.uniform(tree32.universe)

    def render(seed):
        learner = ThicketMaxMinLearner(tree32, mu)
        teacher = RandomTeacher(tree32, 5, mu, seed)
        transcript = run_session(learner, teacher, 20)
        return "\n".join(transcript_lines(transcript, tree32.universe))

    assert render(42) == render(42)
    # different seeds explore different counterexamples somewhere
    assert any(render(s) != render(42) for s in range(1, 8))


def test_random_teacher_transcript_under_a_random_distribution(tree32):
    # pins the law of the drawn counterexample: three counterexamples drawn
    # under unequal weights over the denominator 116
    from eqlearn.learners import ThicketMaxMinLearner

    mu = fixtures.random_distribution(tree32.universe, 3)
    learner = ThicketMaxMinLearner(tree32, mu)
    transcript = run_session(learner, RandomTeacher(tree32, 5, mu, seed=7), 20)
    assert transcript_lines(transcript, tree32.universe) == [
        "EQ 001000000100 -> CE a2 0",
        "EQ 100010000000 -> CE a0 0",
        "EQ 010000010000 -> CE a12 1",
        "EQ 010000001000 -> YES",
        "result=success eq=4 mq=0",
    ]


def test_random_teacher_validation(sing4):
    mu = Distribution.uniform(sing4.universe)
    for index in (9, -1):
        with pytest.raises(ValueError, match="target"):
            RandomTeacher(sing4, index, mu, seed=0)
        with pytest.raises(ValueError, match="target"):
            HonestTeacher(sing4, index)
    other = Distribution.uniform(fixtures.singletons(5).universe)
    with pytest.raises(ValueError, match="universe"):
        RandomTeacher(sing4, 0, other, seed=0)


@pytest.mark.parametrize("seed", range(10))
def test_adversaries_stay_coherent_random_classes(seed):
    cls = random_class_only(seed + 40, max_x=5, max_c=6)
    rng = SplitMix64(seed)
    moves = []
    for _ in range(10):
        if rng.below(2):
            moves.append(EqQuery(Concept(cls.universe, rng.below(1 << cls.universe.size))))
        else:
            moves.append(MqQuery(rng.below(cls.universe.size)))
    transcript = run_session(_ScriptedLearner(moves), TreeAdversary(cls), 30)
    assert _coherent_throughout(cls, transcript)
