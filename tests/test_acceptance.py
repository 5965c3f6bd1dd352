"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The exponential-size upper bounds are asserted under the hypotheses
of the theorems that provide them (consistency dimension at least 2); at
dimension 1 the majority strategy's ldim + 1 bound is what applies, which
several fixtures (the powerset classes) exercise.
"""

import math
import time

import pytest

from eqlearn import fixtures
from eqlearn.automata import (
    Dfa,
    dfa_class_summary,
    dfa_language,
    learn_dfa,
    nerode_witness,
)
from eqlearn.compression import CompressionScheme, compress, decompress
from eqlearn.core import Distribution, parse_partial
from eqlearn.dimensions import (
    consistency_dim,
    hypothesis_hm,
    ldim,
    ldim_subset,
    strong_consistency_dim,
)
from eqlearn.gametree import lc_eq_exact, lc_eqmq_exact
from eqlearn.learners import (
    CdimEqLearner,
    EqMqLearner,
    HalvingEqLearner,
    OptimalEqLearner,
    Sc2EqLearner,
    run_session,
)
from eqlearn.teachers import HonestTeacher, TreeAdversary, WitnessAdversary
from eqlearn.thicket import ThicketGraph, deficient_cycle_search, estimate_expected_queries

from conftest import enumerate_dfas, random_class_only, random_instance, samples


def _report(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _fixture_pairs():
    sing4 = fixtures.singletons(4)
    singe4 = fixtures.singletons_with_empty(4)
    tree32 = fixtures.tree_class(3, 2)
    five = fixtures.five_class()
    pow3 = fixtures.powerset_class(3)
    return [
        (sing4, sing4),
        (sing4, singe4),
        (tree32, tree32),
        (five, five),
        (pow3, pow3),
    ]


def test_criterion_1_tree32_exact_values():
    start = time.time()
    tree32 = fixtures.tree_class(3, 2)
    hyp = tree32
    values = (
        ldim(tree32),
        consistency_dim(tree32, hyp),
        strong_consistency_dim(tree32, hyp),
        lc_eq_exact(tree32, hyp),
    )
    elapsed = time.time() - start
    ok = values == (2, 4, 9, 9) and elapsed < 60
    _report(
        1,
        "tree(3,2) exact dimensions and complexity",
        ok,
        f"ldim={values[0]} cdim={values[1]} scdim={values[2]} lc={values[3]} "
        f"time={elapsed:.1f}s",
    )


def _eq_upper_bound(c, sc, d, size):
    bounds = []
    if c >= 2:
        bounds.append(c**d)
        bounds.append(math.ceil(sc * math.log(size)))
    else:
        bounds.append(d + 1)
    return min(bounds)


def test_criterion_2_sandwich_eq():
    violations = []
    instances = _fixture_pairs() + [
        random_instance(10_000 + k) for k in range(200)
    ]
    for cls, hyp in instances:
        d = ldim(cls)
        c = consistency_dim(cls, hyp)
        sc = strong_consistency_dim(cls, hyp)
        lc = lc_eq_exact(cls, hyp)
        if not (d + 1 <= lc and sc <= lc):
            violations.append((cls, "lower"))
        if lc > _eq_upper_bound(c, sc, d, len(cls)):
            violations.append((cls, "upper"))
    _report(
        2,
        "equivalence-query sandwich on fixtures + 200 instances",
        not violations,
        f"{len(instances)} instances",
    )


def test_criterion_3_sandwich_eqmq():
    violations = []
    instances = _fixture_pairs() + [
        random_instance(10_000 + k) for k in range(200)
    ]
    for cls, hyp in instances:
        d = ldim(cls)
        c = consistency_dim(cls, hyp)
        lc = lc_eqmq_exact(cls, hyp)
        if not (c <= lc <= max(1, c - 1) * d + 1):
            violations.append(cls)
        if lc > lc_eq_exact(cls, hyp):
            violations.append(cls)
    _report(3, "combined-query sandwich on the same instances", not violations)


def test_criterion_4_learner_bounds():
    sessions = 0
    violations = []
    instances = _fixture_pairs() + [random_instance(10_000 + k) for k in range(200)]
    for cls, hyp in instances:
        d = ldim(cls)
        c = consistency_dim(cls, hyp)
        sc = strong_consistency_dim(cls, hyp)
        halving_bound = (
            max(1, math.ceil(sc * math.log(len(cls)))) if sc >= 2 else d + 1
        )
        cdim_bound = c**d if c >= 2 else d + 1
        eqmq_bound = max(1, c - 1) * d + 1
        for target in range(len(cls)):
            for make_teacher in (
                lambda t=target: HonestTeacher(cls, t),
                lambda t=target: TreeAdversary(cls),
            ):
                runs = [
                    (OptimalEqLearner(cls), d + 1, "eq"),
                    (CdimEqLearner(cls, hyp, _consistency=c), cdim_bound, "eq"),
                    (HalvingEqLearner(cls, hyp), halving_bound, "eq"),
                    (EqMqLearner(cls, hyp, _consistency=c), eqmq_bound, "total"),
                ]
                if c == 2:
                    runs.append((Sc2EqLearner(cls, hyp), d + 1, "eq"))
                for learner, bound, counting in runs:
                    transcript = run_session(learner, make_teacher(), bound)
                    sessions += 1
                    used = (
                        transcript.eq_count
                        if counting == "eq"
                        else transcript.total_queries
                    )
                    if not transcript.success or used > bound:
                        violations.append(
                            (type(learner).__name__, target, counting, used, bound)
                        )
    ok = not violations and sessions >= 1000
    _report(4, "learner certified bounds", ok, f"{sessions} sessions")


def test_criterion_5_adversarial_lower_bounds():
    ok = True
    details = []
    for cls in (fixtures.singletons(4), fixtures.powerset_class(3), fixtures.tree_class(3, 2)):
        d = ldim(cls)
        transcript = run_session(OptimalEqLearner(cls), TreeAdversary(cls), 50)
        details.append(f"tree:{transcript.eq_count}")
        if not transcript.success or transcript.eq_count != d + 1:
            ok = False
    sing4 = fixtures.singletons(4)
    hyp = sing4
    allzero = parse_partial(sing4.universe, "0000")
    exact = lc_eq_exact(sing4, hyp)
    for factory in (
        lambda: CdimEqLearner(sing4, hyp),
        lambda: HalvingEqLearner(sing4, hyp),
    ):
        teacher = WitnessAdversary(sing4, allzero, 3, hypothesis_class=hyp)
        transcript = run_session(factory(), teacher, 50)
        details.append(f"witness:{transcript.eq_count}")
        if not transcript.success or transcript.eq_count < 4 or exact != 4:
            ok = False
    _report(5, "adversaries force the lower bounds", ok, " ".join(details))


def test_criterion_6_thicket_exact():
    half = __import__("fractions").Fraction(1, 2)
    violations = []
    sing4 = fixtures.singletons(4)
    checks = [(sing4, Distribution.uniform(sing4.universe))]
    tree32 = fixtures.tree_class(3, 2)
    checks.append((tree32, Distribution.uniform(tree32.universe)))
    five = fixtures.five_class()
    checks.append((five, Distribution.uniform(five.universe)))
    for k in range(100):
        cls = random_class_only(20_000 + k, max_x=6, max_c=6)
        mu = fixtures.random_distribution(cls.universe, 777 + k)
        checks.append((cls, mu))
    for k in range(20):
        cls = random_class_only(40_000 + k, max_x=7, max_c=12)
        mu = fixtures.random_distribution(cls.universe, 999 + k)
        checks.append((cls, mu))
    for cls, mu in checks:
        graph = ThicketGraph(cls, mu)
        n = len(cls)
        for i in range(n):
            for j in range(i + 1, n):
                if graph.weight(i, j) + graph.weight(j, i) < 1:
                    violations.append("pair-sum")
        if graph.max_query_rank() < half:
            violations.append("rank")
        if deficient_cycle_search(cls, mu, n) is not None:
            violations.append("cycle")
    mu = Distribution.uniform(sing4.universe)
    graph = ThicketGraph(sing4, mu)
    for i in range(4):
        for j in range(4):
            if i != j and graph.weight(i, j) != half:
                violations.append("sing4-weight")
    _report(6, "thicket exact-rational invariants", not violations, f"{len(checks)} instances")


def test_criterion_7_thicket_montecarlo():
    start = time.time()
    results = []
    for cls in (fixtures.singletons(4), fixtures.tree_class(3, 2)):
        mu = Distribution.uniform(cls.universe)
        stats = estimate_expected_queries(cls, mu, 10_000, seed=42)
        results.append(stats)
    elapsed = time.time() - start
    ok = elapsed < 120 and all(
        s.mean <= 2 * s.ldim + 3 * s.stderr for s in results
    )
    detail = " ".join(
        f"mean={s.mean:.3f} bound={2 * s.ldim}+3*{s.stderr:.4f}" for s in results
    )
    _report(7, "thicket Monte-Carlo expectation bound", ok, detail + f" time={elapsed:.0f}s")


def test_criterion_8_compression_roundtrip():
    classes = [
        fixtures.singletons(4),
        fixtures.tree_class(3, 2),
        fixtures.powerset_class(3),
        fixtures.five_class(),
    ]
    classes += [random_class_only(30_000 + k, max_x=5, max_c=8) for k in range(100)]
    total = 0
    failures = 0
    for cls in classes:
        scheme = CompressionScheme(cls)
        if scheme.reconstruction_count != scheme.dimension + 1:
            failures += 1
        for sample in samples(cls):
            total += 1
            tup = compress(cls, sample)
            reads = (decompress(cls, i, tup) for i in range(scheme.reconstruction_count))
            if len(tup) != scheme.dimension:
                failures += 1
            elif not any(t is not None and sample.extended_by(t) for t in reads):
                failures += 1
    tree_d = CompressionScheme(fixtures.tree_class(3, 2))
    ok = failures == 0 and tree_d.reconstruction_count == 3
    _report(8, "compression round-trip", ok, f"{total} samples over {len(classes)} classes")


def test_criterion_9_dfa_suite():
    summary = dfa_class_summary(2, 3)
    cls = summary[0]
    hyp = cls
    c = consistency_dim(cls, hyp)
    d = ldim_subset(cls, cls.full_version)
    ok = c <= 6 and len(cls) <= 64
    bound = max(1, c - 1) * d + 1
    seen = set()
    for dfa in enumerate_dfas(2):
        bits = dfa_language(dfa, 3).bits
        if bits in seen:
            continue
        seen.add(bits)
        transcript = learn_dfa(summary, dfa, "eqmq")
        if not transcript.success or transcript.total_queries > bound:
            ok = False
    one_one = dfa_language(Dfa(3, [(0, 1), (1, 2), (2, 2)], [1]), 3)
    witness = nerode_witness(one_one, 2)
    if witness is None or witness.size > 6:
        ok = False
    elif any(witness.extended_by(member) for member in cls.concepts):
        ok = False
    _report(
        9,
        "DFA dimensions, learning, and witnesses",
        ok,
        f"|C|={len(cls)} cdim={c} bound={bound} witness={witness.size if witness else '-'}pts",
    )


def test_criterion_10_hm_theorem():
    classes = [
        fixtures.singletons(4),
        fixtures.tree_class(3, 2),
        fixtures.five_class(),
        fixtures.powerset_class(3),
    ]
    classes += [random_class_only(40_000 + k, max_x=7, max_c=10) for k in range(100)]
    violations = 0
    for cls in classes:
        d = ldim(cls)
        hm = hypothesis_hm(cls, d + 1)
        if ldim(hm) != d:
            violations += 1
        if consistency_dim(cls, hm) > d + 1:
            violations += 1
    _report(10, "fixed-dimension hypothesis construction", violations == 0, f"{len(classes)} classes")
