"""DFA concept classes, the counting bound, Nerode witnesses, and learning."""

import math
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlearn.automata import (
    Dfa,
    bounded_strings,
    dfa_class_summary,
    dfa_language,
    enumerate_dfa_class,
    format_dfa,
    learn_dfa,
    nerode_witness,
    parse_dfa,
    string_universe,
)
from eqlearn import dimensions
from eqlearn.core import (
    ClassFormatError,
    Concept,
    is_n_consistent,
    smallest_unextendable_restriction,
)
from eqlearn.dimensions import consistency_dim, ldim_subset
from eqlearn.learners import transcript_lines
from eqlearn.rng import SplitMix64

from conftest import dfa_language_oracle, enumerate_dfas, unextendable_restriction_oracle


def parity_dfa():
    # accepts strings with an even number of ones
    return Dfa(2, [(0, 1), (1, 0)], [0])


def one_one_dfa():
    # accepts strings with exactly one 1
    return Dfa(3, [(0, 1), (1, 2), (2, 2)], [1])


def test_string_universe_shape():
    u = string_universe(3)
    assert u.size == 2**4 - 1
    assert u.elements[:4] == ("e", "0", "1", "00")
    assert bounded_strings(2) == ["", "0", "1", "00", "01", "10", "11"]


def test_dfa_language_parity():
    lang = dfa_language(parity_dfa(), 2)
    u = lang.universe
    accepted = {u.name(i) for i in range(u.size) if lang.label(i)}
    assert accepted == {"e", "0", "00", "11"}


def test_dfa_language_trivial():
    u = string_universe(2)
    assert dfa_language(Dfa(1, [(0, 0)], [0]), 2).bits == (1 << u.size) - 1
    assert dfa_language(Dfa(1, [(0, 0)], []), 2).bits == 0


def test_dfa_file_roundtrip():
    dfa = one_one_dfa()
    again = parse_dfa(format_dfa(dfa))
    assert again.transitions == dfa.transitions
    assert again.accepting == dfa.accepting
    with pytest.raises(ClassFormatError):
        parse_dfa("states: 1\naccept: 0\n0 0 0\n")  # missing a transition
    with pytest.raises(ClassFormatError):
        parse_dfa("accept: 0\n")
    with pytest.raises(ClassFormatError, match="line 5: repeated transition for \\(0, 0\\)"):
        parse_dfa("states: 2\naccept: 0\n0 0 1\n0 1 0\n0 0 0\n1 0 0\n1 1 1\n")
    # every field is an integer in range, refused with its line number
    body = "0 0 1\n0 1 0\n1 0 0\n1 1 1\n"
    for text, line in (
        ("states: x\naccept: 0\n" + body, 1),
        ("states: 0\naccept:\n", 1),
        ("states: 2\naccept: a\n" + body, 2),
        ("states: 2\naccept: 2\n" + body, 2),
        ("states: 2\naccept: 0\n0 0 x\n" + body[6:], 3),
        ("states: 2\naccept: 0\nx 0 1\n" + body, 3),
        ("states: 2\naccept: 0\n" + body + "5 0 0\n", 7),
        ("states: 2\naccept: 0\n" + body + "1 0 -1\n", 7),
    ):
        with pytest.raises(ClassFormatError, match=f"^line {line}: "):
            parse_dfa(text)


def test_enumerate_matches_string_by_string_runs():
    # the first-seen distinct languages of the DFA list, each string run on
    # its own, for every (n, m) the size guard admits
    for n in range(1, 4):
        dfas = list(enumerate_dfas(n))
        for m in range(5):
            expected = list(dict.fromkeys(dfa_language_oracle(dfa, m) for dfa in dfas))
            assert enumerate_dfa_class(n, m).member_bits() == expected, (n, m)


@st.composite
def dfas(draw):
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    transitions = draw(st.lists(st.tuples(state, state), min_size=n, max_size=n))
    return Dfa(n, transitions, draw(st.sets(state)))


@given(dfa=dfas(), m=st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_dfa_language_matches_string_by_string_run(dfa, m):
    assert dfa_language(dfa, m).bits == dfa_language_oracle(dfa, m)


def test_enumerate_one_state():
    cls = enumerate_dfa_class(1, 2)
    assert len(cls) == 2  # everything or nothing


def test_enumerate_counting_bound():
    cls = enumerate_dfa_class(2, 3)
    # the automaton-counting formula at n = 2: n^(2n) 2^n n / n! = 64
    assert len(cls) <= 64
    assert len(cls) == 26
    d = ldim_subset(cls, cls.full_version)
    assert d <= math.log2(len(cls))


def test_enumerate_size_guard():
    with pytest.raises(ValueError, match="size guard"):
        enumerate_dfa_class(4, 3)
    with pytest.raises(ValueError, match="size guard"):
        enumerate_dfa_class(2, 5)
    for n, m in ((0, 2), (-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="size guard"):
            enumerate_dfa_class(n, m)
    assert len(enumerate_dfa_class(1, 0)) == 2  # accept or reject the empty string


def test_consistency_dim_within_nerode_cap():
    cls = enumerate_dfa_class(2, 3)
    c = consistency_dim(cls, cls)
    assert c <= 6  # 2 * C(n+1, 2) at n = 2
    assert c == 4


def test_nerode_witness_one_one():
    lang = dfa_language(one_one_dfa(), 3)
    witness = nerode_witness(lang, 2)
    assert witness is not None
    assert witness.size <= 6
    names = {witness.universe.name(i) for i in witness.domain()}
    assert names == {"e", "1", "11", "111"}
    # the witness labels agree with the language
    for i in witness.domain():
        assert witness.label(i) == lang.label(i)


def test_nerode_witness_unextendable_in_class():
    cls = enumerate_dfa_class(2, 3)
    lang = dfa_language(one_one_dfa(), 3)
    witness = nerode_witness(lang, 2)
    assert all(not witness.extended_by(c) for c in cls.concepts)


def test_nerode_witness_absent_for_small_languages():
    assert nerode_witness(dfa_language(parity_dfa(), 3), 2) is None
    empty = dfa_language(Dfa(1, [(0, 0)], []), 3)
    assert nerode_witness(empty, 1) is None


def test_nerode_witnesses_for_all_non_members():
    # every 3-state language outside the 2-state class gets a valid witness
    cls2 = enumerate_dfa_class(2, 3)
    cls3 = enumerate_dfa_class(3, 3)
    checked = 0
    for concept in cls3.concepts:
        if cls2.contains_bits(concept.bits):
            continue
        witness = nerode_witness(concept, 2)
        assert witness is not None and witness.size <= 6
        assert all(not witness.extended_by(c) for c in cls2.concepts)
        checked += 1
    assert checked > 0


def test_learn_dfa_eqmq_parity():
    summary = dfa_class_summary(2, 3)
    transcript = learn_dfa(summary, parity_dfa(), "eqmq")
    assert transcript.success
    cls = enumerate_dfa_class(2, 3)
    c = consistency_dim(cls, cls)
    d = ldim_subset(cls, cls.full_version)
    assert summary[1:] == (d, c)
    assert summary[0].member_bits() == cls.member_bits()
    assert transcript.total_queries <= max(1, c - 1) * d + 1


def test_learn_dfa_one_state():
    target = Dfa(1, [(0, 0)], [0])
    transcript = learn_dfa(dfa_class_summary(1, 2), target, "eqmq")
    assert transcript.success and transcript.total_queries <= 2


def test_learn_dfa_rejects_oversized_target():
    with pytest.raises(ValueError, match="length <= 3 is not one of the class's 26: no DFA"):
        learn_dfa(dfa_class_summary(2, 3), one_one_dfa(), "eqmq")


def test_learn_dfa_takes_a_larger_automaton_of_a_class_language():
    """Membership is by bounded language, not by state count: three
    self-looping states with state 0 accepting accept every string, which a
    one-state DFA does too."""
    summary = dfa_class_summary(2, 3)
    cls = summary[0]
    everything = Dfa(3, [(0, 0), (1, 1), (2, 2)], [0])
    all_ones = (1 << cls.universe.size) - 1
    assert cls.contains_bits(all_ones)
    for mode in ("eq", "eqmq"):
        transcript = learn_dfa(summary, everything, mode)
        assert transcript.success
        move, _ = transcript.entries[-1]
        assert move.hypothesis.bits == all_ones


def test_learn_dfa_eq_mode():
    transcript = learn_dfa(dfa_class_summary(2, 3), parity_dfa(), "eq")
    assert transcript.success and transcript.mq_count == 0


def _class_targets(n, m):
    """One DFA per language of DFA(n, m), the first in enumeration order."""
    targets = {}
    for dfa in enumerate_dfas(n):
        targets.setdefault(dfa_language(dfa, m).bits, dfa)
    return list(targets.values())


def test_learn_dfa_all_targets_within_bound():
    summary = dfa_class_summary(2, 3)
    cls = summary[0]
    hyp = cls
    c = consistency_dim(cls, hyp)
    d = ldim_subset(cls, cls.full_version)
    bound = max(1, c - 1) * d + 1
    # sweep every distinct language, realized by a fresh enumeration DFA
    targets = _class_targets(2, 3)
    assert len(targets) == len(cls)
    for dfa in targets:
        transcript = learn_dfa(summary, dfa, "eqmq")
        assert transcript.success and transcript.total_queries <= bound


def test_learn_dfa_sessions_share_one_enumeration(monkeypatch):
    """Sessions on one summary enumerate DFA(2, 3) once between them, and
    each transcript is the one a fresh summary gives."""
    from eqlearn import automata

    calls = []
    enumerate_once = automata.enumerate_dfa_class

    def counting(n, m):
        calls.append((n, m))
        return enumerate_once(n, m)

    targets = _class_targets(2, 3)
    modes = ("eq", "eqmq")
    with monkeypatch.context() as patch:
        patch.setattr(automata, "enumerate_dfa_class", counting)
        summary = dfa_class_summary(2, 3)
        shared = [[learn_dfa(summary, dfa, mode) for mode in modes] for dfa in targets]
    assert len(targets) == 26 and calls == [(2, 3)]
    universe = summary[0].universe
    for dfa, transcripts in zip(targets, shared):
        fresh = dfa_class_summary(2, 3)
        for mode, transcript in zip(modes, transcripts):
            expected = transcript_lines(learn_dfa(fresh, dfa, mode), universe)
            assert transcript_lines(transcript, universe) == expected, (dfa, mode)


def test_learn_dfa_m4_is_exact_within_the_nerode_cap():
    # universe of 31 strings: c is the exact consistency dimension, at most
    # the distinguishing-suffix cap n(n+1) = 6, and certifies the budget
    summary = cls, d, c = dfa_class_summary(2, 4)
    assert c == 4 <= 2 * (2 + 1)
    assert d == ldim_subset(cls, cls.full_version)
    bound = (c - 1) * d + 1
    for dfa in (parity_dfa(), Dfa(2, [(0, 1), (1, 1)], [0]), Dfa(1, [(0, 0)], [])):
        transcript = learn_dfa(summary, dfa, "eqmq")
        assert transcript.success
        assert transcript.total_queries <= bound


def test_dfa_m4_levels_match_brute_force():
    """On DFA(2, 4), seeded totals (random ones, and members with one to
    three labels flipped) and the first totals outside the class that the
    search lists above level c - 1 have the smallest restriction with no
    extension that the subset brute force finds first, and are n-consistent
    exactly below its size; no level exceeds c, the consistency dimension."""
    cls, _, c = dfa_class_summary(2, 4)
    size = cls.universe.size
    full = (1 << size) - 1
    rng = SplitMix64(2024)
    totals = [rng.below(1 << size) for _ in range(150)]
    for _ in range(50):
        t = cls.concepts[rng.below(len(cls))].bits
        for _ in range(1 + rng.below(3)):
            t ^= 1 << rng.below(size)
        totals.append(t)
    top = (t for t in dimensions._totals_above(cls, c - 1) if not cls.contains_bits(t))
    totals += islice(top, 10)
    levels = set()
    for t in totals:
        if cls.contains_bits(t):
            continue
        expected = unextendable_restriction_oracle(cls, full, t, size)
        assert smallest_unextendable_restriction(cls, full, t, size) == expected, t
        partial = Concept(cls.universe, t).as_partial()
        level = len(expected)
        assert is_n_consistent(partial, cls, level - 1)
        assert not is_n_consistent(partial, cls, level)
        levels.add(level)
    assert max(levels) == c and len(levels) > 2


def test_dfa_3_4_consistency_dimension_is_attained():
    """DFA(3, 4)'s consistency dimension, 6, is at most the cap n(n+1) = 12,
    and a total outside the class attains it: each of its C(31, 5) 5-point
    restrictions has an extension, and the 6-point restriction the search
    returns has none."""
    cls, _, c = dfa_class_summary(3, 4)
    assert c == 6 <= 3 * (3 + 1)
    size = cls.universe.size
    full = (1 << size) - 1
    t = next(t for t in dimensions._totals_above(cls, c - 1) if not cls.contains_bits(t))
    masks = np.array([sum(1 << x for x in s) for s in combinations(range(size), c - 1)])
    for member in cls.member_bits():
        masks = masks[(masks & (member ^ t)) != 0]
    assert masks.size == 0
    points = smallest_unextendable_restriction(cls, full, t, size)
    assert len(points) == c
    mask = sum(1 << x for x in points)
    assert all((member ^ t) & mask for member in cls.member_bits())
