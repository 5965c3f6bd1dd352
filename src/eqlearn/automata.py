"""Binary DFAs as concept classes over length-bounded string universes.

The universe for bound m holds every binary string of length at most m in
length-then-lexicographic order; the empty string is displayed as "e".  The
right congruence is computed inside the bound: a suffix may distinguish two
prefixes only when both concatenations stay within length m.
"""

from __future__ import annotations

from itertools import product

from .core import (
    ClassFormatError,
    Concept,
    ConceptClass,
    InvariantViolation,
    PartialConcept,
    Universe,
)
from .dimensions import consistency_dim, ldim_subset
from .learners import CdimEqLearner, EqMqLearner, run_session
from .teachers import HonestTeacher

EPSILON_NAME = "e"


class Dfa:
    """Deterministic automaton over {0,1}; state 0 is the start state."""

    def __init__(self, n_states, transitions, accepting):
        transitions = tuple((int(a), int(b)) for a, b in transitions)
        if n_states < 1 or len(transitions) != n_states:
            raise ClassFormatError("transition table must cover every state")
        for pair in transitions:
            for t in pair:
                if not (0 <= t < n_states):
                    raise ClassFormatError(f"transition target {t} out of range")
        accepting = frozenset(int(s) for s in accepting)
        for s in accepting:
            if not (0 <= s < n_states):
                raise ClassFormatError(f"accepting state {s} out of range")
        self.n_states = n_states
        self.transitions = transitions
        self.accepting = accepting

    def __repr__(self):
        return f"Dfa(states={self.n_states}, accept={sorted(self.accepting)})"


def _int_field(lineno, what, text, lo, hi):
    """The integer `text` on line `lineno`, which must lie in lo..hi."""
    try:
        value = int(text)
    except ValueError:
        value = lo - 1
    if not lo <= value <= hi:
        raise ClassFormatError(f"line {lineno}: {what} {text!r} is not an integer in {lo}..{hi}")
    return value


def parse_dfa(text):
    """Parse the DFA file format: `states: n`, `accept: i j ...`, then one
    `from symbol to` transition per line."""
    n_states = None
    accepting = None
    edges = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n_states is None:
            if not line.startswith("states:"):
                raise ClassFormatError(f"line {lineno}: expected 'states:' header")
            count = line[len("states:"):].strip()
            n_states = _int_field(lineno, "state count", count, 1, float("inf"))
            continue
        if accepting is None:
            if not line.startswith("accept:"):
                raise ClassFormatError(f"line {lineno}: expected 'accept:' line")
            accepting = [
                _int_field(lineno, "state", t, 0, n_states - 1)
                for t in line[len("accept:"):].split()
            ]
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ClassFormatError(f"line {lineno}: expected 'from symbol to'")
        if parts[1] not in ("0", "1"):
            raise ClassFormatError(f"line {lineno}: symbol must be 0 or 1")
        src, dst = (_int_field(lineno, "state", t, 0, n_states - 1) for t in parts[::2])
        key = (src, int(parts[1]))
        if key in edges:
            raise ClassFormatError(f"line {lineno}: repeated transition for {key}")
        edges[key] = dst
    if n_states is None or accepting is None:
        raise ClassFormatError("missing DFA header lines")
    transitions = []
    for s in range(n_states):
        try:
            transitions.append((edges[(s, 0)], edges[(s, 1)]))
        except KeyError:
            raise ClassFormatError(f"state {s} is missing a transition") from None
    return Dfa(n_states, transitions, accepting)


def format_dfa(dfa):
    lines = [f"states: {dfa.n_states}", "accept: " + " ".join(map(str, sorted(dfa.accepting)))]
    for s, (t0, t1) in enumerate(dfa.transitions):
        lines.append(f"{s} 0 {t0}")
        lines.append(f"{s} 1 {t1}")
    return "\n".join(lines) + "\n"


def bounded_strings(m):
    """All binary strings of length <= m, length-then-lexicographic."""
    out = [""]
    for length in range(1, m + 1):
        out.extend("".join(t) for t in product("01", repeat=length))
    return out


def string_universe(m):
    names = [s if s else EPSILON_NAME for s in bounded_strings(m)]
    return Universe(names)


def bound_of_universe(universe):
    """Recover m from a string universe of size 2^(m+1) - 1."""
    size = universe.size + 1
    m = size.bit_length() - 2
    if (1 << (m + 1)) - 1 != universe.size:
        raise ValueError("universe is not a bounded-string universe")
    return m


def _state_sets(transitions, size):
    """Per state, the bitset of the strings of the `size`-element bounded
    universe whose run from state 0 ends there.  String i's children are
    2i+1 and 2i+2, so each string's state is one step from its parent's."""
    states = [0]
    for i in range(size // 2):
        states += transitions[states[i]]
    sets = [0] * len(transitions)
    for i, s in enumerate(states):
        sets[s] |= 1 << i
    return sets


def dfa_language(dfa, m):
    """The total labeling of the bounded-string universe by acceptance."""
    sets = _state_sets(dfa.transitions, (2 << m) - 1)
    return Concept(string_universe(m), sum(sets[s] for s in dfa.accepting))


def enumerate_dfa_class(n, m):
    """Distinct languages of <= n-state DFAs over strings of length <= m, in
    first-seen order by (state count, transition table, accepting-set bitmask)."""
    if not (1 <= n <= 3 and 0 <= m <= 4):
        raise ValueError("size guard: enumeration supports 1 <= n <= 3, 0 <= m <= 4")
    universe = string_universe(m)
    languages = {}  # a dict keeps the first-seen order
    for k in range(1, n + 1):
        for transitions in product(product(range(k), repeat=2), repeat=k):
            by_accepting = [0]  # indexed by accepting-set bitmask
            for state_set in _state_sets(transitions, universe.size):
                by_accepting += [bits | state_set for bits in by_accepting]
            languages.update(dict.fromkeys(by_accepting))
    return ConceptClass(universe, [Concept(universe, bits) for bits in languages])


def nerode_witness(concept, n):
    """A restriction of the labeling that no <= n-state language extends, or
    None when at most n bounded right-congruence classes exist.

    Picks n+1 pairwise inequivalent prefixes (scanning in universe order) and,
    for each pair, the least distinguishing suffix; the witness is the
    labeling restricted to the <= n(n+1) distinguishing concatenations.
    """
    universe = concept.universe
    m = bound_of_universe(universe)
    strings = bounded_strings(m)
    index = {s: i for i, s in enumerate(strings)}

    def distinguisher(x, y):
        """The least suffix z on whose concatenations, both inside the
        bound, the labeling differs, or None."""
        limit = m - max(len(x), len(y))
        for z in strings:
            if len(z) > limit:
                return None  # strings are in length order
            if concept.label(index[x + z]) != concept.label(index[y + z]):
                return z
        return None

    reps = []
    for s in strings:
        if all(distinguisher(s, r) is not None for r in reps):
            reps.append(s)
            if len(reps) == n + 1:
                break
    if len(reps) < n + 1:
        return None
    points = set()
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            x, y = reps[i], reps[j]
            suffix = distinguisher(x, y)
            points.add(index[x + suffix])
            points.add(index[y + suffix])
    mask = 0
    for p in points:
        mask |= 1 << p
    return PartialConcept(universe, mask, concept.bits & mask)


def learn_dfa(summary, target, mode):
    """Learn the target's language in the class of `summary`, a
    `dfa_class_summary(n, m)` held by the caller, with the `mode` learner
    certified by the summary's consistency dimension against the honest
    least-index teacher.  Refuses a target whose bounded language is outside
    the class, and raises if the certified budget runs out.  Returns the
    transcript."""
    if mode not in ("eq", "eqmq"):
        raise ValueError("mode must be 'eq' or 'eqmq'")
    cls, _, c = summary
    m = bound_of_universe(cls.universe)
    target_index = cls.bits_index.get(dfa_language(target, m).bits)
    if target_index is None:
        raise ValueError(
            f"the target's language on strings of length <= {m} is not one of the "
            f"class's {len(cls)}: no DFA within its state bound has it"
        )
    learner = (EqMqLearner if mode == "eqmq" else CdimEqLearner)(cls, cls, _consistency=c)
    transcript = run_session(learner, HonestTeacher(cls, target_index), learner.certified_budget)
    if not transcript.success:
        raise InvariantViolation("DFA learner exhausted its certified budget")
    return transcript


def dfa_class_summary(n, m):
    """(class, ldim, consistency dimension), all exact.  The consistency
    dimension is at most the distinguishing-suffix cap n(n+1)
    (`nerode_witness`)."""
    cls = enumerate_dfa_class(n, m)
    return cls, ldim_subset(cls, cls.full_version), consistency_dim(cls, cls)
