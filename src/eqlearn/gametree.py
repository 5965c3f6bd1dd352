"""Exact minimax oracle for worst-case query complexity.

The game state is the bitset of concepts still consistent with all data.
The teacher is the information-set adversary: each answer only has to stay
consistent with some surviving concept, and the game ends when the learner
submits the unique survivor (the correct final query is counted).  Values
are memoized on the version bitset, and every memo entry is the exact value.

Child table.  Every position the learner can move to from a version v is a
single-element restriction: a counterexample x to a hypothesis h leaves
`v & ones[x]` or `v & ~ones[x]` (the side that disagrees with h at x), and
a membership query on x leaves one of the same two.  So a node splits v
once per element and keeps the 2f restrictions on its f free elements (those
on which v is not constant) in a table that the equivalence and membership
moves share and fill lazily: each child is evaluated at most once per node.

Useless hypotheses.  On an element where v is constant, a hypothesis that
agrees admits no counterexample, and one that disagrees admits a
counterexample that eliminates nothing, which the adversary could repeat
forever; such a hypothesis is skipped.  Any other hypothesis costs one more
than its worst counterexample child, which depends only on its labels on
the free elements, so hypotheses are deduped by that restriction.  A
child's free elements and useful hypotheses are among its parent's, so each
node filters its parent's lists rather than the whole universe and class.

Cutoffs.  A hypothesis is dropped as soon as one of its children shows it
costs at least the best move found so far, and a membership query as soon
as its first side does; children are always evaluated exactly.  A version of
two or more concepts cannot be finished in one query (the adversary can keep
a concept the hypothesis gets wrong, and a membership query leaves at least
one concept on each side), so its value is at least 2.  Values are monotone:
every answer consistent with a subset of v is consistent with v, so v's
strategy also ends on the subset within as many queries.  So each child
value the node reads is a floor on its own value, and the search stops at
the first move whose cost meets max(2, the largest child value seen).

Closed forms.  A version of two concepts has value 2: a member of it is a
hypothesis (H contains C), and any counterexample leaves one concept.  A
version {a, b, c} has value 2 exactly when some useful hypothesis leaves one
concept at every counterexample, that is, takes on every free element the
label two of the three share: when the bitwise majority of a, b and c,
restricted to the parent's free elements, is one of the keys the parent
passes down.  Otherwise it has value 3 (a member hypothesis leaves at most
two concepts, and a membership query always leaves two on one side).
Singletons have value 1 and are never expanded; `nodes` counts the versions
of two or more concepts valued, by search or by closed form.

Depth.  Each move constrains a new free element and shrinks the version, so
the recursion is at most min(|X|, |C| - 1) + 1 calls deep.
"""

from __future__ import annotations

import sys

from .core import AllTotals, check_subclass


def _fits(frames):
    """Whether `frames` more nested calls fit under the recursion limit.

    Measured rather than estimated, since the frames below the caller, and
    the C calls among them, already use part of the limit."""
    try:
        return frames == 0 or _fits(frames - 1)
    except RecursionError:
        return False


def check_recursion_depth(depth):
    """Refuse an oracle recursion `depth` calls deep that would not fit under
    Python's recursion limit.  Its deepest call may make one more (a
    comprehension or `max`); the check itself probes depth + 2 frames deep
    from the caller, which covers that."""
    if not _fits(depth):
        raise ValueError(
            f"the oracle would go {depth} calls deep on this class, "
            f"past Python's recursion limit of {sys.getrecursionlimit()}"
        )


class _Oracle:
    def __init__(self, concept_class, hypotheses, allow_mq):
        check_subclass(concept_class, hypotheses)
        if isinstance(hypotheses, AllTotals) and concept_class.universe.size > 5:
            raise ValueError("AllTotals hypothesis oracle is limited to |X| <= 5")
        depth = min(concept_class.universe.size, len(concept_class) - 1) + 1
        check_recursion_depth(depth)
        self.elements = [
            (1 << x, ones) for x, ones in enumerate(concept_class.element_ones)
        ]
        # a dict keyed in sorted order: iterated in that order, and asked
        # for membership by the three-concept closed form
        self.hyp_bits = dict.fromkeys(sorted(set(hypotheses.member_bits())))
        self.concept_bits = concept_class.member_bits()
        self.space = (1 << concept_class.universe.size) - 1
        self.allow_mq = allow_mq
        self.memo = {1 << k: 1 for k in range(len(concept_class))}
        self.nodes = 0

    def value(self, version):
        return self.memo.get(version) or self._expand(
            version, self.elements, self.hyp_bits, self.space
        )

    def _expand(self, version, elements, hyps, space):
        """Value of a version of at least two concepts that is not in the
        memo; `elements` and `hyps` are its parent's free elements and
        useful hypotheses (or everything, at the root), and `space` is the
        bitset of those elements, to which each hypothesis in `hyps` is
        restricted."""
        self.nodes += 1
        memo = self.memo
        upper = version & (version - 1)  # the version less its lowest concept
        rest = upper & (upper - 1)  # and less its two lowest
        if not rest:
            memo[version] = 2
            return 2
        if not rest & (rest - 1):
            bits = self.concept_bits
            a = bits[(version & -version).bit_length() - 1]
            b = bits[(upper & -upper).bit_length() - 1]
            c = bits[rest.bit_length() - 1]
            majority = ((a & b) | (a & c) | (b & c)) & space
            value = memo[version] = 2 if majority in hyps else 3
            return value
        fixed = 0  # elements on which the version is constant
        label = 0  # and its labels there
        free = []
        slots = []  # per free element: (table index of its 0-side, element bit)
        children = []
        for bit, ones in elements:
            s1 = version & ones
            if s1 == version:
                fixed |= bit
                label |= bit
            elif s1:
                free.append((bit, ones))
                slots.append((len(children), bit))
                children += (version ^ s1, s1)
            else:
                fixed |= bit
        keep = ~fixed
        keys = {h & keep for h in hyps if not (h ^ label) & fixed}
        space ^= fixed
        table = [None] * len(children)
        expand = self._expand
        best = len(free) + 2  # above every move's cost
        floor = 2  # the largest child value seen, and at least 2
        if self.allow_mq:
            for j in range(0, len(children), 2):
                a = table[j]
                if a is None:
                    a = table[j] = memo.get(children[j]) or expand(
                        children[j], free, keys, space
                    )
                if a > floor:
                    floor = a
                if a + 1 < best:
                    b = table[j + 1]
                    if b is None:
                        b = table[j + 1] = memo.get(children[j + 1]) or expand(
                            children[j + 1], free, keys, space
                        )
                    if b > floor:
                        floor = b
                    if b + 1 < best:
                        best = max(a, b) + 1
                if best <= floor:
                    break
        if best > floor:
            for key in keys:
                worst = 0
                for j, bit in slots:
                    if not key & bit:
                        j += 1  # the counterexample labels this element 1
                    c = table[j]
                    if c is None:
                        c = table[j] = memo.get(children[j]) or expand(
                            children[j], free, keys, space
                        )
                    if c > worst:
                        worst = c
                        if worst + 1 >= best:
                            break
                else:
                    best = worst + 1
                if worst > floor:
                    floor = worst
                if best <= floor:
                    break
        memo[version] = best
        return best


def lc_eq_exact(concept_class, hypotheses):
    """Exact worst-case number of equivalence queries, final correct query included."""
    return lc_exact_with_stats(concept_class, hypotheses, "eq")[0]


def lc_eqmq_exact(concept_class, hypotheses):
    """Exact worst-case number of queries when membership queries are also allowed."""
    return lc_exact_with_stats(concept_class, hypotheses, "eqmq")[0]


def lc_exact_with_stats(concept_class, hypotheses, mode):
    if mode not in ("eq", "eqmq"):
        raise ValueError("mode must be 'eq' or 'eqmq'")
    oracle = _Oracle(concept_class, hypotheses, allow_mq=(mode == "eqmq"))
    value = oracle.value(concept_class.full_version)
    return value, oracle.nodes
