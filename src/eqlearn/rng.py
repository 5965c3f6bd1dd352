"""Deterministic 64-bit PRNG and exact-rational weighted sampling.

The generator is SplitMix64: state advances by the golden-ratio increment
0x9E3779B97F4A7C15 and each output is the standard two-round multiply-xor
finalizer.  Per-trial seeds are derived with `mix64(seed, index)`, defined
bit-exactly below so independent implementations can reproduce the streams.

Sampling maps a raw 64-bit draw u to the rational u / 2**64 and inverts the
exact cumulative weights; no floating point enters the probability path.
"""

from __future__ import annotations

from fractions import Fraction

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _finalize(z):
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def check_seed(seed):
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed {seed} is outside the range 0..2^64-1")
    return seed


def mix64(seed, index):
    """Per-trial seed: finalize(seed + GOLDEN * (index + 1)) over 64 bits."""
    return _finalize((check_seed(seed) + GOLDEN * (index + 1)) & MASK64)


class SplitMix64:
    """Seeded deterministic generator; identical seeds give identical streams.
    Seeds lie in [0, 2^64); any other seed raises ValueError."""

    def __init__(self, seed):
        self._state = check_seed(seed)

    def next_u64(self):
        self._state = (self._state + GOLDEN) & MASK64
        return _finalize(self._state)

    def below(self, n):
        """Uniform integer in [0, n), exact via rejection sampling.  Each
        candidate joins k = max(1, ceil(bitlen(n - 1) / 64)) draws, most
        significant first, so n up to 2^64 takes one draw per candidate."""
        if n <= 0:
            raise ValueError("n must be positive")
        k = max(1, -(-(n - 1).bit_length() // 64))
        span = 1 << (64 * k)
        limit = span - span % n
        while True:
            u = 0
            for _ in range(k):
                u = (u << 64) | self.next_u64()
            if u < limit:
                return u % n

    def choose_weighted(self, items, weights):
        """Pick an item with probability proportional to its exact weight."""
        if len(items) != len(weights) or not items:
            raise ValueError("items and weights must be nonempty and aligned")
        total = sum((Fraction(w) for w in weights), Fraction(0))
        if total <= 0:
            raise ValueError("total weight must be positive")
        r = Fraction(self.next_u64(), 1 << 64) * total
        acc = Fraction(0)
        for item, w in zip(items, weights):
            acc += w
            if acc > r:
                return item
        return items[-1]
