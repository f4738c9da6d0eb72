"""The bijection between squarefree integers and finite prime sets.

A squarefree q maps to its set of prime divisors; the inverse is the
product map.  Ordered factorizations of q into h coprime squarefree
factors correspond one-to-one with ordered h-tuples of pairwise disjoint
prime sets covering the prime divisors of q.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityOverflowError, NotSquarefreeError, ResourceLimitError
from .integer_sets import MAX_INT, factorize, is_prime

DEFAULT_PARTITION_CAP = 1_000_000


@dataclass(frozen=True)
class PrimeSet:
    """A strictly increasing tuple of primes whose product fits in 64 bits."""

    primes: tuple[int, ...]

    def __post_init__(self):
        ps = self.primes
        prod = 1
        for i, p in enumerate(ps):
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if i and ps[i - 1] >= p:
                raise ValueError("primes must be strictly increasing")
            prod *= p
            if prod > MAX_INT:
                raise CapacityOverflowError("product exceeds 64-bit range")

    def __len__(self):
        return len(self.primes)

    def __iter__(self):
        return iter(self.primes)

    def __contains__(self, p):
        return p in self.primes

    def as_frozenset(self) -> frozenset[int]:
        return frozenset(self.primes)


def prime_set(primes) -> PrimeSet:
    return PrimeSet(tuple(sorted(set(primes))))


def omega(n: int) -> int:
    """Number of distinct prime divisors; omega(1) == 0."""
    return len(factorize(n))


def phi(q: int) -> PrimeSet:
    """Prime divisors of a squarefree q; rejects non-squarefree input."""
    factors = factorize(q)
    if any(e > 1 for e in factors.values()):
        raise NotSquarefreeError(f"{q} is not squarefree")
    return PrimeSet(tuple(sorted(factors)))


def phi_inverse(s: PrimeSet) -> int:
    prod = 1
    for p in s:
        prod *= p
    return prod


def factorizations_as_partitions(
    q: int, h: int, cap: int = DEFAULT_PARTITION_CAP
) -> list[tuple[PrimeSet, ...]]:
    """All ordered h-tuples of pairwise disjoint prime sets covering phi(q).

    Emitted in lexicographic order of the slot-assignment word, primes
    taken in increasing order.  Applying the product map coordinate-wise
    gives exactly the ordered factorizations of q into coprime
    squarefree factors.  The tuples share the 2^omega(q) blocks, each
    built once and indexed by mask: bit i picks the i-th smallest prime.
    """
    if h < 2:
        raise ValueError("h must be >= 2")
    ps = phi(q).primes
    total = h ** len(ps)
    if total > cap:
        raise ResourceLimitError(
            f"{total} partitions exceed the output cap {cap}"
        )
    blocks = [PrimeSet(())]
    for p in ps:
        blocks += [PrimeSet(b.primes + (p,)) for b in blocks]
    # every assignment of the primes from the i-th on to the slots, as
    # one mask per slot, in lexicographic order of the word
    words = [(0,) * h]
    for i in reversed(range(len(ps))):
        bit = 1 << i
        words = [
            w[:j] + (w[j] | bit,) + w[j + 1:] for j in range(h) for w in words
        ]
    return [tuple(blocks[m] for m in w) for w in words]
