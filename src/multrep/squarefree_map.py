"""The bijection between squarefree integers and finite prime sets.

A squarefree q maps to its set of prime divisors; the inverse is the
product map.  Ordered factorizations of q into h coprime squarefree
factors correspond one-to-one with ordered h-tuples of pairwise disjoint
prime sets covering the prime divisors of q.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iproduct

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


def _checked_prime_set(primes: tuple[int, ...]) -> PrimeSet:
    """A PrimeSet of primes that already passed PrimeSet's checks, built
    without running them again."""
    s = object.__new__(PrimeSet)
    object.__setattr__(s, "primes", primes)
    return s


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
    squarefree factors.
    """
    if h < 2:
        raise ValueError("h must be >= 2")
    ps = phi(q).primes
    total = h ** len(ps)
    if total > cap:
        raise ResourceLimitError(
            f"{total} partitions exceed the output cap {cap}"
        )
    out = []
    for word in _iproduct(range(h), repeat=len(ps)):
        slots: list[list[int]] = [[] for _ in range(h)]
        for p, slot in zip(ps, word):
            slots[slot].append(p)
        out.append(tuple(_checked_prime_set(tuple(block)) for block in slots))
    return out
