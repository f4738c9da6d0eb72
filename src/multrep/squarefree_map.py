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


def omega(n: int) -> int:
    """Number of distinct prime divisors; omega(1) == 0."""
    return len(factorize(n))


def phi(q: int) -> PrimeSet:
    """Prime divisors of a squarefree q; rejects non-squarefree input."""
    factors = factorize(q)
    if any(e > 1 for e in factors.values()):
        raise NotSquarefreeError(f"{q} is not squarefree")
    return PrimeSet(tuple(sorted(factors)))


def _subsets(s: PrimeSet) -> list[PrimeSet]:
    """Every subset of the checked prime set s, indexed by mask: bit i
    picks the i-th smallest prime.  A subset of a checked set is prime,
    increasing and within 64 bits, so it is built without a second check."""
    if type(s) is not PrimeSet:
        raise TypeError("_subsets takes a PrimeSet")
    subsets = [()]
    for p in s.primes:
        subsets += [b + (p,) for b in subsets]
    new, setattr_ = object.__new__, object.__setattr__
    out = []
    for b in subsets:
        block = new(PrimeSet)
        setattr_(block, "primes", b)
        out.append(block)
    return out


def factorizations_as_partitions(
    q: int, h: int, cap: int = DEFAULT_PARTITION_CAP
) -> list[tuple[PrimeSet, ...]]:
    """All ordered h-tuples of pairwise disjoint prime sets covering phi(q).

    Emitted in lexicographic order of the slot-assignment word, primes
    taken in increasing order.  Applying the product map coordinate-wise
    gives exactly the ordered factorizations of q into coprime
    squarefree factors.  The tuples share the 2^omega(q) blocks, the
    subsets of phi(q), each built once and indexed by mask: bit i picks
    the i-th smallest prime.  The cap counts the blocks written, h in
    each of the h^omega(q) tuples: past it, ResourceLimitError is raised
    before any column is built.  ValueError for h < 2 or a negative cap.
    """
    if h < 2:
        raise ValueError("h must be >= 2")
    if cap < 0:
        raise ValueError("cap must be >= 0")
    s = phi(q)
    total = h ** len(s)
    if h * total > cap:
        raise ResourceLimitError(
            f"{h * total} blocks in {total} partitions exceed the output cap {cap}"
        )
    # one column of masks per slot, row t holding the t-th word; putting
    # prime i in front of the words repeats each column h times, with
    # bit i set in slot j's column in the j-th copy
    cols = [[0]] * h
    for i in reversed(range(len(s))):
        bit = 1 << i
        cols = [
            col * j + [m | bit for m in col] + col * (h - 1 - j)
            for j, col in enumerate(cols)
        ]
    pick = _subsets(s).__getitem__
    return list(zip(*(map(pick, col) for col in cols)))
