"""Symbolic descriptions of integer sets with decidable membership.

The vocabulary is closed: a fixed list of predicate kinds (naturals,
finite lists, geometric progressions, primes, squarefree integers,
smooth numbers over a prime class, unions, intersections).  Keeping the
kinds closed makes every description serializable and membership total.

Prime classes partition the primes by index residue: with modulus h,
class r contains the primes p_j (p_1 = 2, p_2 = 3, ...) with
j == r (mod h).  For any modulus the classes are pairwise disjoint,
nonempty, and cover all primes.
"""

from __future__ import annotations

import ast
import heapq
import math
import re
from array import array
from collections.abc import Sequence
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count
from operator import and_

from .errors import FactorizationLimitError, ResourceLimitError

MAX_INT = 2**63 - 1

# is_prime and factorize read the smallest-prime-factor sieve below this
SIEVE_LIMIT = 1 << 20

# prime_index grows the sieve up to p; counting fundamental:h=2 at 2 * 4194301
# grows it to 2^22, at a peak of 67 MB (getrusage max RSS, Python 3.11)
PRIME_INDEX_LIMIT = 1 << 22

# Miller-Rabin with these bases decides every n < 3.3e24 (Sorenson and
# Webster 2015), which covers the 64-bit range
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# factorize divides out the primes up to this before it runs rho, which
# multiplies _RHO_BATCH differences together between two gcds
_TRIAL_PRIME_LIMIT = 1000
_RHO_BATCH = 128

# ---------------------------------------------------------------------------
# prime machinery
# ---------------------------------------------------------------------------

_spf: array[int] = array("I")  # smallest prime factor table, grown on demand
_primes: list[int] = []  # the primes the sieve covers, ascending


def _ensure_sieve(
    limit: int, refusal: str = "the primes up to %d need", arg: int | None = None
) -> None:
    """Grow the sieve to cover [0, limit], at least doubling it; doubling
    alone never takes it to PRIME_INDEX_LIMIT, and a limit at or above it
    raises ResourceLimitError before anything grows.  The error reads
    refusal % arg (arg defaults to limit), then "a sieve beyond" the cap;
    it is worded only when raised, as prime_index calls this every time.

    _spf is an array of 4-byte entries: _spf[n] == n for 1 and for each
    prime, the smallest prime factor of every composite n, and 0 at 0."""
    global _spf, _primes
    if limit < len(_spf):
        return
    if limit >= PRIME_INDEX_LIMIT:
        what = refusal % (limit if arg is None else arg)
        raise ResourceLimitError(f"{what} a sieve beyond {PRIME_INDEX_LIMIT}")
    limit = max(limit, min(2 * len(_spf), PRIME_INDEX_LIMIT - 1), 1 << 16)
    root = math.isqrt(limit)
    prime = bytearray([1]) * (limit + 1)
    prime[:2] = b"\0\0"
    for p in range(2, root + 1):
        if prime[p]:
            prime[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    primes = [2] + list(compress(range(3, limit + 1, 2), prime[3::2]))
    spf = array("I", bytes(4 * (limit + 1)))
    spf[1] = 1
    for p in primes:
        spf[p] = p
    # descending, so that the smallest prime factor is written last
    for p in reversed(primes[: bisect_right(primes, root)]):
        spf[p * p :: p] = array("I", [p]) * len(range(p * p, limit + 1, p))
    _spf = spf
    _primes = primes


def smallest_prime_factors(limit: int) -> array:
    """The sieve's table, grown to cover [0, limit]: entry n is n for 1
    and for each prime, the smallest prime factor of each composite n.
    The table is shared, so callers read it and never write it; raises
    ResourceLimitError for limit >= PRIME_INDEX_LIMIT."""
    _ensure_sieve(limit)
    return _spf


def is_prime(n: int) -> bool:
    """Exact primality for n <= 2^63-1: a sieve lookup below SIEVE_LIMIT
    or the sieve's size if grown past it, deterministic Miller-Rabin
    above.  Raises FactorizationLimitError above 64-bit range."""
    if n < 2:
        return False
    if n < len(_spf):
        return _spf[n] == n
    if n < SIEVE_LIMIT:
        _ensure_sieve(n)
        return _spf[n] == n
    if n > MAX_INT:
        raise FactorizationLimitError(f"{n} exceeds 64-bit range")
    for a in _MR_BASES:
        if n % a == 0:
            return False
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_count(n: int) -> int:
    """The number of primes p <= n, read from the sieve as primes_up_to
    reads them, without copying them."""
    if n < 2:
        return 0
    _ensure_sieve(n)
    return bisect_right(_primes, n)


def primes_up_to(n: int) -> list[int]:
    """The primes p <= n, ascending, read from the sieve, which this
    grows up to n; raises ResourceLimitError for n >= PRIME_INDEX_LIMIT
    rather than outgrow memory."""
    return _primes[: _prime_count(n)]


def _row_holding(held, n: int) -> bytes:
    """A row of bytes over primes_up_to(n), 1 at each prime of held and 0
    elsewhere; the values of held that are not primes up to n are passed
    over."""
    size = _prime_count(n)
    row = bytearray(size)
    for p in held:
        x = bisect_left(_primes, p, 0, size)
        if x < size and _primes[x] == p:
            row[x] = 1
    return bytes(row)


def prime_index(p: int) -> int:
    """1-based index of the prime p (prime_index(2) == 1).

    Found by bisection in the sieve's sorted primes, which this grows up
    to p; raises ResourceLimitError for p >= PRIME_INDEX_LIMIT rather
    than outgrow memory, and ValueError when p is not prime.
    """
    _ensure_sieve(p, "the index of %d needs")
    i = bisect_left(_primes, p)
    if i < len(_primes) and _primes[i] == p:
        return i + 1
    raise ValueError(f"{p} is not prime")


def nth_prime(k: int) -> int:
    """The k-th prime (nth_prime(1) == 2), read from the sieve, which this
    grows by doubling; raises ResourceLimitError when the k-th prime is
    not below PRIME_INDEX_LIMIT rather than outgrow memory."""
    if k < 1:
        raise ValueError("k must be >= 1")
    while len(_primes) < k:
        # the k-th prime exceeds k ln k (Rosser 1939), so the sieve must
        # reach that far and past its current end
        target = max(int(k * math.log(k)), len(_spf))
        _ensure_sieve(target, "the prime of index %d needs", k)
    return _primes[k - 1]


def _pollard_brent(n: int) -> int:
    """A proper divisor of a composite n that has no prime factor up to
    _TRIAL_PRIME_LIMIT, by Brent's variant of Pollard's rho (Brent 1980)."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            # the batch passed the collision: step up to it one term at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n as {prime: exponent}, primes ascending.

    Total on [1, 2^63-1].  Below SIEVE_LIMIT n is read from the
    smallest-prime-factor sieve.  Above it the primes up to
    _TRIAL_PRIME_LIMIT are divided out, and each cofactor is read from
    the sieve, proved prime by is_prime or split by Pollard-Brent rho.
    Raises ValueError for n < 1 and FactorizationLimitError above 64-bit
    range.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_INT:
        raise FactorizationLimitError(f"{n} exceeds 64-bit range")
    factors: dict[int, int] = {}
    if n < SIEVE_LIMIT:
        spf = smallest_prime_factors(max(n, 2))
        while n > 1:
            p = spf[n]
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
        return factors
    _ensure_sieve(SIEVE_LIMIT)
    for p in _primes:
        if p > _TRIAL_PRIME_LIMIT or n < SIEVE_LIMIT:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
    cofactors = [n]
    while cofactors:
        m = cofactors.pop()
        if m < SIEVE_LIMIT:
            for p, e in factorize(m).items():
                factors[p] = factors.get(p, 0) + e
        elif is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            d = _pollard_brent(m)
            cofactors += (d, m // d)
    return dict(sorted(factors.items()))


# ---------------------------------------------------------------------------
# prime classes
# ---------------------------------------------------------------------------

def _sorted_primes(values) -> tuple[int, ...]:
    """The distinct values, ascending; raises ValueError for one that is
    not prime or is above 64-bit range."""
    ps = tuple(sorted(set(values)))
    for p in ps:
        if p > MAX_INT:
            raise ValueError(f"{_cut(str(p))} exceeds 64-bit range")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    return ps


class PrimeClass:
    def contains_prime(self, p: int) -> bool:
        raise NotImplementedError

    def prime_row(self, n: int) -> bytes:
        """Membership of each prime up to n, in the order of
        primes_up_to(n), as a row of 0 and 1 bytes; by default one
        contains_prime per prime."""
        return bytes(map(self.contains_prime, primes_up_to(n)))


@dataclass(frozen=True)
class IndexResidue(PrimeClass):
    """Primes p_j with j == residue (mod modulus), indices starting at 1."""

    modulus: int
    residue: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        if not 0 <= self.residue < self.modulus:
            raise ValueError("residue out of range")

    def contains_prime(self, p: int) -> bool:
        """Raises ResourceLimitError for p >= PRIME_INDEX_LIMIT."""
        try:
            return prime_index(p) % self.modulus == self.residue
        except ValueError:
            return False

    def prime_row(self, n: int) -> bytes:
        # p_j sits at j - 1, so the class is one strided slice of the row
        row = bytearray(_prime_count(n))
        start = (self.residue - 1) % self.modulus
        row[start :: self.modulus] = b"\1" * len(range(start, len(row), self.modulus))
        return bytes(row)


@dataclass(frozen=True)
class ExplicitList(PrimeClass):
    primes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "primes", _sorted_primes(self.primes))

    def contains_prime(self, p: int) -> bool:
        return p in self.primes

    def prime_row(self, n: int) -> bytes:
        return _row_holding(self.primes, n)


@dataclass(frozen=True)
class Complement(PrimeClass):
    """Complement of another class within a finite prime universe."""

    inner: PrimeClass
    universe: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "universe", _sorted_primes(self.universe))

    def contains_prime(self, p: int) -> bool:
        return p in self.universe and not self.inner.contains_prime(p)

    def prime_row(self, n: int) -> bytes:
        # the inner class is asked only about the universe's primes
        held = (p for p in self.universe if p <= n and not self.inner.contains_prime(p))
        return _row_holding(held, n)


# ---------------------------------------------------------------------------
# the divisor lattice
# ---------------------------------------------------------------------------

def _spread(rows) -> list:
    """The products that take one entry from each row, in divisor index
    order: the product at index sum a_j * s_j takes entry a_j of row j,
    where s_j is the product of the lengths of the rows before row j."""
    out = [1]
    for row in rows:
        out = [v * r for r in row for v in out]
    return out


def _divisor_values(factors: dict[int, int]) -> list[int]:
    """The divisors of the integer with this factorization, in index order.

    The divisor prod p_j^a_j has index sum a_j * s_j, where s_j is the
    number of divisors over the primes before p_j.  If d divides m, the
    index of m // d is index(m) - index(d).  On a squarefree integer
    with its primes ascending, the index of a divisor is the bitmask of
    its primes.
    """
    return _spread([[p**a for a in range(e + 1)] for p, e in factors.items()])


def _steps(factors: dict[int, int]) -> list[int]:
    """s_j for each prime p_j of the factorization, then the number of
    divisors: s_j is the index of the divisor p_j."""
    steps = [1]
    for e in factors.values():
        steps.append(steps[-1] * (e + 1))
    return steps


def _divisor_index(factors: dict[int, int], v: int) -> int | None:
    """The index of v among the divisors of the integer with this
    factorization, or None when v does not divide it."""
    x, step = 0, 1
    for p, e in factors.items():
        a = 0
        while a < e and v % p == 0:
            v //= p
            a += 1
        x += a * step
        step *= e + 1
    return x if v == 1 else None


def _divisor_factors(factors: dict[int, int], x: int) -> dict[int, int]:
    """The factorization of the divisor with index x, primes ascending."""
    out = {}
    for p, e in factors.items():
        x, a = divmod(x, e + 1)
        if a:
            out[p] = a
    return out


def _marked(size: int, indices, where) -> list:
    """A row of size flags, True at each of the indices that where marks
    (every index when where is None)."""
    row = [False] * size
    for x in indices:
        row[x] = where is None or where[x]
    return row


# ---------------------------------------------------------------------------
# set descriptions
# ---------------------------------------------------------------------------

class SetDescription:
    """Base class; subclasses are immutable and hashable.

    multiplicative is True for kinds whose indicator f is multiplicative
    (f(1) = 1 and f(ab) = f(a) f(b) for coprime a, b), so that membership
    of n is decided by the prime powers exactly dividing n.  A set whose
    parameters reach beyond 64-bit range counts as not multiplicative,
    which costs speed, never exactness.  The rule is stated here once: a
    multiplicative kind defines prime_power_flags.  prime_row answers
    p^1 for every prime up to a bound at once, and a kind that can read
    its row whole, without a question per prime, overrides it.

    divisor_flags decides every divisor of a factored n in one call, by
    kind: the kinds here build no factorization per divisor, and a kind
    that overrides only contains_factored is asked divisor by divisor.
    repcount decides each part above its multiplicative tail, and
    set_partitions each image family above its tail, through it; both
    restrict their first part, by where, to the divisors whose cofactor
    the other parts can represent.
    """

    multiplicative = False
    # True for a kind whose iter_up_to lists its members without testing
    # every n up to the limit
    _listed = False

    def contains(self, n: int) -> bool:
        """Membership of n >= 0: n >= 1 and contains_factored(n,
        factorize(n)), unless the kind decides it otherwise."""
        return n >= 1 and self.contains_factored(n, factorize(n))

    def contains_factored(self, n: int, factors: dict[int, int]) -> bool:
        """Membership of n >= 1 whose factorization {prime: exponent,
        primes ascending} is given; kinds that would factor n read it
        instead.  A kind that overrides contains is asked through it.  A
        multiplicative kind that does not holds n when it holds each p^e
        exactly dividing n, asked for p increasing up to the first p^e it
        refuses."""
        if type(self).contains is not SetDescription.contains:
            return self.contains(n)
        return all(self.prime_power_flags(p, e)[e] for p, e in factors.items())

    def prime_power_flags(self, p: int, e: int) -> list[bool]:
        """Membership of p^0, p^1, ..., p^e for a prime p."""
        return [self.contains(p**a) for a in range(e + 1)]

    def prime_row(self, n: int) -> bytes:
        """prime_power_flags(p, 1)[1] for each p of primes_up_to(n), in
        that order, as a row of 0 and 1 bytes; by default one question
        per prime."""
        return bytes(self.prime_power_flags(p, 1)[1] for p in primes_up_to(n))

    def divisor_flags(self, factors: dict[int, int], where: Sequence | None = None) -> list:
        """Membership of each divisor of the integer n whose factorization
        {prime: exponent, primes ascending} is given, in divisor index
        order (_divisor_values): on a squarefree n that index is the
        bitmask of the divisor's primes.  where, a row of flags in the
        same order (a list, bytes or bytearray, whose true entries
        mark), restricts the questions to the divisors it marks, and the
        others read False.  For the kinds here the row raises exactly
        where asking contains_factored about each divisor it covers
        would, with the same error type.

        Asked about every divisor, a multiplicative kind spreads its
        prime_power_flags, one question per prime power.  Primes and
        PrimesWithOne mark the single primes (and 1), Singleton and
        PowersOf place the listed values or powers that divide n, and
        AllNaturals holds every divisor, so none of them builds a
        factorization per divisor.  Union asks each part only where the
        parts before it refuse the divisor, and Intersection only where
        they accept it.  Otherwise, as here, contains_factored is asked
        divisor by divisor, in index order, each divisor's factorization
        built only when it is asked.
        """
        if where is None and self.multiplicative:
            return _spread([self.prime_power_flags(p, e) for p, e in factors.items()])
        size = _steps(factors)[-1]
        asked = range(size) if where is None else compress(range(size), where)
        row = [False] * size
        for x in asked:
            f = _divisor_factors(factors, x)
            row[x] = self.contains_factored(math.prod(p**a for p, a in f.items()), f)
        return row

    def iter_up_to(self, limit: int):
        """The members in [1, limit], ascending and without duplicates."""
        # generic fallback: scan and filter
        return (n for n in range(1, limit + 1) if self.contains(n))


@dataclass(frozen=True)
class AllNaturals(SetDescription):
    multiplicative = True
    _listed = True

    def contains(self, n: int) -> bool:
        return n >= 1

    def prime_power_flags(self, p: int, e: int) -> list[bool]:
        return [True] * (e + 1)

    def prime_row(self, n: int) -> bytes:
        return b"\1" * _prime_count(n)

    def divisor_flags(self, factors: dict[int, int], where: Sequence | None = None) -> list:
        return [True] * _steps(factors)[-1] if where is None else list(where)

    def iter_up_to(self, limit: int):
        return iter(range(1, limit + 1))


@dataclass(frozen=True)
class Singleton(SetDescription):
    """An explicit finite list of integers >= 0.  0 may be listed, since
    membership is total on n >= 0, but it never divides an n >= 1."""

    values: tuple[int, ...]

    _listed = True

    def __post_init__(self):
        vs = tuple(sorted(set(self.values)))
        if not vs:
            raise ValueError("Singleton needs at least one value")
        if vs[0] < 0:
            raise ValueError("values must be >= 0")
        object.__setattr__(self, "values", vs)

    @cached_property
    def multiplicative(self) -> bool:
        """1 together with powers of a single prime."""
        if self.values[0] != 1 or self.values[-1] > MAX_INT:
            return False
        primes = set()
        for v in self.values[1:]:
            primes.update(factorize(v))
        return len(primes) <= 1

    def contains(self, n: int) -> bool:
        return n in self.values

    def prime_power_flags(self, p: int, e: int) -> list[bool]:
        return [p**a in self.values for a in range(e + 1)]

    def prime_row(self, n: int) -> bytes:
        return _row_holding(self.values, n)

    def divisor_flags(self, factors: dict[int, int], where: Sequence | None = None) -> list:
        indices = [_divisor_index(factors, v) for v in self.values]
        return _marked(_steps(factors)[-1], [x for x in indices if x is not None], where)

    def iter_up_to(self, limit: int):
        return (v for v in self.values if 1 <= v <= limit)


@dataclass(frozen=True)
class PowersOf(SetDescription):
    """base**e for lo <= e <= hi; hi None means unbounded above."""

    base: int
    lo: int = 0
    hi: int | None = None

    _listed = True

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be >= 2")
        if self.lo < 0:
            raise ValueError("lo must be >= 0")
        if self.hi is not None and self.hi < self.lo:
            raise ValueError("hi must be >= lo")

    @cached_property
    def multiplicative(self) -> bool:
        return self.lo == 0 and self.base <= MAX_INT and is_prime(self.base)

    def contains(self, n: int) -> bool:
        if n < 1:
            return False
        e = 0
        while n % self.base == 0:
            n //= self.base
            e += 1
        if n != 1:
            return False
        return e >= self.lo and (self.hi is None or e <= self.hi)

    def prime_power_flags(self, p: int, e: int) -> list[bool]:
        # p^a, a >= 1, is a power of the base only when the base is p^k
        # and k divides a
        b, k = self.base, 0
        while b % p == 0:
            b, k = b // p, k + 1
        if b != 1:
            return [self.lo == 0] + [False] * e
        hi = e if self.hi is None else self.hi
        return [a % k == 0 and self.lo <= a // k <= hi for a in range(e + 1)]

    def prime_row(self, n: int) -> bytes:
        # the one prime that can be held is base^1
        first = self.lo <= 1 and (self.hi is None or self.hi >= 1)
        return _row_holding((self.base,) if first else (), n)

    def divisor_flags(self, factors: dict[int, int], where: Sequence | None = None) -> list:
        # base^k for k up to the last that divides n, never base^lo itself
        n = math.prod(p**e for p, e in factors.items())
        indices, v, k = [], 1, 0
        while n % v == 0 and (self.hi is None or k <= self.hi):
            if k >= self.lo:
                indices.append(_divisor_index(factors, v))
            v, k = v * self.base, k + 1
        return _marked(_steps(factors)[-1], indices, where)

    def iter_up_to(self, limit: int):
        e = self.lo
        v = self.base**e
        while v <= limit and (self.hi is None or e <= self.hi):
            yield v
            v *= self.base
            e += 1


@dataclass(frozen=True)
class Primes(SetDescription):
    _listed = True

    def contains(self, n: int) -> bool:
        return is_prime(n)

    def contains_factored(self, n: int, factors: dict[int, int]) -> bool:
        return list(factors.values()) == [1]

    def divisor_flags(self, factors: dict[int, int], where: Sequence | None = None) -> list:
        steps = _steps(factors)
        return _marked(steps[-1], steps[:-1], where)

    def iter_up_to(self, limit: int):
        return iter(primes_up_to(limit))


@dataclass(frozen=True)
class PrimesWithOne(SetDescription):
    _listed = True

    def contains(self, n: int) -> bool:
        return n == 1 or is_prime(n)

    def contains_factored(self, n: int, factors: dict[int, int]) -> bool:
        return n == 1 or list(factors.values()) == [1]

    def divisor_flags(self, factors: dict[int, int], where: Sequence | None = None) -> list:
        steps = _steps(factors)
        return _marked(steps[-1], [0] + steps[:-1], where)

    def iter_up_to(self, limit: int):
        if limit >= 1:
            yield 1
        yield from primes_up_to(limit)


@dataclass(frozen=True)
class Squarefree(SetDescription):
    """The n >= 1 that no prime square divides, decided by prime powers."""

    multiplicative = True

    def prime_power_flags(self, p: int, e: int) -> list[bool]:
        return [a <= 1 for a in range(e + 1)]

    def prime_row(self, n: int) -> bytes:
        return b"\1" * _prime_count(n)


@dataclass(frozen=True)
class SmoothOver(SetDescription):
    """Positive integers all of whose prime factors lie in a prime class.

    1 belongs to every such set (empty product), and p^e, e >= 1, when p
    lies in the class.
    """

    prime_class: PrimeClass

    multiplicative = True

    def prime_power_flags(self, p: int, e: int) -> list[bool]:
        if not e:  # p^0 = 1 is held, and the class is not asked about p
            return [True]
        return [True] + [self.prime_class.contains_prime(p)] * e

    def prime_row(self, n: int) -> bytes:
        return self.prime_class.prime_row(n)


@dataclass(frozen=True)
class Union(SetDescription):
    parts: tuple[SetDescription, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("Union needs at least one part")

    @cached_property
    def _listed(self) -> bool:
        return all(part._listed for part in self.parts)

    def contains(self, n: int) -> bool:
        return any(part.contains(n) for part in self.parts)

    def contains_factored(self, n: int, factors: dict[int, int]) -> bool:
        return any(part.contains_factored(n, factors) for part in self.parts)

    def divisor_flags(self, factors: dict[int, int], where: Sequence | None = None) -> list:
        first, *rest = self.parts
        row = first.divisor_flags(factors, where)
        for part in rest:
            if where is None:
                refused = [not ok for ok in row]
            else:
                refused = [w and not ok for w, ok in zip(where, row)]
            row = [ok or more for ok, more in zip(row, part.divisor_flags(factors, refused))]
        return row

    def iter_up_to(self, limit: int):
        last = None
        for v in heapq.merge(*(part.iter_up_to(limit) for part in self.parts)):
            if v != last:
                yield v
                last = v


@dataclass(frozen=True)
class Intersection(SetDescription):
    parts: tuple[SetDescription, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("Intersection needs at least one part")

    @cached_property
    def multiplicative(self) -> bool:
        return all(part.multiplicative for part in self.parts)

    @cached_property
    def _listed(self) -> bool:
        return any(part._listed for part in self.parts)

    def contains(self, n: int) -> bool:
        return all(part.contains(n) for part in self.parts)

    def contains_factored(self, n: int, factors: dict[int, int]) -> bool:
        return all(part.contains_factored(n, factors) for part in self.parts)

    def prime_power_flags(self, p: int, e: int) -> list[bool]:
        if not self.multiplicative:
            return super().prime_power_flags(p, e)
        # every part holds 1, and a part is asked about p only while the
        # parts before it hold some p^a, a >= 1, as contains would ask it
        row = [True] * (e + 1)
        for part in self.parts:
            if not any(row[1:]):
                break
            row = [ok and more for ok, more in zip(row, part.prime_power_flags(p, e))]
        return row

    def prime_row(self, n: int) -> bytes:
        # an AND of the parts' rows, no part asked once no prime is left
        row = b"\1" * _prime_count(n)
        for part in self.parts:
            if not any(row):
                break
            row = bytes(map(and_, row, part.prime_row(n)))
        return row

    def divisor_flags(self, factors: dict[int, int], where: Sequence | None = None) -> list:
        if where is None and self.multiplicative:
            return super().divisor_flags(factors)
        for part in self.parts:
            where = part.divisor_flags(factors, where)
        return where

    def iter_up_to(self, limit: int):
        # listed from the first part that lists its members, if any
        first = next((part for part in self.parts if part._listed), self.parts[0])
        rest = [part for part in self.parts if part is not first]
        for v in first.iter_up_to(limit):
            if all(part.contains(v) for part in rest):
                yield v


def membership(d: SetDescription, n: int) -> bool:
    """True iff n belongs to the described set.  Total for 0 <= n <= 2^63-1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return d.contains(n)


# ---------------------------------------------------------------------------
# multiplicative systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiplicativeSystem:
    """Ordered h-tuple of set descriptions; the i-th factor is drawn from parts[i]."""

    parts: tuple[SetDescription, ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("a system needs h >= 2 parts")

    @property
    def h(self) -> int:
        return len(self.parts)


def basis_system(b: SetDescription, h: int) -> MultiplicativeSystem:
    if h < 2:
        raise ValueError("h must be >= 2")
    return MultiplicativeSystem((b,) * h)


# ---------------------------------------------------------------------------
# config grammar
# ---------------------------------------------------------------------------

# Each kind's builder and the shape of its arguments, one letter per
# argument: i an integer, n inf, s a set term, c a prime-class term.  A
# kind whose shape is empty is written as a bare name.
_KINDS = {
    "AllNaturals": (AllNaturals, ""),
    "Primes": (Primes, ""),
    "PrimesWithOne": (PrimesWithOne, ""),
    "Squarefree": (Squarefree, ""),
    "Singleton": (lambda *values: Singleton(values), "i+"),
    "PowersOf": (PowersOf, "ii[in]?"),
    "SmoothOver": (SmoothOver, "c"),
    "Union": (lambda *parts: Union(parts), "s+"),
    "Intersection": (lambda *parts: Intersection(parts), "s+"),
    "IndexResidue": (IndexResidue, "ii"),
    "ExplicitList": (lambda *primes: ExplicitList(primes), "i+"),
    "Complement": (lambda inner, *universe: Complement(inner, universe), "ci*"),
}


def _cut(text: str) -> str:
    """The first 40 characters of text, marked when more were cut, so that
    an error quotes a bounded part of a long input."""
    return text if len(text) <= 40 else text[:40] + "..."


def _letter(value) -> str:
    if value is None:
        return "n"
    if isinstance(value, int):
        return "i"
    return "s" if isinstance(value, SetDescription) else "c"


def _term(node: ast.expr):
    """The integer, inf (None), set or prime class a parsed node names."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if isinstance(node, ast.Name) and node.id == "inf":
        return None
    name, args = node, []
    if isinstance(node, ast.Call) and node.args and not node.keywords:
        name, args = node.func, node.args
    if not isinstance(name, ast.Name) or name.id not in _KINDS:
        raise ValueError(f"not a term of the grammar: {_cut(ast.unparse(node))!r}")
    build, shape = _KINDS[name.id]
    values = [_term(arg) for arg in args]
    got = "".join(map(_letter, values))
    if not re.fullmatch(shape, got):
        raise ValueError(
            f"{name.id} takes arguments {shape or 'none'!r}, not {_cut(got)!r} "
            "(i integer, n inf, s set, c prime class)"
        )
    return build(*values)


def parse_set(text: str) -> SetDescription:
    """Read one set expression of the config grammar.

    The text is parsed by ast.parse, never compiled or evaluated.  Before
    that, every word must be a kind, inf or a decimal integer, the only
    other characters are parentheses, commas and blanks, and no call is
    made on a call's result; so the only deep trees are nested
    parentheses, which the parser refuses past 200 levels.
    """
    text = " ".join(text.split())
    for m in re.finditer(r"\w+|\) ?\(|\S", text, re.ASCII):
        token = m.group()
        integer = token.isascii() and token.isdigit()
        if not (integer or token in _KINDS or token in ("inf", "(", ")", ",")):
            near = _cut(text[m.start():])
            raise ValueError(f"bad token {_cut(token)!r} near {near!r}")
        if integer and token[0] == "0" and token.strip("0"):
            raise ValueError(f"integer {_cut(token)!r} has a leading zero")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"bad expression: {exc.msg}") from None
    d = _term(tree.body)
    if not isinstance(d, SetDescription):
        raise ValueError(f"not a set expression: {_cut(text)!r}")
    return d


def parse_system(text: str) -> MultiplicativeSystem:
    """Parse a ';'-separated list of set expressions into a system."""
    parts = [s for s in (chunk.strip() for chunk in text.split(";")) if s]
    return MultiplicativeSystem(tuple(parse_set(s) for s in parts))
