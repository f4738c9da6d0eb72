"""Ordered multiplicative (and additive) representation counting.

g(n), the number of ordered tuples (b_1, ..., b_h) with b_i in part i
and b_1 ... b_h = n, is the Dirichlet convolution of the parts'
indicators evaluated at n.  count_system_reps factors n once and works
on its divisor lattice, naming each divisor by its exponent vector.  It
builds a table of suffix counts cnt_i(m), the number of representations
of m | n by parts i..h-1, in one of two ways:

  prime chains  when every part is multiplicative, the table factors
                over the prime powers p^e exactly dividing n, and
                g(n) = prod c(p, e), where c(p, e) counts the compositions
                e = a_1 + ... + a_h with p^(a_i) in part i;
  lattice       otherwise, level by level from the last part, with each
                part's membership decided once per divisor of n.

Both hand the tuple walk the same tables, flags[i][x] (part i holds the
divisor with index x) and cnt[i][x]; the prime chains spread theirs only
when tuples are listed.  The walk is lexicographic and depth-first and
enters a branch only when its suffix count is non-zero, so listing stops
after tuple_cap tuples however large g(n) is.  Window scans, witness
streams and catalog evidence read their counts from one generator
(_counts).  Counts are exact Python integers; window scans return the
min/max over a finite range, which is evidence about the tails, never a
limit.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

from .errors import ResourceLimitError
from .integer_sets import (
    SIEVE_LIMIT,
    MultiplicativeSystem,
    SetDescription,
    basis_system,
    factorize,
    membership,
)

DEFAULT_TUPLE_CAP = 64

# the most (member, support) pairs the lattice may test at one n, summed
# over its middle levels
PAIR_CAP = 1 << 26


@dataclass(frozen=True)
class RepWitness:
    """A count g(n) with an explicit (possibly truncated) tuple listing."""

    n: int
    count: int
    tuples: tuple[tuple[int, ...], ...]
    truncated: bool

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "count": self.count,
            "tuples": [list(t) for t in self.tuples],
            "truncated": self.truncated,
        }


@dataclass(frozen=True)
class WindowStats:
    lo: int
    hi: int
    min_count: int
    argmin: int
    max_count: int
    argmax: int

    def to_record(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "min_count": self.min_count,
            "argmin": self.argmin,
            "max_count": self.max_count,
            "argmax": self.argmax,
        }


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
    index of m // d is index(m) - index(d).
    """
    return _spread([[p**a for a in range(e + 1)] for p, e in factors.items()])


class _Lattice:
    """Suffix counts over the divisor lattice of n, for any system.

    cnt[i][x] is the number of representations of the divisor with index
    x by parts i..h-1, for 1 <= i < h.  cnt[h-1] is the last part's
    membership; each level above pairs the members d of part i with the
    support r of the level below, keeping the pairs where d * r divides n.
    More than PAIR_CAP pairs in all raise ResourceLimitError before the
    level that would pass it is paired.
    Level 0 is needed at n alone, so part 0 is decided only at n // r for
    the r in the support of level 1: flags[0] is False elsewhere.
    """

    def __init__(self, parts, factors: dict[int, int]):
        values = _divisor_values(factors)
        facts = [{}]  # the factorization of each divisor
        for p, e in factors.items():
            facts = [{**f, p: a} if a else f for a in range(e + 1) for f in facts]
        top = len(values) - 1  # the index of n

        known = {}
        for part in parts[1:]:
            if id(part) not in known:
                known[id(part)] = [
                    part.contains_factored(v, f) for v, f in zip(values, facts)
                ]
        h = len(parts)
        self.flags = [None] + [known[id(part)] for part in parts[1:]]
        self.cnt = [None] * h
        self.cnt[h - 1] = below = self.flags[h - 1]
        pairs = 0
        for i in range(h - 2, 0, -1):
            support = [(r, c) for r, c in enumerate(below) if c]
            members = [d for d, ok in enumerate(self.flags[i]) if ok]
            pairs += len(members) * len(support)
            if pairs > PAIR_CAP:
                raise ResourceLimitError(
                    f"the divisor lattice of {values[top]} needs at least "
                    f"{pairs} member-support pairs, above the cap {PAIR_CAP}"
                )
            row = [0] * len(values)
            for d in members:
                rest = values[top - d]  # n // values[d]
                for r, c in support:
                    if rest % values[r] == 0:
                        row[d + r] += c
            self.cnt[i] = below = row
        support = [(r, c) for r, c in enumerate(below) if c]
        first = parts[0]
        self.flags[0] = decided = [False] * len(values)
        for r, _ in support:
            decided[top - r] = first.contains_factored(values[top - r], facts[top - r])
        self.count = sum(c for r, c in support if decided[top - r])


class _PrimeChains:
    """Suffix counts of a system whose parts are all multiplicative.

    Such a count factors over the prime powers p^e exactly dividing n.
    For one prime p, let F_j(x) be the sum of x^a over the a <= e with
    p^a in part j.  The coefficient of x^a in F_i ... F_{h-1} counts the
    compositions a = a_i + ... + a_{h-1} with p^{a_j} in part j, and the
    suffix count of prod p^{a_p} by parts i..h-1 is the product of these
    coefficients over the primes.  The polynomials are evaluated at
    x = 2^width (Kronecker substitution), so that one integer product
    computes all coefficients: none exceeds (e+1)^h, which fits a digit.

    flags and cnt are _Lattice's tables at the levels the tuple walk
    reads, spread from the per-prime rows when first read (a product of
    0/1 flags is their AND), so a count alone builds neither.
    """

    def __init__(self, parts, factors: dict[int, int]):
        self.h = len(parts)
        self.allowed = []  # per prime, per part: membership of p^0..p^e
        self.chains = []  # per prime: (e, width, suffix products for levels 0..h)
        self.count = 1
        for p, e in factors.items():
            allowed, width, suffixes = _prime_chain(parts, p, e)
            self.allowed.append(allowed)
            self.chains.append((e, width, suffixes))
            self.count *= _digit(suffixes[0], e, width)

    @cached_property
    def flags(self) -> list:
        return [_spread(rows[i] for rows in self.allowed) for i in range(self.h - 1)]

    @cached_property
    def cnt(self) -> list:
        return [None] + [
            _spread(
                [_digit(suffixes[i], a, width) for a in range(e + 1)]
                for e, width, suffixes in self.chains
            )
            for i in range(1, self.h)
        ]


def _prime_chain(parts, p: int, e: int):
    """For the prime p and the exponents 0..e: the parts' memberships of
    p^0..p^e, the digit width, and for i = 0..h the product of the
    exponent polynomials of parts i..h-1 evaluated at x = 2^width."""
    allowed = [part.prime_power_flags(p, e) for part in parts]
    width = len(parts) * (e + 1).bit_length()
    units = [1 << (a * width) for a in range(e + 1)]
    product = 1
    suffixes = [product]
    for flags in reversed(allowed):
        product *= sum(compress(units, flags))
        suffixes.append(product)
    suffixes.reverse()
    return allowed, width, suffixes


def _digit(packed: int, a: int, width: int) -> int:
    """The coefficient of x^a in a polynomial evaluated at x = 2^width."""
    return (packed >> (a * width)) & ((1 << width) - 1)


def _lex_tuples(table, n: int, h: int, factors: dict[int, int], cap: int):
    """The first cap tuples in lexicographic order: a depth-first walk
    over divisors in ascending order that enters a branch only when its
    suffix count is non-zero, so every branch entered yields a tuple.
    The suffix count is read before membership, which a table therefore
    need decide only where the suffix count is non-zero."""
    flags, cnt = table.flags, table.cnt
    values = _divisor_values(factors)
    ordered = sorted(zip(values, range(len(values))))
    found: list[tuple[int, ...]] = []

    def walk(i: int, m: int, x: int, prefix: tuple[int, ...]) -> None:
        if i == h - 1:
            found.append(prefix + (m,))
            return
        for v, d in ordered:
            if v > m:
                return
            if m % v == 0 and cnt[i + 1][x - d] and flags[i][d]:
                walk(i + 1, m // v, x - d, prefix + (v,))
                if len(found) == cap:
                    return

    walk(0, n, len(values) - 1, ())
    return tuple(found)


def count_system_reps(
    system: MultiplicativeSystem, n: int, tuple_cap: int = DEFAULT_TUPLE_CAP
) -> RepWitness:
    """Exact number of ordered tuples (b_1,...,b_h) with b_i in parts[i]
    and product n, plus the first tuple_cap of them in lexicographic
    order.  factorize decides the range of n: ValueError for n < 1,
    FactorizationLimitError above 64-bit range.  A system with a part
    that is not multiplicative is counted on the divisor lattice, whose
    middle levels pair members with supports; ResourceLimitError if that
    takes more than PAIR_CAP (2^26) pairs, as a dense three-part system
    at the 15-prime primorial does."""
    factors = factorize(n)
    engine = _PrimeChains if system.multiplicative else _Lattice
    table = engine(system.parts, factors)
    tuples = ()
    if tuple_cap > 0 and table.count:
        tuples = _lex_tuples(table, n, system.h, factors, tuple_cap)
    return RepWitness(n, table.count, tuples, truncated=table.count > len(tuples))


def count_basis_reps(
    b: SetDescription, h: int, n: int, tuple_cap: int = DEFAULT_TUPLE_CAP
) -> RepWitness:
    """All parts equal to b: the h-fold multiplicative representation count."""
    return count_system_reps(basis_system(b, h), n, tuple_cap)


def count_additive_reps(a: SetDescription, h: int, n: int) -> int:
    """Number of ordered h-tuples in a^h summing to n (n >= 0)."""
    if h < 2:
        raise ValueError("h must be >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    elems = [v for v in range(0, n + 1) if membership(a, v)]
    ways = [0] * (n + 1)
    for v in elems:
        ways[v] = 1
    for _ in range(h - 1):
        nxt = [0] * (n + 1)
        for s, w in enumerate(ways):
            if w:
                for v in elems:
                    if s + v > n:
                        break
                    nxt[s + v] += w
        ways = nxt
    return ways[n]


def _counts(system: MultiplicativeSystem, ns):
    """Yield (n, g(n)) for each n of the iterable ns, in order.

    The count does not depend on the order of the parts, so g is the
    Dirichlet convolution F * G.  F(m) counts the tuples of the parts
    that are not multiplicative with product m; G(k) = prod c(p, e) over
    the p^e exactly dividing k counts those of the multiplicative parts,
    as the prime chains do.  The input decides the path.  If every part
    is multiplicative, g = G at each n, with c(p, e) kept for the call
    (for p below SIEVE_LIMIT, so the table is bounded).  If ns is a
    range of step 1 ending at or below SIEVE_LIMIT, F is convolved from
    the parts' sorted members up to its end, and g(n) sums F(m) G(n / m)
    over the support of F, walking the multiples of each m in the range.
    Anything else is counted by count_system_reps, one n at a time.
    Only the convolution counts ahead, so a caller that stops early pays
    for no more n, and where a count raises (a factorization or a prime
    index out of range) every count before it has been yielded.
    """
    mult = [part for part in system.parts if part.multiplicative]
    rest = [part for part in system.parts if not part.multiplicative]
    window = isinstance(ns, range) and ns.step == 1 and ns.stop <= SIEVE_LIMIT
    if rest and not window:
        for n in ns:
            yield n, count_system_reps(system, n, tuple_cap=0).count
        return
    conv = {1: 1}
    for part in rest:
        members = list(part.iter_up_to(ns[-1]))
        nxt: dict[int, int] = {}
        for m, c in conv.items():
            for d in members[: bisect_right(members, ns[-1] // m)]:
                nxt[m * d] = nxt.get(m * d, 0) + c
        conv = nxt
    digits: dict[tuple[int, int], int] = {}  # c(p, e)

    def chains(k: int) -> int:  # G(k)
        g = 1
        for pe in factorize(k).items():
            c = digits.get(pe)
            if c is None:
                _, width, suffixes = _prime_chain(mult, *pe)
                c = _digit(suffixes[0], pe[1], width)
                if pe[0] < SIEVE_LIMIT:
                    digits[pe] = c
            g *= c
        return g

    if conv == {1: 1}:  # the other parts contribute only 1 to a product
        yield from ((n, chains(n)) for n in ns)
        return
    lo, hi = ns[0], ns[-1]
    memo: dict[int, int] = {}  # G(k)
    counts = [0] * len(ns)
    for m, c in conv.items():
        for k in range(-(-lo // m), hi // m + 1):
            g = memo.get(k)
            if g is None:
                g = memo[k] = chains(k)
            counts[k * m - lo] += c * g
    yield from zip(ns, counts)


def scan_counts(system: MultiplicativeSystem, lo: int, hi: int):
    """Yield (n, g(n)) for n in [lo, hi]."""
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    yield from _counts(system, range(lo, hi + 1))


def window_stats(system: MultiplicativeSystem, lo: int, hi: int) -> WindowStats:
    """Exact min/max of g over [lo, hi]; ties resolved to the smallest n."""
    if lo < 2 or hi < lo:
        raise ValueError("need 2 <= lo <= hi")
    return summarize_window(lo, hi, scan_counts(system, lo, hi))


def summarize_window(lo: int, hi: int, counts) -> WindowStats:
    """Min/max of the (n, count) pairs of [lo, hi], given in ascending n;
    ties resolved to the smallest n."""
    min_count = max_count = None
    argmin = argmax = lo
    for n, c in counts:
        if min_count is None or c < min_count:
            min_count, argmin = c, n
        if max_count is None or c > max_count:
            max_count, argmax = c, n
    return WindowStats(lo, hi, min_count, argmin, max_count, argmax)
