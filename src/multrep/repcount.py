"""Ordered multiplicative representation counting.

g(n), the number of ordered tuples (b_1, ..., b_h) with b_i in part i
and b_1 ... b_h = n, is the Dirichlet convolution of the parts'
indicators evaluated at n.  count_system_reps factors n once and works
on its divisor lattice, naming each divisor by its exponent vector, with
one engine (_Lattice).  Its table of suffix counts cnt_i(m), the number
of representations of m | n by parts i..h-1, factors over the prime
powers of n for the trailing multiplicative parts (the tail; the whole
system when every part is multiplicative, and then g(n) = prod c(p, e)
with no table built).  Each part above the tail pairs its members,
decided once per divisor of n, with the support of the level below.

The tuple walk reads one pair of tables, flags[i][x] (part i holds the
divisor with index x) and cnt[i][x]; the tail's levels are spread from
its per-prime rows only where they are read.  The walk is lexicographic and
depth-first and enters a branch only when its suffix count is non-zero,
so listing stops after tuple_cap tuples however large g(n) is.  Window
scans, witness streams and catalog evidence read their counts from one
generator (_counts).  Counts are exact Python integers; window scans
return the min/max over a finite range, which is evidence about the
tails, never a limit.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress
from math import prod

from .errors import ResourceLimitError
from .integer_sets import (
    SIEVE_LIMIT,
    MultiplicativeSystem,
    SetDescription,
    basis_system,
    factorize,
    # not called here, but perfbench/tracer.py wraps repcount.membership
    # and stops with AttributeError if the name is missing
    membership,
)

DEFAULT_TUPLE_CAP = 64

# the most (member, support) pairs the lattice may test at one n, summed
# over the levels above its multiplicative tail
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

    tables() gives the tuple walk flags[i][x], whether part i holds the
    divisor with index x (i < h - 1), and cnt[i][x], the number of
    representations of that divisor by parts i..h-1 (1 <= i < h).

    The tail is the run of multiplicative parts at the end, parts[t:].
    Its counts factor over the prime powers p^e exactly dividing n.  For
    one prime p, let F_j(x) be the sum of x^a over the a <= e with p^a in
    part j.  The coefficient of x^a in F_i ... F_{h-1} counts the
    compositions a = a_i + ... + a_{h-1} with p^{a_j} in part j, and the
    suffix count of prod p^{a_p} by parts i..h-1 is the product of these
    coefficients over the primes.  The polynomials are evaluated at
    x = 2^width (Kronecker substitution), so that one integer product
    computes all coefficients: none exceeds (e+1)^h, which fits a digit.
    The tail's levels are spread from these per-prime rows (a product of
    0/1 flags is their AND) only where read: its top level when a part
    above it is paired or decided, the rest by tables() for the tuple
    walk.  When the tail is the whole system, n is counted from its
    digits, so a count alone builds no table.

    Above the tail, each level pairs the members d of part i with the
    support r of the level below, keeping the pairs where d * r divides
    n; below the lowest of them is the tail's top level, or the last
    part's membership when the tail is empty.  More than PAIR_CAP pairs
    in all raise ResourceLimitError before the level that would pass it
    is paired.  Level 0 is needed at n alone, so part 0 is decided only
    at n // r for the r in the support of level 1: flags[0] is False
    elsewhere.
    """

    def __init__(self, parts, factors: dict[int, int]):
        self.h = h = len(parts)
        t = h
        while t and parts[t - 1].multiplicative:
            t -= 1
        self.t, self.factors = t, factors
        # per prime: (e, the tail's memberships of p^0..p^e, width, suffixes)
        self.chains = [
            (e, *_prime_chain(parts[t:], p, e)) for p, e in factors.items()
        ] if t < h else []
        if t == 0:
            self.count = prod(_digit(s[0], e, w) for e, _, w, s in self.chains)
            self._flags, self._cnt, self._values = [], [None], None
            return

        self._values = values = _divisor_values(factors)
        facts = [{}]  # the factorization of each divisor
        for p, e in factors.items():
            facts = [{**f, p: a} if a else f for a in range(e + 1) for f in facts]
        top = len(values) - 1  # the index of n
        known = {}
        for part in parts[1:t]:
            if id(part) not in known:
                known[id(part)] = [
                    part.contains_factored(v, f) for v, f in zip(values, facts)
                ]
        self._flags = [None] + [known[id(part)] for part in parts[1:t]]
        low = min(t, h - 1)  # the lowest level that is not paired
        self._cnt = [None] * (low + 1)
        self._cnt[low] = below = self._tail_cnt(t) if t < h else self._flags[h - 1]
        pairs = 0
        for i in range(low - 1, 0, -1):
            support = [(r, c) for r, c in enumerate(below) if c]
            members = [d for d, ok in enumerate(self._flags[i]) if ok]
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
            self._cnt[i] = below = row
        support = [(r, c) for r, c in enumerate(below) if c]
        first = parts[0]
        self._flags[0] = decided = [False] * len(values)
        for r, _ in support:
            decided[top - r] = first.contains_factored(values[top - r], facts[top - r])
        self.count = sum(c for r, c in support if decided[top - r])

    def _tail_cnt(self, i: int) -> list:
        return _spread(
            [_digit(suffixes[i - self.t], a, width) for a in range(e + 1)]
            for e, _, width, suffixes in self.chains
        )

    def tables(self) -> tuple[list, list, list[int]]:
        """flags, cnt and the divisor values in index order, with the
        tail's levels spread from the per-prime rows."""
        flags = self._flags + [
            _spread(allowed[i - self.t] for _, allowed, _, _ in self.chains)
            for i in range(len(self._flags), self.h - 1)
        ]
        cnt = self._cnt + [self._tail_cnt(i) for i in range(len(self._cnt), self.h)]
        return flags, cnt, self._values or _divisor_values(self.factors)


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


def _lex_tuples(table: _Lattice, cap: int):
    """The first cap tuples in lexicographic order: a depth-first walk
    over divisors in ascending order that enters a branch only when its
    suffix count is non-zero, so every branch entered yields a tuple.
    The suffix count is read before membership, which a table therefore
    need decide only where the suffix count is non-zero."""
    (flags, cnt, values), h = table.tables(), table.h
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

    walk(0, values[-1], len(values) - 1, ())
    return tuple(found)


def count_system_reps(
    system: MultiplicativeSystem, n: int, tuple_cap: int = DEFAULT_TUPLE_CAP
) -> RepWitness:
    """Exact number of ordered tuples (b_1,...,b_h) with b_i in parts[i]
    and product n, plus the first tuple_cap of them in lexicographic
    order.  factorize decides the range of n: ValueError for n < 1,
    FactorizationLimitError above 64-bit range.  The trailing
    multiplicative parts are counted per prime; each level above them
    pairs members with supports on the divisor lattice, and
    ResourceLimitError is raised if that takes more than PAIR_CAP (2^26)
    pairs, as Union(Squarefree,Primes) twice before AllNaturals at the
    15-prime primorial does."""
    table = _Lattice(system.parts, factorize(n))
    tuples = ()
    if tuple_cap > 0 and table.count:
        tuples = _lex_tuples(table, tuple_cap)
    return RepWitness(n, table.count, tuples, truncated=table.count > len(tuples))


def count_basis_reps(
    b: SetDescription, h: int, n: int, tuple_cap: int = DEFAULT_TUPLE_CAP
) -> RepWitness:
    """All parts equal to b: the h-fold multiplicative representation count."""
    return count_system_reps(basis_system(b, h), n, tuple_cap)


def _counts(system: MultiplicativeSystem, ns):
    """Yield (n, g(n)) for each n of the iterable ns, in order.

    The count does not depend on the order of the parts, so g is the
    Dirichlet convolution F * G.  F(m) counts the tuples of the parts
    that are not multiplicative with product m; G(k) = prod c(p, e) over
    the p^e exactly dividing k counts those of the multiplicative parts,
    as the tail of _Lattice is.  The input decides the path.  If every part
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
