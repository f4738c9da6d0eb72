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
decided at every divisor of n in one call by the part's kind
(SetDescription.divisor_flags), with the support of the level below;
the first part is decided only where that support needs it.

The tuple walk is lexicographic and depth-first and enters a branch
only when its suffix count is non-zero, so listing stops after tuple_cap
tuples however large g(n) is.  A level above the tail tries the sorted
divisors of n against the tables flags[i][x] (part i holds the divisor
with index x) and cnt[i][x].  A tail level reads its branches from the
per-prime digits instead: a row of powers per prime, whose products are
listed in ascending order by a lazy merge, so no tail level is built over
the divisors of n.

Window scans, witness streams and catalog evidence read their counts
from one generator (_counts), which splits g into F * G, the
convolutions of the parts that are not multiplicative and of the others.
c(p, 1), G's factor at a prime to the first power, is the number of
multiplicative parts that hold p (each holds 1).  A window below
SIEVE_LIMIT reads c(p, 1) for every prime up to its end hi from the
parts' prime rows, one row per part.  With a part that is not
multiplicative it builds F and G as lists over [0, hi], G down from all
ones or up from 1 at 1, whichever touches fewer primes, and sums the
window by strided slices split at isqrt(hi) (Dirichlet's hyperbola
method); unless rows, tables and F cost more than the per-n counts
every other sequence takes.  Counted per n, an n below SIEVE_LIMIT of a
system whose parts are all multiplicative reads g = G by the recurrence
G(k) = c(p, e) G(k / p^e), p the smallest prime factor of k; every
other n is counted by count_system_reps.  A window's exact min/max is
evidence, never a limit.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass, replace
from heapq import merge
from itertools import compress, islice, repeat, tee
from math import isqrt, log
from operator import add

from .errors import ResourceLimitError
from .integer_sets import (
    SIEVE_LIMIT,
    MultiplicativeSystem,
    SetDescription,
    _divisor_values,
    _prime_count,
    _spread,
    basis_system,
    factorize,
    primes_up_to,
    smallest_prime_factors,
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
        """The CLI record: the fields in order, each tuple as a list.  The
        tuples are kept out of asdict, which would deep-copy every one."""
        listed = [list(t) for t in self.tuples]
        return asdict(replace(self, tuples=())) | {"tuples": listed}


@dataclass(frozen=True)
class WindowStats:
    lo: int
    hi: int
    min_count: int
    argmin: int
    max_count: int
    argmax: int

    def to_record(self) -> dict:
        """The CLI record: the fields in order."""
        return asdict(self)


class _Lattice:
    """Suffix counts over the divisor lattice of n, for any system.

    For the levels above the tail, i < t, the tuple walk reads
    _flags[i][x], whether part i holds the divisor with index x, and
    _cnt[i + 1][x], the number of representations of that divisor by
    parts i+1..h-1; _cnt[t] is the tail's top level when t < h.  Within
    the tail it reads chains, the per-prime rows below.

    The tail is the run of multiplicative parts at the end, parts[t:].
    Its counts factor over the prime powers p^e exactly dividing n.  For
    one prime p, let F_j(x) be the sum of x^a over the a <= e with p^a in
    part j.  The coefficient of x^a in F_i ... F_{h-1} counts the
    compositions a = a_i + ... + a_{h-1} with p^{a_j} in part j, and the
    suffix count of prod p^{a_p} by parts i..h-1 is the product of these
    coefficients over the primes.  The polynomials are evaluated at
    x = 2^width (Kronecker substitution), so that one integer product
    computes all coefficients: none exceeds (e+1)^h, which fits a digit.
    Only the tail's top level is spread from these per-prime rows, when
    a part above it is paired or decided; the tuple walk reads the other
    tail levels from the digits.  When the tail is the whole system, n is
    counted from its digits, so it builds no table, and its primes are
    taken in increasing order up to the first whose top digit is 0.

    Above the tail, each part i >= 1 is decided at every divisor of n in
    one divisor_flags call, which answers by the part's kind: the kinds
    of integer_sets build no factorization per divisor, and any other
    kind is asked divisor by divisor.  Each level pairs the members d of
    part i with the support r of the level below, keeping the pairs
    where d * r divides n; below the lowest of them is the tail's top
    level, or the last part's membership when the tail is empty.  More
    than PAIR_CAP pairs in all raise ResourceLimitError before the level
    that would pass it is paired.  Level 0 is needed at n alone, so part
    0 is decided lazily, by divisor_flags restricted by one where row,
    level 1 reversed: it marks the n // r for the r in the support of
    level 1, each factorization built only there, and flags[0] is False
    elsewhere.  The cover fold restricts its first family by the same row.
    """

    def __init__(self, parts, factors: dict[int, int]):
        self.h = h = len(parts)
        t = h
        while t and parts[t - 1].multiplicative:
            t -= 1
        self.t, self.factors = t, factors
        # per prime: (e, the tail's memberships of p^0..p^e, width, suffixes)
        self.chains = []
        self.count = 1
        for p, e in factors.items() if t < h else ():
            allowed, width, suffixes = _prime_chain(parts[t:], p, e)
            self.chains.append((e, allowed, width, suffixes))
            if t == 0:
                # n's count is the product of the top digits, and the
                # chains are read only when it is not 0
                self.count *= _digit(suffixes[0], e, width)
                if not self.count:
                    break
        if t == 0:
            return

        self._values = values = _divisor_values(factors)
        top = len(values) - 1  # the index of n
        known = {}
        for part in parts[1:t]:
            if id(part) not in known:
                known[id(part)] = part.divisor_flags(factors)
        self._flags = [None] + [known[id(part)] for part in parts[1:t]]
        low = min(t, h - 1)  # the lowest level that is not paired
        self._cnt = [None] * (low + 1)
        if t < h:  # the tail's top level, spread from its top digits
            below = _spread(
                [_digit(suffixes[0], a, width) for a in range(e + 1)]
                for e, _, width, suffixes in self.chains
            )
        else:
            below = self._flags[h - 1]
        self._cnt[low] = below
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
        # n // values[r] has the index top - r, so level 1 reversed marks
        # where part 0 is asked and lines up each count with its flag
        asked = bytes(map(bool, reversed(below)))
        self._flags[0] = decided = parts[0].divisor_flags(factors, asked)
        self.count = sum(compress(reversed(below), decided))


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


def _products(rows):
    """The products of one entry from each row (ascending powers of
    distinct primes) in ascending order, each computed only when read."""
    factor, stream = 1, None
    for row in rows:
        if len(row) == 1:
            factor *= row[0]
        elif stream is None:  # the first such row is already in order
            stream = iter(row)
        else:  # merge the products so far times each entry of the row
            stream = merge(*(map(q.__mul__, s) for q, s in zip(row, tee(stream, len(row)))))
    return map(factor.__mul__, (1,) if stream is None else stream)


def _above(ordered, m: int, x: int, below, holds):
    """The (v, the index of m // v) for the divisors v of m, ascending,
    where holds[index of v] and below[index of m // v] are non-zero;
    ordered lists the (divisor, index) pairs of n by divisor, and x is
    the index of m.  A generator function, not an expression, so that
    its loop reads locals."""
    for v, d in ordered:
        if v > m:
            return
        if m % v == 0 and below[x - d] and holds[d]:
            yield v, x - d


def _lex_tuples(table: _Lattice, n: int, cap: int):
    """The first cap tuples in lexicographic order: a depth-first walk
    that tries each level's divisors in ascending order and enters a
    branch only when its suffix count is non-zero, so every branch entered
    yields a tuple.  The walk keeps one iterator of branches per level on
    an explicit stack, and walks level h - 2 inside its parent's loop, so
    it takes any number of parts without recursion.

    A level above the tail tries the sorted divisors of n against flags
    and cnt, reading the suffix count before membership, which a part
    therefore need decide only where the suffix count is non-zero.  A
    tail level i lists the products of one power per prime (_products),
    p's row the p^a in part i, with p^b exactly dividing the cofactor
    and a non-zero digit b - a in the suffix row of level i + 1, so no
    tail level is built over the divisors of n."""
    h, t, chains = table.h, table.t, table.chains
    if t:
        flags, cnt, values = table._flags, table._cnt, table._values
        ordered = sorted(zip(values, range(len(values))))

    def level(i: int, m: int, x: int):
        # the (v, the index of m // v) that level i < h - 1 enters at the
        # cofactor m of index x, v ascending; indices are read only above
        # the tail, and a tail level gives 0
        if i < t:
            return _above(ordered, m, x, cnt[i + 1], flags[i])
        rows = []
        for p, (_, allowed, width, suffixes) in zip(table.factors, chains):
            b, q = 0, m
            while q % p == 0:
                q, b = q // p, b + 1
            holds, below = allowed[i - t], suffixes[i + 1 - t]
            rows.append([p**a for a in range(b + 1) if holds[a] and _digit(below, b - a, width)])
        return zip(_products(rows), repeat(0))

    top = len(values) - 1 if t else 0
    if h == 2:  # the last part holds n // v
        return tuple(islice(((v, n // v) for v, _ in level(0, n, top)), cap))
    found: list[tuple[int, ...]] = []
    # per level entered above h - 2: its branches left, its cofactor and
    # the parts chosen above it; level h - 2 is walked where it is entered
    stack = [(level(0, n, top), n, ())]
    while stack:
        branches, m, prefix = stack[-1]
        for v, y in branches:
            q = m // v
            if len(stack) == h - 2:  # the last part holds q // w
                for w, _ in level(h - 2, q, y):
                    found.append(prefix + (v, w, q // w))
                    if len(found) == cap:
                        return tuple(found)
            else:
                stack.append((level(len(stack), q, y), q, prefix + (v,)))
                break
        else:
            stack.pop()
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
    15-prime primorial does.  ValueError for a negative tuple_cap."""
    if tuple_cap < 0:
        raise ValueError("tuple_cap must be >= 0")
    table = _Lattice(system.parts, factorize(n))
    tuples = ()
    if tuple_cap > 0 and table.count:
        tuples = _lex_tuples(table, n, tuple_cap)
    return RepWitness(n, table.count, tuples, truncated=table.count > len(tuples))


def count_basis_reps(
    b: SetDescription, h: int, n: int, tuple_cap: int = DEFAULT_TUPLE_CAP
) -> RepWitness:
    """All parts equal to b: the h-fold multiplicative representation count."""
    return count_system_reps(basis_system(b, h), n, tuple_cap)


def _convolve(parts, hi: int, budget: int):
    """F over [0, hi] as a list: F(m) counts the tuples of parts with
    product m, convolved from the parts' sorted members.  None once the
    members and (m, member) pairs visited pass budget, where a part that
    cannot list its members costs hi, as it tests every n <= hi to find
    them."""
    conv = [0] * (hi + 1)
    conv[1] = 1
    for part in parts:
        if not part._listed:
            budget -= hi
            if budget < 0:
                return None
        members = list(islice(part.iter_up_to(hi), budget + 1))
        budget -= len(members)
        nxt = [0] * (hi + 1)
        for m in compress(range(hi + 1), conv):
            row = members[: bisect_right(members, hi // m)]
            budget -= len(row)
            if budget < 0:
                return None
            c = conv[m]
            for d in row:
                nxt[m * d] += c
        conv = nxt
    return conv


def _held(parts, hi: int):
    """For each prime up to hi, in the order of primes_up_to(hi), the
    number of parts that hold it: the sum of the parts' prime rows."""
    rows = [part.prime_row(hi) for part in parts]
    if len(rows) < 256:  # no sum passes 255, so the rows add as integers
        total = sum(int.from_bytes(row, "little") for row in rows)
        return total.to_bytes(_prime_count(hi), "little")
    return [sum(column) for column in zip(*rows)]


def _set_prime(table: list, hi: int, p: int, row) -> None:
    """Set the factor at the prime p of the multiplicative table over
    [0, hi] to row: c(p, 1), ..., c(p, e) for the largest e with
    p^e <= hi.  For e ascending, the entries at the multiples of p^e are
    c(p, e) times those at 1, 2, ...: the last write to a multiple of p,
    at the exponent of p in it, reads an entry that p does not divide."""
    q = p
    for c in row:
        k = hi // q
        column = table[1 : k + 1]
        table[q::q] = column if c == 1 else map(c.__mul__, column) if c else bytes(k)
        q *= p


def _multiplicative_table(parts, hi: int, held) -> list:
    """G over [0, hi] as a list: G(k) counts the tuples of the
    multiplicative parts with product k, and held (_held) is c(p, 1) for
    each prime up to hi.  A prime above isqrt(hi) divides k <= hi at
    most once, so its row is c(p, 1) alone; a smaller prime's row
    c(p, 1..e), up to the largest p^e <= hi, is read from one
    _prime_chain.  G is built in whichever way touches fewer
    primes: down from all ones, replacing the rows that are not all
    ones, or up from 1 at 1 and 0 elsewhere, multiplying in the rows
    that are not all zeros.  Going up, a prime above isqrt(hi) is
    placed before any smaller one, when G is still 0 from 2 to hi / p,
    so only G(p) is written."""
    primes = primes_up_to(hi)
    s = bisect_right(primes, isqrt(hi))
    small = []
    for p in primes[:s]:
        e, q = 1, p * p
        while q <= hi:
            e, q = e + 1, q * p
        _, width, suffixes = _prime_chain(parts, p, e)
        small.append((p, [_digit(suffixes[0], a, width) for a in range(1, e + 1)]))
    large = held[s:]
    fixed = [(p, row) for p, row in small if row.count(1) < len(row)]
    grown = [(p, row) for p, row in small if any(row)]
    if len(fixed) + len(large) - large.count(1) <= len(grown) + len(large) - large.count(0):
        table = [1] * (hi + 1)
        if large.count(1) < len(large):
            fixed += [(p, (c,)) for p, c in zip(primes[s:], large) if c != 1]
    else:
        table = [0] * (hi + 1)
        table[1] = 1
        for p, c in compress(zip(primes[s:], large), large):
            table[p] = c
        fixed = grown
    for p, row in fixed:
        _set_prime(table, hi, p, row)
    return table


def _window_sums(conv: list, table: list, lo: int, hi: int) -> list:
    """g(n) = sum of F(m) G(k) over m * k = n, for n in [lo, hi], F and G
    lists over [0, hi].  Split at M = isqrt(hi), by Dirichlet's hyperbola
    method: each m <= M with F(m) != 0 adds F(m) G(k) along the window
    by stride m, and each k <= hi // (M + 1) with G(k) != 0 adds the
    F(m) G(k) of its m > M by stride k, so every pair is counted once."""
    counts = [0] * (hi - lo + 1)
    root = isqrt(hi)
    halves = ((conv, table, root, 1), (table, conv, hi // (root + 1), root + 1))
    for outer, inner, top, least in halves:
        for m in compress(range(1, top + 1), outer[1 : top + 1]):
            first, last = max(least, -(-lo // m)), hi // m
            if first > last:
                continue
            f, column = outer[m], inner[first : last + 1]
            if f != 1:
                column = map(f.__mul__, column)
            start = first * m - lo
            counts[start::m] = map(add, counts[start::m], column)
    return counts


def _counts(system: MultiplicativeSystem, ns):
    """Yield (n, g(n)) for each n of the iterable ns, in order.

    The count does not depend on the order of the parts, so g is the
    Dirichlet convolution F * G.  F(m) counts the tuples of the parts
    that are not multiplicative with product m; G counts those of the
    multiplicative parts, as the tail of _Lattice does, and is
    multiplicative: G(k) = c(p, e) G(k / p^e) for each p^e exactly
    dividing k.  Every multiplicative part holds 1, so p^1 goes to
    exactly one part: c(p, 1) is the number of parts that hold p, the
    count the cover side's held keeps per element, and only an e >= 2
    builds a _prime_chain.

    A window is a non-empty range of step 1 from n >= 1, ending at or
    below SIEVE_LIMIT.  On a window, c(p, 1) for every prime p up to hi
    is the sum of the parts' prime rows (SetDescription.prime_row), and
    when a part is not multiplicative, F and G are tables over [0, hi]
    (_convolve, _multiplicative_table) and the window is summed from
    them by strided slices (_window_sums).  The rows, the tables and
    building F are charged to width * h * ln(hi), the cost of per-n
    counts (h parts decided on about ln(n) divisors): the rows and the
    tables together cost one per prime up to hi, as byte and slice
    operations write them; each member and (m, member) pair visited
    building F costs one, and a part that cannot list its members hi.
    A window that cannot afford its rows, or its tables and F, is
    counted one n at a time like every other sequence, by the system:
    when every part is multiplicative, an n in [1, SIEVE_LIMIT)
    reads g = G by the recurrence: p is the smallest prime factor of k,
    read from the sieve (grown as factorize would grow it for n), up to
    the first c(p, e) that is 0, c(p, 1) read from the rows where a
    window has them and asked of each part once per prime otherwise, and
    on a range G(k / p^e) is read from a memo of the k <= hi / 2 (a
    larger k is read once, at n = k).  Every other n, off the sieve,
    below 1 or of a system with a part that is not multiplicative, is
    counted by count_system_reps.
    Only the tables count ahead, so a caller that stops early pays for
    no more n, and where a count raises (a factorization or a prime
    index out of range) every count before it has been yielded.
    """
    mult = [part for part in system.parts if part.multiplicative]
    rest = [part for part in system.parts if not part.multiplicative]
    ones: dict[int, int] = {}  # c(p, 1) by p
    if isinstance(ns, range) and ns.step == 1 and 1 <= ns.start < ns.stop <= SIEVE_LIMIT:
        lo, hi = ns[0], ns[-1]
        # the rows and the tables are charged one per prime up to hi
        budget = int(len(ns) * len(system.parts) * log(hi)) - _prime_count(hi)
        conv = _convolve(rest, hi, budget) if rest and budget >= 0 else None
        if budget >= 0 and (conv is not None or not rest):
            held = _held(mult, hi)
            if conv is not None:
                table = _multiplicative_table(mult, hi, held)
                yield from zip(ns, _window_sums(conv, table, lo, hi))
                return
            ones = dict(zip(primes_up_to(hi), held))
    digits: dict[tuple[int, int], int] = {}  # c(p, e) for e >= 2

    def c(p: int, e: int) -> int:
        if e == 1:
            d = ones.get(p)
            if d is None:  # every part holds 1, so p goes to one part holding it
                d = ones[p] = sum(part.prime_power_flags(p, 1)[1] for part in mult)
            return d
        d = digits.get((p, e))
        if d is None:
            _, width, suffixes = _prime_chain(mult, p, e)
            d = digits[p, e] = _digit(suffixes[0], e, width)
        return d

    spf = ()
    half = ns[-1] // 2 if isinstance(ns, range) and ns else 0
    memo = {1: 1}  # G(k) for the k <= half

    def g(k: int) -> int:
        value = memo.get(k)
        if value is None:
            p = spf[k]
            q, e = k // p, 1
            while q % p == 0:
                q, e = q // p, e + 1
            value = c(p, e)
            if value:
                value *= g(q)
            if k <= half:
                memo[k] = value
        return value

    for n in ns:
        if not rest and 1 <= n < SIEVE_LIMIT:
            spf = spf if n < len(spf) else smallest_prime_factors(n)
            yield n, g(n)
        else:
            yield n, count_system_reps(system, n, tuple_cap=0).count


def scan_counts(system: MultiplicativeSystem, lo: int, hi: int):
    """A generator of (n, g(n)) for n in [lo, hi], its range checked here."""
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    return _counts(system, range(lo, hi + 1))


def window_stats(system: MultiplicativeSystem, lo: int, hi: int) -> WindowStats:
    """Exact min/max of g over [lo, hi], the range checked by
    scan_counts (1 <= lo <= hi); ties resolved to the smallest n."""
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
