"""Reference answers for the benchmark, sharing no code with multrep.

Counts come from closed forms over sympy factorizations or from a
brute-force walk over ordered divisor tuples; Ramsey answers come from a
lexicographic brute force over the benchmark's own colour tables.  Only
the parent process imports this module, so sympy never shows up in the
memory or time of the process that runs the library.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

from sympy import divisors, factorint, isprime, primepi, primerange

# Clique numbers of Paley graphs (OEIS A077487).  A Paley graph is
# self-complementary, so both colours of its 2-colouring reach exactly
# this size and no larger.
PALEY_CLIQUE = {5: 2, 13: 3, 17: 3, 29: 4, 37: 4, 41: 5, 53: 5, 61: 5}


# ---------------------------------------------------------------------------
# integer side
# ---------------------------------------------------------------------------

def _valuation2(n: int) -> int:
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    return v


def _s_inf(n: int, s: int) -> int:
    """Ordered (s-1)-tuples over the primes and 1 whose product divides n:
    choose which j slots hold primes, then count ordered j-sequences of
    primes with multiplicities bounded by the exponents of n, read off the
    exponential generating function prod_p sum_{a<=e_p} x^a / a!."""
    m = s - 1
    coeffs = [Fraction(1)]
    for e in factorint(n).values():
        term = [Fraction(1, factorial(a)) for a in range(min(e, m) + 1)]
        nxt = [Fraction(0)] * min(len(coeffs) + len(term) - 1, m + 1)
        for i, c in enumerate(coeffs):
            for a, t in enumerate(term):
                if i + a <= m:
                    nxt[i + a] += c * t
        coeffs = nxt
    return sum(
        comb(m, j) * int(coeffs[j] * factorial(j)) for j in range(len(coeffs))
    )


def _member(pred, x: int) -> bool:
    kind = pred[0]
    if kind == "all":
        return x >= 1
    if kind == "set":
        return x in pred[1]
    if kind == "primes":
        return isprime(x)
    if kind == "primes1":
        return x == 1 or isprime(x)
    if kind == "powers":
        base, lo, hi = pred[1], pred[2], pred[3]
        e = 0
        while x > 1 and x % base == 0:
            x //= base
            e += 1
        return x == 1 and e >= lo and (hi is None or e <= hi)
    if kind == "union":
        return any(_member(p, x) for p in pred[1])
    if kind == "residue":  # smooth over the primes p_j with j = r (mod h)
        h, r = pred[1], pred[2]
        return x >= 1 and all(primepi(p) % h == r for p in factorint(x))
    raise ValueError(f"unknown predicate {pred!r}")


def _brute(n: int, preds) -> int:
    """Walk every ordered divisor tuple (d_1, ..., d_h) with product n."""

    def rec(i: int, rem: int) -> int:
        if i == len(preds) - 1:
            return 1 if _member(preds[i], rem) else 0
        return sum(
            rec(i + 1, rem // d) for d in divisors(rem) if _member(preds[i], d)
        )

    return rec(0, n)


@lru_cache(maxsize=None)
def count(rule: tuple, n: int) -> int:
    """Reference value of g(n) for a system described by its oracle rule."""
    kind = rule[0]
    if kind == "fundamental":
        return 1
    if kind == "one-t":
        return min(_valuation2(n) + 1, rule[1])
    if kind == "one-inf":
        return _valuation2(n) + 1
    if kind == "s-inf":
        return _s_inf(n, rule[1])
    if kind == "divisor":
        h = rule[1]
        total = 1
        for e in factorint(n).values():
            total *= comb(e + h - 1, h - 1)
        return total
    if kind == "parts":
        return _brute(n, rule[1])
    raise ValueError(f"unknown rule {rule!r}")


def first_primes(k: int) -> list[int]:
    out = []
    for p in primerange(2, 10 * k * k + 10):
        if len(out) == k:
            break
        out.append(p)
    return out


def window(rule: tuple, lo: int, hi: int) -> tuple[int, int, int, int]:
    """(min, argmin, max, argmax) of g over [lo, hi], ties to the smallest n."""
    best_min = best_max = None
    argmin = argmax = lo
    for n in range(lo, hi + 1):
        c = count(rule, n)
        if best_min is None or c < best_min:
            best_min, argmin = c, n
        if best_max is None or c > best_max:
            best_max, argmax = c, n
    return best_min, argmin, best_max, argmax


@lru_cache(maxsize=None)
def _primes_to(max_n: int) -> tuple[int, ...]:
    return tuple(primerange(2, max_n + 1))


def _squarefree_stream(max_n: int):
    """Squarefree integers grouped by number of prime factors, each group
    ascending; generated from sympy's own prime list."""
    ps = _primes_to(max_n)
    k = 1
    while True:
        group = []

        def rec(start, depth, prod):
            if depth == 0:
                group.append(prod)
                return
            for i in range(start, len(ps)):
                nxt = prod * ps[i]
                if nxt > max_n:
                    break
                rec(i + 1, depth - 1, nxt)

        rec(0, k, 1)
        if not group:
            return
        yield from sorted(group)
        k += 1


def witness_stream(strategy: str, max_n: int):
    if strategy == "exhaustive":
        yield from range(2, max_n + 1)
        return
    seen = set()
    rich = _squarefree_stream(max_n)
    plain = iter(range(2, max_n + 1))
    live = [rich, plain]
    while live:
        for it in list(live):
            for n in it:
                if n not in seen:
                    seen.add(n)
                    yield n
                    break
            else:
                live.remove(it)


def first_witness(rule: tuple, target: int, strategy: str, max_n: int):
    """(n, position in the stream) of the first candidate with g >= target."""
    for pos, n in enumerate(witness_stream(strategy, max_n), start=1):
        if count(rule, n) >= target:
            return n, pos
    return None, None


def tuples_ok(preds, n: int, tuples) -> bool:
    """Every listed tuple multiplies to n with coordinate-wise membership."""
    seen = set()
    for t in tuples:
        t = tuple(t)
        if t in seen or len(t) != len(preds):
            return False
        seen.add(t)
        prod = 1
        for pred, b in zip(preds, t):
            if not _member(pred, b):
                return False
            prod *= b
        if prod != n:
            return False
    return True


# ---------------------------------------------------------------------------
# Ramsey side: a colouring is (ground, k, {sorted k-tuple: colour})
# ---------------------------------------------------------------------------

def homogeneous(table: dict, k: int, subset) -> bool:
    colours = {table[c] for c in combinations(sorted(subset), k)}
    return len(colours) <= 1


def least_homogeneous(table: dict, k: int, ground, m: int):
    """Lexicographically least m-subset of ground whose k-subsets share
    one colour, or None."""
    ground = sorted(ground)
    if m > len(ground) or k > m:
        return None
    for cand in combinations(ground, m):
        if homogeneous(table, k, cand):
            return cand
    return None


def chain(levels, sizes):
    """Reference iterated chain: level k searches inside level k-1."""
    current = tuple(sorted(levels[0][0]))
    if sizes[0] > len(current):
        return None
    subsets = [current]
    for k in range(1, len(levels)):
        _, kk, table = levels[k]
        found = least_homogeneous(table, kk, current, sizes[k])
        if found is None:
            return None
        subsets.append(found)
        current = found
    return subsets
