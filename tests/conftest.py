"""Shared brute-force oracles, independent of the library's counting code.

They share two things with the library.  The counting oracles decide
each part through membership, which calls the kind's own contains: the
counting engine asks divisor_flags and prime_power_flags instead, so the
oracles still check those against an independent route.  The cover
oracle asks each family's contains_block.  pentagon_coloring builds a
Coloring, the fixture of the Ramsey tests, not an oracle; the
homogeneous-set oracle reads a plain {frozenset: color} dict.
"""

from itertools import combinations, product

import pytest

from multrep import Coloring, membership


def naive_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def oracle_count_reps(system, n):
    """Loop over all ordered divisor tuples; no shared code with the
    library's factorization-based recursion."""
    parts = system.parts

    def rec(i, remaining):
        if i == len(parts) - 1:
            return 1 if membership(parts[i], remaining) else 0
        return sum(
            rec(i + 1, remaining // d)
            for d in naive_divisors(remaining)
            if membership(parts[i], d)
        )

    return rec(0, n)


def oracle_rep_tuples(system, n):
    """Every ordered tuple of divisors of n, coordinate-wise in the parts,
    whose product is n, sorted lexicographically."""
    parts = system.parts
    divs = naive_divisors(n)
    out = []
    for head in product(divs, repeat=len(parts) - 1):
        prod = 1
        for b in head:
            prod *= b
        if n % prod == 0:
            t = head + (n // prod,)
            if all(membership(part, b) for part, b in zip(parts, t)):
                out.append(t)
    return sorted(out)


def oracle_count_covers(s, families):
    """Assign each element of s to one of h slots, test every block."""
    elems = sorted(s)
    h = len(families)
    total = 0
    for word in product(range(h), repeat=len(elems)):
        blocks = [frozenset(e for e, w in zip(elems, word) if w == i) for i in range(h)]
        if all(f.contains_block(b) for f, b in zip(families, blocks)):
            total += 1
    return total


def oracle_partitions(primes, h):
    """Every word assigning the sorted primes to h slots, in lexicographic
    order, as the tuple of each slot's primes."""
    ps = sorted(primes)
    return [
        tuple(tuple(p for p, w in zip(ps, word) if w == i) for i in range(h))
        for word in product(range(h), repeat=len(ps))
    ]


def sieve_squarefree(limit):
    """Mark multiples of p^2; returns the squarefree integers <= limit."""
    flags = [True] * (limit + 1)
    for p in range(2, int(limit**0.5) + 1):
        for q in range(p * p, limit + 1, p * p):
            flags[q] = False
    return [n for n in range(1, limit + 1) if flags[n]]


def oracle_homogeneous(colors, ground, k, m):
    """Lexicographically least m-subset of the sorted ground whose k-subsets
    all take one color under colors ({frozenset: color}), found by trying
    every m-subset in order; None when there is none."""
    for candidate in combinations(sorted(ground), m):
        if len({colors[frozenset(c)] for c in combinations(candidate, k)}) == 1:
            return candidate
    return None


def pentagon_coloring():
    """C5 edges color 0, diagonals color 1; the classic triangle-free
    2-coloring of a 5-point ground set."""
    edges = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    return Coloring(
        tuple(range(1, 6)),
        2,
        {
            frozenset(c): (0 if c in edges else 1)
            for c in combinations(range(1, 6), 2)
        },
    )


@pytest.fixture
def pentagon():
    return pentagon_coloring()
