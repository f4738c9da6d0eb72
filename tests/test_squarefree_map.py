from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multrep import (
    CapacityOverflowError,
    NotSquarefreeError,
    PrimeSet,
    ResourceLimitError,
    factorizations_as_partitions,
    omega,
    phi,
)

from multrep import squarefree_map
from multrep.integer_sets import is_prime

from conftest import oracle_partitions, sieve_squarefree

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def test_phi_examples():
    assert phi(30).primes == (2, 3, 5)
    assert phi(1).primes == ()
    with pytest.raises(NotSquarefreeError):
        phi(12)


def test_the_product_map_examples():
    assert prod(PrimeSet((2, 3, 5))) == 30
    assert prod(PrimeSet(())) == 1
    assert prod(PrimeSet((2, 3, 7, 11, 13))) == 2 * 3 * 7 * 11 * 13


def test_round_trip_squarefree():
    for q in sieve_squarefree(5000):
        assert prod(phi(q)) == q


@given(st.sets(st.sampled_from(SMALL_PRIMES), max_size=6))
def test_round_trip_sets_of_primes(ps):
    s = PrimeSet(tuple(sorted(ps)))
    assert phi(prod(s)) == s


def test_a_set_that_is_not_increasing_primes_within_64_bits_is_refused():
    with pytest.raises(ValueError):
        PrimeSet((4,))
    with pytest.raises(ValueError):
        PrimeSet((3, 2))
    with pytest.raises(CapacityOverflowError):
        PrimeSet(tuple(p for p in sieve_squarefree(200) if omega(p) == 1 and p > 1)[:20])


def test_partition_blocks_equal_checked_prime_sets():
    q = 2 * 3 * 5 * 7 * 11
    for blocks in factorizations_as_partitions(q, 3):
        assert blocks == tuple(PrimeSet(b.primes) for b in blocks)
    with pytest.raises(ValueError):
        PrimeSet((4,))


def test_partition_blocks_are_not_checked_again(monkeypatch):
    calls = []

    def counted_is_prime(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(squarefree_map, "is_prime", counted_is_prime)
    q = prod(SMALL_PRIMES[:10])
    parts = factorizations_as_partitions(q, 2)
    assert len(parts) == 2**10
    # phi(q) checks each of its 10 primes once; its subsets are not checked
    assert sorted(calls) == SMALL_PRIMES[:10]
    with pytest.raises(TypeError):
        squarefree_map._subsets((2, 3))


def test_partitions_q6_h2():
    parts = factorizations_as_partitions(6, 2)
    as_sets = [tuple(frozenset(b) for b in t) for t in parts]
    # lexicographic in the slot-assignment word (2 assigned first)
    assert as_sets == [
        (frozenset({2, 3}), frozenset()),
        (frozenset({2}), frozenset({3})),
        (frozenset({3}), frozenset({2})),
        (frozenset(), frozenset({2, 3})),
    ]


def test_partitions_trivial_and_counts():
    assert factorizations_as_partitions(1, 4) == [
        (PrimeSet(()),) * 4
    ]
    assert len(factorizations_as_partitions(30, 3)) == 27
    for q in (2, 6, 30, 210):
        for h in (2, 3):
            assert len(factorizations_as_partitions(q, h)) == h ** omega(q)


def test_partitions_map_to_coprime_factorizations():
    for q in (6, 30, 210):
        for h in (2, 3):
            seen = set()
            for t in factorizations_as_partitions(q, h):
                factors = tuple(prod(b) for b in t)
                assert prod(factors) == q
                for i in range(h):
                    for j in range(i + 1, h):
                        assert not set(t[i].primes) & set(t[j].primes)
                seen.add(factors)
            # the correspondence is a bijection onto ordered factorizations
            assert len(seen) == h ** omega(q)


def test_partitions_follow_the_oracle_order():
    for primes in (SMALL_PRIMES[:7], (3, 7, 13, 101, 997, 65537, 1_000_003)):
        for k in range(len(primes) + 1):
            for h in (2, 3, 4):
                got = factorizations_as_partitions(prod(primes[:k]), h)
                assert [tuple(b.primes for b in t) for t in got] == (
                    oracle_partitions(primes[:k], h)
                )


def test_partitions_cap():
    with pytest.raises(ResourceLimitError):
        factorizations_as_partitions(30030, 3, cap=100)
    with pytest.raises(ValueError, match="^cap must be >= 0$"):
        factorizations_as_partitions(30, 2, cap=-1)
    with pytest.raises(ValueError, match="^h must be >= 2$"):
        factorizations_as_partitions(30, 1)


def test_omega_examples():
    assert omega(1) == 0
    assert omega(360) == 3
    assert omega(210) == 4
