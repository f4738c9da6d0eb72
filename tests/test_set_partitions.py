import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multrep import (
    AllNaturals,
    PrimesWithOne,
    ResourceLimitError,
    basis_system,
    build,
    by_cardinality,
    count_ordered_covers,
    explicit_family,
    image_family,
    multinomial,
    phi,
    verify_correspondence,
)

from conftest import oracle_count_covers, sieve_squarefree


def test_cover_count_all_subsets():
    fams = [by_cardinality(range(0, 4)), by_cardinality(range(0, 4))]
    assert count_ordered_covers({1, 2, 3}, fams) == 8  # 2^3 slot words


def test_cover_count_multinomial_example():
    fams = [by_cardinality({2}), by_cardinality({1}), by_cardinality({1})]
    assert count_ordered_covers({1, 2, 3, 4}, fams) == 12


def test_empty_cover():
    fams = [by_cardinality({0, 1}), by_cardinality({0, 2})]
    assert count_ordered_covers(frozenset(), fams) == 1


def check_random_covers(rng, hs, rounds):
    """Random explicit, cardinality and image families against the oracle."""
    universe = list(range(1, 7))
    for _ in range(rounds):
        s = frozenset(rng.sample(universe, rng.randrange(0, 6)))
        fams = []
        for _ in range(rng.choice(hs)):
            kind = rng.randrange(3)
            if kind == 0:
                fams.append(by_cardinality(rng.sample(range(0, 7), 3)))
            elif kind == 1:
                blocks = [
                    frozenset(rng.sample(universe, rng.randrange(0, 4)))
                    for _ in range(6)
                ]
                fams.append(explicit_family(blocks))
            else:
                fams.append(image_family(PrimesWithOne(), [2, 3, 5, 7, 11, 13]))
        assert count_ordered_covers(s, fams) == oracle_count_covers(s, fams)


def test_cover_oracle_equivalence():
    check_random_covers(random.Random(7), [2, 3], 30)


def test_cover_oracle_equivalence_h4_h5():
    check_random_covers(random.Random(11), [4, 5], 40)
    image = image_family(PrimesWithOne(), [2, 3, 5])
    for h in (4, 5):
        fams = [by_cardinality({0}), explicit_family([()])] + [image] * (h - 2)
        assert count_ordered_covers(frozenset(), fams) == 1
        assert oracle_count_covers(frozenset(), fams) == 1


def test_cover_count_memory_is_bounded():
    fams = [by_cardinality(range(19))] * 2
    tracemalloc.start()
    try:
        assert count_ordered_covers(range(18), fams) == 2**18
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_image_family_rejects_a_universe_that_is_not_prime():
    with pytest.raises(ValueError, match="4 is not prime"):
        image_family(AllNaturals(), [2, 4])


def test_image_family_uses_base_membership():
    fam = image_family(PrimesWithOne(), [2, 3, 5])
    assert fam.contains_block(frozenset())          # product 1
    assert fam.contains_block(frozenset({3}))
    assert not fam.contains_block(frozenset({2, 3}))  # product 6 not prime
    assert not fam.contains_block(frozenset({7}))     # outside universe


def test_multinomial_examples():
    assert multinomial(4, [2, 1, 1]) == 12
    assert multinomial(7, [7, 0, 0]) == 1
    # enumeration oracle over 3-subsets of a 6-set
    assert multinomial(6, [3, 3]) == sum(1 for _ in combinations(range(6), 3))


def test_multinomial_validation():
    with pytest.raises(ValueError):
        multinomial(4, [2, 1])
    with pytest.raises(ValueError):
        multinomial(4, [5, -1])


@settings(max_examples=100)
@given(st.integers(2, 12), st.data())
def test_multinomial_amplification(n, data):
    h = data.draw(st.sampled_from([2, 3]))
    cut = sorted(
        data.draw(
            st.lists(st.integers(0, n), min_size=h - 1, max_size=h - 1)
        )
    )
    ks = [b - a for a, b in zip([0] + cut, cut + [n])]
    if all(k < n for k in ks):
        assert multinomial(n, ks) >= n


def test_binomial_2n_n_bound():
    for n in range(1, 10):
        assert multinomial(2 * n, [n, n]) >= n


def test_multinomial_realized_by_cardinality_covers():
    s = frozenset(range(5))
    for ks in ([2, 3], [0, 5], [1, 2, 2]):
        fams = [by_cardinality({k}) for k in ks]
        assert count_ordered_covers(s, fams) == multinomial(5, ks)


def test_size_cap():
    fams = [by_cardinality({0, 1})] * 2
    with pytest.raises(ResourceLimitError):
        count_ordered_covers(frozenset(range(30)), fams)


def test_correspondence_examples():
    fundamental = build("fundamental", 2).system
    r = verify_correspondence(fundamental, 30, [2, 3, 5])
    assert r.equal and r.system_count == 1 and r.cover_count == 1

    s_inf = build("s-inf", 2, s=2).system
    for p in (2, 7, 13):
        r = verify_correspondence(s_inf, p, [p])
        assert r.equal and r.system_count == 2

    all_n = basis_system(AllNaturals(), 2)
    r = verify_correspondence(all_n, 6, [2, 3])
    assert r.equal and r.system_count == 4


def test_correspondence_on_squarefree_range():
    system = build("one-t", 2, t=2).system
    for q in sieve_squarefree(200):
        universe = list(phi(q)) or [2]
        assert verify_correspondence(system, q, universe).equal


def test_correspondence_requires_universe_covering_q():
    with pytest.raises(ValueError):
        verify_correspondence(build("fundamental", 2).system, 30, [2, 3])
