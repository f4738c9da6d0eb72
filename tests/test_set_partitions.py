import math
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from multrep import (
    AllNaturals,
    ExplicitList,
    FactorizationLimitError,
    IndexResidue,
    Intersection,
    MultiplicativeSystem,
    Primes,
    PrimesWithOne,
    ResourceLimitError,
    Singleton,
    SmoothOver,
    Squarefree,
    Union,
    basis_system,
    build,
    by_cardinality,
    count_ordered_covers,
    count_system_reps,
    explicit_family,
    image_family,
    multinomial,
    phi,
    verify_correspondence,
)
from multrep.cli import parse_system_spec
from multrep.integer_sets import SetDescription, primes_up_to
from multrep.set_partitions import FOLD_CAP, FamilyDescription

from conftest import oracle_count_covers, sieve_squarefree
from test_repcount import SMALL_PRIMES, any_sets, systems


def test_cover_count_all_subsets():
    fams = [by_cardinality(range(0, 4)), by_cardinality(range(0, 4))]
    assert count_ordered_covers({1, 2, 3}, fams) == 8  # 2^3 slot words


def test_cover_count_multinomial_example():
    fams = [by_cardinality({2}), by_cardinality({1}), by_cardinality({1})]
    assert count_ordered_covers({1, 2, 3, 4}, fams) == 12


def test_empty_cover():
    fams = [by_cardinality({0, 1}), by_cardinality({0, 2})]
    assert count_ordered_covers(frozenset(), fams) == 1


def test_a_cover_needs_two_families():
    with pytest.raises(ValueError, match="^need h >= 2 families$"):
        count_ordered_covers({1, 2}, [by_cardinality({2})])


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


def test_cover_count_memory_is_bounded_for_image_families():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]
    fams = [image_family(AllNaturals(), primes), image_family(PrimesWithOne(), primes)]
    tracemalloc.start()
    try:
        assert count_ordered_covers(primes, fams) == 19
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# measured peaks (Python 3.11, 2-core VM): 9.2 MiB for each seeded fold,
# which holds the first family's row and a 1-byte where, and 47.3 MiB for
# the fold from the tail's 2^20 counts, which it holds as Python ints and
# spreads from the 2^19 before them
@pytest.mark.parametrize(
    "bases, count, bound",
    [
        ((AllNaturals(), PrimesWithOne()), 21, 12),
        ((Primes(), AllNaturals(), AllNaturals()), 20 * 2**19, 48),
        ((Primes(), PrimesWithOne()), 0, 12),
    ],
    ids=["seeded", "tail", "sparse"],
)
def test_a_fold_of_20_elements_stays_under_its_memory_bound(bases, count, bound):
    # 20 elements are the most a fold without a middle family takes
    primes = primes_up_to(71)
    fams = [image_family(base, primes) for base in bases]
    tracemalloc.start()
    try:
        assert count_ordered_covers(primes, fams) == count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * 2**20


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)

IMAGE_BASES = [
    *build("fundamental", 3).system.parts,
    SmoothOver(ExplicitList((3, 7, 11, 23))),
    Squarefree(),
    AllNaturals(),
    Intersection((Squarefree(), SmoothOver(IndexResidue(2, 0)))),
    PrimesWithOne(),
    Primes(),
    Union((Primes(), Singleton((1, 6, 35, 2 * 3 * 5 * 7)))),
    Intersection((Squarefree(), PrimesWithOne())),
]


def mask_decisions(fam, elems):
    """contains_block of the subset each mask picks, built bit by bit."""
    return [
        fam.contains_block(frozenset(e for i, e in enumerate(elems) if a >> i & 1))
        for a in range(1 << len(elems))
    ]


def check_block_flags(fam, elems, rng):
    """_block_flags over elems equals the per-mask decisions, in full and
    under a random where, a row of 1-byte flags, where every mask that
    it leaves unmarked reads False."""
    expected = mask_decisions(fam, elems)
    assert fam._block_flags(elems) == expected, (fam, elems)
    where = bytes(rng.random() < 0.4 for _ in expected)
    flags = fam._block_flags(elems, where)
    assert flags == [ok and bool(w) for ok, w in zip(expected, where)], (fam, elems, where)


def test_block_flags_equal_contains_block_per_mask():
    rng = random.Random(14)
    for base in IMAGE_BASES:
        for _ in range(12):
            elems = tuple(sorted(rng.sample(PRIMES + (4, 9), rng.randrange(0, 9))))
            universe = rng.sample(PRIMES, rng.randrange(0, len(PRIMES) + 1))
            check_block_flags(image_family(base, universe), elems, rng)
        check_block_flags(image_family(base, PRIMES[:6]), PRIMES[:6], rng)
    assert image_family(AllNaturals(), [])._block_flags(()) == [True]
    assert image_family(Primes(), [2])._block_flags(()) == [False]
    assert image_family(AllNaturals(), [2])._block_flags((), b"\0") == [False]
    for fam in (by_cardinality({0, 2}), explicit_family([(2,), (3, 5), ()])):
        for k in range(5):
            check_block_flags(fam, PRIMES[:k], rng)


class AskedBlocks(FamilyDescription):
    """A family that records every block it is asked about."""

    def __init__(self, inner):
        self.inner = inner
        self.asked = []

    def contains_block(self, block):
        self.asked.append(block)
        return self.inner.contains_block(block)


def test_first_family_is_asked_only_where_the_rest_cover_the_complement():
    s = frozenset(PRIMES[:8])
    first = AskedBlocks(image_family(AllNaturals(), s))
    assert count_ordered_covers(s, [first, image_family(PrimesWithOne(), s)]) == 9
    # the rest covers only the empty set and the singletons
    assert len(first.asked) == 9
    assert set(first.asked) == {s} | {s - {p} for p in s}
    first = AskedBlocks(image_family(Primes(), s))
    middle = image_family(Singleton((1, 2, 3)), s)
    last = image_family(PrimesWithOne(), s)
    count = count_ordered_covers(s, [first, middle, last])
    assert count == oracle_count_covers(s, [first.inner, middle, last])
    # the blocks the middle and last families can cover together
    middles = [frozenset(), frozenset({2}), frozenset({3})]
    lasts = [frozenset()] + [frozenset({p}) for p in s]
    covered = {m | b for m in middles for b in lasts if not m & b}
    assert len(first.asked) == len(set(first.asked)) == 22
    assert set(first.asked) == {s - r for r in covered}


# 5 times a prime beyond PRIME_INDEX_LIMIT, whose index the base's
# IndexResidue class cannot read; the two primes differ in hash slot order
BIG_PRIME_SETS = ([5, 4194319], [5, 4194329])


@pytest.mark.parametrize("s", BIG_PRIME_SETS, ids=str)
def test_a_non_multiplicative_image_family_reads_a_block_in_increasing_order(s):
    # 5 is not in class 0 mod 2, so SmoothOver refuses the block before it
    # asks for the index of the big prime
    first = image_family(Union((Primes(), SmoothOver(IndexResidue(2, 0)))), s)
    assert not first.contains_block(frozenset(s))
    assert count_ordered_covers(s, [first, image_family(Singleton((1,)), s)]) == 0


@pytest.mark.parametrize("s", BIG_PRIME_SETS, ids=str)
def test_a_non_multiplicative_middle_part_reads_a_divisor_in_increasing_order(s):
    # both sides decide the middle part at every divisor of 5p: the Union
    # asks SmoothOver only where Primes refuses, at 1 and 5p, and at 5p
    # SmoothOver refuses 5 before it asks for the index of p
    bases = (Singleton((1,)), Union((Primes(), SmoothOver(IndexResidue(2, 0)))), PrimesWithOne())
    system = MultiplicativeSystem(bases)
    assert count_system_reps(system, math.prod(s), tuple_cap=0).count == 2
    assert count_ordered_covers(s, [image_family(base, s) for base in bases]) == 2


def test_neither_side_asks_primes_divisor_by_divisor(monkeypatch):
    def refuse(self, n, factors):
        raise AssertionError(f"{type(self).__name__}.contains_factored({n}) was called")

    monkeypatch.setattr(Primes, "contains_factored", refuse)
    monkeypatch.setattr(PrimesWithOne, "contains_factored", refuse)
    system = build("s-inf", 2, s=2).system  # AllNaturals; PrimesWithOne
    q = math.prod(PRIMES)
    assert count_system_reps(system, q, tuple_cap=0).count == 11
    report = verify_correspondence(system, q, PRIMES)
    assert (report.system_count, report.cover_count) == (11, 11)
    # a first family of Primes above a tail, at the 12-prime primorial
    system = parse_system_spec("parts:Primes;AllNaturals;AllNaturals")
    ps = primes_up_to(37)
    report = verify_correspondence(system, math.prod(ps), ps)
    assert (report.system_count, report.cover_count) == (12 * 2**11, 12 * 2**11)


@pytest.mark.parametrize("p", [s[1] for s in BIG_PRIME_SETS])
def test_an_all_tail_system_stops_at_the_first_prime_no_part_holds(p):
    # every part is multiplicative, so both sides decide each part at
    # each prime in increasing order, and stop at 5, which no part holds,
    # before they ask for the index of p (the oracle, which asks the
    # first family about {p}, cannot answer)
    s = [41, p, 5, 7, 11]
    bases = (SmoothOver(IndexResidue(2, 0)), Singleton((1, 2, 4)))
    assert count_ordered_covers(s, [image_family(base, s) for base in bases]) == 0
    system = MultiplicativeSystem(bases)
    assert count_system_reps(system, math.prod(s), tuple_cap=0).count == 0


@pytest.mark.parametrize("s", BIG_PRIME_SETS, ids=str)
def test_a_multiplicative_first_family_before_another_part_is_lazy(s):
    # Singleton((1, 6)) is not multiplicative, so the system side decides
    # its first part only at 5p, and refuses 5 before it asks for the
    # index of p
    bases = (SmoothOver(IndexResidue(2, 0)), Singleton((1, 6)))
    assert count_ordered_covers(s, [image_family(base, s) for base in bases]) == 0
    system = MultiplicativeSystem(bases)
    assert count_system_reps(system, math.prod(s), tuple_cap=0).count == 0


# a multiplicative tail whose Intersection refuses 4194319 at its first
# part, before the second part asks for that prime's index
REFUSING_TAIL = MultiplicativeSystem((
    AllNaturals(),
    Intersection((SmoothOver(ExplicitList((3,))), SmoothOver(IndexResidue(2, 0)))),
))


def test_a_tail_intersection_refuses_at_its_first_refusing_part():
    s = [3, 4194319]
    assert count_system_reps(REFUSING_TAIL, math.prod(s), tuple_cap=0).count == 2
    fams = [image_family(part, s) for part in REFUSING_TAIL.parts]
    assert count_ordered_covers(s, fams) == 2


def outcome(count, *args):
    """The count, or the name of the documented error it raised."""
    try:
        return count(*args)
    except (ResourceLimitError, FactorizationLimitError) as exc:
        return type(exc).__name__


@settings(max_examples=300, deadline=None)
@given(
    systems(any_sets),
    st.lists(st.sampled_from(SMALL_PRIMES + (4194319, 4194329)), unique=True, max_size=7),
)
@example(REFUSING_TAIL, [3, 4194319])
@example(MultiplicativeSystem((Singleton((1,)), SmoothOver(IndexResidue(2, 0)))), [2, 3, 5, 4194319])
def test_both_sides_of_the_correspondence_agree(system, s):
    # above 2^63 - 1 the system side raises FactorizationLimitError by
    # contract, a range limit the cover side does not share
    assume(math.prod(s) <= 2**63 - 1)
    fams = [image_family(part, s) for part in system.parts]
    covers = outcome(count_ordered_covers, s, fams)
    reps = outcome(lambda q: count_system_reps(system, q, tuple_cap=0).count, math.prod(s))
    assert covers == reps
    if len(s) <= 6 and isinstance(covers, int):
        # the oracle asks every block, so it may raise where both sides do
        # not.  Both sides ask each tail family about each prime alone, so
        # below a part that is not multiplicative they may raise where
        # the oracle refuses a whole block at a smaller prime; a system
        # that is all tail stops at the first prime that no part holds,
        # as test_an_all_tail_system_stops_at_the_first_prime_no_part_holds pins
        oracle = outcome(oracle_count_covers, s, fams)
        if isinstance(oracle, int):
            assert covers == oracle


class AskedPrimes(SetDescription):
    """A multiplicative base that logs its name and n at each ask."""

    multiplicative = True

    def __init__(self, name, inner, log):
        self.name, self.inner, self.log = name, inner, log

    def contains_factored(self, n, factors):
        self.log.append((self.name, n))
        return self.inner.contains_factored(n, factors)


def test_each_tail_family_is_asked_about_each_prime_alone_once():
    s = [13, 2, 7, 3, 11, 5]
    log = []
    tail = [AskedPrimes("a", SmoothOver(ExplicitList((2, 5, 7))), log),
            AskedPrimes("b", Squarefree(), log)]
    for head in ([], [Primes()], [PrimesWithOne(), Singleton((1, 6))]):
        fams = [image_family(base, s) for base in head + tail]
        log.clear()
        count = count_ordered_covers(s, fams)
        assert log == [(name, p) for p in sorted(s) for name in "ab"]
        assert count == oracle_count_covers(s, fams)


def test_a_repeated_element_counts_once():
    fams = [by_cardinality({1})] * 2
    assert count_ordered_covers([2, 2], fams) == count_ordered_covers([2], fams) == 0
    naturals = [image_family(AllNaturals(), [3, 5])] * 2
    assert count_ordered_covers([3, 3, 5], naturals) == 4


def test_a_tail_of_naturals_counts_each_prime_per_family():
    s = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
    assert count_ordered_covers(s, [image_family(AllNaturals(), s)] * 4) == 4**13
    s = s[:6]
    for spec in (
        "parts:Primes;AllNaturals",
        "parts:Union(PowersOf(3,0,2),Primes);PrimesWithOne;Singleton(1,2,4)",
    ):
        fams = [image_family(part, s) for part in parse_system_spec(spec).parts]
        assert count_ordered_covers(s, fams) == oracle_count_covers(s, fams)


def test_image_family_rejects_a_universe_that_is_not_prime():
    with pytest.raises(ValueError, match="4 is not prime"):
        image_family(AllNaturals(), [2, 4])


def test_image_family_rejects_a_universe_element_above_64_bits():
    huge = 99999999999999999999  # above 2^63 - 1
    with pytest.raises(ValueError, match=f"^{huge} exceeds 64-bit range$"):
        image_family(AllNaturals(), [2, 3, huge])


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


def check_fold_cap(sizes, answered):
    """by_cardinality families with these sizes answer a set of the
    answered size, and refuse one element more before any is asked."""
    fams = [by_cardinality({k}) for k in sizes]
    assert count_ordered_covers(range(answered), fams) == multinomial(answered, sizes)
    asked = [AskedBlocks(fam) for fam in fams]
    message = rf"^\|S\| = {answered + 1} needs \d+ fold steps per family, above the cap {FOLD_CAP}$"
    with pytest.raises(ResourceLimitError, match=message):
        count_ordered_covers(range(answered + 1), asked)
    assert [fam.asked for fam in asked] == [[]] * len(sizes)


def test_fold_cap_without_a_middle_family():
    # the fold decides 2^|S| masks per family, and 2^20 <= 3^13 < 2^21
    check_fold_cap([10, 10], 20)


def test_fold_cap_with_a_middle_family():
    # the middle family takes 3^|S| submask steps
    check_fold_cap([4, 4, 5], 13)


def test_a_cover_that_is_all_tail_is_never_capped():
    ps = primes_up_to(113)  # the first 30 primes
    assert len(ps) == 30
    assert count_ordered_covers(ps, [image_family(AllNaturals(), ps)] * 3) == 3**30


def test_a_fold_without_a_middle_family_answers_at_the_15_prime_primorial():
    ps = primes_up_to(47)
    system = parse_system_spec("parts:Primes;AllNaturals;AllNaturals")
    r = verify_correspondence(system, math.prod(ps), ps)
    assert r.equal and r.cover_count == 245760


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
