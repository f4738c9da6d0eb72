import gc
import itertools
import math
import random
import sys
import time
import tracemalloc

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from multrep import (
    AllNaturals,
    Complement,
    ExplicitList,
    FactorizationLimitError,
    IndexResidue,
    Intersection,
    MultiplicativeSystem,
    PowersOf,
    Primes,
    PrimesWithOne,
    ResourceLimitError,
    SetDescription,
    Singleton,
    SmoothOver,
    Squarefree,
    Union,
    basis_system,
    build,
    count_basis_reps,
    count_system_reps,
    omega,
    primorials,
    scan_counts,
    window_stats,
)
from multrep import repcount
from multrep.catalog import closed_form
from multrep.cli import parse_system_spec
from multrep.integer_sets import (
    SIEVE_LIMIT,
    factorize,
    parse_set,
    parse_system,
    primes_up_to,
)

from conftest import (
    naive_divisors,
    oracle_count_reps,
    oracle_rep_tuples,
    sieve_squarefree,
)


def test_fundamental_system_count_is_one():
    system = build("fundamental", 2).system
    assert count_system_reps(system, 360).count == 1


def test_one_t_example_tuples():
    system = MultiplicativeSystem((AllNaturals(), Singleton((1, 2))))
    w = count_system_reps(system, 12)
    assert w.count == 2
    assert set(w.tuples) == {(12, 1), (6, 2)}


def test_s_inf_prime_example():
    system = MultiplicativeSystem(
        (AllNaturals(), PrimesWithOne(), Singleton((1,)))
    )
    w = count_system_reps(system, 7)
    assert w.count == 2
    assert set(w.tuples) == {(7, 1, 1), (1, 7, 1)}


def test_basis_counts():
    assert count_basis_reps(AllNaturals(), 2, 6).count == 4  # d(6)
    w = count_basis_reps(AllNaturals(), 2, 1)
    assert w.count == 1 and w.tuples == ((1, 1),)
    # 8 = 2*4 = 8*1, neither split has both factors squarefree
    assert count_basis_reps(Squarefree(), 2, 8).count == 0


def test_divisor_identity():
    for n in range(1, 2000):
        assert count_basis_reps(AllNaturals(), 2, n, tuple_cap=0).count == len(
            naive_divisors(n)
        )


def test_squarefree_power_law_small():
    for n in sieve_squarefree(500):
        for h in (2, 3):
            assert (
                count_basis_reps(AllNaturals(), h, n, tuple_cap=0).count
                == h ** omega(n)
            )


def test_oracle_equivalence_random():
    rng = random.Random(1)
    systems = [
        build("fundamental", 2).system,
        build("one-t", 2, t=2).system,
        build("s-inf", 3, s=2).system,
        MultiplicativeSystem((Squarefree(), AllNaturals())),
        MultiplicativeSystem((Singleton((1, 2, 3, 6)), AllNaturals(), PrimesWithOne())),
    ]
    for _ in range(60):
        system = rng.choice(systems)
        n = rng.randrange(1, 2000)
        assert count_system_reps(system, n, tuple_cap=0).count == oracle_count_reps(
            system, n
        )


def test_prime_cap():
    # any system whose parts all contain 1 represents a prime at most h ways
    for h in (2, 3):
        system = build("s-inf", h, s=h).system
        for p in (2, 3, 5, 7, 97):
            assert count_system_reps(system, p, tuple_cap=0).count <= h


def test_truncation_keeps_exact_count():
    w = count_basis_reps(AllNaturals(), 2, 720, tuple_cap=4)
    assert w.truncated
    assert len(w.tuples) == 4
    assert w.count == len(naive_divisors(720))


def test_min_l_t_law():
    for t in (1, 2, 5):
        system = build("one-t", 2, t=t).system
        for n in range(1, 512):
            ell = 1
            m = n
            while m % 2 == 0:
                m //= 2
                ell += 1
            assert count_system_reps(system, n, tuple_cap=0).count == min(ell, t)


def test_window_stats_examples():
    fundamental = build("fundamental", 2).system
    stats = window_stats(fundamental, 2, 1000)
    assert (stats.min_count, stats.max_count) == (1, 1)

    one_t = build("one-t", 2, t=3).system
    stats = window_stats(one_t, 2, 64)
    assert stats.min_count == 1 and stats.max_count == 3
    assert stats.argmin == 3 and stats.argmax == 4  # smallest-n tiebreak

    s_inf = build("s-inf", 3, s=2).system
    assert window_stats(s_inf, 2, 100).min_count == 2


def test_window_stats_record_field_names():
    stats = window_stats(build("fundamental", 2).system, 2, 10)
    assert list(stats.to_record()) == [
        "lo", "hi", "min_count", "argmin", "max_count", "argmax",
    ]


def test_input_validation():
    system = build("fundamental", 2).system
    with pytest.raises(ValueError):
        count_system_reps(system, 0)
    with pytest.raises(FactorizationLimitError):
        count_system_reps(system, 2**63)
    with pytest.raises(ValueError, match="^tuple_cap must be >= 0$"):
        count_system_reps(system, 12, tuple_cap=-1)
    assert window_stats(system, 1, 10).to_record() == {
        "lo": 1, "hi": 10, "min_count": 1, "argmin": 1, "max_count": 1, "argmax": 1,
    }
    with pytest.raises(ValueError):
        window_stats(system, 10, 9)
    with pytest.raises(ValueError):
        list(scan_counts(system, 0, 10))
    with pytest.raises(ValueError):
        list(scan_counts(system, 10, 9))


@pytest.mark.parametrize("n", [0, -5, 2**63])
def test_count_takes_its_range_from_factorize(n):
    with pytest.raises((ValueError, FactorizationLimitError)) as expected:
        factorize(n)
    for system in (build("fundamental", 2).system, build("s-inf", 3, s=2).system):
        with pytest.raises(expected.type) as got:
            count_system_reps(system, n)
        assert str(got.value) == str(expected.value)


# random systems drawn from every set kind; the multiplicative leaves are
# those whose indicator is multiplicative, so their systems take the
# per-prime path and the others the lattice
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
prime_classes = st.one_of(
    st.integers(2, 4).flatmap(
        lambda m: st.builds(IndexResidue, st.just(m), st.integers(0, m - 1))
    ),
    st.lists(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=4).map(
        lambda ps: ExplicitList(tuple(ps))
    ),
    st.lists(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=3).map(
        lambda ps: Complement(ExplicitList((ps[0],)), tuple(ps))
    ),
)
multiplicative_leaves = st.one_of(
    st.just(AllNaturals()),
    st.just(Squarefree()),
    st.builds(SmoothOver, prime_classes),
    st.tuples(st.sampled_from((2, 3, 5)), st.sets(st.integers(1, 5), max_size=3)).map(
        lambda pe: Singleton((1,) + tuple(pe[0] ** a for a in pe[1]))
    ),
    st.builds(
        PowersOf, st.sampled_from((2, 3, 7)), st.just(0), st.none() | st.integers(0, 4)
    ),
)
other_leaves = st.one_of(
    st.just(Primes()),
    st.just(PrimesWithOne()),
    st.sets(
        st.sampled_from((0, 1, 2, 3, 4, 6, 8, 9, 12, 30)), min_size=1, max_size=5
    ).map(lambda vs: Singleton(tuple(vs))),
    st.builds(
        PowersOf,
        st.sampled_from((2, 3, 4, 6)),
        st.integers(1, 2),
        st.none() | st.integers(2, 5),
    ),
    st.builds(
        PowersOf, st.sampled_from((4, 6, 12)), st.just(0), st.none() | st.integers(0, 3)
    ),
)
leaves = multiplicative_leaves | other_leaves
any_sets = st.one_of(
    leaves,
    st.lists(leaves, min_size=1, max_size=3).map(lambda ps: Union(tuple(ps))),
    st.lists(leaves, min_size=1, max_size=3).map(lambda ps: Intersection(tuple(ps))),
)
multiplicative_sets = multiplicative_leaves | st.lists(
    multiplicative_leaves, min_size=1, max_size=3
).map(lambda ps: Intersection(tuple(ps)))
arguments = st.integers(1, 3000) | st.sampled_from((720, 1024, 1680, 2310, 2520, 2880))


def systems(parts):
    return st.lists(parts, min_size=2, max_size=4).map(
        lambda ps: MultiplicativeSystem(tuple(ps))
    )


@settings(max_examples=150, deadline=None)
@given(systems(multiplicative_sets), arguments)
def test_multiplicative_systems_match_oracle(system, n):
    assert all(part.multiplicative for part in system.parts)
    count = count_system_reps(system, n, tuple_cap=0).count
    assert count == oracle_count_reps(system, n)


@settings(max_examples=300, deadline=None)
@given(systems(any_sets), arguments)
def test_any_system_matches_oracle(system, n):
    count = count_system_reps(system, n, tuple_cap=0).count
    assert count == oracle_count_reps(system, n)


@settings(max_examples=150, deadline=None)
@given(systems(any_sets), st.integers(1, 1000), st.sampled_from((1, 3, 64)))
def test_listing_is_lexicographic_prefix(system, n, cap):
    expected = oracle_rep_tuples(system, n)
    w = count_system_reps(system, n, tuple_cap=cap)
    assert w.count == len(expected)
    assert list(w.tuples) == expected[:cap]
    assert w.truncated == (len(expected) > cap)


@pytest.mark.parametrize("n", [720720, 2**10 * 3**5])
@pytest.mark.parametrize(
    "spec",
    [
        "parts:AllNaturals;AllNaturals",
        "one-inf:h=2",  # a sparse box: part 1 holds only the powers of 2
        "one-t:h=3,t=3",
        "fundamental:h=3",
        "parts:Primes;AllNaturals;AllNaturals",
        "parts:PrimesWithOne;Squarefree;AllNaturals",
    ],
)
def test_listing_is_lexicographic_prefix_at_many_divisors(spec, n):
    # 240 and 66 divisors: the tail's levels walk boxes of many divisors;
    # the last cap is above every count, so the whole listing is compared
    system = parse_system_spec(spec)
    expected = oracle_rep_tuples(system, n)
    for cap in (1, 5, 64, 10**6):
        w = count_system_reps(system, n, tuple_cap=cap)
        assert w.count == len(expected)
        assert list(w.tuples) == expected[:cap]
        assert w.truncated == (len(expected) > cap)


def test_tail_products_are_listed_lazily_in_ascending_order():
    # the 40 rows [1, p] have 2^40 products, which the first 64 must not need
    primes = list(sympy.primerange(2, sympy.prime(40) + 1))
    first = list(itertools.islice(repcount._products([[1, p] for p in primes]), 64))
    least = []
    k = 0
    while len(least) < 64:
        k += 1
        factors = sympy.factorint(k)
        if all(e == 1 and p <= primes[-1] for p, e in factors.items()):
            least.append(k)
    assert first == least
    # rows that mix several powers, with gaps, and single entries
    rng = random.Random(33)
    for _ in range(50):
        rows = []
        for p in rng.sample(primes[:6], rng.randint(0, 5)):
            exps = rng.sample(range(6), rng.randint(1, 4))
            rows.append([p**a for a in sorted(exps)])
        expected = sorted(math.prod(c) for c in itertools.product(*rows))
        assert list(repcount._products(rows)) == expected
    # the only row of several powers is listed as it stands
    powers = [2**a for a in range(41)]
    assert list(repcount._products([powers])) == powers
    assert list(repcount._products([[27], powers, [5], [7]])) == [945 * q for q in powers]


@pytest.mark.parametrize(
    "system",
    [
        build("fundamental", 2).system,
        build("fundamental", 3).system,
        build("one-t", 3, t=3).system,
        basis_system(AllNaturals(), 3),
        MultiplicativeSystem((Squarefree(), AllNaturals(), Squarefree())),
        MultiplicativeSystem((Squarefree(), Squarefree())),
        # a head that is not multiplicative above a multiplicative tail
        MultiplicativeSystem((Primes(), AllNaturals(), AllNaturals())),
        MultiplicativeSystem((PrimesWithOne(), Squarefree(), AllNaturals())),
        MultiplicativeSystem(
            (
                Union((PowersOf(3, 0, 2), Primes())),
                PrimesWithOne(),
                Singleton((1, 2, 4)),
            )
        ),
        build("s-inf", 3, s=2).system,
        # one-inf's box is sparse: part 1 holds only the powers of 2
        build("one-inf", 2).system,
        basis_system(AllNaturals(), 2),
    ],
)
def test_prime_chains_and_lattice_agree_at_large_divisor_counts(system):
    # a Union of one part is the same set but not marked multiplicative,
    # so the wrapped system is counted on the lattice alone and its tuples
    # listed from the sorted divisors of n at every level, against which
    # the tail's levels, read from per-prime digits, are compared
    wrapped = MultiplicativeSystem(tuple(Union((part,)) for part in system.parts))
    assert system.parts[-1].multiplicative
    assert not any(part.multiplicative for part in wrapped.parts)
    for n in (1, 720720, 3603600, 2**10 * 3**5):
        for cap in (0, 1, 5, 64):
            assert count_system_reps(system, n, cap) == count_system_reps(
                wrapped, n, cap
            )


@pytest.mark.parametrize("n", [97821761637600, primorials()[-1]])
def test_a_prime_times_two_naturals_counts_divisors_of_the_cofactors(n):
    # (p, a, b) with a * b = n / p: one tuple per divisor of each n / p;
    # pairing every level would refuse the 15-prime primorial at PAIR_CAP
    system = MultiplicativeSystem((Primes(), AllNaturals(), AllNaturals()))
    expected = sum(sympy.divisor_count(n // p) for p in sympy.primefactors(n))
    start = time.perf_counter()
    w = count_system_reps(system, n, tuple_cap=3)
    assert time.perf_counter() - start < 2.0
    assert w.count == expected
    assert w.tuples[0] == (2, 1, n // 2) and w.truncated


def test_primorial_under_naturals_cubed():
    n = primorials()[-1]  # the product of the first 15 primes
    system = basis_system(AllNaturals(), 3)
    start = time.perf_counter()
    w = count_system_reps(system, n)
    elapsed = time.perf_counter() - start
    assert w.count == 3**15
    assert len(w.tuples) == 64 and w.truncated
    assert w.tuples[:2] == ((1, 1, n), (1, 2, n // 2))
    assert elapsed < 1.0


class AskedPart(SetDescription):
    """A part that is not multiplicative and records each n it is asked,
    so that divisor_flags asks it divisor by divisor."""

    def __init__(self, inner):
        self.inner, self.asked = inner, []

    def contains_factored(self, n, factors):
        self.asked.append(n)
        return self.inner.contains_factored(n, factors)


def test_part_0_is_asked_only_where_the_rest_represent_the_cofactor():
    # the twin of the cover side's first-family test, on the same 8 primes
    primes = primes_up_to(19)
    n = math.prod(primes)

    def index(d):  # a divisor's index on the lattice of a squarefree n
        return sum(1 << i for i, p in enumerate(primes) if d % p == 0)

    first = AskedPart(AllNaturals())
    assert count_system_reps(MultiplicativeSystem((first, PrimesWithOne())), n, 0).count == 9
    # the rest represents only 1 and the primes
    assert first.asked == sorted((n // r for r in [1, *primes]), key=index)
    first = AskedPart(Primes())
    system = MultiplicativeSystem((first, Singleton((1, 2, 3)), PrimesWithOne()))
    assert count_system_reps(system, n, 0).count == 0
    # the products the middle and last parts can represent together
    support = {m * b for m in (1, 2, 3) for b in [1, *primes] if math.gcd(m, b) == 1}
    assert len(first.asked) == len(support) == 22
    assert first.asked == sorted((n // r for r in support), key=index)


def test_large_prime_parameters_are_prompt():
    # whether these parts are multiplicative is decided without trial
    # division of the Mersenne prime 2^61 - 1
    m61 = 2**61 - 1
    system = MultiplicativeSystem(
        (AllNaturals(), PowersOf(m61, 0), Singleton((1, m61)))
    )
    start = time.perf_counter()
    w = count_system_reps(system, 6)
    assert time.perf_counter() - start < 1.0
    assert (w.count, w.tuples) == (1, ((6, 1, 1),))


def test_huge_prime_under_fundamental_raises_promptly():
    # the prime's index would need a sieve of about 2^32 entries
    p = 4294967311  # the least prime above 2^32
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        count_system_reps(build("fundamental", 2).system, 8 * p)
    assert time.perf_counter() - start < 1.0


@settings(max_examples=200, deadline=None)
@given(any_sets, st.integers(1, 3000))
def test_enumeration_matches_membership_filter(d, limit):
    assert list(d.iter_up_to(limit)) == [
        n for n in range(1, limit + 1) if d.contains(n)
    ]


def outcomes(counts):
    """The counts in order, up to a ResourceLimitError, which ends the
    list as its name."""
    out = []
    try:
        out.extend(counts)
    except ResourceLimitError as exc:
        out.append(type(exc).__name__)
    return out


def window_outcomes(system, lo, hi):
    return outcomes(c for _, c in scan_counts(system, lo, hi))


def per_n_outcomes(system, lo, hi):
    return outcomes(
        count_system_reps(system, n, tuple_cap=0).count for n in range(lo, hi + 1)
    )


@settings(max_examples=100, deadline=None)
@given(systems(any_sets), st.integers(1, 2500), st.integers(0, 400))
def test_window_counts_match_per_n_counts(system, lo, width):
    assert window_outcomes(system, lo, lo + width) == per_n_outcomes(
        system, lo, lo + width
    )


@settings(max_examples=60, deadline=None)
@given(systems(multiplicative_sets), st.integers(1, 2500), st.integers(0, 400))
def test_multiplicative_window_counts_match_per_n_counts(system, lo, width):
    assert window_outcomes(system, lo, lo + width) == per_n_outcomes(
        system, lo, lo + width
    )


def test_window_with_a_lone_non_multiplicative_part():
    # the non-multiplicative parts convolve to {2: 1}, not to {1: 1}
    system = MultiplicativeSystem((AllNaturals(), Singleton((2,))))
    assert window_outcomes(system, 1, 50) == [int(n % 2 == 0) for n in range(1, 51)]


def test_window_without_multiplicative_parts():
    # G is then 1 at 1 and 0 elsewhere, so g = F
    system = MultiplicativeSystem((Primes(), PrimesWithOne(), Singleton((1, 6))))
    assert system.parts[2].multiplicative is False
    assert window_outcomes(system, 1, 400) == per_n_outcomes(system, 1, 400)


def test_multiplicative_windows_above_the_sieve():
    lo, hi = 2**40, 2**40 + 300
    assert lo >= SIEVE_LIMIT
    system = basis_system(AllNaturals(), 3)
    got = window_outcomes(system, lo, hi)
    assert got == per_n_outcomes(system, lo, hi)
    assert len(got) == 301
    # fundamental needs the index of every prime factor, so both scans
    # stop at 2^40 + 1 = 257 * 4278255361, beyond the index sieve
    system = build("fundamental", 2).system
    got = window_outcomes(system, lo, hi)
    assert got == per_n_outcomes(system, lo, hi)
    assert got == [1, "ResourceLimitError"]


def test_non_multiplicative_window_above_the_sieve():
    construction = build("s-inf", 3, s=2)
    lo = 2**40 - 50
    got = window_outcomes(construction.system, lo, lo + 100)
    assert got == [closed_form(construction, n) for n in range(lo, lo + 101)]


def test_window_with_a_huge_prime_under_fundamental_raises_promptly():
    p = 4294967311  # the least prime above 2^32
    system = build("fundamental", 2).system
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        window_stats(system, 8 * p - 3, 8 * p + 3)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "lo, hi", [(2**20 - 400, 2**20 - 1), (2**20 - 200, 2**20 + 200)]
)
@pytest.mark.parametrize(
    "system",
    [build("fundamental", 3).system, build("s-inf", 3, s=3).system],
    ids=["fundamental", "s-inf"],
)
def test_window_counts_at_the_sieve_edge_match_per_n_counts(system, lo, hi):
    # the first window ends on the last n the sieve serves, the second
    # runs past it and so leaves the window path
    assert window_outcomes(system, lo, hi) == per_n_outcomes(system, lo, hi)


MULTIPLICATIVE_KINDS = [
    AllNaturals(),
    Squarefree(),
    SmoothOver(IndexResidue(3, 1)),
    SmoothOver(ExplicitList((2, 5, 7))),
    Singleton((1,)),
    Singleton((1, 3, 9, 81)),
    PowersOf(2, 0),
    PowersOf(3, 0, 2),
    Intersection((Squarefree(), SmoothOver(Complement(ExplicitList((3,)), (2, 3, 5, 7))))),
    Intersection((PowersOf(2, 0, 5), SmoothOver(IndexResidue(2, 1)))),
]


@pytest.mark.parametrize("kind", MULTIPLICATIVE_KINDS, ids=repr)
def test_windows_of_each_multiplicative_kind_match_per_n_counts(kind):
    # all multiplicative, counted by the recurrence over c(p, e); and
    # with a part that is not, by the convolution F * G
    assert kind.multiplicative
    lo, hi = 9800, 10200
    for parts in ((kind, kind), (kind, AllNaturals(), kind), (Primes(), kind, Squarefree())):
        system = MultiplicativeSystem(parts)
        assert window_outcomes(system, lo, hi) == per_n_outcomes(system, lo, hi)


def test_a_window_builds_no_chain_for_a_prime_to_the_first_power(monkeypatch):
    # c(p, 1) is the number of parts that hold p, as every part holds 1
    exponents = []

    def chain(parts, p, e):
        exponents.append(e)
        return prime_chain(parts, p, e)

    prime_chain = repcount._prime_chain
    system = build("fundamental", 3).system
    per_n = [(n, count_system_reps(system, n, 0).count) for n in range(2, 5001)]
    monkeypatch.setattr(repcount, "_prime_chain", chain)
    assert window_stats(system, 2, 5000) == repcount.summarize_window(2, 5000, per_n)
    assert exponents and min(exponents) >= 2


def multiplicative_oracle(parts, hi):
    """G(k) for k in [1, hi], counted per k by count_system_reps (a part
    holding only 1 makes a system of one part a system of two)."""
    system = MultiplicativeSystem((*parts, Singleton((1,)), Singleton((1,))))
    return [count_system_reps(system, k, 0).count for k in range(1, hi + 1)]


# down from all ones with nothing to fix; down, fixing small primes to 0
# at p^2, and a third of all primes to 0; up from 1 at 1, a row 0 at p
# but not at p^2, and a third of all primes at 2; both with rows that
# are neither 0 nor 1; no part at all
TABLE_PARTS = [
    [AllNaturals()],
    [Squarefree()],
    [SmoothOver(IndexResidue(3, 0)), SmoothOver(IndexResidue(3, 1))],
    [Singleton((1, 4, 8))],
    [SmoothOver(IndexResidue(3, 1)), SmoothOver(IndexResidue(3, 1))],
    [Singleton((1, 2, 4))],
    [AllNaturals(), Squarefree()],
    [SmoothOver(IndexResidue(3, 1)), Squarefree(), PowersOf(2, 0, 3)],
    [Singleton((1, 9)), SmoothOver(ExplicitList((2, 3)))],
    [],
]


@pytest.mark.parametrize("parts", TABLE_PARTS, ids=repr)
def test_multiplicative_tables_match_per_k_counts(parts):
    for hi in (1, 2, 3, 4, 9, 30, 1100):
        table = repcount._multiplicative_table(parts, hi, repcount._held(parts, hi))
        assert len(table) == hi + 1
        assert table[1:] == multiplicative_oracle(parts, hi)


def test_windows_of_more_than_255_multiplicative_parts():
    # c(p, 1) = 256 passes a byte, so the rows are summed column by
    # column; the counts are d_256(n), and d_256(n / p) summed over p | n
    h = 256

    def d(n):
        return math.prod(math.comb(e + h - 1, h - 1) for e in factorize(n).values())

    system = basis_system(AllNaturals(), h)
    assert window_outcomes(system, 1, 60) == [d(n) for n in range(1, 61)]
    system = MultiplicativeSystem((Primes(),) + (AllNaturals(),) * h)
    expected = [sum(d(n // p) for p in factorize(n)) for n in range(1, 61)]
    assert window_outcomes(system, 1, 60) == expected


def table_outcomes(system, lo, hi):
    """g over [lo, hi] from F and G over [0, hi], whatever the window
    could afford."""
    mult = [part for part in system.parts if part.multiplicative]
    rest = [part for part in system.parts if not part.multiplicative]
    conv = repcount._convolve(rest, hi, 1 << 40)
    table = repcount._multiplicative_table(mult, hi, repcount._held(mult, hi))
    return repcount._window_sums(conv, table, lo, hi)


@pytest.mark.parametrize(
    "parts",
    [
        # a sparse G, a dense G, a G whose c(p, e) is not 1 at small primes
        (Union((PowersOf(3, 0, 2), Primes())), PrimesWithOne(), Singleton((1, 2, 4))),
        (AllNaturals(), PrimesWithOne(), PrimesWithOne()),
        (Primes(), AllNaturals(), Squarefree(), Singleton((1, 4, 8))),
        # a part that cannot list its members, and no multiplicative part
        (Union((Squarefree(), Primes())), AllNaturals()),
        (Primes(), PrimesWithOne(), Singleton((1, 6))),
    ],
    ids=repr,
)
def test_window_tables_match_per_n_counts(parts):
    system = MultiplicativeSystem(parts)
    # far from 1, width 1, lo = 1, and lo below isqrt(hi)
    for lo, hi in [(12107, 13106), (1, 1), (2, 2), (7, 7), (9973, 9973), (10000, 10000),
                   (1, 500), (1, 2), (30, 3000), (11, 200)]:
        expected = per_n_outcomes(system, lo, hi)
        assert table_outcomes(system, lo, hi) == expected
        assert window_outcomes(system, lo, hi) == expected


def test_the_tuple_walk_takes_more_parts_than_the_recursion_limit():
    h = sys.getrecursionlimit() + 200
    # all tail: only part 1 holds 2
    w = count_system_reps(build("fundamental", h).system, 1024)
    assert (w.count, w.tuples, w.truncated) == (1, ((1, 1024) + (1,) * (h - 2),), False)
    # no tail: 2 and 3 go to two distinct parts, placed last first
    w = count_system_reps(basis_system(PrimesWithOne(), h), 6, tuple_cap=5)
    ones = (1,) * (h - 3)
    assert w.count == h * (h - 1)
    assert w.tuples == (
        ones + (1, 2, 3), ones + (1, 3, 2), ones + (2, 1, 3), ones + (2, 3, 1), ones + (3, 1, 2)
    )


def test_scan_counts_checks_its_range_at_the_call():
    with pytest.raises(ValueError, match="need 1 <= lo <= hi"):
        scan_counts(build("fundamental", 2).system, 5, 4)


GRAMMAR = "parts:Union(PowersOf(3,0,2),Primes);PrimesWithOne;Singleton(1,2,4)"


@pytest.mark.parametrize("spec", ["s-inf:h=3,s=3", GRAMMAR, "fundamental:h=3"])
def test_an_empty_range_yields_no_counts_and_n_0_raises_as_per_n(spec):
    system = parse_system_spec(spec)
    assert list(repcount._counts(system, range(5, 5))) == []
    with pytest.raises(ValueError, match="n must be >= 1"):
        list(repcount._counts(system, range(0, 5)))


@pytest.mark.parametrize(
    "spec", ["fundamental:h=3", "parts:AllNaturals;AllNaturals;AllNaturals"]
)
def test_multiplicative_windows_are_not_convolved(monkeypatch, spec):
    def refuse(parts, hi, budget):
        raise AssertionError("an all-multiplicative window was convolved")

    system = parse_system_spec(spec)
    per_n = [(n, count_system_reps(system, n, 0).count) for n in range(2, 3001)]
    monkeypatch.setattr(repcount, "_convolve", refuse)
    assert window_stats(system, 2, 3000) == repcount.summarize_window(2, 3000, per_n)


def stream_outcomes(monkeypatch, system, ns):
    """The counts _counts yields for the n of ns, handed to it as a
    generator, up to the error that ends them as (type, message); and
    the n it factors on the way."""
    factored, out = [], []

    def factor(n):
        factored.append(n)
        return factorize(n)

    with monkeypatch.context() as patch:
        patch.setattr(repcount, "factorize", factor)
        try:
            out.extend(c for _, c in repcount._counts(system, (n for n in ns)))
        except (ResourceLimitError, ValueError) as exc:
            out.append((type(exc), str(exc)))
    return out, factored


def per_n_stream(system, ns):
    """The same, counted one n at a time by count_system_reps."""
    out = []
    try:
        out.extend(count_system_reps(system, n, tuple_cap=0).count for n in ns)
    except (ResourceLimitError, ValueError) as exc:
        out.append((type(exc), str(exc)))
    return out


@pytest.mark.parametrize(
    "spec",
    [
        "fundamental:h=3",
        "one-t:h=3,t=3",
        "one-inf:h=3",
        "parts:AllNaturals;AllNaturals;AllNaturals",
    ],
)
def test_multiplicative_streams_factor_only_from_the_sieve_limit(monkeypatch, spec):
    system = parse_system_spec(spec)
    ns = [*range(1, 301), *range(2**20 - 40, 2**20 + 41), *primorials()[:15]]
    got, factored = stream_outcomes(monkeypatch, system, ns)
    assert got == per_n_stream(system, ns)
    assert factored == [n for n in ns if n >= SIEVE_LIMIT]


def test_multiplicative_streams_stop_and_raise_where_per_n_counts_do(monkeypatch):
    system = parse_system_spec("parts:Singleton(1);SmoothOver(IndexResidue(2,0))")
    big = 4194319  # a prime whose index lies beyond the 2^22 sieve cap
    # 2 is held by neither part, so the count is 0 before the index of big
    # is asked for; at 3 * big it is asked for, and refused
    ns = [*range(1, 31), 2 * 3 * 5 * big, 7, 3 * big, 11]
    got, factored = stream_outcomes(monkeypatch, system, ns)
    assert got == per_n_stream(system, ns)
    assert got[30] == 0 and got[32][0] is ResourceLimitError and len(got) == 33
    assert factored == [2 * 3 * 5 * big, 3 * big]
    for ns in ([9, 0], [9, -3]):
        got, factored = stream_outcomes(monkeypatch, system, ns)
        assert got == [1, (ValueError, "n must be >= 1")]
        assert factored == ns[1:]


@pytest.mark.parametrize("spec", ["s-inf:h=3,s=3", GRAMMAR])
def test_narrow_windows_far_from_1_are_counted_per_n(monkeypatch, spec):
    # F is built over [1, hi], so a narrow window far from 1 is cheaper
    # to count one n at a time; wide windows near 1 convolve
    system = parse_system_spec(spec)
    counted = []

    def per_n(system, n, tuple_cap):
        counted.append(n)
        return count_system_reps(system, n, tuple_cap)

    monkeypatch.setattr(repcount, "count_system_reps", per_n)
    for lo, hi in [(2, 1001), (12300, 13299), (999990, 10**6)]:
        counted.clear()
        assert window_outcomes(system, lo, hi) == per_n_outcomes(system, lo, hi)
        assert counted == ([] if hi < 10**6 else list(range(lo, hi + 1)))


@pytest.mark.parametrize("spec", ["s-inf:h=3,s=3", GRAMMAR, "fundamental:h=3"])
def test_a_narrow_window_far_from_1_builds_no_row_and_no_table(monkeypatch, spec):
    def refuse(*args):
        raise AssertionError("a narrow window built a row or a table")

    system = parse_system_spec(spec)
    expected = per_n_outcomes(system, 900000, 900041)
    for cls in (SetDescription, *SetDescription.__subclasses__()):
        if "prime_row" in vars(cls):
            monkeypatch.setattr(cls, "prime_row", refuse)
    for name in ("_held", "_convolve", "_multiplicative_table", "_window_sums"):
        monkeypatch.setattr(repcount, name, refuse)
    assert window_outcomes(system, 900000, 900041) == expected


def test_parts_that_cannot_list_their_members_are_not_scanned(monkeypatch):
    # Squarefree and SmoothOver find their members only by asking about
    # every n up to the limit: a window's convolution counts that as hi
    # against its budget, and an Intersection lists from a part that
    # lists its own, so none of these asks about every n up to 9 * 10^5
    windows = [
        ("Intersection(Squarefree,Singleton(4,0,6,12),Singleton(30,0,3));"
         "Primes;Singleton(2,0);Primes", 900000, 900040),
        ("Squarefree;Union(SmoothOver(ExplicitList(2,5)))", 900000, 900041),
    ]
    per_n = [
        [(n, count_system_reps(parse_system(text), n, 0).count) for n in range(lo, hi + 1)]
        for text, lo, hi in windows
    ]
    asked = []
    contains = SetDescription.contains

    def counted(self, n):
        asked.append(n)
        return contains(self, n)

    monkeypatch.setattr(SetDescription, "contains", counted)
    for (text, lo, hi), expected in zip(windows, per_n):
        asked.clear()
        assert list(scan_counts(parse_system(text), lo, hi)) == expected
        assert len(asked) < 100
    asked.clear()
    intersection = parse_set("Intersection(Squarefree,Singleton(4,0,6,12))")
    assert list(intersection.iter_up_to(10**6)) == [6]
    assert asked == [4, 6, 12]


@pytest.mark.parametrize(
    "system",
    [build("fundamental", 3).system, build("s-inf", 3, s=2).system],
    ids=["fundamental", "s-inf"],
)
def test_window_scans_hold_no_memory(system):
    # each window's tables are freed when its scan ends; gc.collect()
    # also empties the interpreter's free lists, which tracemalloc counts
    windows = [(2 + 1000 * i, 1001 + 1000 * i) for i in range(50)]
    primes_up_to(windows[-1][1])  # the sieve holds the last window
    tracemalloc.start()
    try:
        window_stats(system, *windows[0])
        gc.collect()
        first, _ = tracemalloc.get_traced_memory()
        for lo, hi in windows[1:]:
            window_stats(system, lo, hi)
        gc.collect()
        last, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert last - first < 16 * 1024
