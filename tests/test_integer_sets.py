import gc
import os
import subprocess
import sys
import time
import tracemalloc
from array import array
from dataclasses import dataclass
from itertools import product
from math import gcd, isqrt, prod

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multrep import (
    AllNaturals,
    Complement,
    ExplicitList,
    IndexResidue,
    Intersection,
    MultiplicativeSystem,
    PowersOf,
    Primes,
    PrimesWithOne,
    FactorizationLimitError,
    ResourceLimitError,
    SetDescription,
    Singleton,
    SmoothOver,
    Squarefree,
    Union,
    basis_system,
    membership,
    parse_set,
    parse_system,
)
from multrep import integer_sets
from multrep.integer_sets import (
    MAX_INT,
    PRIME_INDEX_LIMIT,
    PrimeClass,
    factorize,
    is_prime,
    nth_prime,
    prime_index,
    primes_up_to,
    smallest_prime_factors,
)

from conftest import sieve_squarefree
from test_repcount import MULTIPLICATIVE_KINDS, SMALL_PRIMES, any_sets


def test_membership_spec_examples():
    assert not membership(Squarefree(), 12)
    assert membership(PowersOf(2, 0, 1), 2)
    # 1 belongs to every smooth set
    assert membership(SmoothOver(IndexResidue(2, 0)), 1)


def test_enumerate_spec_examples():
    assert list(Primes().iter_up_to(10)) == [2, 3, 5, 7]
    assert list(PowersOf(2, 0, 2).iter_up_to(100)) == [1, 2, 4]
    assert list(Squarefree().iter_up_to(12)) == [1, 2, 3, 5, 6, 7, 10, 11]


def test_powersof_range_size():
    for t in (1, 2, 5):
        assert len(list(PowersOf(2, 0, t - 1).iter_up_to(2**t))) == t


def test_squarefree_matches_sieve_oracle():
    assert list(Squarefree().iter_up_to(2000)) == sieve_squarefree(2000)


@pytest.mark.parametrize(
    "d",
    [
        AllNaturals(),
        Singleton((1, 2, 4)),
        PowersOf(3, 1, 4),
        PowersOf(2, 0, None),
        Primes(),
        PrimesWithOne(),
        Squarefree(),
        SmoothOver(IndexResidue(3, 1)),
        SmoothOver(ExplicitList((2, 5))),
        Union((Primes(), Singleton((1,)))),
        Intersection((Squarefree(), Primes())),
    ],
)
def test_membership_agrees_with_enumeration(d):
    limit = 300
    members = set(d.iter_up_to(limit))
    for n in range(1, limit + 1):
        assert membership(d, n) == (n in members)


def test_index_residue_classes_partition_primes():
    for h in (2, 3):
        classes = [
            list(Intersection((Primes(), SmoothOver(IndexResidue(h, r)))).iter_up_to(500))
            for r in range(h)
        ]
        union = sorted(p for cls in classes for p in cls)
        assert union == primes_up_to(500)
        for i in range(h):
            for j in range(i + 1, h):
                assert not set(classes[i]) & set(classes[j])


def test_every_prime_in_exactly_one_class():
    for p in primes_up_to(200):
        hits = [r for r in range(3) if IndexResidue(3, r).contains_prime(p)]
        assert len(hits) == 1


def test_complement_class():
    c = Complement(ExplicitList((2,)), (2, 3, 5))
    assert not c.contains_prime(2)
    assert c.contains_prime(3) and c.contains_prime(5)
    assert not c.contains_prime(7)


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=100_000))
def test_squarefree_is_square_divisor_free(n):
    has_square = any(n % (p * p) == 0 for p in range(2, int(n**0.5) + 1) if is_prime(p))
    assert membership(Squarefree(), n) == (not has_square)


@given(st.integers(min_value=2, max_value=50_000))
def test_factorize_reconstructs(n):
    prod = 1
    for p, e in factorize(n).items():
        assert is_prime(p)
        prod *= p**e
    assert prod == n


def test_prime_index_is_one_based():
    assert prime_index(2) == 1
    assert prime_index(3) == 2
    assert prime_index(13) == 6
    with pytest.raises(ValueError):
        prime_index(4)
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        nth_prime(0)


def test_prime_index_refuses_a_sieve_beyond_its_cap():
    p = sympy.nextprime(PRIME_INDEX_LIMIT)
    with pytest.raises(ResourceLimitError):
        prime_index(p)
    with pytest.raises(ResourceLimitError):
        IndexResidue(2, 0).contains_prime(p)
    assert len(integer_sets._spf) <= PRIME_INDEX_LIMIT


def test_prime_tables_refuse_a_sieve_beyond_the_cap():
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        primes_up_to(PRIME_INDEX_LIMIT)
    with pytest.raises(ResourceLimitError):
        nth_prime(10**6)
    assert time.perf_counter() - start < 1.0
    assert len(integer_sets._spf) <= PRIME_INDEX_LIMIT
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert [nth_prime(k) for k in (1, 2, 6, 1000, 10**5)] == [
        2, 3, 13, 7919, sympy.prime(10**5),
    ]


@pytest.mark.parametrize("grown_by_prime_index", [False, True])
def test_nth_prime_reaches_the_last_prime_below_the_cap(
    monkeypatch, grown_by_prime_index
):
    # a fresh sieve, restored afterwards so that no other test holds 2^22
    monkeypatch.setattr(integer_sets, "_spf", [])
    monkeypatch.setattr(integer_sets, "_primes", [])
    if grown_by_prime_index:
        p = sympy.prevprime(3 * 10**6)
        assert prime_index(p) == sympy.primepi(p)
    last = sympy.prevprime(PRIME_INDEX_LIMIT)
    assert nth_prime(295947) == last == 4194301
    assert sympy.primepi(last) == 295947
    with pytest.raises(ResourceLimitError, match="index 295948 needs a sieve"):
        nth_prime(295948)
    assert len(integer_sets._spf) <= PRIME_INDEX_LIMIT


@pytest.mark.parametrize(
    "call, arg, message",
    [
        (primes_up_to, 2**22, "the primes up to 4194304 need a sieve beyond 4194304"),
        (prime_index, 4194319, "the index of 4194319 needs a sieve beyond 4194304"),
        (nth_prime, 10**6, "the prime of index 1000000 needs a sieve beyond 4194304"),
        (nth_prime, 295948, "the prime of index 295948 needs a sieve beyond 4194304"),
    ],
)
def test_each_prime_table_refuses_in_its_own_words(monkeypatch, call, arg, message):
    monkeypatch.setattr(integer_sets, "_spf", array("I"))
    monkeypatch.setattr(integer_sets, "_primes", [])
    with pytest.raises(ResourceLimitError) as exc:
        call(arg)
    assert str(exc.value) == message
    assert len(integer_sets._spf) <= PRIME_INDEX_LIMIT


def test_factorize_reads_a_small_cofactor_through_its_sieve_path(monkeypatch):
    monkeypatch.setattr(integer_sets, "_spf", array("I"))
    monkeypatch.setattr(integer_sets, "_primes", [])
    read = []
    full = integer_sets.factorize

    def spy(n):
        read.append(n)
        return full(n)

    # the large path looks factorize up by name, so it calls the spy
    monkeypatch.setattr(integer_sets, "factorize", spy)
    n = 1009**2 * 1013
    assert spy(n) == {1009: 2, 1013: 1}
    # rho splits n into a prime and a composite below SIEVE_LIMIT, which
    # the large path hands to the sieve path
    assert any(
        m < integer_sets.SIEVE_LIMIT and not is_prime(m) for m in read[1:]
    ), read


# sympy is the oracle here only; the library imports nothing outside the
# standard library
@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=MAX_INT))
def test_factorize_and_is_prime_match_sympy(n):
    factors = factorize(n)
    assert factors == sympy.factorint(n)
    assert list(factors) == sorted(factors)
    assert is_prime(n) == sympy.isprime(n)


def test_is_prime_matches_sympy_below_5000():
    assert [n for n in range(1, 5001) if is_prime(n)] == list(
        sympy.primerange(1, 5001)
    )


P31 = sympy.prevprime(2**31)
P21 = sympy.prevprime(2**21)


@pytest.mark.parametrize(
    "n",
    [
        P31**2,
        P21**2,
        P21**3,
        P31 * sympy.prevprime(P31),
        sympy.nextprime(2**31) * sympy.prevprime(2**31 - 2**20),
        2**61 - 1,
        561,
        41041,
        3825123056546413051,  # strong pseudoprime to the bases 2, 3, ..., 23
        MAX_INT,
    ],
)
def test_factorize_hard_cases(n):
    factors = factorize(n)
    assert factors == sympy.factorint(n)
    assert list(factors) == sorted(factors)
    assert is_prime(n) == sympy.isprime(n)


def test_factorize_rejects_beyond_64_bits():
    for n in (2**63, P31**3):
        with pytest.raises(FactorizationLimitError):
            factorize(n)
    with pytest.raises(FactorizationLimitError):
        is_prime(2**89 - 1)


def test_62_bit_semiprime_is_prompt():
    a = sympy.prevprime(3 * 2**29)
    b = sympy.nextprime(5 * 2**29)
    start = time.perf_counter()
    assert factorize(a * b) == {a: 1, b: 1}
    assert time.perf_counter() - start < 1.0


def test_library_runs_without_site_packages():
    # -S leaves site-packages, and with it sympy, off the import path
    src = os.path.dirname(os.path.dirname(integer_sets.__file__))
    code = "import multrep; print(multrep.integer_sets.factorize(2**62 + 1))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == str(factorize(2**62 + 1))


def test_system_requires_two_parts():
    with pytest.raises(ValueError):
        MultiplicativeSystem((AllNaturals(),))
    with pytest.raises(ValueError, match="^h must be >= 2$"):
        basis_system(AllNaturals(), 1)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: IndexResidue(1, 0), "modulus must be >= 2"),
        (lambda: IndexResidue(3, 3), "residue out of range"),
        (lambda: Singleton(()), "Singleton needs at least one value"),
        (lambda: Singleton((-1,)), "values must be >= 0"),
        (lambda: PowersOf(2, -1), "lo must be >= 0"),
        (lambda: PowersOf(2, 3, 2), "hi must be >= lo"),
        (lambda: Union(()), "Union needs at least one part"),
        (lambda: Intersection(()), "Intersection needs at least one part"),
        (lambda: membership(Primes(), -1), "n must be >= 0"),
    ],
    ids=[
        "modulus-1", "residue-3-mod-3", "empty-singleton", "negative-singleton",
        "negative-lo", "hi-below-lo", "empty-union", "empty-intersection",
        "negative-member",
    ],
)
def test_an_argument_out_of_range_is_refused(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_parse_set_roundtrips_each_kind():
    cases = {
        "AllNaturals": AllNaturals(),
        "Singleton(1,2,4)": Singleton((1, 2, 4)),
        "PowersOf(2,0,1)": PowersOf(2, 0, 1),
        "PowersOf(2,0,inf)": PowersOf(2, 0, None),
        "PowersOf(2,0)": PowersOf(2, 0, None),
        "Primes": Primes(),
        "PrimesWithOne": PrimesWithOne(),
        "Squarefree": Squarefree(),
        "SmoothOver(IndexResidue(2,0))": SmoothOver(IndexResidue(2, 0)),
        "SmoothOver(ExplicitList(2,5))": SmoothOver(ExplicitList((2, 5))),
        "SmoothOver(Complement(ExplicitList(2),2,3,5))": SmoothOver(
            Complement(ExplicitList((2,)), (2, 3, 5))
        ),
        "Union(Primes, Singleton(1))": Union((Primes(), Singleton((1,)))),
        "Intersection(Squarefree, Primes)": Intersection((Squarefree(), Primes())),
    }
    for text, expected in cases.items():
        assert parse_set(text) == expected


def test_parse_system():
    sys = parse_system("AllNaturals; Singleton(1,2)")
    assert sys.h == 2
    assert sys.parts[1] == Singleton((1, 2))


def test_parse_errors():
    for bad in ("Nope", "PowersOf(1,0)", "Singleton()", "AllNaturals extra"):
        with pytest.raises(ValueError):
            parse_set(bad)


@pytest.mark.parametrize(
    "d, multiplicative",
    [
        (AllNaturals(), True),
        (Squarefree(), True),
        (SmoothOver(IndexResidue(2, 1)), True),
        (SmoothOver(ExplicitList((3, 5))), True),
        (Singleton((1,)), True),
        (Singleton((1, 2, 8)), True),
        (Singleton((1, 2, 3)), False),
        (Singleton((0, 1)), False),
        (Singleton((2, 4)), False),
        (PowersOf(3, 0, 4), True),
        (PowersOf(3, 1), False),
        (PowersOf(6, 0), False),
        (Primes(), False),
        (PrimesWithOne(), False),
        (Union((AllNaturals(),)), False),
        (Intersection((Squarefree(), PowersOf(2, 0))), True),
        (Intersection((Squarefree(), Primes())), False),
        (Singleton((1, 2**61 - 1)), True),
        (PowersOf(2**61 - 1, 0), True),
        (Singleton((1, 2**89 - 1)), False),
        (PowersOf(2**89 - 1, 0), False),
    ],
)
def test_multiplicative_kinds(d, multiplicative):
    assert d.multiplicative == multiplicative
    if multiplicative:
        assert membership(d, 1)
        for a in range(2, 60):
            for b in range(2, 60):
                if gcd(a, b) == 1:
                    both = membership(d, a) and membership(d, b)
                    assert membership(d, a * b) == both


M61 = 2**61 - 1


@pytest.mark.parametrize(
    "d, extra",
    [
        (AllNaturals(), ()),
        (Primes(), ()),
        (PrimesWithOne(), ()),
        (Squarefree(), ()),
        (Singleton((1,)), ()),
        (Singleton((0, 1, 8, 9, 27)), ()),
        (Singleton((2, 4, 125)), ()),
        # values beyond 64-bit range, one of them a power of a prime asked
        (Singleton((1, 3**41, 2**64 + 1)), ()),
        (PowersOf(2), ()),
        (PowersOf(3, 2), ()),
        (PowersOf(5, 1, 3), ()),
        (PowersOf(4), ()),  # a composite base: 2^a holds for even a
        (PowersOf(8, 1, 1), ()),
        (PowersOf(9, 0, 2), ()),
        (PowersOf(6, 0), ()),
        (PowersOf(12, 1), ()),
        (PowersOf(M61, 0), (M61,)),
        (PowersOf(M61, 1, 2), (M61,)),
        (PowersOf(2**89 - 1, 0), (2**89 - 1,)),
        (SmoothOver(IndexResidue(2, 1)), ()),
        (SmoothOver(ExplicitList((3, 5))), ()),
        (SmoothOver(Complement(ExplicitList((3,)), (2, 3, 5))), ()),
        (Union((PowersOf(3, 0, 2), Primes())), ()),
        (Intersection((Squarefree(), PowersOf(2, 0))), ()),
        (Intersection((SmoothOver(ExplicitList((2, 3))), PowersOf(4, 0), Singleton((1, 3, 16)))), ()),
        (Intersection((PowersOf(3, 1, 4), Squarefree())), ()),
        (Intersection((Squarefree(), Primes())), ()),
    ],
)
def test_prime_power_flags_equal_contains_per_power(d, extra):
    # the primes asked include each base that is prime, where PowersOf
    # reads its exponent range, and p^6 of the others stays below 2^63
    for p in (2, 3, 5, 7, 13, 997) + extra:
        for e in range(7):
            assert d.prime_power_flags(p, e) == [d.contains(p**a) for a in range(e + 1)]


def test_prime_power_flags_at_e_0_do_not_ask_the_class():
    # 4194319 is a prime whose index lies beyond the 2^22 sieve cap
    d = SmoothOver(IndexResidue(2, 0))
    assert d.prime_power_flags(4194319, 0) == [True]
    assert d.contains(1)
    with pytest.raises(ResourceLimitError):
        d.prime_power_flags(4194319, 1)


@dataclass(frozen=True)
class PrimesOneMod4Smooth(SetDescription):
    """Defines only prime_power_flags, so its row is the base class's."""

    multiplicative = True

    def prime_power_flags(self, p, e):
        return [a == 0 or p % 4 == 1 for a in range(e + 1)]


@pytest.mark.parametrize(
    "d",
    [
        *MULTIPLICATIVE_KINDS,
        *(SmoothOver(IndexResidue(m, r)) for m in range(2, 7) for r in range(m)),
        PrimesOneMod4Smooth(),
        # kinds that are not multiplicative, and bases a row must not hold
        PowersOf(3, 2),
        PowersOf(5, 1, 3),
        PowersOf(4),
        PowersOf(2, 0, 0),
        Singleton((0, 2, 4, 7, 10**20)),
        Intersection((Squarefree(), Primes())),
        Union((PowersOf(3, 0, 2), Primes())),
    ],
    ids=repr,
)
def test_prime_rows_equal_prime_power_flags(d):
    assert "prime_row" not in vars(PrimesOneMod4Smooth)
    for n in (1, 2, 3, 100, 5000):
        flags = [d.prime_power_flags(p, 1)[1] for p in primes_up_to(n)]
        assert d.prime_row(n) == bytes(flags)


@dataclass(frozen=True)
class PrimesOneMod4(PrimeClass):
    """Defines only contains_prime, so its row is the base class's."""

    def contains_prime(self, p):
        return p % 4 == 1


@pytest.mark.parametrize(
    "c",
    [
        *(IndexResidue(m, r) for m in range(2, 7) for r in range(m)),
        PrimesOneMod4(),
        Complement(PrimesOneMod4(), (2, 5, 7, 13)),
        ExplicitList((2, 7, 4999, 5003)),
        Complement(IndexResidue(3, 0), (2, 3, 5, 7, 11, 13, 4999, 5003)),
        Complement(Complement(ExplicitList((5,)), (3, 5, 7)), (2, 3, 5, 7)),
    ],
    ids=repr,
)
def test_prime_class_rows_equal_contains_prime(c):
    assert "prime_row" not in vars(PrimesOneMod4)
    for n in (1, 2, 3, 100, 5000):
        assert c.prime_row(n) == bytes(map(c.contains_prime, primes_up_to(n)))


def test_sieve_matches_plain_sieve(monkeypatch):
    monkeypatch.setattr(integer_sets, "_spf", array("I"))
    monkeypatch.setattr(integer_sets, "_primes", [])
    # a first build, then growth to an odd limit past the doubling
    for limit in (1 << 16, (1 << 17) + 3):
        integer_sets._ensure_sieve(limit)
        spf = list(range(limit + 1))
        for p in range(2, isqrt(limit) + 1):
            if spf[p] == p:
                for q in range(p * p, limit + 1, p):
                    if spf[q] == q:
                        spf[q] = p
        primes = [n for n in range(2, limit + 1) if spf[n] == n]
        assert list(integer_sets._spf) == spf
        assert integer_sets._primes == primes
        assert [prime_index(p) for p in primes] == list(range(1, len(primes) + 1))
    # callers compare prime lists with lists, which an array never equals
    assert type(primes_up_to(100)) is list


def test_smallest_prime_factors_grows_the_sieve_and_reads_it(monkeypatch):
    monkeypatch.setattr(integer_sets, "_spf", array("I"))
    monkeypatch.setattr(integer_sets, "_primes", [])
    small = smallest_prime_factors(100)
    assert 100 < len(small) < (1 << 20) - 1
    top = (1 << 20) - 1
    spf = smallest_prime_factors(top)
    assert len(spf) > top
    assert spf[1] == 1
    for n in list(range(2, 5001)) + [top]:
        if sympy.isprime(n):
            assert spf[n] == n
        else:
            assert spf[n] == min(factorize(n)), n


def test_is_prime_grows_the_sieve_below_its_limit(monkeypatch):
    monkeypatch.setattr(integer_sets, "_spf", array("I"))
    monkeypatch.setattr(integer_sets, "_primes", [])
    integer_sets._ensure_sieve(100)
    assert len(integer_sets._spf) < 999981
    # the largest prime below 10^6, between odd composites, below 2^20
    assert [is_prime(n) for n in (999981, 999983, 999985)] == [False, True, False]
    assert len(integer_sets._spf) > 999985


def test_sieve_to_2_20_stays_compact(monkeypatch):
    # a list of int objects peaks at about 43 MB, a 4-byte array at about
    # 14 MB
    monkeypatch.setattr(integer_sets, "_spf", array("I"))
    monkeypatch.setattr(integer_sets, "_primes", [])
    tracemalloc.start()
    try:
        integer_sets._ensure_sieve(1 << 20)
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(integer_sets._spf) == (1 << 20) + 1
    assert peak < 20 * 2**20
    # the factor array and the sorted primes keep about 7.7 MB; a
    # prime -> index dict as well would keep 13 MB
    assert kept < 10 * 2**20


def test_prime_index_matches_primepi_before_and_after_the_sieve_grows(
    monkeypatch,
):
    monkeypatch.setattr(integer_sets, "_spf", array("I"))
    monkeypatch.setattr(integer_sets, "_primes", [])
    integer_sets._ensure_sieve(1 << 20)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def agrees(top, data):
        # the bisection's edges: below the first prime, the last prime
        # and the composites between it and the end of the sieve
        last = integer_sets._primes[-1]
        edges = [-3, -1, 0, 1, 2, 3, 4, last, last + 1, top]
        p = data.draw(
            st.one_of(
                st.integers(-3, top),
                st.integers(3, top).map(sympy.prevprime),
                st.sampled_from(edges),
            )
        )
        if sympy.isprime(p):
            assert prime_index(p) == sympy.primepi(p)
        else:
            with pytest.raises(ValueError, match="is not prime"):
                prime_index(p)

    agrees(1 << 20)
    assert len(integer_sets._spf) == (1 << 20) + 1
    p = sympy.nextprime(1 << 20)
    assert prime_index(p) == sympy.primepi(p)
    assert len(integer_sets._spf) > 1 << 21
    agrees(1 << 21)


def per_divisor(d, factors, where):
    """contains_factored of each divisor of the integer with these
    factors that where marks (every one when where is None), in divisor
    index order: the exponent of the first prime varies fastest."""
    primes = sorted(factors, reverse=True)
    row = []
    for x, exps in enumerate(product(*(range(factors[p] + 1) for p in primes))):
        f = {p: a for p, a in sorted(zip(primes, exps)) if a}
        asked = where is None or where[x]
        row.append(asked and d.contains_factored(prod(p**a for p, a in f.items()), f))
    return row


def flags_outcome(row_of):
    """The row as booleans, or the type of the error it raised."""
    try:
        return [bool(ok) for ok in row_of()]
    except (ResourceLimitError, FactorizationLimitError) as exc:
        return type(exc)


BIG_PRIMES = (4194319, 4194329)  # primes whose index lies beyond the 2^22 cap
divided = st.one_of(
    st.just(1),
    st.builds(pow, st.sampled_from(SMALL_PRIMES + BIG_PRIMES), st.integers(1, 5)),
    # smooth n
    st.lists(st.tuples(st.sampled_from(SMALL_PRIMES), st.integers(1, 4)), max_size=5).map(
        lambda pes: prod(p**e for p, e in dict(pes).items())
    ),
    # squarefree n with a prime beyond the cap
    st.tuples(
        st.sets(st.sampled_from(SMALL_PRIMES), max_size=5),
        st.sets(st.sampled_from(BIG_PRIMES), min_size=1),
    ).map(lambda sets: prod(sets[0] | sets[1])),
).filter(lambda n: n <= MAX_INT)


# a Union asks a later part only where the parts before it refuse the
# divisor, and an Intersection only where they accept it: at 5p neither
# asks SmoothOver about p, whose index it cannot read
@settings(max_examples=400, deadline=None)
@given(any_sets, divided, st.none() | st.randoms(use_true_random=False))
@example(Union((Primes(), SmoothOver(IndexResidue(2, 0)))), 5 * BIG_PRIMES[0], None)
@example(Intersection((Singleton((5,)), SmoothOver(IndexResidue(2, 0)))), 5 * BIG_PRIMES[1], None)
def test_divisor_flags_equal_contains_factored_per_divisor(d, n, rng):
    factors = factorize(n)
    size = prod(e + 1 for e in factors.values())
    where = None if rng is None else [rng.random() < 0.5 for _ in range(size)]
    expected = flags_outcome(lambda: per_divisor(d, factors, where))
    assert flags_outcome(lambda: d.divisor_flags(factors, where)) == expected
