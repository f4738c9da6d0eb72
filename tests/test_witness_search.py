import time
from itertools import islice

import pytest

from multrep import (
    AllNaturals,
    MultiplicativeSystem,
    PrimesWithOne,
    RepWitness,
    ResourceLimitError,
    SearchBudget,
    SearchOutcome,
    Singleton,
    basis_system,
    build,
    candidate_stream,
    count_system_reps,
    find_witness,
)
from multrep import repcount
from multrep.cli import parse_system_spec
from multrep.integer_sets import factorize
from multrep.witness_search import STRATEGIES, check_witness

from conftest import naive_divisors, sieve_squarefree


def test_exhaustive_stream():
    assert list(islice(candidate_stream("exhaustive", 100), 3)) == [2, 3, 4]


def test_squarefree_rich_stream_order():
    got = list(candidate_stream("squarefree-rich", 30))
    # groups by number of prime factors, ascending value within a group
    assert got == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        6, 10, 14, 15, 21, 22, 26,
        30,
    ]


def test_streams_are_bounded_and_duplicate_free():
    for strategy in ("exhaustive", "squarefree-rich", "hybrid"):
        got = list(candidate_stream(strategy, 50))
        assert all(2 <= n <= 50 for n in got)
        assert len(got) == len(set(got))


def test_stream_determinism():
    for strategy in ("squarefree-rich", "hybrid"):
        a = list(candidate_stream(strategy, 200))
        b = list(candidate_stream(strategy, 200))
        assert a == b


def test_hybrid_covers_everything():
    assert sorted(candidate_stream("hybrid", 60)) == list(range(2, 61))


def test_find_witness_divisor_rich():
    system = basis_system(AllNaturals(), 2)
    budget = SearchBudget(max_candidates=10_000, max_n=10_000, strategy="exhaustive")
    outcome = find_witness(system, 12, budget)
    assert outcome.witness is not None
    n = outcome.witness.n
    assert outcome.witness.count == len(naive_divisors(n)) >= 12
    # the witness carries the same tuple listing as a direct count
    assert outcome.witness == count_system_reps(system, n)
    # exhaustive order: no smaller integer qualifies
    assert all(len(naive_divisors(m)) < 12 for m in range(2, n))


def test_find_witness_negative_honesty():
    system = build("fundamental", 2).system
    budget = SearchBudget(max_candidates=2000, max_n=5000, strategy="hybrid")
    outcome = find_witness(system, 2, budget)
    assert outcome.witness is None
    assert outcome.max_count_seen == 1
    assert outcome.candidates_tried == 2000


def test_find_witness_s_inf_target():
    system = build("s-inf", 2, s=2).system
    budget = SearchBudget(max_candidates=2000, max_n=2000, strategy="squarefree-rich")
    outcome = find_witness(system, 5, budget)
    assert outcome.witness is not None
    assert outcome.witness.count >= 5
    assert outcome.witness.n == 210  # the first 4-prime product in the stream


def test_monotone_escalation():
    system = basis_system(AllNaturals(), 2)
    prev = 0
    for max_n in (100, 1000, 5000):
        budget = SearchBudget(max_candidates=max_n, max_n=max_n, strategy="exhaustive")
        outcome = find_witness(system, 10**9, budget)
        assert outcome.max_count_seen >= prev
        prev = outcome.max_count_seen


def test_squarefree_rich_streams_refuse_a_huge_prime_table():
    # the stream lists the primes up to max_n, a sieve past the cap
    system = basis_system(AllNaturals(), 2)
    for strategy in ("hybrid", "squarefree-rich"):
        budget = SearchBudget(max_n=10**10, strategy=strategy)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            find_witness(system, 10**9, budget)
        assert time.perf_counter() - start < 1.0


def test_default_budget_answers():
    outcome = find_witness(basis_system(AllNaturals(), 3), 1000, SearchBudget())
    assert (outcome.witness.n, outcome.witness.count) == (10080, 1134)
    assert outcome.candidates_tried == 17686


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_candidates=0)
    with pytest.raises(ValueError):
        SearchBudget(strategy="magic")
    for max_n in (1, 0, -5):
        with pytest.raises(ValueError, match="^max_n must be >= 2$"):
            SearchBudget(max_n=max_n)
    for strategy in STRATEGIES:  # each stream starts at 2
        assert list(candidate_stream(strategy, SearchBudget(max_n=2).max_n)) == [2]
    with pytest.raises(ValueError, match="^strategy must be one of"):
        candidate_stream("bogus", 10)  # at the call, before any next
    with pytest.raises(ValueError, match="^target must be >= 1$"):
        find_witness(basis_system(AllNaturals(), 2), 0, SearchBudget())


@pytest.mark.parametrize(
    "witness, message",
    [
        (RepWitness(6, 1, ((6, 2),), False), r"tuple \(6, 2\) fails membership at 2"),
        (RepWitness(6, 1, ((3, 1),), False), r"tuple \(3, 1\) does not multiply to 6"),
        (RepWitness(6, 2, ((6, 1), (6, 1)), False), "duplicate tuples in witness"),
        (RepWitness(6, 1, ((6, 1), (1, 6)), False), "count smaller than the listed tuples"),
    ],
    ids=["outside-its-part", "wrong-product", "repeated-tuple", "count-too-small"],
)
def test_check_witness_rejects_a_forged_witness(witness, message):
    system = MultiplicativeSystem((AllNaturals(), Singleton((1, 6))))
    with pytest.raises(AssertionError, match=f"^{message}$"):
        check_witness(system, witness)


def reference_search(system, target, budget):
    """The search spelled out: one count per candidate, the largest count
    seen with its smallest n, stopping at the first count >= target."""
    tried, best, best_n = 0, 0, None
    for n in candidate_stream(budget.strategy, budget.max_n):
        if tried >= budget.max_candidates:
            break
        tried += 1
        count = count_system_reps(system, n, tuple_cap=0).count
        if count > best:
            best, best_n = count, n
        elif count == best and best_n is not None and n < best_n:
            best_n = n
        if count >= target:
            return SearchOutcome(count_system_reps(system, n), tried, best, best_n)
    return SearchOutcome(None, tried, best, best_n)


@pytest.mark.parametrize(
    "spec",
    [
        "parts:AllNaturals;AllNaturals",
        "parts:AllNaturals;AllNaturals;AllNaturals;AllNaturals",
        "fundamental:h=2",
        "one-inf:h=2",
        "s-inf:h=4,s=4",
        "parts:Union(Singleton(1,2,3,4,6,12),Primes);PrimesWithOne;PrimesWithOne",
        # hybrid meets 5 before 4, both of count 1: the argmax tie rule
        "parts:Singleton(1,5);Singleton(1,4)",
    ],
)
def test_find_witness_matches_a_reference_loop(spec):
    system = parse_system_spec(spec)
    for strategy in STRATEGIES:
        for target in (2, 30, 10**9):
            # 137 candidates cut every stream before its end
            for max_candidates in (10**6, 137):
                budget = SearchBudget(max_candidates, 1500, strategy)
                outcome = find_witness(system, target, budget)
                assert outcome == reference_search(system, target, budget)


class PrimesWithOneUnlisted(PrimesWithOne):
    """PrimesWithOne that refuses to list its members."""

    def iter_up_to(self, limit):
        raise AssertionError("a candidate stream was counted as a window")


def test_witness_streams_never_list_members():
    part = PrimesWithOneUnlisted()
    system = MultiplicativeSystem((AllNaturals(), part, part))
    for strategy in ("exhaustive", "hybrid"):
        budget = SearchBudget(max_n=10**6, strategy=strategy)
        outcome = find_witness(system, 9, budget)
        assert (outcome.witness.n, outcome.witness.count) == (30, 13)


@pytest.mark.parametrize(
    "spec, target, strategy, found, tried, best",
    [
        ("parts:AllNaturals;AllNaturals", 48, "exhaustive", 2520, 2519, 48),
        ("parts:AllNaturals;AllNaturals;AllNaturals;AllNaturals", 1000, "hybrid",
         720, 1184, 1400),
    ],
)
def test_multiplicative_streams_below_the_sieve_factor_only_the_witness(
    monkeypatch, spec, target, strategy, found, tried, best
):
    # each candidate's count is read from the sieve; only the witness,
    # whose tuples count_system_reps lists, is factored
    factored = []

    def factor(n):
        factored.append(n)
        return factorize(n)

    monkeypatch.setattr(repcount, "factorize", factor)
    budget = SearchBudget(max_n=1 << 20, strategy=strategy)
    outcome = find_witness(parse_system_spec(spec), target, budget)
    assert (outcome.witness.n, outcome.candidates_tried) == (found, tried)
    assert (outcome.max_count_seen, outcome.argmax) == (best, found)
    assert factored == [found]


def distinct_prime_counts(limit):
    """omega[n], the number of distinct primes dividing n, for n <= limit."""
    omega = [0] * (limit + 1)
    for p in range(2, limit + 1):
        if omega[p] == 0:
            for q in range(p, limit + 1, p):
                omega[q] += 1
    return omega


@pytest.mark.parametrize("max_n", [1, 2, 3, 30, 30030, 10**5])
def test_squarefree_rich_stream_matches_a_brute_force_order(max_n):
    omega = distinct_prime_counts(max_n)
    expected = sorted(
        (n for n in sieve_squarefree(max_n) if n >= 2), key=lambda n: (omega[n], n)
    )
    assert list(candidate_stream("squarefree-rich", max_n)) == expected


@pytest.mark.parametrize(
    "spec,target,max_n,max_candidates,outcomes",
    [
        ("parts:AllNaturals;AllNaturals;AllNaturals", 1000, 10**5, 200_000, {
            "exhaustive": ((10080, 1134), 10079, 1134, 10080),
            "squarefree-rich": (None, 60793, 729, 30030),
            "hybrid": ((10080, 1134), 17686, 1134, 10080),
        }),
        ("s-inf:h=4,s=4", 60, 2**20, 2000, {
            "exhaustive": ((210, 73), 209, 73, 210),
            "squarefree-rich": (None, 2000, 4, 2),
            "hybrid": ((210, 73), 328, 73, 210),
        }),
        ("parts:Union(Singleton(1,2,3,4,6,12),Primes);PrimesWithOne;PrimesWithOne",
         8, 2**20, 2000, {
            "exhaustive": ((12, 8), 11, 8, 12),
            "squarefree-rich": (None, 2000, 3, 2),
            "hybrid": ((12, 8), 14, 8, 12),
        }),
    ],
)
def test_find_witness_outcomes_are_pinned(spec, target, max_n, max_candidates, outcomes):
    system = parse_system_spec(spec)
    for strategy in STRATEGIES:
        budget = SearchBudget(max_candidates, max_n, strategy)
        o = find_witness(system, target, budget)
        w = None if o.witness is None else (o.witness.n, o.witness.count)
        assert (w, o.candidates_tried, o.max_count_seen, o.argmax) == outcomes[strategy]
