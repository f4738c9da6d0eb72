import pytest

from multrep import (
    INFINITE,
    AllNaturals,
    PowersOf,
    PrimesWithOne,
    Singleton,
    SmoothOver,
    build,
    closed_form,
    count_system_reps,
    mh_table,
    primorials,
    verify,
)
from multrep.catalog import KEYS, NAMES
from multrep.integer_sets import nth_prime

from conftest import oracle_count_reps


def test_build_fundamental():
    c = build("fundamental", 2)
    assert c.claimed == (1, 1)
    assert all(isinstance(p, SmoothOver) for p in c.system.parts)


def test_build_one_t():
    c = build("one-t", 2, t=3)
    assert c.claimed == (1, 3)
    assert c.system.parts == (AllNaturals(), PowersOf(2, 0, 2))


def test_build_one_t_padding():
    c = build("one-t", 4, t=2)
    assert c.system.parts[2:] == (Singleton((1,)), Singleton((1,)))


def test_build_s_inf():
    c = build("s-inf", 3, s=2)
    assert c.claimed == (2, INFINITE)
    assert c.system.parts == (AllNaturals(), PrimesWithOne(), Singleton((1,)))


def test_build_parameter_ranges():
    with pytest.raises(ValueError):
        build("fundamental", 1)
    with pytest.raises(ValueError):
        build("one-t", 2, t=0)
    with pytest.raises(ValueError):
        build("s-inf", 2, s=3)
    with pytest.raises(ValueError):
        build("nope", 2)


# the keys each construction takes besides h, with a value it accepts
OWN_KEYS = {"fundamental": {}, "one-t": {"t": 2}, "one-inf": {}, "s-inf": {"s": 2}}


def test_names_come_from_the_key_table():
    assert NAMES == tuple(KEYS) == tuple(OWN_KEYS)
    assert {name: set(keys) for name, keys in KEYS.items()} == {
        name: {"h", *own} for name, own in OWN_KEYS.items()
    }


@pytest.mark.parametrize("key", ["t", "s"])
@pytest.mark.parametrize("name", list(OWN_KEYS))
def test_build_refuses_a_key_its_construction_does_not_take(name, key):
    own = OWN_KEYS[name]
    if key in own:
        assert getattr(build(name, 3, **{**own, key: 3}), key) == 3
    else:
        with pytest.raises(ValueError, match=f"^{name} takes only h"):
            build(name, 3, **own, **{key: 2})
        # None means the key is not given
        assert build(name, 3, **own, **{key: None}) == build(name, 3, **own)


@pytest.mark.parametrize("name", list(OWN_KEYS))
def test_build_takes_every_key_with_none_for_one_not_given(name):
    own = OWN_KEYS[name]
    assert build(name, 3, t=own.get("t"), s=own.get("s")) == build(name, 3, **own)
    # h defaults to 2
    assert build(name, **own) == build(name, 2, **own)


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("fundamental", {}),
        ("one-t", {"t": 1}),
        ("one-t", {"t": 2}),
        ("one-t", {"t": 5}),
        ("one-inf", {}),
        ("s-inf", {"s": 2}),
    ],
)
def test_closed_form_matches_oracle(name, kwargs):
    c = build(name, 2, **kwargs)
    for n in range(1, 300):
        assert closed_form(c, n) == oracle_count_reps(c.system, n)


def test_closed_form_matches_oracle_h3():
    for s in (2, 3):
        c = build("s-inf", 3, s=s)
        for n in range(1, 200):
            assert closed_form(c, n) == oracle_count_reps(c.system, n)


def test_verify_one_t():
    report = verify(build("one-t", 2, t=2), 1000)
    assert report.ok and report.all_match
    assert (report.window.min_count, report.window.max_count) == (1, 2)


def test_verify_fundamental_h3():
    report = verify(build("fundamental", 3), 500)
    assert report.ok
    assert report.window.min_count == report.window.max_count == 1


def test_verify_s_inf_prime_values_and_evidence():
    report = verify(build("s-inf", 2, s=2), 300)
    assert report.prime_values_ok
    assert len(report.prime_values) == 100
    assert all(c == 2 for _, c in report.prime_values)
    counts = [c for _, _, c in report.evidence]
    assert all(b > a for a, b in zip(counts, counts[1:]))
    for k, n, c in report.evidence:
        assert c >= k


def test_verify_one_inf_evidence_monotone():
    report = verify(build("one-inf", 2), 200)
    counts = [c for _, _, c in report.evidence]
    assert counts == list(range(2, 12))  # count at 2^k is k+1, k = 1..10


def test_closed_form_and_verify_refuse_a_range_below_their_start():
    c = build("fundamental", 2)
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        closed_form(c, 0)
    with pytest.raises(ValueError, match="^scan_max must be >= 2$"):
        verify(c, 1)


def test_verify_rows():
    report = verify(build("one-t", 2, t=2), 50, keep_rows=True)
    assert len(report.rows) == 50
    assert all(c == b for _, c, b in report.rows)


def test_prime_cap_on_window():
    # all parts contain 1, so the window minimum never exceeds h
    for name, kwargs in (("fundamental", {}), ("s-inf", {"s": 3}),):
        c = build(name, 3, **kwargs)
        report = verify(c, 200)
        assert report.window.min_count <= 3


def test_primorials_stop_before_overflow():
    ps = primorials()
    assert ps[:5] == [2, 6, 30, 210, 2310]
    assert ps[-1] == 614889782588491410  # 2*3*...*47
    assert ps[-1] * 53 > 2**63 - 1


def test_s_inf_primorial_growth():
    system = build("s-inf", 2, s=2).system
    for k, n in enumerate(primorials()[:7], start=1):
        assert count_system_reps(system, n, tuple_cap=0).count >= k


def test_mh_table():
    rows = mh_table(2, 3)
    assert len(rows) == 5
    assert rows[0] == (1, 1, "fundamental")
    assert rows[-1] == (2, INFINITE, "s-inf")

    rows = mh_table(3, 1)
    assert [(s, t) for s, t, _ in rows] == [
        (1, 1), (1, INFINITE), (2, INFINITE), (3, INFINITE),
    ]

    with pytest.raises(ValueError):
        mh_table(1)
    with pytest.raises(ValueError, match="^t_cutoff must be >= 1$"):
        mh_table(2, 0)


@pytest.mark.parametrize(
    "construction", [build("s-inf", 3, s=3), build("s-inf", 2, s=2), build("one-inf", 3)]
)
def test_verify_reads_the_counts_of_single_n(construction):
    report = verify(construction, 30)
    system = construction.system

    def count(n):
        return count_system_reps(system, n, tuple_cap=0).count

    if construction.name == "s-inf":
        primes = [nth_prime(k) for k in range(1, 101)]
        assert report.prime_values == [(p, count(p)) for p in primes]
        seq = list(enumerate(primorials(), start=1))[:10]
    else:
        assert report.prime_values is None
        seq = [(k, 2**k) for k in range(1, 11)]
    assert report.evidence == [(k, n, count(n)) for k, n in seq]
