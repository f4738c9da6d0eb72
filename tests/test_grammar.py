"""The set grammar read by parse_set, and the colouring header rule."""

import time
import warnings
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multrep import (
    AllNaturals,
    Complement,
    ExplicitList,
    IndexResidue,
    Intersection,
    PowersOf,
    Primes,
    PrimesWithOne,
    Singleton,
    SmoothOver,
    Squarefree,
    Union,
    load_coloring,
    parse_set,
)

SMALL_PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13])

PRIME_CLASSES = st.recursive(
    st.one_of(
        st.builds(
            lambda m, r: IndexResidue(m, r % m),
            st.integers(2, 12), st.integers(0, 11),
        ),
        st.builds(
            lambda ps: ExplicitList(tuple(ps)),
            st.lists(SMALL_PRIMES, min_size=1, max_size=4),
        ),
    ),
    lambda inner: st.builds(
        lambda c, ps: Complement(c, tuple(ps)), inner, st.lists(SMALL_PRIMES, max_size=4)
    ),
    max_leaves=3,
)

SETS = st.recursive(
    st.one_of(
        st.sampled_from([AllNaturals(), Primes(), PrimesWithOne(), Squarefree()]),
        st.builds(
            lambda vs: Singleton(tuple(vs)),
            st.lists(st.integers(0, 10**20), min_size=1, max_size=4),
        ),
        st.builds(
            lambda base, lo, span: PowersOf(base, lo, None if span is None else lo + span),
            st.integers(2, 50), st.integers(0, 5), st.none() | st.integers(0, 5),
        ),
        st.builds(SmoothOver, PRIME_CLASSES),
    ),
    lambda inner: st.one_of(
        st.builds(lambda ps: Union(tuple(ps)), st.lists(inner, min_size=1, max_size=3)),
        st.builds(
            lambda ps: Intersection(tuple(ps)), st.lists(inner, min_size=1, max_size=3)
        ),
    ),
    max_leaves=8,
)

BLANKS = st.sampled_from(["", "", " ", "  ", "\t", "\n", " \n\t"])


def show(x, draw) -> str:
    """Grammar text for a set or prime class, with drawn blanks around
    every token; PowersOf's unbounded hi is written as inf or left out."""
    if x is None:
        return "inf"
    if isinstance(x, int):
        return str(x)
    args = []
    for f in fields(x):
        value = getattr(x, f.name)
        args += value if isinstance(value, tuple) else [value]
    if args and args[-1] is None and draw(st.booleans()):
        args.pop()
    text = draw(BLANKS) + type(x).__name__ + draw(BLANKS)
    if args:
        text += "(" + ",".join(show(a, draw) for a in args) + ")"
    return text + draw(BLANKS)


@settings(max_examples=300, deadline=None)
@given(SETS, st.data())
def test_printed_sets_parse_back_to_equal_objects(d, data):
    assert parse_set(show(d, data.draw)) == d


MALFORMED = [
    pytest.param("(" * 10**5, id="deep-parentheses"),
    pytest.param("Primes" + "()" * 10**5, id="call-chain"),
    pytest.param("not " * 10**5 + "Primes", id="not-chain"),
    pytest.param("-" * 10**5 + "Primes", id="minus-chain"),
    pytest.param("Primes + Squarefree", id="plus"),
    pytest.param("Primes | Squarefree", id="bar"),
    pytest.param("Singleton(2 * 3)", id="times"),
    pytest.param("Singleton(1.5)", id="float"),
    pytest.param("Singleton(1e3)", id="exponent"),
    pytest.param("Singleton(-1)", id="negative"),
    pytest.param("Singleton(0x10)", id="hex"),
    pytest.param("Singleton(1_000)", id="underscore"),
    pytest.param("Singleton('1')", id="string"),
    pytest.param("Primes.real", id="attribute"),
    pytest.param("PowersOf(base=2, lo=0)", id="keywords"),
    pytest.param("Primes # comment", id="comment"),
    pytest.param("Singleton(1inf)", id="1inf"),
    pytest.param("Primes()", id="empty-call"),
    pytest.param("SmoothOver(ExplicitList())", id="empty-list"),
    pytest.param("", id="empty-text"),
    pytest.param(" \t\n", id="blank-text"),
    pytest.param("Singleton", id="bare-call-kind"),
    pytest.param("IndexResidue(2,0)", id="prime-class"),
    pytest.param("inf", id="inf"),
    pytest.param("(Primes, Squarefree)", id="tuple"),
    pytest.param("Singleton(٣)", id="non-ascii-digit"),
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_text_is_refused_quickly_and_quietly(text, capfd):
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError):
            parse_set(text)
    assert time.perf_counter() - start < 1.0
    assert caught == []
    assert capfd.readouterr().err == ""


def test_trailing_comma_and_redundant_parentheses_are_read():
    assert parse_set("Singleton(1,2,)") == Singleton((1, 2))
    assert parse_set("((Primes))") == Primes()
    assert parse_set("Union((Primes), Squarefree,)") == Union((Primes(), Squarefree()))


def test_leading_zero_integer_is_refused():
    for text, token in (("Singleton(1,007)", "007"), ("PowersOf(2,01)", "01")):
        with pytest.raises(ValueError, match=f"integer '{token}' has a leading zero") as caught:
            parse_set(text)
        assert "0o" not in str(caught.value)
    assert parse_set("Singleton(0,00)") == Singleton((0,))


def nested(depth: int) -> str:
    return "Union(" * depth + "Primes" + ")" * depth


def test_nesting_is_refused_past_200_levels():
    d = parse_set(nested(200))
    for _ in range(200):
        (d,) = d.parts
    assert d == Primes()
    assert parse_set("(" * 200 + "Primes" + ")" * 200) == Primes()
    for text in (nested(201), "(" * 201 + "Primes" + ")" * 201):
        with pytest.raises(ValueError):
            parse_set(text)


def test_coloring_header_may_have_blanks_before_its_colon():
    rows = "1 2 : 0\n1 3 : 1\n2 3 : 0\n"
    loaded = load_coloring("ground : 1 2 3\nk\t: 2\n" + rows)
    expected = load_coloring("ground: 1 2 3\nk: 2\n" + rows)
    assert (loaded.ground, loaded.k, loaded.table) == (
        expected.ground, expected.k, expected.table,
    )
