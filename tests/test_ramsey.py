import gc
import random
import sys
import threading
import time
import tracemalloc
import weakref
from collections import OrderedDict
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multrep import (
    CapacityOverflowError,
    Coloring,
    HomogeneousChain,
    ResourceLimitError,
    SearchBudgetExceeded,
    constant_coloring,
    decode_product_index,
    doubly_iterated_chain,
    dump_coloring,
    find_homogeneous,
    homogeneous_color,
    iterated_chain,
    load_coloring,
    product_coloring,
    random_coloring,
    verify_chain,
)
from multrep import ramsey
from multrep.ramsey import TABLE_CAP
from multrep.ramsey import Coloring as _Coloring

from conftest import oracle_homogeneous, pentagon_coloring

DATA = Path(__file__).parent / "data"


def parity_coloring(n=10):
    return Coloring(
        tuple(range(1, n + 1)), 1, {frozenset({i}): i % 2 for i in range(1, n + 1)}
    )


def test_coloring_totality_validated():
    with pytest.raises(ValueError):
        Coloring((1, 2, 3), 2, {frozenset({1, 2}): 0})


def test_find_homogeneous_parity():
    # both parity classes are homogeneous; the odd class is lexicographically
    # least among the size-5 witnesses
    assert find_homogeneous(parity_coloring(), 5) == (1, 3, 5, 7, 9)


def test_pentagon_has_no_monochromatic_triangle(pentagon):
    assert find_homogeneous(pentagon, 3) is None
    # exhaustive cross-check of all 10 triangles
    for tri in combinations(range(1, 6), 3):
        assert homogeneous_color(pentagon, tri) is None


def test_every_two_coloring_of_k6_has_triangle():
    rng = random.Random(11)
    for _ in range(300):
        c = random_coloring(range(1, 7), 2, 2, rng)
        found = find_homogeneous(c, 3)
        assert found is not None
        assert homogeneous_color(c, found) is not None


def test_search_is_lexicographically_least():
    rng = random.Random(3)
    for _ in range(50):
        c = random_coloring(range(1, 7), 2, 2, rng)
        found = find_homogeneous(c, 3)
        all_wins = sorted(
            tri
            for tri in combinations(range(1, 7), 3)
            if homogeneous_color(c, tri) is not None
        )
        assert found == all_wins[0]


def test_budget_exhaustion_is_distinct_from_none():
    rng = random.Random(5)
    c = random_coloring(range(1, 13), 2, 2, rng)
    with pytest.raises(SearchBudgetExceeded):
        find_homogeneous(c, 12, budget=1)


def test_a_negative_budget_is_refused_before_any_search(pentagon):
    # before m is read: 6 exceeds the ground of 5, and -1 is refused too
    for m in (3, 6, -1):
        with pytest.raises(ValueError, match="budget must be >= 0"):
            find_homogeneous(pentagon, m, budget=-1)
    levels = [constant_coloring(pentagon.ground, 0), pentagon]
    for sizes in ([5, 3], [6, 3]):
        with pytest.raises(ValueError, match="budget must be >= 0"):
            iterated_chain(levels, sizes, budget=-1)
    # a budget of 0 is spent at the first position tried
    with pytest.raises(SearchBudgetExceeded):
        find_homogeneous(pentagon, 3, budget=0)


def test_a_negative_size_is_refused_before_any_search(pentagon):
    for coloring in (pentagon, constant_coloring(tuple(range(1, 7)), 0)):
        with pytest.raises(ValueError, match="m must be >= 0"):
            find_homogeneous(coloring, -1, budget=0)
    # a size below k is no error: no such subset is asked for
    assert find_homogeneous(pentagon, 0) is None
    assert find_homogeneous(pentagon, 1) is None


def test_iterated_chain_k0():
    ground = tuple(range(1, 7))
    chain = iterated_chain([constant_coloring(ground, 0, color=4)], [6])
    assert chain.subsets == (ground,)
    assert chain.epsilons == (4,)


def test_iterated_chain_parity():
    colorings = [constant_coloring(range(1, 11), 0), parity_coloring(10)]
    chain = iterated_chain(colorings, [10, 5])
    assert chain.subsets[1] == (1, 3, 5, 7, 9)
    assert chain.epsilons[1] == 1
    assert verify_chain(colorings, chain)


def test_iterated_chain_constant_edges():
    ground = range(1, 7)
    colorings = [
        constant_coloring(ground, 0),
        constant_coloring(ground, 1, color=2),
        constant_coloring(ground, 2, color=1),
    ]
    chain = iterated_chain(colorings, [6, 6, 3])
    assert len(chain.subsets[2]) == 3
    assert chain.epsilons == (0, 2, 1)
    assert verify_chain(colorings, chain)


def test_chain_restriction_is_nested():
    rng = random.Random(9)
    ground = range(1, 9)
    for _ in range(20):
        colorings = [
            constant_coloring(ground, 0),
            random_coloring(ground, 1, 2, rng),
            random_coloring(ground, 2, 2, rng),
        ]
        chain = iterated_chain(colorings, [8, 4, 3])
        if chain is None:
            continue
        assert verify_chain(colorings, chain)
        for a, b in zip(chain.subsets, chain.subsets[1:]):
            assert set(b) <= set(a)


def test_verify_chain_rejects_one_wrong_color():
    ground = range(1, 7)
    colorings = [
        constant_coloring(ground, 0),
        constant_coloring(ground, 1, color=2),
        constant_coloring(ground, 2, color=1),
    ]
    chain = iterated_chain(colorings, [6, 4, 3])
    assert verify_chain(colorings, chain)
    wrong_eps = HomogeneousChain(chain.subsets, chain.epsilons[:2] + (0,))
    assert not verify_chain(colorings, wrong_eps)
    edge = next(combinations(chain.subsets[2], 2))
    recolored = Coloring(
        ground, 2, {frozenset(c): int(c == edge) for c in combinations(ground, 2)}
    )
    assert not verify_chain(colorings[:2] + [recolored], chain)


def test_verify_chain_passes_levels_with_fewer_than_k_elements():
    ground = range(1, 5)
    colorings = [
        constant_coloring(ground, 0, color=3),
        constant_coloring(ground, 1, color=1),
        random_coloring(ground, 2, 2, random.Random(0)),
    ]
    # X_2 = {1}, and {1, 1} has one element: no 2-subset to check
    for last in ((1,), (1, 1)):
        chain = HomogeneousChain(((1, 2, 3), (1, 2), last), (3, 1, 7))
        assert verify_chain(colorings, chain)
    # X_2 = {1, 2} has one 2-subset, whose color is not 7
    chain = HomogeneousChain(((1, 2, 3), (1, 2), (1, 2)), (3, 1, 7))
    assert not verify_chain(colorings, chain)


def test_chain_size_validation():
    with pytest.raises(ValueError):
        iterated_chain([constant_coloring(range(3), 0)], [1, 2])
    with pytest.raises(ValueError):
        iterated_chain(
            [constant_coloring(range(3), 0), constant_coloring(range(3), 1)],
            [2, 3],
        )
    levels = [constant_coloring(range(3), k) for k in range(3)]
    for colorings, sizes, message in [
        ([], [], "need at least the k=0 level"),
        (levels[1:], [3, 3], "level 0 coloring has k = 1"),
        ([levels[0], constant_coloring(range(4), 1)], [3, 3],
         "all levels must share one ground set"),
        (levels, [3, 3, 1], r"sizes\[k\] must be >= k"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            iterated_chain(colorings, sizes)


def test_product_coloring_encoding():
    ground = range(1, 5)
    rng = random.Random(2)
    a = random_coloring(ground, 2, 2, rng)
    b = random_coloring(ground, 2, 2, rng)
    prod_c = product_coloring([a, b])
    for subset in a.colors:
        idx = prod_c.colors[subset]
        assert decode_product_index(idx, [2, 2]) == (
            a.colors[subset],
            b.colors[subset],
        )
    # (0 under first, 1 under second) -> row-major index 1
    assert decode_product_index(1, [2, 2]) == (0, 1)


def test_product_of_single_coloring_is_identity():
    rng = random.Random(4)
    c = random_coloring(range(1, 6), 2, 3, rng)
    assert product_coloring([c]).colors == c.colors


def test_product_homogeneous_iff_factorwise_exhaustive_k1():
    ground = tuple(range(1, 7))
    singles = [frozenset({x}) for x in ground]
    for bits_a in range(64):
        a = _Coloring(ground, 1, {s: (bits_a >> i) & 1 for i, s in enumerate(singles)})
        for bits_b in (0, 21, 63, bits_a):
            b = _Coloring(
                ground, 1, {s: (bits_b >> i) & 1 for i, s in enumerate(singles)}
            )
            pc = product_coloring([a, b])
            for size in (2, 4):
                for subset in combinations(ground, size):
                    both = (
                        homogeneous_color(a, subset) is not None
                        and homogeneous_color(b, subset) is not None
                    )
                    assert (homogeneous_color(pc, subset) is not None) == both


def test_product_homogeneous_iff_factorwise_sampled_k2():
    rng = random.Random(6)
    ground = tuple(range(1, 7))
    for _ in range(100):
        a = random_coloring(ground, 2, 2, rng)
        b = random_coloring(ground, 2, 2, rng)
        pc = product_coloring([a, b])
        for size in (3, 4):
            for subset in combinations(ground, size):
                both = (
                    homogeneous_color(a, subset) is not None
                    and homogeneous_color(b, subset) is not None
                )
                assert (homogeneous_color(pc, subset) is not None) == both


def test_product_coloring_refuses_no_factor_and_unlike_factors():
    with pytest.raises(ValueError, match="^need at least one factor coloring$"):
        product_coloring([])
    c = constant_coloring(range(1, 4), 1)
    for other in (constant_coloring(range(1, 4), 2), constant_coloring(range(1, 5), 1)):
        with pytest.raises(ValueError, match="^factors must share ground set and k$"):
            product_coloring([c, other])


def test_product_overflow():
    ground = range(1, 4)
    c = constant_coloring(ground, 1, color=2**32)
    with pytest.raises(CapacityOverflowError):
        product_coloring([c, c])


def test_doubly_iterated_constant():
    ground = range(1, 7)
    levels = [
        [constant_coloring(ground, 0)],
        [constant_coloring(ground, 1), constant_coloring(ground, 1, color=1)],
        [constant_coloring(ground, 2)],
    ]
    chain = doubly_iterated_chain(levels, [6, 6, 6])
    assert chain.subsets == (tuple(range(1, 7)),) * 3
    assert chain.epsilons[1] == (0, 1)


def test_doubly_iterated_indicator_families():
    # per-slot indicator colorings of the size-1 and size-2 families
    ground = tuple(range(1, 7))
    levels = []
    for k in range(3):
        level = []
        for sizes in ({1}, {2}):
            colors = {
                frozenset(c): int(len(c) in sizes)
                for c in combinations(ground, k)
            }
            level.append(_Coloring(ground, k, colors))
        levels.append(level)
    chain = doubly_iterated_chain(levels, [6, 4, 3])
    assert chain is not None
    assert len(chain.subsets[2]) >= 3
    # at level k, the epsilon pair is the indicator values (k==1, k==2)
    assert chain.epsilons[1] == (1, 0)
    assert chain.epsilons[2] == (0, 1)


def test_doubly_iterated_empty_level_rejected():
    with pytest.raises(ValueError):
        doubly_iterated_chain([[]], [5])


def test_coloring_file_roundtrip(pentagon, tmp_path):
    text = dump_coloring(pentagon)
    loaded = load_coloring(text)
    assert loaded.ground == pentagon.ground
    assert loaded.k == pentagon.k
    assert loaded.colors == pentagon.colors


def test_coloring_file_totality_checked():
    text = "ground: 1 2 3\nk: 2\n1 2 : 0\n"
    with pytest.raises(ValueError):
        load_coloring(text)


def test_rank_follows_combinations_order():
    for n in range(7):
        ground = tuple(3 * x - 5 for x in range(n))
        for k in range(n + 2):
            coloring = constant_coloring(ground, k)
            ranks = [coloring.rank(s[::-1]) for s in combinations(ground, k)]
            assert ranks == list(range(comb(n, k))) and len(coloring.table) == comb(n, k)
    coloring = constant_coloring((1, 2, 3), 2)
    for bad in ((1,), (1, 2, 3), (1, 4)):
        with pytest.raises(KeyError):
            coloring.rank(bad)


def test_colors_view_is_read_only():
    coloring = constant_coloring((1, 2), 1)
    assert coloring.colors == {frozenset({1}): 0, frozenset({2}): 0}
    with pytest.raises(TypeError):
        coloring.colors[frozenset({1})] = 1


def test_within_repeats_count_once():
    for k in (1, 2):
        coloring = constant_coloring(range(1, 5), k)
        assert find_homogeneous(coloring, 2, within=[1, 1]) is None
        assert find_homogeneous(coloring, 2, within=[3, 1, 1]) == (1, 3)


def test_within_outside_ground_rejected():
    with pytest.raises(ValueError):
        find_homogeneous(constant_coloring(range(1, 5), 1), 1, within=[0, 1])


@st.composite
def colorings(draw, max_size=7):
    """(ground, k, {frozenset: color}) on distinct ints with gaps and signs."""
    ground = draw(st.sets(st.integers(-40, 40), max_size=max_size))
    k = draw(st.integers(0, 3))
    subsets = [frozenset(c) for c in combinations(sorted(ground), k)]
    values = draw(
        st.lists(st.integers(0, 2), min_size=len(subsets), max_size=len(subsets))
    )
    return ground, k, dict(zip(subsets, values))


@settings(max_examples=300, deadline=None)
@given(colorings(), st.integers(0, 8), st.data())
def test_find_homogeneous_matches_oracle(spec, m, data):
    ground, k, colors = spec
    within = None
    if ground and data.draw(st.booleans()):
        within = data.draw(st.lists(st.sampled_from(sorted(ground)), max_size=9))
    search = ground if within is None else set(within)
    found = find_homogeneous(Coloring(ground, k, colors), m, within=within)
    assert found == oracle_homogeneous(colors, search, k, m)


def paley(p, seed):
    """{frozenset pair: color} of the Paley graph on Z/p, its vertices
    relabelled by a seeded permutation: a pair whose difference is a
    nonzero square has color 0, any other pair color 1."""
    squares = {x * x % p for x in range(1, p)}
    label = list(range(p))
    random.Random(seed).shuffle(label)
    return {
        frozenset((label[a], label[b])): int((b - a) % p not in squares)
        for a, b in combinations(range(p), 2)
    }


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("p", [13, 17])
def test_paley_searches_match_the_oracle(p, seed):
    # both colors of Paley(13) and Paley(17) hold triangles and no K4
    colors = paley(p, seed)
    coloring = Coloring(range(p), 2, colors)
    found = find_homogeneous(coloring, 3)
    assert found is not None
    assert found == oracle_homogeneous(colors, range(p), 2, 3)
    assert find_homogeneous(coloring, 4) is None
    assert oracle_homogeneous(colors, range(p), 2, 4) is None


@settings(max_examples=150, deadline=None)
@given(
    st.integers(9, 11),
    st.integers(1, 3),
    st.integers(3, 4),
    st.integers(0, 8),
    st.integers(0, 2**32),
    st.data(),
)
def test_find_homogeneous_matches_oracle_beyond_seven_elements(
    n, k, num_colors, m, seed, data
):
    coloring = random_coloring(range(n), k, num_colors, random.Random(seed))
    within = None
    if data.draw(st.booleans()):
        within = data.draw(st.lists(st.integers(0, n - 1), max_size=n + 2))
    search = range(n) if within is None else set(within)
    found = find_homogeneous(coloring, m, within=within)
    assert found == oracle_homogeneous(coloring.colors, search, k, m)


@settings(max_examples=150, deadline=None)
@given(colorings(max_size=9), st.integers(0, 6))
def test_every_budget_resolves_to_the_oracle_or_raises(spec, m):
    ground, k, colors = spec
    coloring = Coloring(ground, k, colors)
    expected = oracle_homogeneous(colors, ground, k, m)
    reached = []
    for budget in range(60):
        try:
            found = find_homogeneous(coloring, m, budget=budget)
        except SearchBudgetExceeded:
            # a larger budget never loses an answer already reached
            assert not reached
            continue
        assert found == expected
        reached.append(found)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_product_color_is_row_major_index(data):
    ground = data.draw(st.sets(st.integers(-40, 40), max_size=6))
    k = data.draw(st.integers(0, 3))
    subsets = [frozenset(c) for c in combinations(sorted(ground), k)]
    factor = st.lists(st.integers(0, 4), min_size=len(subsets), max_size=len(subsets))
    factors = data.draw(st.lists(factor, min_size=1, max_size=3))
    maps = [dict(zip(subsets, f)) for f in factors]
    radices = [max(c.values(), default=0) + 1 for c in maps]
    expected = {}
    for s in subsets:
        idx = 0
        for c, r in zip(maps, radices):
            idx = idx * r + c[s]
        expected[s] = idx
    assert product_coloring([Coloring(ground, k, c) for c in maps]).colors == expected


@settings(max_examples=200, deadline=None)
@given(colorings())
def test_dump_load_roundtrip_keeps_colors(spec):
    coloring = Coloring(*spec)
    assert coloring.colors == spec[2]
    assert load_coloring(dump_coloring(coloring)).colors == coloring.colors


def _colors(rows):
    return {frozenset(s): c for s, c in rows}


TRIANGLE = _colors((((1, 2), 0), ((1, 3), 1), ((2, 3), 0)))


@pytest.mark.parametrize(
    "text, ground, colors",
    [
        ("ground: 1 2 3\nk: 2\n2 3 : 0\n1 2 : 0\n1 3 : 1\n", (1, 2, 3), TRIANGLE),
        ("ground: 1 2 3\nk: 2\n2 1 : 0\n1  3 : 1\n\t3   2:0 \n", (1, 2, 3), TRIANGLE),
        ("ground: 1 2\nk: 1\n1 1 : 0\n2 : 1\n", (1, 2), _colors((((1,), 0), ((2,), 1)))),
        (
            "# a triangle\nground: 1 2 3  # ground\n\nk: 2\n1 2 : 0  # edge\n"
            "\n   \n1 3 : 1\n2 3 : 0\n",
            (1, 2, 3),
            TRIANGLE,
        ),
        ("1 2 : 0\n1 3 : 1\n2 3 : 0\nk: 2\nground: 1 2 3\n", (1, 2, 3), TRIANGLE),
        ("ground: 3 1 2 3 1\nk: 2\n1 2 : 0\n1 3 : 1\n2 3 : 0\n", (1, 2, 3), TRIANGLE),
    ],
    ids=["rows-out-of-order", "spacing-and-order", "repeated-element",
         "comments-and-blanks", "headers-last", "repeated-ground"],
)
def test_load_accepts_rows_as_written(text, ground, colors):
    loaded = load_coloring(text)
    assert loaded.ground == ground
    assert loaded.colors == colors


HEADER = "ground: 1 2 3\nk: 2\n"
FULL = "1 2 : 0\n1 3 : 1\n2 3 : 0\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (HEADER + FULL + "3 2 : 1\n", r"duplicate subset in coloring: \[2, 3\]"),
        (HEADER + "1 2 : 0\n1 3 : 1\n", r"\(missing 1, extraneous 0\)"),
        (HEADER + FULL + "1 4 : 0\n", r"\(missing 0, extraneous 1\)"),
        (HEADER + FULL + "1 4 : 0\n4 1 : 1\n", r"duplicate subset in coloring: \[1, 4\]"),
        (HEADER + "1 2 : 0\n1 3 : 1\n1 2 3 : 0\n", r"\(missing 1, extraneous 1\)"),
        (HEADER + "1 2 : 0\n1 3 : -1\n2 3 : 0\n", "color indices must be >= 0"),
        (HEADER + "1 2 : 0\n1 3 1\n2 3 : 0\n", "bad coloring line: '1 3 1'"),
        ("ground: 1 2 3\n" + FULL, "needs 'ground:' and 'k:' lines"),
        ("ground: 1 2 3\nk: -1\n", "k must be >= 0"),
        ("ground: 1 2\n" + HEADER + FULL, "more than one 'ground:' line"),
        ("ground: 1 2 3\nk: 1\nk: 2\n" + FULL, "more than one 'k:' line"),
        ("ground: a b\nk: 1\na : 0\nb : 0\n", "^bad coloring line: 'ground: a b'$"),
        ("ground: 1 2\nk: x  # k\n", r"^bad coloring line: 'k: x  # k'$"),
        ("ground: 1 2\nk: 1\n1 : x\n2 : 0\n", "^bad coloring line: '1 : x'$"),
        ("ground: 1 2\nk: 1\n2 : 0\n1  :  1.5 # c\n", "^bad coloring line: '1  :  1.5 # c'$"),
        (HEADER + "1 2 : 0\n1 x : 1\n2 3 : 0\n", "^bad coloring line: '1 x : 1'$"),
        (HEADER + FULL + "1 4 : x\n", "^bad coloring line: '1 4 : x'$"),
        ("ground: 1 2\r\nk: 1\r\n1 : 0\r\n2 : x\r\n", "^bad coloring line: '2 : x'$"),
        ("ground: 1 2\nk: 1\n1 : 0 # was: x\n2 : x\n", "^bad coloring line: '2 : x'$"),
    ],
    ids=["duplicate-reordered", "missing-row", "outside-ground", "outside-ground-twice",
         "wrong-size", "negative-color", "no-colon", "no-k-header", "negative-k",
         "repeated-ground-header", "repeated-k-header", "non-int-ground", "non-int-k",
         "non-int-color", "fractional-color", "non-int-element", "non-int-extra-color",
         "crlf-non-int-color", "non-int-color-after-comment"],
)
def test_load_rejects_invalid_file(text, message):
    with pytest.raises(ValueError, match=message) as exc:
        load_coloring(text)
    assert "int()" not in str(exc.value)


def _read(load, text):
    """(ground, k, table) of a load, or the type and message it raised."""
    try:
        c = load(text)
    except (ValueError, ResourceLimitError) as exc:
        return type(exc), str(exc)
    return c.ground, c.k, c.table


def _same_length_mutants(head, rows, ground):
    """The bodies that keep the length of the dump head + rows but change
    a color, a row's order or spacing, or a ground element."""
    bodies = {}
    if rows:
        text, _, color = rows[0].rpartition(" : ")
        bodies["letters"] = head + [f"{text} : {'x' * len(color)}"] + rows[1:]
        # "a b : 5" read as "a b :5 "
        bodies["digit-before-space"] = head + [f"{text} :{color} "] + rows[1:]
    at = {}
    for r, row in enumerate(rows):
        at.setdefault(len(row), []).append(r)
    pair = next((rs for rs in at.values() if len(rs) > 1), None)
    if pair:
        swapped = rows[:]
        swapped[pair[0]], swapped[pair[-1]] = rows[pair[-1]], rows[pair[0]]
        bodies["rows-swapped"] = head + swapped
    if ground:
        x = ground[-1]
        y = next(y for y in (x + 1, x - 1, x + 2, x - 2)
                 if y not in ground and len(str(y)) == len(str(x)))
        elements = [str(y) if e == x else str(e) for e in ground]
        bodies["other-element"] = ["ground: " + " ".join(elements), head[1]] + rows
    return bodies


def _mutants(text, ground):
    """text and the texts that change its layout, its rows or its colors."""
    head, rows = text.splitlines()[:2], text.splitlines()[2:]
    rng = random.Random(len(text))
    shuffled = rows[:]
    rng.shuffle(shuffled)
    outside = max(ground, default=0) + 1
    lines = {
        "dump": head + rows,
        "shuffled": head + shuffled,
        "comment": head + [row + "  # c" for row in rows],
        "spaces": head + [row.replace(" : ", "  :  ") for row in rows],
        "headers-last": rows + head,
        "missing": head + rows[:-1],
        "duplicate": head + rows + rows[:1],
        "extra": head + rows + [f"{outside} : 0"],
        "plus": head + [row.replace(" : ", " : +") for row in rows],
        "zeros": head + [row.replace(" : ", " : 00") for row in rows],
        "negative": head + rows[:-1] + [rows[-1].rpartition(" : ")[0] + " : -1"] if rows else head,
        "letter": head + rows[:-1] + [rows[-1].rpartition(" : ")[0] + " : x"] if rows else head,
        # more digits than int() reads from a string
        "long": head + rows[:-1] + [rows[-1].rpartition(" : ")[0] + " : " + "1" * 4301]
        if rows
        else head,
        "repeated-header": head + rows + head[1:],
        **_same_length_mutants(head, rows, ground),
    }
    texts = {name: "\n".join(body) + "\n" for name, body in lines.items()}
    texts["crlf"] = text.replace("\n", "\r\n")
    texts["no-final-newline"] = text[:-1]
    return texts


PARITY_COLORINGS = [
    lambda: constant_coloring((9, 4), 0, color=5),
    lambda: random_coloring(range(5), 1, 3, random.Random(1)),
    lambda: random_coloring(range(6), 2, 2, random.Random(2)),
    lambda: random_coloring((40, -7, 0, 3, 11, -2), 3, 3, random.Random(3)),
    lambda: random_coloring(range(-30, 20), 2, 13, random.Random(4)),  # not kept
    lambda: random_coloring(range(-12, -2), 2, 120, random.Random(5)),
    lambda: constant_coloring((1, 2), 3),
]
PARITY_IDS = ["k0", "k1", "k2", "k3", "not-kept", "negative-ground", "no-subsets"]


@pytest.mark.parametrize("build", PARITY_COLORINGS, ids=PARITY_IDS)
def test_load_answers_as_the_line_reader_does(build):
    coloring = build()
    text = dump_coloring(coloring)
    assert _read(load_coloring, text) == (coloring.ground, coloring.k, coloring.table)
    mutants = _mutants(text, coloring.ground)
    for name in ("letters", "digit-before-space", "rows-swapped", "other-element"):
        assert len(mutants.get(name, text)) == len(text), name
    for name, mutant in mutants.items():
        # the line reader alone keeps the shape it reads, so a mutant
        # naming another kept shape is then loaded by its header
        alone = _read(lambda t: ramsey._read_lines(t, None), mutant)
        assert _read(load_coloring, mutant) == alone, name


@pytest.mark.parametrize("build", PARITY_COLORINGS, ids=PARITY_IDS)
def test_dumped_texts_never_reach_the_line_reader(build, monkeypatch):
    coloring = build()
    text = dump_coloring(coloring)

    def refuse(text, shaped):
        raise AssertionError("the line reader read a dump")

    monkeypatch.setattr(ramsey, "_read_lines", refuse)
    assert load_coloring(text) == coloring


def test_a_percent_sign_in_an_element_dumps_as_written():
    singles = Coloring(("a%s", "b"), 1, {frozenset({"a%s"}): 0, frozenset({"b"}): 1})
    assert dump_coloring(singles) == "ground: a%s b\nk: 1\na%s : 0\nb : 1\n"
    pair = Coloring(("b", "%d%%"), 2, {frozenset({"b", "%d%%"}): 3})
    assert dump_coloring(pair) == "ground: %d%% b\nk: 2\n%d%% b : 3\n"


# grounds equal as values, in pairs or threes, whose elements print otherwise
EQUAL_GROUNDS = [
    ((1, 2), "1", "2"),
    ((1.0, 2.0), "1.0", "2.0"),
    ((True, 2), "True", "2"),
    ((0, 1), "0", "1"),
    ((0.0, 1), "0.0", "1"),
    ((-0.0, 1), "-0.0", "1"),
]


@pytest.mark.parametrize("step", [1, -1], ids=["forward", "reversed"])
def test_equal_grounds_that_print_otherwise_dump_as_written(step):
    # the int grounds' shapes kept first, by (ground, k) and by header
    for ground, _, _ in EQUAL_GROUNDS:
        if {type(x) for x in ground} == {int}:
            for k in (1, 2):
                coloring = constant_coloring(ground, k)
                assert load_coloring(dump_coloring(coloring)) == coloring
    for ground, a, b in EQUAL_GROUNDS[::step]:
        singles = {frozenset({ground[0]}): 0, frozenset({ground[1]}): 1}
        coloring = Coloring(ground, 1, singles)
        assert dump_coloring(coloring) == f"ground: {a} {b}\nk: 1\n{a} : 0\n{b} : 1\n"
        assert [repr(x) for s in coloring.colors for x in s] == [a, b]
        pair = Coloring(ground, 2, {frozenset(ground): 3})
        assert dump_coloring(pair) == f"ground: {a} {b}\nk: 2\n{a} {b} : 3\n"


def test_loaded_colorings_share_no_table():
    text = dump_coloring(pentagon_coloring())
    first, second = load_coloring(text), load_coloring(text)
    first.table[0] = 7
    assert dump_coloring(first) != text
    assert second.table == load_coloring(text).table
    assert dump_coloring(second) == text


@pytest.mark.parametrize("reuse", ["load", "dump", "build"])
def test_the_kept_shapes_are_the_last_ones_used(reuse, monkeypatch):
    # 100 shapes go through a dump/load round trip, and one more is used
    # between every two of them: by its header, as a Coloring's own
    # ground, or as an equal tuple of ints
    built = []

    class Counted(ramsey._KeptSubsets):
        def __init__(self, ground, k, size):
            super().__init__(ground, k, size)
            built.append((ground, weakref.ref(self)))

    monkeypatch.setattr(ramsey, "_KeptSubsets", Counted)
    monkeypatch.setattr(ramsey, "_kept_by_header", OrderedDict())
    monkeypatch.setattr(ramsey, "_kept_by_shape", {})
    reused = constant_coloring((7001, 7002, 7003), 2, color=1)
    text, colors = dump_coloring(reused), reused.colors
    use = {
        "load": lambda: load_coloring(text),
        "dump": lambda: dump_coloring(reused),
        "build": lambda: Coloring((7001, 7002, 7003), 2, colors),
    }[reuse]
    dumps = []
    for i in range(100):
        coloring = random_coloring(range(8000 + 10 * i, 8006 + 10 * i), 2, 3, random.Random(i))
        dumps.append(dump_coloring(coloring))
        assert load_coloring(dumps[-1]) == coloring
        use()
    grounds = [ground for ground, _ in built]
    assert len(grounds) == 101 and grounds.count(reused.ground) == 1
    # a shape stays alive while either key holds it
    gc.collect()
    live = {ref().ground[0] for _, ref in built if ref() is not None}
    assert live == {7001} | {8000 + 10 * i for i in range(85, 100)}
    assert len(live) == ramsey._KEPT_SHAPES
    # a dropped shape is built again, by its header or by (ground, k)
    load_coloring(dumps[0])
    constant_coloring(range(8010, 8016), 2)
    assert len(built) == 103


def test_threads_share_the_kept_shapes(monkeypatch):
    # one shape more than are kept, so that threads drop and build shapes
    # while others use them; the two keys must end up holding the same ones
    monkeypatch.setattr(ramsey, "_KEPT_SHAPES", 2)
    monkeypatch.setattr(ramsey, "_kept_by_header", OrderedDict())
    monkeypatch.setattr(ramsey, "_kept_by_shape", {})
    colorings = [
        random_coloring(range(9000 + 10 * i, 9005 + 10 * i), 2, 3, random.Random(i))
        for i in range(ramsey._KEPT_SHAPES + 1)
    ]
    texts = [dump_coloring(c) for c in colorings]
    errors = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(8000):
                i = rng.randrange(len(colorings))
                assert load_coloring(texts[i]) == colorings[i]
                assert dump_coloring(colorings[i]) == texts[i]
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    kept = list(ramsey._kept_by_header.values())
    assert 0 < len(kept) <= ramsey._KEPT_SHAPES
    assert len(ramsey._kept_by_shape) == len(kept)
    for shape in kept:
        assert ramsey._kept_by_header[shape.header()] is shape
        assert ramsey._kept_by_shape[shape.ground, shape.k] is shape


def test_kept_subset_tables_stay_under_their_bound():
    # ramsey._shape keeps under 8 MiB of subset tables, whatever shapes
    # go through it
    bound = 8 << 20
    gc.collect()
    tracemalloc.start()
    try:
        for i in range(100):
            # 990 pairs of 20-character ints: near the largest kept shape
            low = -(1 << 63) + 45 * i
            coloring = constant_coloring(range(low, low + 45), 2)
            dump_coloring(load_coloring(dump_coloring(coloring)))
        del coloring
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
        assert kept < bound
        # 44850 pairs, above the kept size: built for the call, not kept
        load_coloring(dump_coloring(constant_coloring(range(300), 2)))
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] < kept + (1 << 16)
    finally:
        tracemalloc.stop()


def test_pentagon_file_is_byte_stable():
    text = (DATA / "pentagon.txt").read_text()
    assert dump_coloring(pentagon_coloring()) == text
    assert dump_coloring(load_coloring(text)) == text


def test_dump_load_dump_is_byte_stable():
    k0 = dump_coloring(constant_coloring((9, 4), 0, color=5))
    assert k0 == "ground: 4 9\nk: 0\n : 5\n"
    k3 = dump_coloring(random_coloring((40, -7, 0, 3, 11, -2), 3, 3, random.Random(1)))
    assert k3.startswith("ground: -7 -2 0 3 11 40\nk: 3\n-7 -2 0 : ")
    assert len(k3.splitlines()) == 2 + comb(6, 3)
    for text in (k0, k3):
        assert dump_coloring(load_coloring(text)) == text


@pytest.mark.parametrize(
    "build",
    [
        lambda: Coloring(range(3), -1, {}),
        lambda: constant_coloring(range(3), -1),
        lambda: random_coloring(range(3), -1, 2, random.Random(0)),
    ],
    ids=["Coloring", "constant", "random"],
)
def test_negative_k_is_rejected_alike(build):
    with pytest.raises(ValueError, match=r"^k must be >= 0$"):
        build()


def test_every_route_to_a_coloring_fills_the_same_fields():
    rng = random.Random(19)
    for _ in range(200):
        ground = rng.sample(range(-20, 40), rng.randrange(0, 8))
        k = rng.randrange(0, 4)
        subsets = [frozenset(s) for s in combinations(ground, k)]
        colors = {s: rng.randrange(rng.randrange(1, 5)) for s in subsets}
        c = Coloring(ground, k, colors)
        assert c == load_coloring(dump_coloring(c)) == product_coloring([c])
        assert c.ground == tuple(sorted(ground)) and c.k == k
        assert c.max_color == max(colors.values(), default=0)


def test_a_negative_color_is_refused_alike_by_both_routes():
    ground = (1, 2, 3)
    colors = {frozenset(s): 0 for s in combinations(ground, 2)}
    colors[frozenset({1, 3})] = -1
    errors = []
    for build in (
        lambda: Coloring(ground, 2, colors),
        lambda: load_coloring("ground: 1 2 3\nk: 2\n1 2 : 0\n1 3 : -1\n2 3 : 0\n"),
    ):
        with pytest.raises(ValueError) as exc:
            build()
        errors.append(str(exc.value))
    assert errors == ["color indices must be >= 0"] * 2


# C(100, 10) is about 1.7e13 k-subsets
OVERSIZE_FILE = "ground: " + " ".join(map(str, range(1, 101))) + "\nk: 10\n"


@pytest.mark.parametrize(
    "build",
    [
        lambda: Coloring(range(100), 10, {}),
        lambda: constant_coloring(range(100), 10),
        lambda: random_coloring(range(100), 10, 2, random.Random(0)),
        lambda: load_coloring(OVERSIZE_FILE),
        lambda: load_coloring(OVERSIZE_FILE + "1 2 3 4 5 6 7 8 9 10 : 0\n"),
    ],
    ids=["Coloring", "constant", "random", "load", "load-with-row"],
)
def test_oversize_tables_are_refused_before_allocation(build):
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=f"above the cap {TABLE_CAP}"):
        build()
    assert time.perf_counter() - start < 1.0


def test_table_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(ramsey, "TABLE_CAP", comb(5, 2))
    assert len(constant_coloring(range(5), 2).table) == 10
    text = dump_coloring(random_coloring(range(5), 3, 2, random.Random(0)))
    assert len(load_coloring(text).table) == 10
    edges = {frozenset(c): 0 for c in combinations(range(6), 2)}
    for build in (
        lambda: constant_coloring(range(6), 2),
        lambda: Coloring(range(6), 2, edges),
    ):
        with pytest.raises(ResourceLimitError, match="needs 15 colors, above the cap 10"):
            build()


def test_search_depth_is_not_limited_by_the_call_stack():
    # one chosen element per level: 1100 levels, far past the default
    # recursion limit
    coloring = constant_coloring(range(1200), 1)
    assert find_homogeneous(coloring, 1100) == tuple(range(1100))
