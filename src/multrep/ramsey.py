"""Finite monochromatic-subset search, iterated chains, product colorings.

Everything here is exact and finite: a coloring is a total map from the
k-subsets of a finite ground set to color indices.  A search can end
three ways: a witness, a definite None (no such subset exists at this
finite scale), or a budget error.  The last two are never conflated.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from types import MappingProxyType

from .errors import CapacityOverflowError, ResourceLimitError, SearchBudgetExceeded

DEFAULT_NODE_BUDGET = 5_000_000

INDEX_CAPACITY = 2**63 - 1

# the most k-subsets a coloring may color; its table, and the subset text
# that load_coloring indexes, grow with this
TABLE_CAP = 1 << 20


def _shape(ground, k: int) -> tuple[tuple[int, ...], int]:
    """The sorted distinct ground of a coloring of k-subsets and its table
    size C(n, k).  Raises ValueError for k < 0 and ResourceLimitError for
    a table above TABLE_CAP, before any table is allocated."""
    ground = tuple(sorted(set(ground)))
    if k < 0:
        raise ValueError("k must be >= 0")
    size = comb(len(ground), k)
    if size > TABLE_CAP:
        raise ResourceLimitError(
            f"a coloring of the {k}-subsets of {len(ground)} elements needs "
            f"{size} colors, above the cap {TABLE_CAP}"
        )
    return ground, size


@lru_cache(maxsize=256)
def _rank_weights(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Weights w such that positions c_0 < ... < c_{k-1} in a sorted ground
    of size n have rank w[0][c_0] + ... + w[k-1][c_{k-1}], the index of
    that subset in the order combinations(range(n), k) lists them.

    The rank is C(n,k) - 1 - sum_j C(n-1-c_j, k-j) (the combinatorial
    number system, taken in lex order); the constant sits in w[0].
    """
    top = comb(n, k) - 1
    return tuple(
        tuple((top if j == 0 else 0) - comb(n - 1 - c, k - j) for c in range(n))
        for j in range(k)
    )


def _rank(weights, positions) -> int:
    return sum(w[c] for w, c in zip(weights, positions))


def _require_total(k: int, missing: int, extraneous: int) -> None:
    if missing or extraneous:
        raise ValueError(
            f"coloring is not total on the {k}-subsets "
            f"(missing {missing}, extraneous {extraneous})"
        )


@dataclass(init=False)
class Coloring:
    """Total coloring of the k-subsets of a finite ordered ground set.

    table[r] is the color of the r-th k-subset of the sorted ground in the
    order that combinations(ground, k) lists them; rank() gives r.
    """

    ground: tuple[int, ...]
    k: int
    table: list[int]
    max_color: int

    def __init__(self, ground, k: int, colors: Mapping[frozenset, int]):
        self.ground = ground
        self.k = k
        self.__post_init__(colors)

    def __post_init__(self, colors: Mapping[frozenset, int]):
        ground, size = _shape(self.ground, self.k)
        subsets = combinations(ground, self.k)
        try:
            table = [colors[frozenset(c)] for c in subsets]
        except KeyError:
            table = None
        if table is None or len(colors) != size:
            subsets = combinations(ground, self.k)
            missing = sum(frozenset(c) not in colors for c in subsets)
            _require_total(self.k, missing, len(colors) - (size - missing))
        vars(self).update(vars(self._from_table(ground, self.k, table)))

    @classmethod
    def _from_table(cls, ground: tuple[int, ...], k: int, table: list) -> Coloring:
        """A coloring of a ground shaped by _shape, whose table lists a
        color for every k-subset in rank order."""
        if table and min(table) < 0:
            raise ValueError("color indices must be >= 0")
        self = cls.__new__(cls)
        self.ground = ground
        self.k = k
        self.table = table
        self.max_color = max(table, default=0)
        return self

    @property
    def colors(self) -> Mapping[frozenset, int]:
        """Read-only {frozenset k-subset: color} view built from the table."""
        subsets = combinations(self.ground, self.k)
        return MappingProxyType(
            {frozenset(c): col for c, col in zip(subsets, self.table)}
        )

    def positions(self, subset) -> list[int]:
        """Sorted indices in ground of the distinct elements of subset;
        KeyError for an element outside the ground."""
        ground = self.ground
        out = []
        for x in set(subset):
            i = bisect_left(ground, x)
            if i == len(ground) or ground[i] != x:
                raise KeyError(x)
            out.append(i)
        out.sort()
        return out

    def rank(self, subset) -> int:
        """Index in table of a k-subset of the ground, given in any order."""
        positions = self.positions(subset)
        if len(positions) != self.k:
            raise KeyError(frozenset(subset))
        return _rank(_rank_weights(len(self.ground), self.k), positions)

    def color_of(self, subset) -> int:
        return self.table[self.rank(subset)]


@dataclass(frozen=True)
class HomogeneousChain:
    """Decreasing subsets X_0 >= X_1 >= ... with [X_k]^k monochromatic."""

    subsets: tuple[tuple[int, ...], ...]
    epsilons: tuple  # ints, or tuples of ints for per-index chains


def constant_coloring(ground, k: int, color: int = 0) -> Coloring:
    ground, size = _shape(ground, k)
    return Coloring._from_table(ground, k, [color] * size)


def random_coloring(ground, k: int, num_colors: int, rng) -> Coloring:
    ground, size = _shape(ground, k)
    table = [rng.randrange(num_colors) for _ in range(size)]
    return Coloring._from_table(ground, k, table)


def homogeneous_color(coloring: Coloring, subset) -> int | None:
    """Independent checker: the single color of all k-subsets of subset,
    or None if two of them differ.  Enumerates every k-subset."""
    weights = _rank_weights(len(coloring.ground), coloring.k)
    table = coloring.table
    seen = None
    for c in combinations(coloring.positions(subset), coloring.k):
        col = table[_rank(weights, c)]
        if seen is None:
            seen = col
        elif col != seen:
            return None
    return seen


def find_homogeneous(
    coloring: Coloring,
    m: int,
    budget: int = DEFAULT_NODE_BUDGET,
    within=None,
):
    """Lexicographically least size-m subset with all k-subsets one color.

    Returns None when no such subset exists in this finite ground set;
    raises SearchBudgetExceeded if the node budget runs out first.
    """
    ground = coloring.ground
    if within is None:
        positions = range(len(ground))
    else:
        try:
            positions = coloring.positions(within)
        except KeyError:
            raise ValueError(
                "search space must lie inside the coloring's ground"
            ) from None
    k = coloring.k
    if m > len(positions) or k > m:
        return None
    if k == 0:
        return tuple(ground[p] for p in positions[:m])

    weights = _rank_weights(len(ground), k)
    last = weights[k - 1]
    table = coloring.table
    nodes = 0

    # sums[j] holds, for each j-subset of the chosen positions, the sum of
    # its weights; a k-subset that ends at a new position p has rank
    # s + last[p] for s in sums[k - 1].  A frame (next index, sums, color)
    # resumes the scan for position len(chosen) + 1; choosing a position
    # pushes the frame that resumes this scan, then the next depth's.
    chosen: list[int] = []
    frames = [(0, [[0]] + [[] for _ in range(k - 1)], None)]
    while frames:
        start, sums, color = frames.pop()
        ends = sums[k - 1]
        # not enough positions left to reach size m
        for idx in range(start, len(positions) - (m - len(chosen)) + 1):
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    f"node budget {budget} exhausted before resolution"
                )
            p = positions[idx]
            offset = last[p]
            new_color = color
            for s in ends:
                col = table[s + offset]
                if new_color is None:
                    new_color = col
                elif col != new_color:
                    break
            else:
                chosen.append(p)
                if len(chosen) == m:
                    return tuple(ground[q] for q in chosen)
                grown = [sums[0]] + [
                    sums[j] + [s + weights[j - 1][p] for s in sums[j - 1]]
                    for j in range(1, k)
                ]
                frames.append((idx + 1, sums, color))
                frames.append((idx + 1, grown, new_color))
                break
        else:
            if chosen:
                chosen.pop()
    return None


def iterated_chain(
    colorings, sizes, budget: int = DEFAULT_NODE_BUDGET
) -> HomogeneousChain | None:
    """Build X_0 >= X_1 >= ... >= X_K with [X_k]^k monochromatic under
    colorings[k], |X_k| >= sizes[k].  Level k searches inside X_{k-1}.

    Returns None when the finite ground set cannot support the requested
    sizes; raises SearchBudgetExceeded on budget exhaustion.
    """
    colorings = list(colorings)
    sizes = list(sizes)
    if len(colorings) != len(sizes):
        raise ValueError("one target size per level is required")
    if not colorings:
        raise ValueError("need at least the k=0 level")
    for k, c in enumerate(colorings):
        if c.k != k:
            raise ValueError(f"level {k} coloring has k = {c.k}")
        if c.ground != colorings[0].ground:
            raise ValueError("all levels must share one ground set")
    if any(sizes[k] < k for k in range(len(sizes))):
        raise ValueError("sizes[k] must be >= k")
    if any(sizes[k] < sizes[k + 1] for k in range(len(sizes) - 1)):
        raise ValueError("sizes must be weakly decreasing")

    ground = colorings[0].ground
    if sizes[0] > len(ground):
        return None
    subsets = [ground]
    epsilons = [colorings[0].color_of(frozenset())]
    current = ground
    for k in range(1, len(colorings)):
        found = find_homogeneous(
            colorings[k], sizes[k], budget=budget, within=current
        )
        if found is None:
            return None
        eps = homogeneous_color(colorings[k], found)
        subsets.append(found)
        epsilons.append(eps)
        current = found
    return HomogeneousChain(tuple(subsets), tuple(epsilons))


def verify_chain(colorings, chain: HomogeneousChain) -> bool:
    """Re-check an emitted chain against the raw colorings: containment
    plus monochromaticity of [X_n]^k for every n >= k."""
    subsets = chain.subsets
    for i in range(1, len(subsets)):
        if not set(subsets[i]) <= set(subsets[i - 1]):
            return False
    for k, coloring in enumerate(colorings):
        eps = chain.epsilons[k]
        for subset in subsets[k:]:
            # a subset of fewer than k elements has no k-subset to check
            if len(set(subset)) < k:
                continue
            color = homogeneous_color(coloring, subset)
            if color is None or color != eps:
                return False
    return True


def product_coloring(colorings) -> Coloring:
    """Combine colorings of the same ground and k into one whose color is
    the tuple of factor colors, encoded row-major (first factor slowest)."""
    colorings = list(colorings)
    if not colorings:
        raise ValueError("need at least one factor coloring")
    first = colorings[0]
    for c in colorings[1:]:
        if c.ground != first.ground or c.k != first.k:
            raise ValueError("factors must share ground set and k")
    radices = [c.max_color + 1 for c in colorings]
    capacity = 1
    for r in radices:
        capacity *= r
        if capacity > INDEX_CAPACITY:
            raise CapacityOverflowError("product color index exceeds capacity")
    combined = list(first.table)
    for c, r in zip(colorings[1:], radices[1:]):
        combined = [idx * r + col for idx, col in zip(combined, c.table)]
    out = Coloring._from_table(first.ground, first.k, combined)
    # a factor may never use its top index on this ground; keep the full radix
    out.max_color = capacity - 1
    return out


def decode_product_index(index: int, radices) -> tuple[int, ...]:
    out = []
    for r in reversed(list(radices)):
        out.append(index % r)
        index //= r
    return tuple(reversed(out))


def doubly_iterated_chain(
    per_index_colorings, sizes, budget: int = DEFAULT_NODE_BUDGET
) -> HomogeneousChain | None:
    """Per level k, take the product over the index family, run the
    iterated chain, and decode each epsilon back into a tuple of
    per-index colors."""
    per_index_colorings = [list(level) for level in per_index_colorings]
    for k, level in enumerate(per_index_colorings):
        if not level:
            raise ValueError(f"empty index set at level {k}")
    products = [product_coloring(level) for level in per_index_colorings]
    chain = iterated_chain(products, sizes, budget=budget)
    if chain is None:
        return None
    decoded = tuple(
        decode_product_index(
            eps, [c.max_color + 1 for c in per_index_colorings[k]]
        )
        for k, eps in enumerate(chain.epsilons)
    )
    return HomogeneousChain(chain.subsets, decoded)


# ---------------------------------------------------------------------------
# interchange format
# ---------------------------------------------------------------------------

def dump_coloring(coloring: Coloring) -> str:
    names = [str(x) for x in coloring.ground]
    lines = ["ground: " + " ".join(names), f"k: {coloring.k}"]
    subsets = map(" ".join, combinations(names, coloring.k))
    lines += [f"{s} : {col}" for s, col in zip(subsets, coloring.table)]
    return "\n".join(lines) + "\n"


def load_coloring(text: str) -> Coloring:
    """Parse the text format: a ground line, a k line, then one
    "elements : color" line per k-subset, in any order.  A line whose
    text before its last colon is "ground" or "k" is a header; any
    other line with a colon is a row.  Totality is validated.

    Each row's elements are looked up as written among the subsets as
    dump_coloring writes them; a row written otherwise (other spacing,
    elements out of order or repeated) is read through int() and looked
    up again.  The headers are checked before any row: a table above
    TABLE_CAP raises ResourceLimitError before the subsets are listed.
    """
    ground = None
    k = None
    rows = []
    for raw in text.splitlines():
        line = raw.partition("#")[0]
        left, colon, right = line.rpartition(":")
        key = left.strip()
        if key == "ground":
            ground = [int(x) for x in right.split()]
        elif key == "k":
            k = int(right)
        elif colon:
            rows.append((key, right))
        elif line and not line.isspace():
            raise ValueError(f"bad coloring line: {raw!r}")
    # rows are read once both headers are known, wherever they sit
    if ground is None or k is None:
        raise ValueError("coloring file needs 'ground:' and 'k:' lines")
    ground, size = _shape(ground, k)
    names = [str(x) for x in ground]
    index = dict(zip(map(" ".join, combinations(names, k)), range(size)))
    table = [None] * size
    extraneous = set()
    for key, right in rows:
        r = index.get(key)
        if r is None:
            key = " ".join(str(x) for x in sorted({int(x) for x in key.split()}))
            r = index.get(key)
        if r is None:
            if key in extraneous:
                raise _duplicate(key)
            extraneous.add(key)
            int(right)  # a malformed color is reported before totality
        elif table[r] is not None:
            raise _duplicate(key)
        else:
            table[r] = int(right)
    _require_total(k, table.count(None), len(extraneous))
    return Coloring._from_table(ground, k, table)


def _duplicate(key: str) -> ValueError:
    return ValueError(
        f"duplicate subset in coloring: {[int(x) for x in key.split()]}"
    )
