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


# the subset tables of this many shapes are kept, each of at most
# _KEPT_SUBSETS subsets; see _subsets
_KEPT_SHAPES = 16
_KEPT_SUBSETS = 1 << 10


class _Subsets:
    """The k-subsets of a sorted ground in rank order, in three views: as
    frozensets, as the texts dump_coloring writes, and as the dict from
    text to rank.  Each view is built afresh when it is read, so a shape
    that is not kept holds nothing once its caller is done with it."""

    def __init__(self, ground: tuple, k: int):
        self.ground = ground
        self.k = k

    def frozensets(self):
        return map(frozenset, combinations(self.ground, self.k))

    def texts(self):
        names = [str(x) for x in self.ground]
        return map(" ".join, combinations(names, self.k))

    def index(self) -> dict:
        return {text: r for r, text in enumerate(self.texts())}


class _KeptSubsets(_Subsets):
    """The views of a kept shape, each built once and shared by every
    caller, which only reads them."""

    def __init__(self, ground: tuple, k: int):
        super().__init__(ground, k)
        self._frozensets = tuple(super().frozensets())
        self._index = {text: r for r, text in enumerate(super().texts())}

    def frozensets(self):
        return self._frozensets

    def texts(self):
        return self._index.keys()

    def index(self) -> dict:
        return self._index


@lru_cache(maxsize=_KEPT_SHAPES)
def _kept_subsets(ground: tuple, k: int) -> _KeptSubsets:
    return _KeptSubsets(ground, k)


def _subsets(ground: tuple, k: int) -> _Subsets:
    """The subset views of a ground shaped by _shape.  Call it only after
    _shape, so that a table above TABLE_CAP is refused first.

    The views of the last _KEPT_SHAPES small shapes are kept and shared.
    A shape is small when it has at most _KEPT_SUBSETS k-subsets, twice
    as many elements in all, and a ground of plain ints within 64 bits.
    Equal plain ints print alike, so equal grounds of them may share
    texts; a ground with any other element (1.0, True, ...) is never
    kept, since it may equal a kept ground and print otherwise.  A kept
    shape takes under 0.5 MiB with its key (the worst case is 2^10
    singletons of 20-character ints, about 0.39 MB), so the cache holds
    under 8 MiB whatever shapes go through it.  Any other shape gets
    views built for the call, and keeps nothing.
    """
    size = comb(len(ground), k)
    if (
        size <= _KEPT_SUBSETS
        and size * k <= 2 * _KEPT_SUBSETS
        and set(map(type, ground)) <= {int}
        and (not ground or -(1 << 63) <= ground[0] and ground[-1] < 1 << 63)
    ):
        return _kept_subsets(ground, k)
    return _Subsets(ground, k)


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
        subsets = _subsets(ground, self.k)
        try:
            table = list(map(colors.__getitem__, subsets.frozensets()))
        except KeyError:
            table = None
        if table is None or len(colors) != size:
            missing = sum(s not in colors for s in subsets.frozensets())
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
        subsets = _subsets(self.ground, self.k).frozensets()
        return MappingProxyType(dict(zip(subsets, self.table)))

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
    raises SearchBudgetExceeded if the node budget runs out first.  The
    budget counts positions tried.  For k = 2 the search tries only the
    positions joined in one color to every chosen one, and only while
    enough of them are left to reach m, so it tries fewer positions than
    a plain scan and may resolve a search that such a scan could not.
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
    if k == 2:
        return _find_pair_homogeneous(coloring, m, budget, positions)

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
                raise _budget_exhausted(budget)
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


def _find_pair_homogeneous(coloring: Coloring, m: int, budget: int, positions):
    """find_homogeneous for k = 2 and 2 <= m <= len(positions), on bit
    masks: bit j stands for positions[j].

    The first two positions are tried as the frame search tries them, and
    they fix the color.  From there one candidate mask holds the later
    positions joined in that color to every chosen one; its lowest bit is
    tried first, and the branch ends when the chosen count plus the
    candidates' popcount falls below m.  Each branch tried is one the
    frame search tries too, in the same order, so the answer is the same
    and no more positions are tried.  rows[i], built when position i is
    first chosen and kept to the end, maps each color to the mask of the
    later positions paired with i in it: about (colors) * n/8 bytes a row,
    at most C(n, 2) <= TABLE_CAP masks, most when each pair has its own color.
    """
    ground = coloring.ground
    table = coloring.table
    n = len(ground)
    first = _rank_weights(n, 2)[0]
    rows = [None] * len(positions)

    def row(i: int) -> dict:
        masks = rows[i]
        if masks is None:
            masks = rows[i] = {}
            # the pair (p, q), p < q, has rank first[p] + q + 1 - n
            base = first[positions[i]] + 1 - n
            bit = 2 << i
            for q in positions[i + 1:]:
                color = table[base + q]
                masks[color] = masks.get(color, 0) | bit
                bit <<= 1
        return masks

    nodes = 0
    for i in range(len(positions) - m + 1):
        nodes += 1
        if nodes > budget:
            raise _budget_exhausted(budget)
        base = first[positions[i]] + 1 - n
        for j in range(i + 1, len(positions) - m + 2):
            nodes += 1
            if nodes > budget:
                raise _budget_exhausted(budget)
            if m == 2:
                return ground[positions[i]], ground[positions[j]]
            color = table[base + positions[j]]
            chosen = [i, j]
            stack = [row(i)[color] & row(j).get(color, 0)]
            while stack:
                candidates = stack[-1]
                if len(chosen) + candidates.bit_count() < m:
                    stack.pop()
                    chosen.pop()
                    continue
                low = candidates & -candidates
                stack[-1] = candidates ^ low
                nodes += 1
                if nodes > budget:
                    raise _budget_exhausted(budget)
                q = low.bit_length() - 1
                chosen.append(q)
                if len(chosen) == m:
                    return tuple(ground[positions[x]] for x in chosen)
                stack.append(stack[-1] & row(q).get(color, 0))
    return None


def _budget_exhausted(budget: int) -> SearchBudgetExceeded:
    return SearchBudgetExceeded(f"node budget {budget} exhausted before resolution")


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
    ground, k = coloring.ground, coloring.k
    lines = ["ground: " + " ".join(map(str, ground)), f"k: {k}"]
    texts = _subsets(ground, k).texts()
    lines += [f"{s} : {col}" for s, col in zip(texts, coloring.table)]
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
    index = _subsets(ground, k).index()
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
