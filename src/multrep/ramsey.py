"""Finite monochromatic-subset search, iterated chains, product colorings.

Everything here is exact and finite: a coloring is a total map from the
k-subsets of a finite ground set to color indices.  A search can end
three ways: a witness, a definite None (no such subset exists at this
finite scale), or a budget error.  The last two are never conflated.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations
from math import comb
from operator import itemgetter
from types import MappingProxyType

from .errors import CapacityOverflowError, ResourceLimitError, SearchBudgetExceeded
from .integer_sets import MAX_INT

DEFAULT_NODE_BUDGET = 5_000_000

# the most k-subsets a coloring may color; its table, and the subset text
# that load_coloring indexes, grow with this
TABLE_CAP = 1 << 20


# the subset tables of this many shapes are kept, each of at most
# _KEPT_SUBSETS subsets; see _shape
_KEPT_SHAPES = 16
_KEPT_SUBSETS = 1 << 10


class _Subsets:
    """The k-subsets of a sorted ground in rank order, in four views: as
    frozensets, as the texts dump_coloring writes, as the dict from text
    to rank, and as the template of the whole dump.  Each view is built
    afresh when it is read, so a shape that is not kept holds nothing
    once its caller is done with it."""

    def __init__(self, ground: tuple, k: int, size: int):
        self.ground = ground
        self.k = k
        self.size = size

    def frozensets(self):
        return map(frozenset, combinations(self.ground, self.k))

    def texts(self):
        names = [str(x) for x in self.ground]
        return map(" ".join, combinations(names, self.k))

    def index(self) -> dict:
        return {text: r for r, text in enumerate(self.texts())}

    def header(self) -> str:
        """The ground and k lines that dump_coloring writes first."""
        return f"ground: {' '.join(map(str, self.ground))}\nk: {self.k}\n"

    def template(self) -> str:
        """The text dump_coloring writes, with %s in place of each color:
        the header, then "<subset text> : %s" per subset in rank order."""
        head = self.header()
        texts = self.texts()
        if "%" in head:  # every element of a row text also prints in head
            head = head.replace("%", "%%")
            texts = [text.replace("%", "%%") for text in texts]
        if not self.size:
            return head
        return "".join((head, " : %s\n".join(texts), " : %s\n"))


class _KeptSubsets(_Subsets):
    """The views of a kept shape, each built once and shared by every
    caller, which only reads them; also its header, by which load_coloring
    finds it, and the reader of its dump when every color is one digit.

    A kept ground prints with no "%", so each %s of the template stands
    for one character of such a dump: the r-th color sits at the r-th
    %s's offset less r, and the dump is size characters shorter than the
    template."""

    def __init__(self, ground: tuple, k: int, size: int):
        super().__init__(ground, k, size)
        self._frozensets = tuple(super().frozensets())
        self._index = {text: r for r, text in enumerate(super().texts())}
        self._header = super().header()
        self._template = super().template()
        self._digits_length = len(self._template) - size
        gaps = map(len, self._template.split("%s")[:-1])
        offsets = [at + r for r, at in enumerate(accumulate(gaps))]
        self._digits = itemgetter(*offsets) if offsets else None

    def frozensets(self):
        return self._frozensets

    def texts(self):
        return self._index.keys()

    def index(self) -> dict:
        return self._index

    def header(self) -> str:
        return self._header

    def template(self) -> str:
        return self._template

    def read_digits(self, text: str) -> list | None:
        """The table of text if it is this shape's dump and every color
        is one digit, else None.  The colors are picked at their offsets
        and must be ASCII digits with template % colors == text: the
        proof _read_dump gives, so the table is the line reader's."""
        if self._digits is None or len(text) != self._digits_length:
            return None
        colors = self._digits(text)  # one character, or a tuple of them
        digits = "".join(colors)
        if digits.strip("0123456789") or self._template % colors != text:
            return None
        return list(digits.encode().translate(_DIGIT_VALUES))


# the kept shapes in the order they were last used, the least recent
# first, by their header; the same shapes by (ground, k); and the lock
# that a change of more than one step to the two takes, so that threads
# may share them (a lookup, and a move to the end, is one step)
_kept_by_header: OrderedDict = OrderedDict()
_kept_by_shape: dict = {}
_kept_lock = threading.Lock()


def _use(kept: _KeptSubsets) -> _KeptSubsets:
    """kept, found by either key, marked as the most recently used."""
    try:
        _kept_by_header.move_to_end(kept.header())
    except KeyError:  # another thread has dropped it since
        pass
    return kept


def _kept(ground: tuple, k: int, size: int) -> _KeptSubsets:
    """The kept shape of ground and k, built if it is not kept, as the
    most recently used; a shape built past _KEPT_SHAPES drops the least
    recently used one by both its keys."""
    kept = _kept_by_shape.get((ground, k))
    if kept is not None:
        return _use(kept)
    kept = _KeptSubsets(ground, k, size)
    with _kept_lock:
        if len(_kept_by_header) >= _KEPT_SHAPES:
            _, dropped = _kept_by_header.popitem(last=False)
            del _kept_by_shape[dropped.ground, dropped.k]
        _kept_by_header[kept.header()] = kept
        _kept_by_shape[ground, k] = kept
    return kept


def _shape(ground, k: int) -> _Subsets:
    """The subset views of a coloring of the k-subsets of ground, which
    carry the sorted distinct ground, k and the table size C(n, k).
    Raises ValueError for k < 0 and ResourceLimitError for a table above
    TABLE_CAP, before any view is built.

    The views of the last _KEPT_SHAPES small shapes are kept and shared;
    using a kept shape, here or through load_coloring, counts as its
    last use.  A shape is small when it has at most _KEPT_SUBSETS
    k-subsets, twice as many elements in all, an int k and a ground of
    plain ints within 64 bits.  Equal plain ints print alike, so equal
    grounds of them may share texts; a ground with any other element
    (1.0, True, ...) is never kept, since it may equal a kept ground and
    print otherwise.  A tuple ground equal to a kept one is handed that
    shape at once, with no sort, when it is the kept tuple itself (the
    ground of a Coloring of that shape) or holds only plain ints.  A
    kept shape takes under 0.5 MiB with its keys, its dump template and
    the offsets of its colors (the worst case is 2^10 singletons of
    20-character ints, about 0.50 MB), so the cache holds under 8 MiB
    whatever shapes go through it.  Any other shape gets views built for
    the call, and keeps nothing.
    """
    if type(ground) is tuple and type(k) is int:
        kept = _kept_by_shape.get((ground, k))
        if kept is not None and (
            kept.ground is ground or set(map(type, ground)) <= {int}
        ):
            return _use(kept)
    ground = tuple(sorted(set(ground)))
    if k < 0:
        raise ValueError("k must be >= 0")
    size = comb(len(ground), k)
    if size > TABLE_CAP:
        raise ResourceLimitError(
            f"a coloring of the {k}-subsets of {len(ground)} elements needs "
            f"{size} colors, above the cap {TABLE_CAP}"
        )
    if (
        size <= _KEPT_SUBSETS
        and size * k <= 2 * _KEPT_SUBSETS
        and type(k) is int
        and set(map(type, ground)) <= {int}
        and (not ground or -(1 << 63) <= ground[0] and ground[-1] < 1 << 63)
    ):
        return _kept(ground, k, size)
    return _Subsets(ground, k, size)


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


def _max_color(table: list) -> int:
    """The largest color of table, 0 for none; raises ValueError for a
    negative color."""
    if table and min(table) < 0:
        raise ValueError("color indices must be >= 0")
    return max(table, default=0)


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
        self.__post_init__(ground, k, colors)

    def __post_init__(self, ground, k: int, colors: Mapping[frozenset, int]):
        subsets = _shape(ground, k)
        try:
            table = list(map(colors.__getitem__, subsets.frozensets()))
        except KeyError:
            table = None
        if table is None or len(colors) != subsets.size:
            missing = sum(s not in colors for s in subsets.frozensets())
            _require_total(k, missing, len(colors) - (subsets.size - missing))
        self._fill(subsets.ground, k, table, _max_color(table))

    @classmethod
    def _from_table(
        cls, ground: tuple[int, ...], k: int, table: list, max_color: int
    ) -> Coloring:
        """A coloring of a ground shaped by _shape, whose table lists a
        color >= 0 for every k-subset in rank order, none above
        max_color."""
        self = cls.__new__(cls)
        self._fill(ground, k, table, max_color)
        return self

    def _fill(self, ground: tuple[int, ...], k: int, table: list, max_color: int):
        self.ground = ground
        self.k = k
        self.table = table
        self.max_color = max_color

    @property
    def colors(self) -> Mapping[frozenset, int]:
        """Read-only {frozenset k-subset: color} view built from the table."""
        subsets = _shape(self.ground, self.k).frozensets()
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
    subsets = _shape(ground, k)
    table = [color] * subsets.size
    return Coloring._from_table(subsets.ground, k, table, _max_color(table))


def random_coloring(ground, k: int, num_colors: int, rng) -> Coloring:
    subsets = _shape(ground, k)
    table = [rng.randrange(num_colors) for _ in range(subsets.size)]
    return Coloring._from_table(subsets.ground, k, table, _max_color(table))


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
    raises ValueError for a negative budget or m, before any other work,
    and SearchBudgetExceeded if the node budget runs out first.  The
    budget counts positions tried.  For k = 2 the search tries only the
    positions joined in one color to every chosen one, and only while
    enough of them are left to reach m, so it tries fewer positions than
    a plain scan and may resolve a search that such a scan could not.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if m < 0:
        raise ValueError("m must be >= 0")
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
    sizes; raises ValueError for a negative budget and SearchBudgetExceeded
    on budget exhaustion.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
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
        if capacity > MAX_INT:
            raise CapacityOverflowError("product color index exceeds capacity")
    combined = list(first.table)
    for c, r in zip(colorings[1:], radices[1:]):
        combined = [idx * r + col for idx, col in zip(combined, c.table)]
    # every factor color is >= 0; a factor may never use its top index on
    # this ground, so the full radix is kept
    return Coloring._from_table(first.ground, first.k, combined, capacity - 1)


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

# the byte of each ASCII digit mapped to its value
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def dump_coloring(coloring: Coloring) -> str:
    return _shape(coloring.ground, coloring.k).template() % tuple(coloring.table)


def load_coloring(text: str) -> Coloring:
    """Parse the text format: a ground line, a k line, then one
    "elements : color" line per k-subset, in any order.  A line whose
    text before its last colon is "ground" or "k" is a header, given
    once; any other line with a colon is a row.  Totality is validated.

    A text whose first two lines are the header of a kept shape is read
    as that shape, with no header value parsed: at its colors' offsets if
    it is as long as the shape's dump with one-digit colors.  Otherwise
    the shape comes from the two header values.  A text in
    dump_coloring's layout is read whole by _read_dump; any other text,
    and every error, goes to the line reader (_read_lines), handed the
    shape and the header values it came from.
    """
    i = text.find("\n")
    j = text.find("\n", i + 1)
    subsets = _kept_by_header.get(text[: j + 1])
    if subsets is not None:
        _use(subsets)
        table = subsets.read_digits(text)
        if table is not None:
            return Coloring._from_table(subsets.ground, subsets.k, table, max(table))
        # each header's value as the line reader takes it
        ground, k = text[7:i], text[i + 3 : j]
    elif text.startswith("ground: ") and text.startswith("k: ", i + 1) and j > 0:
        # likewise, unless that line has a later colon, a "#" or another
        # line break; _read_lines checks which
        ground, k = text[7:i].removesuffix("\r"), text[i + 3 : j].removesuffix("\r")
        try:
            subsets = _shape(list(map(int, ground.split())), int(k))
        except (ValueError, ResourceLimitError):
            # the line reader raises it, after any earlier error
            return _read_lines(text, None)
    else:
        return _read_lines(text, None)
    table = _read_dump(text, j + 1, subsets)
    if table is not None:
        top = max(table, default=0)
        return Coloring._from_table(subsets.ground, subsets.k, table, top)
    return _read_lines(text, (ground, k, subsets))


def _read_dump(text: str, start: int, subsets: _Subsets) -> list | None:
    """The table of text, whose rows begin at start, read by string
    methods with no Python step per row; or None unless text is the dump
    of a table of the shape subsets.

    The colors c_r found between each " : " and the next newline must be
    non-empty runs of ASCII digits with template % (c_0, c_1, ...) ==
    text, for the shape's dump template.  Such a text is the shape's
    exact header lines and then "texts[r] : c_r" for each rank r, one to
    a line, with no "#" and no line break but "\n".  So the line reader
    would find the same headers, find each row's text in the index at
    rank r and read int(" " + c_r) == int(c_r) >= 0: the same table.  The
    cheap checks come first: a text with a line missing or added, with
    its first row written otherwise or its last line not ending in a
    digit and "\n" stops before it is split, and one with a malformed
    color before a template is built."""
    size = subsets.size
    if (
        "#" in text
        or not text.endswith("\n")
        or text[-2] not in "0123456789"  # the last color, or k
        or text.count("\n") != size + 2
        or (size and not text.startswith(next(iter(subsets.texts())) + " : ", start))
    ):
        return None
    tokens = text.replace(" : ", "\n").split("\n")
    colors = tokens[3::2]
    digits = "".join(colors)
    if (
        len(tokens) != 2 * size + 3
        or not all(colors)
        or digits.strip("0123456789")
        or subsets.template() % tuple(colors) != text
    ):
        return None
    if len(digits) == size:  # one digit each
        return list(digits.encode().translate(_DIGIT_VALUES))
    try:
        return list(map(int, colors))
    except ValueError:  # past int()'s digit limit; the line reader says so
        return None


def _read_lines(text: str, shaped: tuple | None) -> Coloring:
    """Read text line by line: the headers wherever they sit, and each
    row's elements looked up as written among the subsets as
    dump_coloring writes them; a row written otherwise (other spacing,
    elements out of order or repeated) is read through int() and looked
    up again.  The headers are checked before any row: a table above
    TABLE_CAP raises ResourceLimitError before the subsets are listed.
    shaped is (ground, k, shape), the shape already read from those two
    header values, or None."""
    headers = {}
    rows = []
    comments = "#" in text  # a comment runs from "#" to the end of its line
    for raw in text.splitlines():
        line = raw.partition("#")[0] if comments else raw
        left, colon, right = line.rpartition(":")
        key = left.strip()
        if key == "ground" or key == "k":
            if key in headers:
                raise ValueError(f"coloring file has more than one '{key}:' line")
            headers[key] = right
        elif colon:
            rows.append((key, right))
        elif line and not line.isspace():
            raise ValueError(f"bad coloring line: {raw!r}")
    # rows are read once both headers are known, wherever they sit
    if len(headers) < 2:
        raise ValueError("coloring file needs 'ground:' and 'k:' lines")
    ground, k = headers["ground"], headers["k"]
    if shaped is not None and shaped[:2] == (ground, k):
        subsets = shaped[2]
    else:
        try:
            elements = list(map(int, ground.split()))
        except ValueError:
            raise _bad_line(text, "ground", ground) from None
        try:
            size = int(k)
        except ValueError:
            raise _bad_line(text, "k", k) from None
        subsets = _shape(elements, size)
    index = subsets.index()
    table = [None] * subsets.size
    extraneous = set()
    for written, right in rows:
        key = written
        r = index.get(key)
        if r is None:
            try:
                key = " ".join(str(x) for x in sorted({int(x) for x in key.split()}))
            except ValueError:
                raise _bad_line(text, written, right) from None
            r = index.get(key)
        if r is None:
            if key in extraneous:
                raise _duplicate(key)
            extraneous.add(key)
        elif table[r] is not None:
            raise _duplicate(key)
        try:
            color = int(right)  # a malformed color is reported before totality
        except ValueError:
            raise _bad_line(text, written, right) from None
        if r is not None:
            table[r] = color
    _require_total(subsets.k, table.count(None), len(extraneous))
    return Coloring._from_table(subsets.ground, subsets.k, table, _max_color(table))


def _bad_line(text: str, key: str, value: str) -> ValueError:
    """The error quoting the first line of text that the line reader
    reads as key and value, a value it could not read.  The reader keeps
    no line of its own, so the line is found again: such a line holds
    ":" + value, so only the stretches between newlines that hold it are
    cut into lines."""
    written = ":" + value
    at = text.find(written)
    while at >= 0:
        end = text.find("\n", at)
        if end < 0:
            end = len(text)
        for raw in text[text.rfind("\n", 0, at) + 1 : end].splitlines():
            left, colon, right = raw.partition("#")[0].rpartition(":")
            if colon and right == value and left.strip() == key:
                return ValueError(f"bad coloring line: {raw!r}")
        at = text.find(written, end)


def _duplicate(key: str) -> ValueError:
    return ValueError(
        f"duplicate subset in coloring: {[int(x) for x in key.split()]}"
    )
