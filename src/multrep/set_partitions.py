"""Ordered disjoint covers of a finite set by blocks from per-slot families.

count_ordered_covers(S, (F_1,...,F_h)) counts the ordered h-tuples
(A_1,...,A_h) with A_i in F_i, pairwise disjoint, union S.  With the
image families of a multiplicative system over a prime universe this
equals the system's representation count at the corresponding squarefree
integer, which verify_correspondence checks from both sides.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import compress

from .errors import ResourceLimitError
from .integer_sets import MultiplicativeSystem, SetDescription, _sorted_primes
from .squarefree_map import phi
from .repcount import count_system_reps

# the most steps the fold may take per family: 3^|S| submask steps when
# a middle family folds, 2^|S| mask decisions otherwise
FOLD_CAP = 3**13


class FamilyDescription:
    """Decidable membership for finite blocks; _block_flags decides every
    subset of some elements in one call, as SetDescription.divisor_flags
    decides every divisor of a factored n."""

    def contains_block(self, block: frozenset[int]) -> bool:
        raise NotImplementedError

    def _block_flags(self, elems, where=None) -> list:
        """contains_block of the subset of the distinct elems that each
        mask picks (bit i picks elems[i]), one flag per mask, in mask
        order.  where, 2^len(elems) flags in the same order (a list,
        bytes or bytearray, whose true entries mark), restricts the
        questions to the masks it marks, asked in increasing order, and
        the others read False.  Here each marked mask's block is built
        and asked in turn."""
        size = 1 << len(elems)
        asked = range(size) if where is None else compress(range(size), where)
        row = [False] * size
        for a in asked:
            row[a] = self.contains_block(frozenset(e for i, e in enumerate(elems) if a >> i & 1))
        return row


@dataclass(frozen=True)
class Explicit(FamilyDescription):
    blocks: frozenset[frozenset[int]]

    def contains_block(self, block: frozenset[int]) -> bool:
        return block in self.blocks


def explicit_family(blocks) -> Explicit:
    return Explicit(frozenset(frozenset(b) for b in blocks))


@dataclass(frozen=True)
class ByCardinality(FamilyDescription):
    """All subsets whose size is allowed."""

    sizes: frozenset[int]

    def contains_block(self, block: frozenset[int]) -> bool:
        return len(block) in self.sizes

    def _block_flags(self, elems, where=None) -> list:
        masks = range(1 << len(elems))
        return [a.bit_count() in self.sizes and (where is None or bool(where[a])) for a in masks]


def by_cardinality(sizes) -> ByCardinality:
    return ByCardinality(frozenset(sizes))


@dataclass(frozen=True)
class ImageOfSet(FamilyDescription):
    """Prime sets whose product lies in a base set, within a prime universe."""

    base: SetDescription
    universe: frozenset[int]

    def __post_init__(self):
        _sorted_primes(self.universe)

    def contains_block(self, block: frozenset[int]) -> bool:
        if not block <= self.universe:
            return False
        # a block of distinct primes is its own factorization, read in
        # increasing order as the system side reads it
        factors = dict.fromkeys(sorted(block), 1)
        return self.base.contains_factored(math.prod(block), factors)

    def _block_flags(self, elems, where=None) -> list:
        """When the universe holds every elem, the base's divisor_flags at
        their product, whose divisor index is the mask; otherwise block by
        block, where contains_block reads a block with an element outside
        as False, unasked."""
        if self.universe.issuperset(elems):
            return self.base.divisor_flags(dict.fromkeys(elems, 1), where)
        return super()._block_flags(elems, where)


def image_family(base: SetDescription, universe) -> ImageOfSet:
    """Raises ValueError when the universe holds a number that is not prime."""
    return ImageOfSet(base, frozenset(universe))


def count_ordered_covers(s, families) -> int:
    """Exact count of ordered disjoint covers of s by family blocks.

    The tail, the trailing run of image families of multiplicative sets,
    is counted per element, as the system side counts its tail per
    prime: a block of distinct primes is in such a family exactly when
    each of its primes is, so each tail family is asked about each
    element alone (elements in increasing order outside, families
    inside), and the tail covers a set of elements in the product over
    them of held, the number of tail families holding each.  When every
    family is in the tail, that product is the count, and it stops at
    the first element that no family holds.  The families above fold
    over bitmasks from there, bit i standing for the i-th smallest
    element, or from the last family's flags when the tail is empty:
    ways[r] counts the covers of the mask r so far.  Each family above
    the tail is decided in one _block_flags call: a middle family (any
    but the first above the tail, or above the last family when it
    starts the fold) and the last family that starts it at every mask,
    the first only at the masks whose complement the rest cover, by the
    one where row with which the system side restricts its part 0.  An
    image family whose universe holds every element takes the flags from
    its base's divisor_flags at their product, so Primes, PrimesWithOne,
    Singleton, PowersOf, the multiplicative kinds and their unions and
    intersections need no factorization per block; one whose universe
    leaves an element out asks its base block by block, and a block
    with an element outside reads False, unasked.  A block a that a middle family accepts
    adds ways[r] at r | a for every submask r of the complement of a.
    That is 3^|s| submask steps per middle family and at most 2^|s|
    decisions per family.  Once the tail is found, before any family is
    asked, ResourceLimitError when the fold's steps per family, 3^|s|
    with a middle family and 2^|s| without, exceed FOLD_CAP (3^13): a
    fold takes up to 13 elements with a middle family and 20 without.
    A cover that is all tail folds nothing and is never capped.
    """
    fams = tuple(families)
    if len(fams) < 2:
        raise ValueError("need h >= 2 families")
    elems = tuple(sorted(set(s)))
    t = len(fams)
    while t and isinstance(fams[t - 1], ImageOfSet) and fams[t - 1].base.multiplicative:
        t -= 1
    tail = fams[t:]
    # the number of tail families holding each element, asked lazily
    held = (sum(f.contains_block(frozenset((e,))) for f in tail) for e in elems)
    if t == 0:
        count = 1
        for k in held:
            count *= k
            if not count:
                break
        return count
    seeds = t == len(fams)  # no tail: the last family starts the fold
    t -= seeds
    steps = (3 if t > 1 else 2) ** len(elems)
    if steps > FOLD_CAP:
        raise ResourceLimitError(
            f"|S| = {len(elems)} needs {steps} fold steps per family, "
            f"above the cap {FOLD_CAP}"
        )
    full = (1 << len(elems)) - 1
    if seeds:
        ways = fams[t]._block_flags(elems)
    else:
        ways = [1]
        for k in held:
            ways += [w * k for w in ways]
    for fam in reversed(fams[1:t]):
        folded = [0] * (full + 1)
        for a, ok in enumerate(fam._block_flags(elems)):
            if ok:
                rest = r = full ^ a
                while True:
                    folded[r | a] += ways[r]
                    if not r:
                        break
                    r = (r - 1) & rest
        ways = folded
    # the first family is asked only at the masks a whose complement the
    # rest cover, where ways[full ^ a] is not 0; only those counts are
    # kept, in the order of their masks, so that the full list is freed
    # before the first family's row is built
    where = bytes(map(bool, reversed(ways)))
    ways = list(filter(None, reversed(ways)))
    flags = fams[0]._block_flags(elems, where)
    return sum(compress(ways, compress(flags, where)))


def multinomial(n: int, ks) -> int:
    """n! / (k_1! ... k_h!), exact; the ks must sum to n."""
    ks = list(ks)
    if n < 0 or any(k < 0 for k in ks):
        raise ValueError("n and all ks must be >= 0")
    if sum(ks) != n:
        raise ValueError("ks must sum to n")
    out = math.factorial(n)
    for k in ks:
        out //= math.factorial(k)
    return out


@dataclass(frozen=True)
class CorrespondenceReport:
    q: int
    system_count: int
    cover_count: int
    equal: bool

    def to_record(self) -> dict:
        """The CLI record: the fields in order."""
        return asdict(self)


def verify_correspondence(
    system: MultiplicativeSystem, q: int, universe
) -> CorrespondenceReport:
    """Check g(q) against the ordered-cover count of phi(q) under the
    system's image families.  Inequality indicates an implementation bug.
    The cover count's FOLD_CAP holds here too: ResourceLimitError when
    phi(q) has more than 13 primes and a middle family folds, or more
    than 20 and a fold runs without one; a system that is all
    multiplicative folds nothing and is never capped."""
    s = phi(q).as_frozenset()
    universe = frozenset(universe)
    if not s <= universe:
        raise ValueError("phi(q) must be contained in the universe")
    fams = [image_family(part, universe) for part in system.parts]
    cover = count_ordered_covers(s, fams)
    sys_count = count_system_reps(system, q, tuple_cap=0).count
    return CorrespondenceReport(q, sys_count, cover, sys_count == cover)
