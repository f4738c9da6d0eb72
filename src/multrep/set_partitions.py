"""Ordered disjoint covers of a finite set by blocks from per-slot families.

count_ordered_covers(S, (F_1,...,F_h)) counts the ordered h-tuples
(A_1,...,A_h) with A_i in F_i, pairwise disjoint, union S.  With the
image families of a multiplicative system over a prime universe this
equals the system's representation count at the corresponding squarefree
integer, which verify_correspondence checks from both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

from .errors import ResourceLimitError
from .integer_sets import MultiplicativeSystem, SetDescription, _sorted_primes
from .squarefree_map import phi
from .repcount import count_system_reps

SIZE_CAP_H2 = 20
SIZE_CAP_DEFAULT = 13


class FamilyDescription:
    """Decidable membership for finite blocks."""

    def contains_block(self, block: frozenset[int]) -> bool:
        raise NotImplementedError

    def _block_flags(self, elems, masks):
        """contains_block of the subset of elems each mask picks, one flag
        per mask, lazily and in the order that the iterable masks, read
        once, lists them: bit i picks elems[i]."""
        low, high, half = _halves(elems)
        low_mask = len(low) - 1
        for a in masks:
            block = frozenset(low[a & low_mask][1]).union(high[a >> half][1])
            yield self.contains_block(block)


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

    def _block_flags(self, elems, masks):
        return (a.bit_count() in self.sizes for a in masks)


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

    def _block_flags(self, elems, masks):
        base, universe = self.base, self.universe
        outside = sum(1 << i for i, p in enumerate(elems) if p not in universe)
        low, high, half = _halves(elems)
        low_mask = len(low) - 1
        # a multiplicative base holds a product of distinct primes exactly
        # when it holds each of them, so it answers a block whose primes
        # it was asked about alone from those answers; primes outside the
        # universe count as refused alone without asking
        mult = base.multiplicative
        alone = refused = outside  # the primes decided alone, and refused
        for a in masks:
            if a & outside or mult and not a & ~alone:
                yield not a & refused
            else:
                (lp, lf), (hp, hf) = low[a & low_mask], high[a >> half]
                ok = base.contains_factored(lp * hp, lf | hf)
                if not a & (a - 1):
                    alone |= a
                    refused |= 0 if ok else a
                yield ok


def image_family(base: SetDescription, universe) -> ImageOfSet:
    """Raises ValueError when the universe holds a number that is not prime."""
    return ImageOfSet(base, frozenset(universe))


def _halves(elems):
    """The product and factorization {e: 1} of each subset of the lower
    and of the upper half of the distinct elems, indexed by mask, and the
    size of the lower half.  The subset of elems that the mask a picks
    (bit i picks elems[i]) is the union of low[a & low_mask] and
    high[a >> half], so that only the 2^(n/2) subsets of each are held."""
    half = len(elems) // 2
    low, high = [(1, {})], [(1, {})]
    for out, part in ((low, elems[:half]), (high, elems[half:])):
        for e in part:
            out += [(m * e, f | {e: 1}) for m, f in out]
    return low, high, half


def count_ordered_covers(s, families) -> int:
    """Exact count of ordered disjoint covers of s by family blocks.

    A fold over bitmasks, bit i standing for the i-th smallest element of
    s, from the last family up: ways[r] counts the covers of the mask r
    by the families folded so far.  Every family, the first included,
    decides its blocks through one call that takes the masks to decide
    and lazily returns one flag per mask.  The last and each middle
    family are given every mask; a block a they accept adds ways[r] to
    the next level at r | a for every submask r of the complement of a.
    The first family is given only the masks a where ways[full ^ a] is
    not zero, the blocks whose complement the rest cover; but when every
    family is the image of a multiplicative set it is given every mask,
    as the system side then decides each part at each prime.  An image
    family asks its base about a listed block, primes in increasing
    order, unless the base is multiplicative and was asked about each of
    the block's primes alone.  That is O(h * 3^|s|) additions, and at
    most 2^|s| decisions per family, so h = 2 costs O(2^|s|).
    ResourceLimitError when |s| exceeds SIZE_CAP_H2 (h = 2) or
    SIZE_CAP_DEFAULT (h > 2).
    """
    fams = tuple(families)
    if len(fams) < 2:
        raise ValueError("need h >= 2 families")
    elems = tuple(sorted(s))
    cap = SIZE_CAP_H2 if len(fams) == 2 else SIZE_CAP_DEFAULT
    if len(elems) > cap:
        raise ResourceLimitError(
            f"|S| = {len(elems)} exceeds the size cap {cap}"
        )
    full = (1 << len(elems)) - 1
    every = range(full + 1)
    first, *middle, last = fams
    ways = list(last._block_flags(elems, every))
    for fam in reversed(middle):
        folded = [0] * (full + 1)
        for a, ok in enumerate(fam._block_flags(elems, every)):
            if ok:
                rest = r = full ^ a
                while True:
                    folded[r | a] += ways[r]
                    if not r:
                        break
                    r = (r - 1) & rest
        ways = folded
    # reversed(ways)[a] is ways[full ^ a]; the masks are generated, not
    # held, and the flags come back in their order
    eager = all(isinstance(f, ImageOfSet) and f.base.multiplicative for f in fams)
    masks = every if eager else compress(every, reversed(ways))
    counts = reversed(ways) if eager else filter(None, reversed(ways))
    return sum(w for w, ok in zip(counts, first._block_flags(elems, masks)) if ok)


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
        return {
            "q": self.q,
            "system_count": self.system_count,
            "cover_count": self.cover_count,
            "equal": self.equal,
        }


def verify_correspondence(
    system: MultiplicativeSystem, q: int, universe
) -> CorrespondenceReport:
    """Check g(q) against the ordered-cover count of phi(q) under the
    system's image families.  Inequality indicates an implementation bug.
    The cover count's size caps hold here too."""
    s = phi(q).as_frozenset()
    universe = frozenset(universe)
    if not s <= universe:
        raise ValueError("phi(q) must be contained in the universe")
    fams = [image_family(part, universe) for part in system.parts]
    cover = count_ordered_covers(s, fams)
    sys_count = count_system_reps(system, q, tuple_cap=0).count
    return CorrespondenceReport(q, sys_count, cover, sys_count == cover)
