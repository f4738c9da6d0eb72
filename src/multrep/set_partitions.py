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
from itertools import product

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

    def _block_flags(self, elems) -> list[bool]:
        """contains_block of every subset of elems, indexed by mask: bit i
        picks elems[i]."""
        block = _block_of(elems)
        return [self.contains_block(block(a)) for a in range(1 << len(elems))]


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
        prod = 1
        for p in block:
            prod *= p
        # a block of distinct primes is its own factorization
        return self.base.contains_factored(prod, dict.fromkeys(block, 1))

    def _block_flags(self, elems) -> list[bool]:
        base, universe = self.base, self.universe
        if base.multiplicative:
            # the base holds 1, and a product of distinct primes exactly
            # when it holds each of them
            ok = [True]
            for p in elems:
                if p in universe and base.contains_factored(p, {p: 1}):
                    ok += ok
                else:
                    ok += [False] * len(ok)
            return ok
        outside = sum(1 << i for i, p in enumerate(elems) if p not in universe)
        half = len(elems) // 2
        # the pairs (upper, lower) come in mask order: a = upper << half | lower
        blocks = product(_factored(elems[half:]), _factored(elems[:half]))
        contains = base.contains_factored
        return [
            not a & outside and contains(lp * hp, lf | hf)
            for a, ((hp, hf), (lp, lf)) in enumerate(blocks)
        ]


def image_family(base: SetDescription, universe) -> ImageOfSet:
    """Raises ValueError when the universe holds a number that is not prime."""
    return ImageOfSet(base, frozenset(universe))


def _subsets(elems) -> list[frozenset]:
    """The subsets of elems indexed by mask: bit i picks elems[i]."""
    out = [frozenset()]
    for e in elems:
        out += [b | {e} for b in out]
    return out


def _factored(primes) -> list[tuple[int, dict[int, int]]]:
    """The product and factorization of each subset of the distinct
    primes, indexed by mask."""
    out = [(1, {})]
    for p in primes:
        out += [(m * p, f | {p: 1}) for m, f in out]
    return out


def _block_of(elems):
    """The function from a mask to the subset of elems it picks.  A block
    is the union of a subset of the lower and one of the upper half, so
    that only the 2^(n/2) subsets of each half are held."""
    half = len(elems) // 2
    low, high = _subsets(elems[:half]), _subsets(elems[half:])
    low_mask = len(low) - 1
    return lambda a: low[a & low_mask] | high[a >> half]


def count_ordered_covers(s, families) -> int:
    """Exact count of ordered disjoint covers of s by family blocks.

    A fold over bitmasks, bit i standing for the i-th smallest element of
    s, from the last family up: ways[r] counts the covers of the mask r
    by the families folded so far.  The last and each middle family
    decide every subset of s at once, one flag per mask (an image family
    of a multiplicative base decides each element once); a block a it
    accepts adds ways[r] to the next level at r | a for every submask r
    of the complement of a.  The first family decides a block a only
    where ways[full ^ a] is not zero.  That is O(h * 3^|s|) additions,
    and 2^|s| decisions per family, so h = 2 costs O(2^|s|).
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
    first, *middle, last = fams
    ways = last._block_flags(elems)
    for fam in reversed(middle):
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
    block = _block_of(elems)
    # reversed(ways)[a] is ways[full ^ a]
    return sum(
        w
        for a, w in enumerate(reversed(ways))
        if w and first.contains_block(block(a))
    )


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
