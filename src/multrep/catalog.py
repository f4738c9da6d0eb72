"""Named multiplicative systems with closed-form counts, and their table.

Four families, each an asymptotic multiplicative system of order h whose
count sequence realizes a prescribed (liminf, limsup) pair:

  fundamental   parts are the smooth numbers over an index-residue prime
                partition; every n factors uniquely, so g(n) = 1.
  one-t         (N, {2^0..2^(t-1)}, {1}, ...): g(n) = min(l, t) where
                n = 2^(l-1) m with m odd; pair (1, t).
  one-inf       (N, all powers of 2, {1}, ...): g(n) = l; pair (1, inf).
  s-inf         (N, P+{1} repeated s-1 times, {1}, ...): g(p) = s at
                primes, g(n) >= s for n >= 2, unbounded; pair (s, inf).

Limits are never computed: verification scans a finite range exhaustively
and reports a monotone witness sequence as EVIDENCE for unboundedness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product as _iproduct

from .integer_sets import (
    MAX_INT,
    AllNaturals,
    IndexResidue,
    MultiplicativeSystem,
    PowersOf,
    PrimesWithOne,
    Singleton,
    SmoothOver,
    factorize,
    nth_prime,
)
from .repcount import WindowStats, _counts, scan_counts, summarize_window
from .set_partitions import multinomial

INFINITE = math.inf

# the keys each construction takes; build gives h the default 2
KEYS = {"fundamental": ("h",), "one-t": ("h", "t"), "one-inf": ("h",), "s-inf": ("h", "s")}
NAMES = tuple(KEYS)


@dataclass(frozen=True)
class NamedConstruction:
    name: str
    h: int
    t: int | None
    s: int | None
    system: MultiplicativeSystem
    claimed: tuple  # (liminf, limsup), limsup possibly INFINITE


def build(name: str, h: int = 2, t: int | None = None, s: int | None = None) -> NamedConstruction:
    """The named construction of order h.  A t or s of None is not given;
    one that the construction does not take (see KEYS) raises ValueError."""
    if h < 2:
        raise ValueError("h must be >= 2")
    if name not in KEYS:
        raise ValueError(f"unknown construction {name!r}")
    if {key for key, value in (("t", t), ("s", s)) if value is not None} - set(KEYS[name]):
        raise ValueError(f"{name} takes only {', '.join(KEYS[name])}")
    one = Singleton((1,))
    if name == "fundamental":
        parts = tuple(
            SmoothOver(IndexResidue(h, r)) for r in range(h)
        )
        return NamedConstruction(name, h, None, None, MultiplicativeSystem(parts), (1, 1))
    if name == "one-t":
        if t is None or t < 1:
            raise ValueError("one-t needs t >= 1")
        parts = (AllNaturals(), PowersOf(2, 0, t - 1)) + (one,) * (h - 2)
        return NamedConstruction(name, h, t, None, MultiplicativeSystem(parts), (1, t))
    if name == "one-inf":
        parts = (AllNaturals(), PowersOf(2, 0, None)) + (one,) * (h - 2)
        return NamedConstruction(name, h, None, None, MultiplicativeSystem(parts), (1, INFINITE))
    # s-inf
    if s is None or not 2 <= s <= h:
        raise ValueError("s-inf needs 2 <= s <= h")
    parts = (AllNaturals(),) + (PrimesWithOne(),) * (s - 1) + (one,) * (h - s)
    return NamedConstruction(name, h, None, s, MultiplicativeSystem(parts), (s, INFINITE))


def closed_form(construction: NamedConstruction, n: int) -> int:
    """The family's exact count formula, computed without enumeration."""
    if n < 1:
        raise ValueError("n must be >= 1")
    name = construction.name
    if name == "fundamental":
        return 1
    if name in ("one-t", "one-inf"):
        ell = 1
        while n % 2 == 0:
            n //= 2
            ell += 1
        return ell if name == "one-inf" else min(ell, construction.t)
    if name == "s-inf":
        # ordered (s-1)-tuples over P+{1} whose product divides n with
        # multiplicity: sum of multinomials over bounded prime multisets
        m = construction.s - 1
        exps = list(factorize(n).values())
        total = 0
        for alloc in _iproduct(*(range(min(e, m) + 1) for e in exps)):
            used = sum(alloc)
            if used <= m:
                total += multinomial(m, [*alloc, m - used])
        return total
    raise ValueError(f"unknown construction {name!r}")


def primorials(max_value: int = MAX_INT) -> list[int]:
    """2, 6, 30, ... while the product stays within max_value."""
    out = []
    prod = 1
    k = 1
    while True:
        prod *= nth_prime(k)
        if prod > max_value:
            return out
        out.append(prod)
        k += 1


@dataclass
class VerificationReport:
    construction: NamedConstruction
    scan_max: int
    all_match: bool
    mismatches: list[tuple[int, int, int]]  # (n, closed_form, brute_force)
    window: WindowStats
    prime_values: list[tuple[int, int]] | None
    prime_values_ok: bool | None
    evidence: list[tuple[int, int, int]]  # (k, n, count), EVIDENCE only
    rows: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.all_match and self.prime_values_ok in (None, True)

    def to_record(self) -> dict:
        claimed_s, claimed_t = self.construction.claimed
        return {
            "name": self.construction.name,
            "h": self.construction.h,
            "claimed": [claimed_s, "inf" if claimed_t == INFINITE else claimed_t],
            "scan_max": self.scan_max,
            "all_match": self.all_match,
            "mismatches": [list(m) for m in self.mismatches[:32]],
            "window": self.window.to_record(),
            "prime_values_ok": self.prime_values_ok,
            "unboundedness_evidence": [list(e) for e in self.evidence],
        }


def verify(
    construction: NamedConstruction,
    scan_max: int,
    keep_rows: bool = False,
) -> VerificationReport:
    """Compare closed-form and brute-force counts for every n <= scan_max,
    report the window min/max, and (for limsup = inf families) a monotone
    witness sequence.  A mismatch is a verification failure, not an error."""
    if scan_max < 2:
        raise ValueError("scan_max must be >= 2")
    system = construction.system
    mismatches = []
    rows = []

    def checked_counts():
        """(n, brute-force count) for n in [2, scan_max], recording every
        n <= scan_max whose closed form disagrees."""
        for n, brute in scan_counts(system, 1, scan_max):
            closed = closed_form(construction, n)
            if closed != brute:
                mismatches.append((n, closed, brute))
            if keep_rows:
                rows.append((n, closed, brute))
            if n >= 2:
                yield n, brute

    window = summarize_window(2, scan_max, checked_counts())

    prime_values = None
    prime_values_ok = None
    if construction.name == "s-inf":
        prime_values = list(_counts(system, map(nth_prime, range(1, 101))))
        prime_values_ok = all(c == construction.s for _, c in prime_values)

    evidence = []
    if construction.claimed[1] == INFINITE:
        if construction.name == "one-inf":
            # primorials have a single factor of 2, so powers of 2 are the
            # monotone witness sequence for this family
            seq = [(k, 2**k) for k in range(1, 11)]
        else:
            seq = list(enumerate(primorials(), start=1))[:10]
        counts = _counts(system, (n for _, n in seq))
        evidence = [(k, n, c) for (k, _), (n, c) in zip(seq, counts)]

    return VerificationReport(
        construction=construction,
        scan_max=scan_max,
        all_match=not mismatches,
        mismatches=mismatches,
        window=window,
        prime_values=prime_values,
        prime_values_ok=prime_values_ok,
        evidence=evidence,
        rows=rows,
    )


def mh_table(h: int, t_cutoff: int = 3) -> list[tuple[int, object, str]]:
    """Rows (s, t, witnessing construction) of the achievable-pair table:
    (1,1)..(1,T), (1,inf), (2,inf)..(h,inf)."""
    if h < 2:
        raise ValueError("h must be >= 2")
    if t_cutoff < 1:
        raise ValueError("t_cutoff must be >= 1")
    rows: list[tuple[int, object, str]] = [(1, 1, "fundamental")]
    for t in range(2, t_cutoff + 1):
        rows.append((1, t, "one-t"))
    rows.append((1, INFINITE, "one-inf"))
    for s in range(2, h + 1):
        rows.append((s, INFINITE, "s-inf"))
    return rows
