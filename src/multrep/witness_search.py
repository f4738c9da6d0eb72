"""Hunt for integers with large representation counts under a system.

The streams are deterministic.  The squarefree-rich stream follows the
proof mechanism for unboundedness: squarefree integers grouped by the
number of prime factors (ascending), each group in increasing value, so
each primorial opens its group.  The exhaustive stream is 2, 3, 4, ...
The hybrid stream interleaves the two without duplicates.

A returned witness is the earliest qualifying candidate in stream order;
for the exhaustive stream this is also the smallest qualifying integer,
for the others it need not be.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice

from .integer_sets import MultiplicativeSystem, membership, primes_up_to
from .repcount import RepWitness, _counts, count_system_reps

STRATEGIES = ("squarefree-rich", "exhaustive", "hybrid")


@dataclass(frozen=True)
class SearchBudget:
    max_candidates: int = 200_000
    max_n: int = 1_000_000
    strategy: str = "hybrid"

    def __post_init__(self):
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        if self.max_n < 2:
            raise ValueError("max_n must be >= 2")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")


@dataclass(frozen=True)
class SearchOutcome:
    witness: RepWitness | None
    candidates_tried: int
    max_count_seen: int
    argmax: int | None

    def to_record(self) -> dict:
        return {
            "found": self.witness is not None,
            "witness": None if self.witness is None else self.witness.to_record(),
            "candidates_tried": self.candidates_tried,
            "max_count_seen": self.max_count_seen,
            "argmax": self.argmax,
        }


def _squarefree_products(ps: list[int], k: int, max_n: int) -> list[int]:
    out: list[int] = []

    def rec(start: int, depth: int, prod: int):
        if depth == 0:
            out.append(prod)
            return
        for i in range(start, len(ps)):
            nxt = prod * ps[i]
            if nxt > max_n:
                break
            rec(i + 1, depth - 1, nxt)

    rec(0, k, 1)
    out.sort()
    return out


def _squarefree_rich(max_n: int):
    ps = primes_up_to(max_n)
    yield from ps
    for k in count(2):
        group = _squarefree_products(ps, k, max_n)
        if not group:
            return
        yield from group


def candidate_stream(strategy: str, max_n: int):
    """Deterministic stream of candidates in [2, max_n], no duplicates;
    ValueError at the call for an unknown strategy."""
    if strategy == "exhaustive":
        return iter(range(2, max_n + 1))
    if strategy == "squarefree-rich":
        return _squarefree_rich(max_n)
    if strategy == "hybrid":
        return _hybrid(max_n)
    raise ValueError(f"strategy must be one of {STRATEGIES}")


def _hybrid(max_n: int):
    """The squarefree-rich and exhaustive streams interleaved, each
    candidate yielded once."""
    seen: set[int] = set()
    rich = _squarefree_rich(max_n)
    plain = iter(range(2, max_n + 1))
    exhausted = 0
    while exhausted < 2:
        exhausted = 0
        for it in (rich, plain):
            for n in it:
                if n not in seen:
                    seen.add(n)
                    yield n
                    break
            else:
                exhausted += 1


def check_witness(system: MultiplicativeSystem, w: RepWitness) -> None:
    """Soundness recheck of an emitted witness: every listed tuple must
    multiply to n with coordinate-wise membership."""
    for t in w.tuples:
        prod = 1
        for b, part in zip(t, system.parts):
            if not membership(part, b):
                raise AssertionError(f"tuple {t} fails membership at {b}")
            prod *= b
        if prod != w.n:
            raise AssertionError(f"tuple {t} does not multiply to {w.n}")
    if len(set(w.tuples)) != len(w.tuples):
        raise AssertionError("duplicate tuples in witness")
    if w.count < len(w.tuples):
        raise AssertionError("count smaller than the listed tuples")


def find_witness(
    system: MultiplicativeSystem, target: int, budget: SearchBudget
) -> SearchOutcome:
    """First candidate in stream order with count >= target, re-verified;
    otherwise the search statistics (max count seen and where).  Only the
    witness has its tuples listed."""
    if target < 1:
        raise ValueError("target must be >= 1")
    tried = 0
    best = 0
    best_n = None
    counts = _counts(system, candidate_stream(budget.strategy, budget.max_n))
    for n, count in islice(counts, budget.max_candidates):
        tried += 1
        if count > best:
            best, best_n = count, n
        elif count == best and best_n is not None and n < best_n:
            best_n = n
        if count >= target:
            w = count_system_reps(system, n)
            check_witness(system, w)
            return SearchOutcome(w, tried, best, best_n)
    return SearchOutcome(None, tried, best, best_n)
