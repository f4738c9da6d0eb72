"""Seeded inputs for the three workloads.

A deck is the list of operations one run performs.  It is a pure
function of (workload, seed, seconds): the run that times the library and
the parent that checks the answers build the same deck independently.
Every seed gives the same number of operations of each kind and class,
drawn from the same size bands, so the work is comparable across seeds.
The deck size scales with --seconds; the per-second rates below were set
so that one deck-second takes about one second of library time at the
commit that introduced the benchmark (2-core Xeon, Python 3.11).

An integer system is (spec, cls, rule, preds): the spec goes to
multrep.cli.parse_system_spec, cls is "mult" when every part has a
multiplicative indicator and "nonmult" otherwise, and rule/preds describe
the system to the oracle in the benchmark's own terms.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb, prod

WORKLOADS = ("scan", "point", "ramsey")


# ---------------------------------------------------------------------------
# primes for input generation (the benchmark's own, not the library's)
# ---------------------------------------------------------------------------

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59, 61, 67, 71, 73, 79, 83, 89, 97)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 2^64."""
    if n < 2:
        return False
    for p in SMALL_PRIMES[:12]:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in SMALL_PRIMES[:12]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if is_probable_prime(n):
            return n


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------

ALL = ("all",)
ONE = ("set", (1,))
PRIMES1 = ("primes1",)


def fundamental(h):
    preds = tuple(("residue", h, r) for r in range(h))
    return (f"fundamental:h={h}", "mult", ("fundamental",), preds)


def one_t(h, t):
    preds = (ALL, ("powers", 2, 0, t - 1)) + (ONE,) * (h - 2)
    return (f"one-t:h={h},t={t}", "mult", ("one-t", t), preds)


def one_inf(h):
    preds = (ALL, ("powers", 2, 0, None)) + (ONE,) * (h - 2)
    return (f"one-inf:h={h}", "mult", ("one-inf",), preds)


def s_inf(h, s):
    preds = (ALL,) + (PRIMES1,) * (s - 1) + (ONE,) * (h - s)
    return (f"s-inf:h={h},s={s}", "nonmult", ("s-inf", s), preds)


def naturals(h):
    spec = "parts:" + ";".join(["AllNaturals"] * h)
    return (spec, "mult", ("divisor", h), (ALL,) * h)


# Union, PrimesWithOne and Singleton parts: the grammar-built system with
# no closed form, checked by brute force over divisor tuples.
GRAMMAR_PREDS = (
    ("union", (("powers", 3, 0, 2), ("primes",))),
    PRIMES1,
    ("set", (1, 2, 4)),
)
GRAMMAR = (
    "parts:Union(PowersOf(3,0,2),Primes);PrimesWithOne;Singleton(1,2,4)",
    "nonmult",
    ("parts", GRAMMAR_PREDS),
    GRAMMAR_PREDS,
)
GRAMMAR_WITNESS_PREDS = (
    ("union", (("set", (1, 2, 3, 4, 6, 12)), ("primes",))), PRIMES1, PRIMES1,
)
GRAMMAR_WITNESS = (
    "parts:Union(Singleton(1,2,3,4,6,12),Primes);PrimesWithOne;PrimesWithOne",
    "nonmult",
    ("parts", GRAMMAR_WITNESS_PREDS),
    GRAMMAR_WITNESS_PREDS,
)


def _counts(rates: dict, seconds: int) -> dict:
    return {kind: max(1, round(rate * seconds)) for kind, rate in rates.items()}


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------
# Why: scans of contiguous ranges of small n are the README's main use
# (window [2, 1e4], catalog-verify up to 1e4).  The time goes to
# repcount's recursion and membership while factorize only reads the 2^20
# sieve, so a window sieve or a multiplicative fast path shows here and
# primality work should not.  Each system scans one contiguous range from
# a seeded start near n = 2, cut into consecutive windows of equal width:
# every n is counted once per system, so no timed input repeats, and a
# sieve over [1, hi] of each window does work in proportion to the range
# it reports.  Work is split about evenly between the mult and nonmult
# systems.  The deck runs in a fixed order, round-robin over the systems,
# so that the ops that fill the shared membership cache, and the garbage
# collections that come with its growth, fall on the same ops for every
# seed, and both classes run under the same machine load.

SCAN_START = 2
SCAN_OFFSET = 200           # the range starts in [2, 2 + SCAN_OFFSET)
SCAN_WIDTH = 1000           # about this many n per window
SCAN_SYSTEMS = (
    fundamental(3), s_inf(3, 2), one_t(2, 3), s_inf(3, 3),
    one_inf(3), GRAMMAR, naturals(3),
)
# n per deck-second scanned for each system
SCAN_N_PER_SECOND = 650
SCAN_VERIFY_N_PER_SECOND = 60
# catalog.verify scans [1, scan_max] of one construction per family
SCAN_VERIFY = (
    ("fundamental", 2, None, None, fundamental(2)),
    ("one-t", 3, 2, None, one_t(3, 2)),
    ("one-inf", 2, None, None, one_inf(2)),
    ("s-inf", 2, None, 2, s_inf(2, 2)),
)
# (system, target, strategy); each search starts at small n, so no two
# share a system with each other or with a verify scan.
SCAN_WITNESS = (
    (naturals(2), 48, "exhaustive"),
    (naturals(4), 1000, "hybrid"),
    (s_inf(4, 4), 60, "exhaustive"),
    (GRAMMAR_WITNESS, 8, "hybrid"),
)
SCAN_MAX_N = 1 << 20


def scan_deck(rng: random.Random, seconds: int) -> list:
    total = SCAN_N_PER_SECOND * seconds
    k = max(1, round(total / SCAN_WIDTH))
    cuts = [round(i * total / k) for i in range(k + 1)]
    starts = [SCAN_START + rng.randrange(SCAN_OFFSET) for _ in SCAN_SYSTEMS]
    scan_max = max(10, round(SCAN_VERIFY_N_PER_SECOND * seconds))
    others = [("verify", system, name, h, t, s, scan_max)
              for name, h, t, s, system in SCAN_VERIFY]
    others += [("witness", system, target, strategy, SCAN_MAX_N)
               for system, target, strategy in SCAN_WITNESS]
    deck = []
    for r in range(k):
        deck.extend(("window", system, lo + cuts[r], lo + cuts[r + 1] - 1)
                    for system, lo in zip(SCAN_SYSTEMS, starts))
        deck.extend(others[r::k])
    return deck


# ---------------------------------------------------------------------------
# point
# ---------------------------------------------------------------------------
# Why: single counts at scattered n in [2^20, 2^62] reach factorize and
# is_prime beyond the sieve, sieve growth and the membership cache, which
# scan never reaches; a window sieve cannot help here.  The hard inputs
# (62-bit primes and semiprimes, a fundamental-system n whose prime factor
# sends prime_index's sieve past the memory cap) do not finish at the
# commit that introduced the benchmark.  They run after the timed deck as
# labelled probes, so they never count against the deck's operations.

POINT_LO = 1 << 20
POINT_HI = 1 << 62


def _dh(n_exps, h):
    return prod(comb(e + h - 1, h - 1) for e in n_exps)


def smooth(rng, h, dmin, dmax, primes=SMALL_PRIMES[:12], lo=POINT_LO):
    """Random n in [lo, 2^62] over the given primes with d_h(n) in
    [dmin, dmax]; d_h bounds the tuples a count has to walk."""
    while True:
        ps = rng.sample(primes, rng.randint(3, min(9, len(primes))))
        exps = [rng.choice((1, 1, 1, 2, 2, 3, 4, 5)) for _ in ps]
        n = prod(p**e for p, e in zip(ps, exps))
        if lo <= n <= POINT_HI and dmin <= _dh(exps, h) <= dmax:
            return n


def with_large_prime(rng, h, dmax):
    """A small smooth cofactor times one prime in [2^43, 1.25 * 2^43]: the
    factorization needs is_prime beyond the trial-division bound, whose
    cost grows with the square root of the prime."""
    cofactor = smooth(rng, h, 1, dmax, lo=1)
    while cofactor > 1 << 18:
        cofactor = smooth(rng, h, 1, dmax, lo=1)
    return cofactor * random_prime(rng, 1 << 43, 5 << 41)


def squarefree(rng, k):
    """A squarefree q in [2^20, 2^62] with k small prime factors; the
    cover and partition counts grow as h^k, so k is fixed per kind."""
    while True:
        ps = sorted(rng.sample(SMALL_PRIMES, k))
        q = prod(ps)
        if POINT_LO <= q <= POINT_HI:
            return q, tuple(ps)


# Operations per deck-second.  The two "-prime" kinds, whose cost is the
# trial division of one prime near 2^43, make up a little over 1% of the
# ops, so op_p99_ms falls inside that group rather than on the edge
# between it and the smooth counts.
POINT_RATES = {
    "naturals2": 12, "naturals3": 8, "fundamental2": 8, "fundamental3": 10,
    "one-t": 12, "one-inf": 12, "naturals2-prime": 0.75, "naturals3-huge": 0.1,
    "corr-fundamental": 1.5, "partitions2": 3, "partitions3": 0.5,
    "s-inf32": 18, "s-inf33": 18, "grammar": 18, "s-inf22-prime": 0.75,
    "corr-s-inf22": 5, "corr-s-inf33": 2,
}


def _point_op(rng, kind):
    if kind == "naturals2":
        return ("count", naturals(2), smooth(rng, 2, 100, 1000))
    if kind == "naturals3":
        return ("count", naturals(3), smooth(rng, 3, 300, 3000))
    if kind == "fundamental2":
        return ("count", fundamental(2), smooth(rng, 2, 50, 500, SMALL_PRIMES))
    if kind == "fundamental3":
        return ("count", fundamental(3), smooth(rng, 3, 300, 3000, SMALL_PRIMES))
    if kind == "one-t":
        return ("count", one_t(3, 3), smooth(rng, 3, 300, 3000))
    if kind == "one-inf":
        return ("count", one_inf(2), smooth(rng, 2, 100, 1000))
    if kind == "naturals2-prime":
        return ("count", naturals(2), with_large_prime(rng, 2, 32))
    if kind == "naturals3-huge":
        return ("count", naturals(3), smooth(rng, 3, 100_000, 110_000))
    if kind == "corr-fundamental":
        return ("corr", fundamental(2)) + squarefree(rng, 9)
    if kind == "partitions2":
        return ("partitions", 2) + squarefree(rng, 10)
    if kind == "partitions3":
        return ("partitions", 3) + squarefree(rng, 8)
    if kind == "s-inf32":
        return ("count", s_inf(3, 2), smooth(rng, 3, 300, 3000))
    if kind == "s-inf33":
        return ("count", s_inf(3, 3), smooth(rng, 3, 300, 3000))
    if kind == "grammar":
        return ("count", GRAMMAR, smooth(rng, 3, 300, 3000))
    if kind == "s-inf22-prime":
        return ("count", s_inf(2, 2), with_large_prime(rng, 2, 32))
    if kind == "corr-s-inf22":
        return ("corr", s_inf(2, 2)) + squarefree(rng, 10)
    if kind == "corr-s-inf33":
        return ("corr", s_inf(3, 3)) + squarefree(rng, 8)
    raise ValueError(kind)


def point_deck(rng: random.Random, seconds: int) -> list:
    deck = []
    for kind, count in _counts(POINT_RATES, seconds).items():
        deck.extend(_point_op(rng, kind) for _ in range(count))
    rng.shuffle(deck)
    return deck


def point_probes(rng: random.Random) -> list:
    """(label, op) pairs for the hard inputs."""
    p = random_prime(rng, 1 << 61, 1 << 62)
    a = random_prime(rng, 1 << 30, 1 << 31)
    b = random_prime(rng, 1 << 30, 1 << 31)
    big = random_prime(rng, 1 << 32, 1 << 33)
    return [
        ("prime62", ("count", naturals(2), p)),
        ("semiprime62", ("count", naturals(2), a * b)),
        ("sieve-cap", ("count", fundamental(2), 8 * big)),
    ]


# ---------------------------------------------------------------------------
# ramsey
# ---------------------------------------------------------------------------
# Why: no integer module runs here, so every integer-side change must
# read no change.  A colouring is (ground, k, {sorted k-tuple: colour});
# every one goes through Coloring construction and a dump/load round trip
# before its search, so a change that speeds search by slowing build or
# validation still shows.  The mult class holds the operations on product
# colourings, whose colour is the mixed-radix product of factor colours;
# the nonmult class holds the operations on plain colourings.

def colouring(spec):
    """(ground, k, {sorted k-tuple: colour}) for a spec (size, k, colours,
    seed); decks hold specs so that a run's colourings never sit in memory
    all at once."""
    size, k, colours, seed = spec
    rng = random.Random(seed)
    ground = tuple(range(size))
    return ground, k, {c: rng.randrange(colours) for c in combinations(ground, k)}


def _spec(rng, size, k, colours):
    return (size, k, colours, rng.randrange(1 << 32))


def paley(p, seed):
    """The Paley colouring of Z/p with its vertices relabelled by a seeded
    permutation: the clique number is unchanged, but every op's input is
    distinct."""
    residues = {x * x % p for x in range(1, p)}
    label = list(range(p))
    random.Random(seed).shuffle(label)
    table = {}
    for a, b in combinations(range(p), 2):
        x, y = sorted((label[a], label[b]))
        table[(x, y)] = 0 if (b - a) % p in residues else 1
    return (tuple(range(p)), 2, table)


# (p, m): clique number plus one resolves to a definite "none"
PALEY_SEARCHES = ((29, 5), (37, 5), (41, 5), (41, 6))

RAMSEY_RATES = {
    "k6": 1250, "k12": 170, "paley": 3, "chain": 85,
    "product": 520, "product-chain": 140,
}


def _levels(rng, size, top, factors):
    """Colouring specs for k = 0..top on one ground, each a tuple of factors."""
    return tuple(
        tuple(_spec(rng, size, k, 1 if k == 0 else 2) for _ in range(factors))
        for k in range(top + 1)
    )


def _ramsey_op(rng, kind, i):
    if kind == "k6":
        return ("search", "nonmult", (_spec(rng, 6, 2, 2),), 3)
    if kind == "k12":
        return ("search", "nonmult", (_spec(rng, 12, 3, 2),), 4)
    if kind == "paley":
        p, m = PALEY_SEARCHES[i % len(PALEY_SEARCHES)]
        return ("paley", "nonmult", p, m, rng.randrange(1 << 32))
    if kind == "chain":
        return ("chain", "nonmult", _levels(rng, 10, 2, 1), (10, 6, 3))
    if kind == "product":
        return ("search", "mult", (_spec(rng, 8, 2, 2), _spec(rng, 8, 2, 2)), 3)
    if kind == "product-chain":
        return ("chain", "mult", _levels(rng, 9, 2, 2), (9, 5, 3))
    raise ValueError(kind)


def ramsey_deck(rng: random.Random, seconds: int) -> list:
    deck = []
    for kind, count in _counts(RAMSEY_RATES, seconds).items():
        deck.extend(_ramsey_op(rng, kind, i) for i in range(count))
    rng.shuffle(deck)
    return deck


INTEGER_OPS = ("window", "verify", "witness", "count", "corr")


def op_class(op) -> str:
    if op[0] in INTEGER_OPS:
        return op[1][1]
    if op[0] == "partitions":  # ordered coprime factorizations: AllNaturals^h
        return "mult"
    return op[1]


def build(workload: str, seed: int, seconds: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan":
        return scan_deck(rng, seconds)
    if workload == "point":
        return point_deck(rng, seconds)
    if workload == "ramsey":
        return ramsey_deck(rng, seconds)
    raise ValueError(f"unknown workload {workload!r}")


def probes(workload: str, seed: int) -> list:
    if workload != "point":
        return []
    return point_probes(random.Random(f"probe:{seed}"))
