#!/usr/bin/env python3
"""Run one fixed corpus of counts through two trees of multrep and compare.

The base tree is `git archive <rev> src/multrep` of this repository (no
network), or a directory holding a multrep package (--base-src); the
other tree is this checkout's src/multrep.  Both are imported in one
process under distinct package names, and each case is run in both:

- count_system_reps with tuples listed to 1, to 5 and to the default
  cap (64), the records before an error kept;
- _counts on ranges (windows and not: one far from 1, one of a single
  n) and on streams, below, across and above SIEVE_LIMIT (2^20), the
  yielded prefix kept up to any error;
- count_ordered_covers of image families whose universe holds S, leaves
  elements out or adds primes, and of cardinality and explicit families;
- verify_correspondence;
- dump_coloring of COLORINGS seeded random colorings (k from 0 to 3,
  negative elements, up to 12 colors), and load_coloring of each dump as
  this script writes it and of its mutations: rows shuffled, re-spaced,
  commented or short, a row repeated or outside the ground, headers
  last or repeated, CRLF line ends, colors written +1, 007, -1, x or
  1.5, and a ground or k that is not an int; and of those that keep
  the dump's length: a color written as that many x, a color moved
  after the space before it, two rows of one length swapped, and a
  ground element replaced by another as wide.

The corpus holds named systems, RANDOM_SYSTEMS grammar systems drawn
from a generator seeded with SEED, squarefree q with 4194319 or
4194329, primes past the prime index cap, and the colorings, drawn from
a generator of their own.  Results are compared as plain records, since
two trees' classes never compare equal: a loaded coloring as (ground,
k, table).  Prints one JSON line (cases, raising cases and count, type
and message mismatches, the first few of them listed) and exits 1 on a
count or type mismatch.

    python scripts/differential.py --base HEAD~1
    python scripts/differential.py --base-src /path/to/other/src
"""

import argparse
import importlib
import importlib.util
import io
import itertools
import json
import math
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

NAMED = [
    "s-inf:h=2,s=2",
    "s-inf:h=3,s=3",
    "s-inf:h=3,s=2",
    "fundamental:h=2",
    "fundamental:h=3",
    "one-t:h=3,t=3",
    "one-inf:h=2",
    "parts:Union(PowersOf(3,0,2),Primes);PrimesWithOne;Singleton(1,2,4)",
    "parts:Union(Singleton(1,2,3,4,6,12),Primes);PrimesWithOne;PrimesWithOne",
    "parts:AllNaturals;AllNaturals",
    "parts:Primes;AllNaturals;AllNaturals",
    "parts:AllNaturals;PrimesWithOne",
    "parts:Primes;PrimesWithOne",
    "parts:AllNaturals;Primes;AllNaturals;AllNaturals",
    "parts:Singleton(1);SmoothOver(IndexResidue(2,0))",
    "parts:AllNaturals;Union(Squarefree,PowersOf(2,1));AllNaturals",
    "parts:Union(Squarefree,Primes);Union(Squarefree,Primes);AllNaturals",
]

SEED = 26  # of the random grammar systems and the colorings
RANDOM_SYSTEMS = 1800
COLORINGS = 150
SIEVE = 1 << 20
BIG = (4194319, 4194329)  # the first primes past the prime index cap
CAPS = (1, 5, 64)  # the tuple caps of each count; 64 is DEFAULT_TUPLE_CAP
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
POINTS = (
    1, 2, 12, 360, 720720, 2**10 * 3**5, SIEVE - 1, SIEVE, SIEVE + 1,
    97821761637600, math.prod(PRIMES[:10]), 3 * BIG[0], 2 * 3 * 5 * BIG[0],
    5 * BIG[1], 2 * 3 * 5 * 7 * BIG[1], 2**61 - 1, 0, -3,
)
SEQUENCES = (
    ("range", 1, 301),
    ("range", 2, 2001),
    ("range", 900000, 900041),  # a window too narrow for its end
    ("range", SIEVE - 40, SIEVE + 40),
    ("range", SIEVE + 1000, SIEVE + 1100),
    ("range", 0, 5),
    ("stream", SIEVE - 3, 6, SIEVE + 3, 30, 2**40 + 7),
    ("stream", 2, 3, 2 * 3 * 5 * BIG[0], 7),
    ("stream", 10, 3 * BIG[1], 11),
    ("stream", *(math.prod(PRIMES[:k]) for k in range(1, 13))),
    ("range", 12107, 13106),  # a window far from 1 counted from whole rows
    ("range", 9973, 9974),  # a window of one n
)


def load(name: str, src: Path):
    """Import the multrep package under src as the package name."""
    init = src / "multrep" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")  # sets module.cli; __init__ does not
    return module


def archived(rev: str, into: Path) -> Path:
    """src/multrep of the commit rev, from the local .git, written under into."""
    data = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", rev, "src/multrep"],
        check=True, capture_output=True,
    ).stdout
    (into / "multrep").mkdir()
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        for member in tar.getmembers():
            if member.isfile():
                path = into / "multrep" / Path(member.name).name
                path.write_bytes(tar.extractfile(member).read())
    return into


# ---------------------------------------------------------------------------
# the corpus: plain data, built into each tree's objects by run()
# ---------------------------------------------------------------------------

def random_set(rng: random.Random, depth: int = 0) -> str:
    """A set expression of the config grammar."""
    roll = rng.random()
    if depth < 2 and roll < 0.25:
        kind = rng.choice(("Union", "Intersection"))
        args = ",".join(random_set(rng, depth + 1) for _ in range(rng.randint(1, 3)))
        return f"{kind}({args})"
    if roll < 0.55:
        return rng.choice(("AllNaturals", "Primes", "PrimesWithOne", "Squarefree"))
    if roll < 0.7:
        values = rng.sample((0, 1, 2, 3, 4, 6, 12, 30, BIG[0], 10**20), rng.randint(1, 4))
        return f"Singleton({','.join(map(str, values))})"
    if roll < 0.85:
        lo = rng.randint(0, 3)
        hi = "" if rng.random() < 0.5 else f",{lo + rng.randint(0, 3)}"
        return f"PowersOf({rng.choice((2, 3, 4, 6, 7))},{lo}{hi})"
    return f"SmoothOver({random_class(rng)})"


def random_class(rng: random.Random) -> str:
    """A prime class of the config grammar."""
    if rng.random() < 0.5:
        m = rng.randint(2, 6)
        inner = f"IndexResidue({m},{rng.randrange(m)})"
    else:
        inner = f"ExplicitList({','.join(map(str, rng.sample(PRIMES[:6], rng.randint(1, 3))))})"
    if rng.random() < 0.3:
        return f"Complement({inner},{','.join(map(str, rng.sample(PRIMES[:6], 2)))})"
    return inner


def primes_of(rng: random.Random, top: int) -> list[int]:
    s = rng.sample(PRIMES[:8], rng.randint(0, top))
    return s + [rng.choice(BIG)] if rng.random() < 0.3 else s


def universe_of(rng: random.Random, s: list[int]) -> list[int]:
    """S itself, S with some elements left out, or S with primes added."""
    roll = rng.random()
    if roll < 0.4 or not s:
        return list(s)
    if roll < 0.75:
        return rng.sample(s, rng.randrange(len(s)))
    return s + [p for p in PRIMES[8:] if rng.random() < 0.5]


def coloring_text(ground, k: int, colors) -> str:
    """A coloring in the interchange format as dump_coloring writes it:
    the sorted ground, k, then one row per k-subset in combinations
    order."""
    ground = sorted(set(ground))
    rows = [f"{' '.join(map(str, s))} : {c}" for s, c in zip(itertools.combinations(ground, k), colors)]
    return "\n".join([f"ground: {' '.join(map(str, ground))}", f"k: {k}", *rows]) + "\n"


def coloring_mutants(text: str, rng: random.Random) -> list[str]:
    """text in other layouts, with rows missing, repeated or added, and
    with colors, ground or k written otherwise."""
    lines = text.splitlines()
    head, rows = lines[:2], lines[2:]
    shuffled = rng.sample(rows, len(rows))
    at = rng.randrange(len(rows)) if rows else 0
    row = rows[at] if rows else " : 0"
    bodies = [
        head + shuffled,
        head + [r.replace(" ", "  ") for r in rows],
        head + [r + "  # c" for r in rows],
        rows + head,
        head + rows + head[1:],
        head + rows[:-1],
        head + rows + [row],
        head + rows + ["-99 : 0"],
        ["ground: a b", *head[1:], *rows],
        [head[0], "k: x", *rows],
    ]
    subset, _, color = row.rpartition(" : ")
    for written in (
        *(f"{subset} : {c}" for c in ("+1", "007", "-1", "x", "1.5")),
        f"{subset} : {'x' * len(color)}",
        f"{subset} :{color} ",
    ):
        bodies.append(head + rows[:at] + [written] + rows[at + 1 :])
    alike = [r for r in range(len(rows)) if len(rows[r]) == len(row) and r != at]
    if alike:
        other = rng.choice(alike)
        swapped = rows[:]
        swapped[at], swapped[other] = rows[other], rows[at]
        bodies.append(head + swapped)
    ground = head[0].split()[1:]
    if ground:
        x = rng.choice(ground)
        y = next(str(y) for y in range(int(x) - 9, int(x) + 10)
                 if str(y) not in ground and len(str(y)) == len(x))
        bodies.append([" ".join(["ground:"] + [y if e == x else e for e in ground]), *head[1:], *rows])
    return ["\n".join(body) + "\n" for body in bodies] + [text.replace("\n", "\r\n")]


def corpus(seed: int, named: int, random_systems: int):
    """The cases, each a tuple of plain data: COLORINGS colorings, then the
    first named systems of NAMED, then random_systems drawn from the seed
    and a quarter as many cardinality and explicit family tuples."""
    rng = random.Random(f"{seed}:colorings")
    for _ in range(COLORINGS):
        k = rng.randint(0, 3)
        ground = rng.sample(range(-20, 30), rng.randint(max(k - 1, 0), 9))
        colors = [rng.randrange(rng.choice((1, 2, 3, 12))) for _ in itertools.combinations(ground, k)]
        yield ("dump", ground, k, colors)
        text = coloring_text(ground, k, colors)
        yield ("load", text)
        for mutant in coloring_mutants(text, rng):
            yield ("load", mutant)
    rng = random.Random(seed)
    for spec in NAMED[:named]:
        for n in POINTS:
            yield ("count", spec, n)
        for seq in SEQUENCES:
            yield ("counts", spec, seq)
        for k in (0, 3, 6, 9, 12):
            s = sorted(PRIMES[:k])
            yield ("correspond", spec, math.prod(s), s)
        for s in ([5, BIG[0]], [2, 3, 5, BIG[1]], [3, BIG[0], BIG[1]]):
            yield ("count", spec, math.prod(s))
            yield ("correspond", spec, math.prod(s), s)
        for _ in range(4):
            s = primes_of(rng, 8)
            yield ("covers", spec, s, universe_of(rng, s))
    for _ in range(random_systems):
        h = rng.randint(2, 4)
        spec = "parts:" + ";".join(random_set(rng) for _ in range(h))
        for n in rng.sample(POINTS[:-2], 3):  # n >= 1
            yield ("count", spec, n)
        # any sequence but the two that cross or pass SIEVE_LIMIT
        yield ("counts", spec, rng.choice(SEQUENCES[:3] + SEQUENCES[5:]))
        s = primes_of(rng, 6)
        yield ("covers", spec, s, universe_of(rng, s))
        yield ("correspond", spec, math.prod(s), s + [p for p in PRIMES[8:] if rng.random() < 0.3])
    for _ in range(random_systems // 4):
        s = primes_of(rng, 7)
        families = []
        for _ in range(rng.randint(2, 4)):
            if rng.random() < 0.5:
                families.append(("card", sorted(rng.sample(range(5), rng.randint(1, 3)))))
            else:
                blocks = [sorted(rng.sample(s, rng.randint(0, len(s)))) for _ in range(4)]
                families.append(("explicit", blocks))
        yield ("families", families, s)


def run(pkg, case):
    """The plain record of one case in one tree: (value, error), where
    error is None or (type name, message) and value is what came before
    it (the yielded prefix of _counts, the records of the caps before)."""
    kind, *args = case
    value = []
    try:
        if kind == "dump":
            ground, k, colors = args
            subsets = itertools.combinations(sorted(set(ground)), k)
            coloring = pkg.Coloring(ground, k, dict(zip(map(frozenset, subsets), colors)))
            return pkg.dump_coloring(coloring), None
        if kind == "load":
            coloring = pkg.load_coloring(args[0])
            return [list(coloring.ground), coloring.k, coloring.table], None
        if kind == "count":
            spec, n = args
            system = pkg.cli.parse_system_spec(spec)
            for cap in CAPS:
                value.append(pkg.count_system_reps(system, n, tuple_cap=cap).to_record())
            return value, None
        if kind == "counts":
            spec, (how, *seq) = args
            ns = range(*seq) if how == "range" else list(seq)
            system = pkg.cli.parse_system_spec(spec)
            for pair in pkg.repcount._counts(system, ns):
                value.append(list(pair))
            return value, None
        if kind == "covers":
            spec, s, universe = args
            parts = pkg.cli.parse_system_spec(spec).parts
            families = [pkg.image_family(part, universe) for part in parts]
            return pkg.count_ordered_covers(s, families), None
        if kind == "correspond":
            spec, q, universe = args
            system = pkg.cli.parse_system_spec(spec)
            return pkg.verify_correspondence(system, q, universe).to_record(), None
        families, s = args
        built = [
            pkg.by_cardinality(arg) if how == "card" else pkg.explicit_family(arg)
            for how, arg in families
        ]
        return pkg.count_ordered_covers(s, built), None
    except Exception as exc:  # every refusal is part of the record
        return value, (type(exc).__name__, str(exc))


def compare(base, head, cases) -> dict:
    report = {"cases": 0, "raising": 0, "count_mismatches": 0,
              "type_mismatches": 0, "message_mismatches": 0, "first": []}
    for case in cases:
        (a, a_err), (b, b_err) = run(base, case), run(head, case)
        report["cases"] += 1
        report["raising"] += a_err is not None or b_err is not None
        found = []
        if a != b:
            found.append("count")
        if (a_err and a_err[0]) != (b_err and b_err[0]):
            found.append("type")
        elif a_err != b_err:
            found.append("message")
        for what in found:
            report[f"{what}_mismatches"] += 1
        if found and len(report["first"]) < 5:
            report["first"].append({"case": repr(case), "base": repr((a, a_err))[:300],
                                    "head": repr((b, b_err))[:300]})
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    base = parser.add_mutually_exclusive_group(required=True)
    base.add_argument("--base", help="a git revision of this repository")
    base.add_argument("--base-src", type=Path, help="a directory holding a multrep package")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        src = args.base_src or archived(args.base, Path(tmp))
        base_pkg = load("multrep_base", src)
        head_pkg = load("multrep_head", REPO / "src")
        report = compare(base_pkg, head_pkg, corpus(SEED, len(NAMED), RANDOM_SYSTEMS))
    print(json.dumps(report))
    return 1 if report["count_mismatches"] or report["type_mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main())
