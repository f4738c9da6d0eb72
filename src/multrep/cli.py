"""Command-line entry point.

Every subcommand is a thin wrapper over one library call; diagnostics go
to stderr, data to stdout.  Exit codes: 0 success, 1 verification
failure, 2 usage or configuration error, 141 (128 + SIGPIPE) when the
reader of stdout closed it early.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import catalog, ramsey, repcount, set_partitions, squarefree_map, witness_search
from .errors import (
    CapacityOverflowError,
    FactorizationLimitError,
    ResourceLimitError,
    SearchBudgetExceeded,
)
from .integer_sets import MultiplicativeSystem, _cut, parse_set, parse_system

class ConfigError(ValueError):
    pass


def parse_system_spec(spec: str) -> MultiplicativeSystem:
    """A system is given as a named shorthand (fundamental:h=2,
    one-t:h=2,t=3, one-inf:h=2, s-inf:h=3,s=2), an inline part list
    (parts:EXPR;EXPR;...), or a file of one part expression per line
    (@path).  A shorthand takes only its own keys, each at most once."""
    try:
        if spec.startswith("@"):
            with open(spec[1:]) as f:
                lines = [
                    ln.split("#", 1)[0].strip()
                    for ln in f.read().splitlines()
                ]
            return parse_system(";".join(ln for ln in lines if ln))
        if spec.startswith("parts:"):
            return parse_system(spec[len("parts:"):])
        name, _, args = spec.partition(":")
        if name in catalog.NAMES:
            items = [item.partition("=") for item in args.split(",")] if args else []
            kv = {key.strip(): int(value) for key, _, value in items}
            keys = {"h"} | {"one-t": {"t"}, "s-inf": {"s"}}.get(name, set())
            if len(kv) < len(items) or not kv.keys() <= keys:
                raise ValueError(f"{name} takes only {', '.join(sorted(keys))}, once each")
            return catalog.build(
                name, kv.get("h", 2), t=kv.get("t"), s=kv.get("s")
            ).system
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad system spec {_cut(spec)!r}: {exc}") from exc
    raise ConfigError(f"bad system spec {_cut(spec)!r}")


def _emit_record(record: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(record, indent=2))
    else:
        for key, value in record.items():
            print(f"{key}: {value}")


def _emit_csv(header, rows) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def cmd_count(args) -> int:
    system = parse_system_spec(args.system)
    w = repcount.count_system_reps(system, args.n, tuple_cap=args.tuple_cap)
    if args.format == "csv":
        _emit_csv(["n", "count"], [[w.n, w.count]])
    else:
        _emit_record(w.to_record(), args.format)
    return 0


def cmd_window(args) -> int:
    system = parse_system_spec(args.system)
    if args.format == "csv":
        _emit_csv(["n", "count"], repcount.scan_counts(system, args.lo, args.hi))
    else:
        stats = repcount.window_stats(system, args.lo, args.hi)
        _emit_record(stats.to_record(), args.format)
    return 0


def cmd_catalog_verify(args) -> int:
    construction = catalog.build(args.name, args.h, t=args.t, s=args.s)
    report = catalog.verify(
        construction, args.max_n, keep_rows=(args.format == "csv")
    )
    if args.format == "csv":
        _emit_csv(
            ["n", "closed_form", "brute_force", "match"],
            [[n, c, b, int(c == b)] for n, c, b in report.rows],
        )
    else:
        _emit_record(report.to_record(), args.format)
        if report.evidence:
            print(
                "note: unboundedness_evidence is finite-window EVIDENCE, "
                "not a limit",
                file=sys.stderr,
            )
    if not report.ok:
        print("verification FAILED", file=sys.stderr)
        return 1
    return 0


def cmd_mh_table(args) -> int:
    rows = catalog.mh_table(args.h, args.t_cutoff)
    display = [
        [s, "inf" if t == catalog.INFINITE else t, name] for s, t, name in rows
    ]
    if args.format == "csv":
        _emit_csv(["s", "t", "construction"], display)
    elif args.format == "json":
        print(
            json.dumps(
                [{"s": s, "t": t, "construction": n} for s, t, n in display],
                indent=2,
            )
        )
    else:
        for s, t, name in display:
            print(f"({s}, {t})  {name}")
    return 0


def cmd_witness(args) -> int:
    system = parse_system_spec(args.system)
    budget = witness_search.SearchBudget(
        max_candidates=args.max_candidates,
        max_n=args.max_n,
        strategy=args.strategy,
    )
    outcome = witness_search.find_witness(system, args.target, budget)
    _emit_record(outcome.to_record(), args.format)
    return 0


def cmd_ramsey(args) -> int:
    with open(args.coloring) as f:
        coloring = ramsey.load_coloring(f.read())
    found = ramsey.find_homogeneous(coloring, args.m, budget=args.budget)
    if found is None:
        if args.format == "json":
            _emit_record({"subset": None, "color": None}, "json")
        else:
            print("none")
        return 0
    color = ramsey.homogeneous_color(coloring, found)
    if color is None:
        print("checker rejected the emitted subset", file=sys.stderr)
        return 1
    _emit_record({"subset": list(found), "color": color}, args.format)
    return 0


def cmd_partitions(args) -> int:
    parts = squarefree_map.factorizations_as_partitions(args.q, args.h, cap=args.cap)
    rows = (  # read only by text and csv
        [";".join(" ".join(str(p) for p in block) for block in t)]
        for t in parts
    )
    if args.format == "json":
        print(
            json.dumps(
                [[sorted(block.primes) for block in t] for t in parts]
            )
        )
    elif args.format == "csv":
        _emit_csv(["blocks"], rows)
    else:
        for (line,) in rows:
            print(line)
        print(f"total: {len(parts)}", file=sys.stderr)
    return 0


def cmd_correspond(args) -> int:
    system = parse_system_spec(args.system)
    if args.universe:
        universe = [int(x) for x in args.universe.split(",")]
    else:
        universe = list(squarefree_map.phi(args.q))
    report = set_partitions.verify_correspondence(system, args.q, universe)
    _emit_record(report.to_record(), args.format)
    if not report.equal:
        print("correspondence FAILED", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multrep",
        description="ordered multiplicative representation counting tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, formats=("text", "json", "csv"), **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=formats, default="text")
        return p

    p = add("count", cmd_count, help="count representations of one integer")
    p.add_argument("--system", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tuple-cap", type=int, default=repcount.DEFAULT_TUPLE_CAP)

    p = add("window", cmd_window, help="min/max counts over a range")
    p.add_argument("--system", required=True)
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)

    p = add("catalog-verify", cmd_catalog_verify, help="check a named construction")
    p.add_argument("--name", choices=catalog.NAMES, required=True)
    p.add_argument("--h", type=int, default=2)
    p.add_argument("--t", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--max-n", type=int, default=1000)

    p = add("mh-table", cmd_mh_table, help="the achievable (liminf, limsup) table")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--t-cutoff", type=int, default=3)

    p = add("witness", cmd_witness, ("text", "json"), help="search for a high-count integer")
    p.add_argument("--system", required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--max-n", type=int, default=1_000_000)
    p.add_argument("--max-candidates", type=int, default=200_000)
    p.add_argument(
        "--strategy", choices=witness_search.STRATEGIES, default="hybrid"
    )

    p = add("ramsey", cmd_ramsey, ("text", "json"), help="monochromatic subset search")
    p.add_argument("--coloring", required=True, help="coloring file path")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--budget", type=int, default=ramsey.DEFAULT_NODE_BUDGET)

    p = add("partitions", cmd_partitions, help="factorizations of a squarefree q as prime-set tuples")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--cap", type=int, default=squarefree_map.DEFAULT_PARTITION_CAP)

    p = add(
        "correspond", cmd_correspond, ("text", "json"),
        help="check the count/cover correspondence at q",
    )
    p.add_argument("--system", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--universe", help="comma-separated prime universe")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush
        # at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        ResourceLimitError,
        FactorizationLimitError,
        SearchBudgetExceeded,
        CapacityOverflowError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
