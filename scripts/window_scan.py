#!/usr/bin/env python3
"""Scan the representation counts of a system over a range
1 <= lo <= hi, as `multrep window` takes it, and write a CSV of
(n, count) plus the window's min/max record to stderr."""

import argparse
import csv
import sys

from multrep import scan_counts
from multrep.cli import parse_system_spec
from multrep.repcount import summarize_window


def written(writer, rows):
    """Pass the rows on, writing each as it passes."""
    for row in rows:
        writer.writerow(row)
        yield row


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--system", required=True, help="e.g. s-inf:h=3,s=2")
    parser.add_argument("--lo", type=int, default=2)
    parser.add_argument("--hi", type=int, default=10_000)
    args = parser.parse_args()
    try:
        counts = scan_counts(parse_system_spec(args.system), args.lo, args.hi)
    except ValueError as exc:
        parser.error(str(exc))
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["n", "count"])
    stats = summarize_window(args.lo, args.hi, written(writer, counts))
    print(f"window evidence: {stats.to_record()}", file=sys.stderr)


if __name__ == "__main__":
    main()
