#!/usr/bin/env python3
"""Scan the representation counts of a system over a range and write a
CSV of (n, count) plus a summary record to stderr."""

import argparse
import csv
import sys

from multrep import scan_counts
from multrep.cli import ConfigError, parse_system_spec
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
    # the summary, like window_stats, covers n >= 2
    lo = max(args.lo, 2)
    if args.lo < 1 or args.hi < lo:
        parser.error("need 1 <= lo <= hi and hi >= 2")

    try:
        system = parse_system_spec(args.system)
    except ConfigError as exc:
        parser.error(str(exc))
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["n", "count"])
    counts = written(writer, scan_counts(system, args.lo, args.hi))
    stats = summarize_window(lo, args.hi, (nc for nc in counts if nc[0] >= lo))
    print(f"window evidence: {stats.to_record()}", file=sys.stderr)


if __name__ == "__main__":
    main()
