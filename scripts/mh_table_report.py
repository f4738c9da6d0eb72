#!/usr/bin/env python3
"""Print the achievable (liminf, limsup) table for a given order and run
the verification scan for each witnessing construction."""

import argparse

from multrep import INFINITE, build, mh_table, verify
from multrep.catalog import KEYS


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--h", type=int, default=2)
    parser.add_argument("--t-cutoff", type=int, default=3)
    parser.add_argument("--scan-max", type=int, default=2000)
    args = parser.parse_args()

    for s, t, name in mh_table(args.h, args.t_cutoff):
        row = {"s": s, "t": t}
        keys = {key: row[key] for key in KEYS[name] if key in row}
        construction = build(name, args.h, **keys)
        report = verify(construction, args.scan_max)
        t_disp = "inf" if t == INFINITE else t
        status = "ok" if report.ok else "MISMATCH"
        line = (
            f"({s}, {t_disp:>3})  {name:<12} scan [1, {args.scan_max}]: {status}; "
            f"window min {report.window.min_count} at {report.window.argmin}, "
            f"max {report.window.max_count} at {report.window.argmax}"
        )
        print(line)
        if report.evidence:
            seq = ", ".join(f"g({n})={c}" for _, n, c in report.evidence[:6])
            print(f"           unboundedness EVIDENCE (finite window): {seq}, ...")


if __name__ == "__main__":
    main()
