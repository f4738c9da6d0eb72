"""multrep benchmark: one workload per invocation, checked against an oracle.

    python3 perfbench/run.py --workload scan|point|ramsey --seed N \\
        --seconds S --trace 0|1

Every measurement happens in a fresh single-threaded child process
(child.py), one at a time.  With --trace 0 the run starts SETUP_RUNS
set-up-only children for setup_s, then one child that performs the
workload's deck of --seconds deck-seconds, and prints the end-to-end
metrics.  With --trace 1 it runs a deck of a
quarter of the seconds twice, untraced and traced, and prints the
per-layer metrics of the traced run plus its overhead (the spans of the
hottest calls would otherwise fill hundreds of megabytes).  Every answer
is checked against oracle.py, which shares no code with the library.
Human-readable lines come first; the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

An op is one integer n whose count was computed on scan (a window,
catalog.verify or find_witness call covers many), one library call on
point, and one colouring resolved (a search or a chain) on ramsey.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import decks  # noqa: E402
from child import OP_DEADLINE_S, REF_NOMINAL_S, op_scales  # noqa: E402

SETUP_RUNS = 5
TRACE_SHARE = 4
CHILD_TIMEOUT_S = 75  # child.GUARD_S plus set-up, probes and output
SETUP_TIMEOUT_S = 15
TOTAL_TIMEOUT_S = 170  # no child runs past this point of the whole run
SPAN_DIR = HERE / "out"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=decks.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    args.deadline = time.monotonic() + TOTAL_TIMEOUT_S
    if not (ROOT / "src" / "multrep" / "__init__.py").is_file():
        print(f"error: no multrep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.trace:
        args.seconds = max(1, args.seconds // TRACE_SHARE)
    deck = decks.build(args.workload, args.seed, args.seconds)
    print(f"workload {args.workload} seed {args.seed} deck-seconds {args.seconds} "
          f"trace {args.trace} | python {platform.python_version()} "
          f"commit {_commit()} nproc {os.cpu_count()}")
    _describe(args.workload, deck)

    if args.trace == 0:
        setups = [_child(args, "setup")["setup"] for _ in range(SETUP_RUNS)]
        run = _child(args, "run", ["--probes"])
        setups.append(run["setup"])
        checked = time.perf_counter()
        outcomes = _check(deck, run)
        print(f"answers checked in {time.perf_counter() - checked:.1f} s")
        result = _summarize(deck, run, outcomes)
        unscaled = _headline(_summarize(deck, run, outcomes, scaled=False), setups, False)
        metrics = _end_to_end(result, setups, run, unscaled)
    else:
        plain_run = _child(args, "run")
        plain = _summarize(deck, plain_run, _check(deck, plain_run))
        SPAN_DIR.mkdir(exist_ok=True)
        stem = SPAN_DIR / f"spans-{args.workload}"
        traced = _child(args, "trace", ["--spans", str(stem)])
        result = _summarize(deck, traced, _check(deck, traced))
        metrics = _per_layer(deck, result, traced, plain)
        result["wrong"] += plain["wrong"]
        print(f"spans: {traced['trace']['spans']} written to {stem}.bin")
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child(args, mode: str, extra=()) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, *extra]
    timeout = min(SETUP_TIMEOUT_S if mode == "setup" else CHILD_TIMEOUT_S,
                  args.deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"child ({mode}) killed after {timeout:.0f} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"child ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _describe(workload: str, deck: list) -> None:
    """Op count per class and kind, and the input sizes."""
    per = Counter((decks.op_class(op), _kind(op)) for op in deck)
    for (cls, kind), n in sorted(per.items()):
        print(f"  deck {cls:8s} {kind:55s} x{n}")
    if workload == "point":
        bits = [op[2].bit_length() for op in deck if op[0] in ("count", "corr")]
        print(f"  n bits {min(bits)}..{max(bits)} (median {statistics.median(bits)})")
    if workload == "scan":
        ws = [op for op in deck if op[0] == "window"]
        widths = [op[3] - op[2] + 1 for op in ws]
        print(f"  {len(ws)} windows of {min(widths)}..{max(widths)} n in "
              f"[{min(op[2] for op in ws)}, {max(op[3] for op in ws)}]; verify scan_max "
              f"{[op[-1] for op in deck if op[0] == 'verify'][0]}")


def _kind(op) -> str:
    if op[0] in ("window", "count", "corr"):
        return f"{op[0]} {op[1][0]}"
    if op[0] == "verify":
        return f"verify {op[2]} h={op[3]}"
    if op[0] == "witness":
        return f"witness {op[3]} {op[1][0]} target={op[2]}"
    if op[0] == "partitions":
        return f"partitions h={op[1]}"
    if op[0] == "paley":
        return f"search Paley({op[2]}) m={op[3]}"
    if op[0] == "search":
        size, k = op[2][0][:2]
        return f"search K{size} k={k} m={op[3]} x{len(op[2])} factors"
    return f"chain ground={op[2][0][0][0]} sizes={op[3]} x{len(op[2][0])} factors"


# ---------------------------------------------------------------------------
# checking and summarizing
# ---------------------------------------------------------------------------

def _check(deck: list, child: dict) -> list:
    """Each op's outcome, "wrong" where the oracle rejects an answer."""
    return ["wrong" if outcome == "ok" and not check.answer(op, answer) else outcome
            for op, (_, _, outcome, answer) in zip(deck, child["ops"])]


def _summarize(deck: list, child: dict, outcomes: list, scaled: bool = True) -> dict:
    """Total the ops and op times (scaled to nominal speed, or as
    measured), overall and per class.  Latency samples are (ms per op,
    ops): a call that covers many ops gives each of them its time over
    their number."""
    causes = Counter()
    per_class = {}
    samples = []
    attempted = failed = wrong = 0
    total_s = raw_s = 0.0
    scales = op_scales(child["refs"], len(deck)) if scaled else [1.0] * len(deck)
    for op, (ops, raw, _, _), outcome, scale in zip(deck, child["ops"], outcomes, scales):
        seconds = raw * scale
        attempted += ops
        total_s += seconds
        raw_s += raw
        if outcome == "wrong":
            wrong += ops
        row = per_class.setdefault(decks.op_class(op), [0, 0.0])
        row[1] += seconds
        if outcome == "ok":
            row[0] += ops
            samples.append((1000.0 * seconds / ops, ops))
        else:
            failed += ops
            causes[outcome.split(":")[0]] += ops
            samples.append((float("inf"), ops))
    samples.sort()
    return {"attempted": attempted, "failed": failed, "wrong": wrong,
            "causes": causes, "per_class": per_class, "samples": samples,
            "total_s": total_s, "raw_s": raw_s, "correct_ops": attempted - failed}


def _percentile(samples: list, q: float):
    """Nearest-rank percentile over the ops of the sorted (value, ops)
    samples, and how many ops lie beyond it."""
    total = sum(w for _, w in samples)
    rank = max(1, round(q * total))
    seen = 0
    for value, w in samples:
        seen += w
        if seen >= rank:
            break
    if value == float("inf"):  # a failed op: report the deadline it missed
        value = 1000.0 * OP_DEADLINE_S
    return value, total - seen


def _headline(result: dict, setups: list, scaled: bool) -> dict:
    """The end-to-end metrics other than peak_rss_mb."""
    setup_s = statistics.median(
        s["setup_s"] * (REF_NOMINAL_S / s["ref_s"] if scaled else 1.0) for s in setups)
    rates = {cls: ops / secs for cls, (ops, secs) in result["per_class"].items()}
    return {
        "setup_s": setup_s,
        "ops_per_s": result["correct_ops"] / result["total_s"],
        "mult_ops_per_s": rates["mult"],
        "nonmult_ops_per_s": rates["nonmult"],
        "op_p50_ms": _percentile(result["samples"], 0.50)[0],
        "op_p99_ms": _percentile(result["samples"], 0.99)[0],
    }


def _end_to_end(result: dict, setups: list, run: dict, unscaled: dict) -> dict:
    head = _headline(result, setups, True)
    setup_s, ops_per_s = head["setup_s"], head["ops_per_s"]
    rates = {"mult": head["mult_ops_per_s"], "nonmult": head["nonmult_ops_per_s"]}
    p50 = head["op_p50_ms"]
    p99, beyond = _percentile(result["samples"], 0.99)
    n = sum(w for _, w in result["samples"])
    fail_frac = result["failed"] / result["attempted"]
    phases = {k: statistics.median(s[k] for s in setups)
              for k in ("import_s", "parse_s", "sieve_s")}
    print(f"setup_s           {setup_s:.4f} s    median of {len(setups)} fresh processes; "
          + ", ".join(f"{k} {v:.4f}" for k, v in phases.items()) + " (unscaled)")
    print(f"ops_per_s         {ops_per_s:.2f} 1/s  {result['correct_ops']} ops in "
          f"{result['total_s']:.3f} s at nominal speed, {result['raw_s']:.3f} s measured")
    for cls in ("mult", "nonmult"):
        ops, secs = result["per_class"].get(cls, (0, 0.0))
        print(f"{cls + '_ops_per_s':17s} {rates.get(cls, 0.0):.2f} 1/s  {ops} ops in {secs:.3f} s")
    print(f"op_p50_ms         {p50:.4f} ms   {n} samples ({len(result['samples'])} calls)")
    print(f"op_p99_ms         {p99:.4f} ms   {n} samples, {beyond} beyond it"
          + ("" if beyond >= 10 else "  (fewer than 10 beyond: indicative only)"))
    print(f"fail_frac         {fail_frac:.6f}      {result['failed']} of {result['attempted']}; "
          f"wrong {result['causes']['wrong']}, documented {result['causes']['documented']}, "
          f"undocumented {result['causes']['undocumented']}, deadline {result['causes']['deadline']}")
    peak = run["peak_rss_mb"]
    print(f"peak_rss_mb       {peak:.2f} MB")
    for label, seconds, outcome in run.get("probes", []):
        print(f"hard input        {label:12s} {outcome} after {seconds:.3f} s (not in the deck)")
    print("unscaled " + json.dumps(unscaled))
    units = {"setup_s": "s", "op_p50_ms": "ms", "op_p99_ms": "ms"}
    metrics = {k: (v, units.get(k, "1/s")) for k, v in head.items()}
    metrics["peak_rss_mb"] = (peak, "MB")
    return metrics


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (span, fields): calls, self_s (self time) or s (the whole call), in
# seconds at nominal speed, each span scaled like the op it belongs to
SPAN_METRICS = (
    ("integer_sets.factorize", ("calls", "self_s")),
    ("integer_sets.is_prime", ("calls", "self_s")),
    ("integer_sets.prime_index", ("calls", "self_s")),
    ("integer_sets.membership", ("self_s",)),
    ("repcount.count_system_reps", ("calls", "self_s")),
    ("repcount.window_stats", ("s",)),
    ("catalog.verify", ("s",)),
    ("catalog.closed_form", ("calls", "self_s")),
    ("witness_search.find_witness", ("self_s",)),
    ("set_partitions.count_ordered_covers", ("calls", "self_s")),
    ("squarefree_map.factorizations_as_partitions", ("self_s",)),
    ("squarefree_map.phi", ("calls",)),
    ("ramsey.load_coloring", ("self_s",)),
    ("ramsey.dump_coloring", ("self_s",)),
    ("ramsey.product_coloring", ("self_s",)),
    ("ramsey.coloring_build", ("self_s",)),
    ("ramsey.iterated_chain", ("s",)),
    ("ramsey.find_homogeneous", ("calls", "self_s")),
    ("ramsey.color_of", ("calls",)),
)


def _per_layer(deck: list, result: dict, traced: dict, plain: dict) -> dict:
    trace = traced["trace"]
    spans = trace["by_name"]
    out = {}
    for metric, fields in SPAN_METRICS:
        row = spans[metric]
        for field in fields:
            if field == "calls":
                value, unit = row["calls"], "count"
                shown = f"{value}"
            else:
                value, unit = row["total_s" if field == "s" else "self_s"], "s"
                shown = f"{value:.4f} s ({100.0 * value / result['total_s']:.2f}% of op time)"
            out[f"{metric}.{field}"] = (value, unit)
            print(f"  {metric + '.' + field:52s} {shown}")

    before, after = traced["cache"]
    if before is None:
        print("  integer_sets.membership.{calls,hit_ratio,cache_entries}: absent, "
              "membership has no cache_info(); span calls used for calls")
        calls, ratio, entries = spans["integer_sets.membership"]["calls"], 0.0, 0
    else:
        hits, misses = after[0] - before[0], after[1] - before[1]
        calls, entries = hits + misses, after[2]
        ratio = hits / calls if calls else 0.0
    out["integer_sets.membership.calls"] = (calls, "count")
    out["integer_sets.membership.hit_ratio"] = (ratio, "ratio")
    out["integer_sets.membership.cache_entries"] = (entries, "count")
    print(f"  {'integer_sets.membership.calls':52s} {calls} (cache_info delta)")
    print(f"  {'integer_sets.membership.hit_ratio':52s} {ratio:.4f}")
    print(f"  {'integer_sets.membership.cache_entries':52s} {entries}")

    checks = trace["counts_and_checks"]
    for cls in ("mult", "nonmult"):
        counts, member_calls = checks.get(cls, (0, 0))
        value = member_calls / counts if counts else 0.0
        out[f"repcount.checks_per_count.{cls}"] = (value, "checks/count")
        print(f"  {'repcount.checks_per_count.' + cls:52s} {value:.3f} "
              f"({member_calls} checks over {counts} counts)")

    tried = [r[3]["tried"] for op, r in zip(deck, traced["ops"])
             if op[0] == "witness" and r[2] == "ok"]
    per_witness = sum(tried) / len(tried) if tried else 0.0
    out["witness_search.candidates_per_witness"] = (per_witness, "count")
    print(f"  {'witness_search.candidates_per_witness':52s} {per_witness:.1f} "
          f"over {len(tried)} searches")

    setup = traced["setup"]
    scale = REF_NOMINAL_S / setup["ref_s"]
    for metric, key in (("integer_sets.primes_up_to", "sieve_s"),
                        ("cli.parse_system_spec", "parse_s")):
        out[f"{metric}.s"] = (scale * setup[key], "s")
        print(f"  {metric + '.s':52s} {scale * setup[key]:.6f} s of set-up "
              f"{scale * setup['setup_s']:.4f} s")

    traced_rate = result["correct_ops"] / result["total_s"]
    plain_rate = plain["correct_ops"] / plain["total_s"]
    out["trace.overhead"] = (traced_rate / plain_rate, "ratio")
    out["trace.spans"] = (trace["spans"], "count")
    print(f"  trace.overhead: traced ops_per_s {traced_rate:.2f} / untraced "
          f"{plain_rate:.2f} = {traced_rate / plain_rate:.4f}")
    return out


if __name__ == "__main__":
    sys.exit(main())
