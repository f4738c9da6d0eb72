"""One fresh, single-threaded process of a benchmark run.

    python3 perfbench/child.py --workload W --seed N --seconds S --mode M

Mode "setup" only sets up; "run" also performs the deck untraced and
"trace" performs it with spans.  Every REF_EVERY_S of CPU time during the
deck, a SIGVTALRM handler times a fixed reference loop, also in the
middle of an op; op times exclude the handler's time, and run.py scales
them by the reference times recorded during and around each op.  The
process caps its own address space and gives every operation a
deadline, so a sieve that outgrows memory becomes a counted MemoryError
and a runaway loop a counted deadline miss.
It prints one JSON line: setup phase times, and for each op its size
in ops, seconds, outcome and a compact answer for the parent to check.
multrep must be importable (run.py puts the checkout's src/ on the path).
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

import decks

ADDRESS_SPACE_CAP = 2 << 30
REF_EVERY_S = 0.01        # CPU time between two reference checkpoints
REF_SAMPLES = 3           # a checkpoint averages this many loops
SETUP_REF_SAMPLES = 25
OP_DEADLINE_S = 10.0      # normal ops take well under a second
GUARD_S = 60.0            # no op starts after this much deck time
PROBE_DEADLINE_S = 1.0    # the hard inputs run for minutes when they hang
SETUP_SIEVE = {"scan": 1 << 20, "point": 1 << 20, "ramsey": 0}
# The speed of the shared machine the benchmark was written on drifts by
# 10-25% over seconds, for every process alike.  Every op time is scaled
# by REF_NOMINAL_S over the median reference time of the checkpoints
# taken during the op, widened to at least REF_WINDOW checkpoints around
# it.  Times are thus reported at a nominal machine speed: the reference
# loop's median on the 2-core Xeon the benchmark was written on.
REF_NOMINAL_S = 90e-6
REF_WINDOW = 15


class DeadlineMiss(Exception):
    pass


def _alarm(signum, frame):
    raise DeadlineMiss()


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=decks.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spans", default=None, help="path stem for the span dump")
    ap.add_argument("--probes", action="store_true",
                    help="after the deck, run the workload's hard inputs")
    args = ap.parse_args()
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))

    t0 = time.perf_counter()
    import multrep
    from multrep import (catalog, cli, errors, integer_sets, ramsey, repcount,
                         set_partitions, squarefree_map, witness_search)
    t1 = time.perf_counter()
    deck = decks.build(args.workload, args.seed, args.seconds)
    probes = decks.probes(args.workload, args.seed)
    specs = sorted({op[1][0] for op in deck + [op for _, op in probes]
                    if op[0] in PARSED_OPS})
    t2 = time.perf_counter()
    systems = {spec: cli.parse_system_spec(spec) for spec in specs}
    t3 = time.perf_counter()
    if SETUP_SIEVE[args.workload]:
        integer_sets.primes_up_to(SETUP_SIEVE[args.workload])
    t4 = time.perf_counter()
    out = {"setup": {"import_s": t1 - t0, "parse_s": t3 - t2,
                     "sieve_s": t4 - t3, "setup_s": (t1 - t0) + (t4 - t2),
                     "ref_s": sorted(_reference_time()
                                     for _ in range(SETUP_REF_SAMPLES))[SETUP_REF_SAMPLES // 2]}}
    if args.mode == "setup":
        print(json.dumps(out))
        return

    modules = {"multrep": multrep, "catalog": catalog, "cli": cli,
               "integer_sets": integer_sets, "ramsey": ramsey,
               "repcount": repcount, "set_partitions": set_partitions,
               "squarefree_map": squarefree_map, "witness_search": witness_search}
    lib = Library(systems, modules)
    documented = (errors.FactorizationLimitError, errors.ResourceLimitError,
                  errors.SearchBudgetExceeded)
    tracer = None
    membership = integer_sets.membership
    cache_before = _cache(membership)
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(modules)
    signal.signal(signal.SIGALRM, _alarm)
    records = []
    ref = Reference()
    signal.signal(signal.SIGVTALRM, ref.checkpoint)
    signal.setitimer(signal.ITIMER_VIRTUAL, REF_EVERY_S, REF_EVERY_S)
    start = time.perf_counter()
    for i, op in enumerate(deck):
        ref.op = i
        if tracer is not None:
            tracer.current_op = i
        if time.perf_counter() - start > GUARD_S:
            records.append([lib.planned_ops(op), 0.0, "deadline", None])
            continue
        records.append(_timed(lib, op, OP_DEADLINE_S, documented, ref))
    signal.setitimer(signal.ITIMER_VIRTUAL, 0)
    if tracer is not None:
        tracer.uninstall()
    out["peak_rss_mb"] = _peak_rss_mb()
    out["cache"] = [cache_before, _cache(membership)]
    out["ops"] = records
    out["refs"] = ref.refs
    if args.probes:
        out["probes"] = [
            [label] + _timed(lib, op, PROBE_DEADLINE_S, documented, Reference())[1:3]
            for label, op in probes
        ]
    if tracer is not None:
        out["trace"] = tracer.aggregate([decks.op_class(op) for op in deck],
                                        op_scales(ref.refs, len(deck)))
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))


REF_TABLE = {i: (i * 7919) % 1009 for i in range(64)}


def _reference_time(table=REF_TABLE) -> float:
    """Seconds for a fixed loop of dict lookups and integer arithmetic that
    allocates no GC-tracked objects: a probe of how fast the interpreter
    runs on this machine right now."""
    t = time.perf_counter()
    acc = 0
    for i in range(600):
        acc = (acc * 31 + table[i & 63]) % 1000003
    return time.perf_counter() - t


def op_scales(refs: list, n_ops: int) -> list:
    """Per op, REF_NOMINAL_S over the median of the reference times taken
    during the op, widened to the REF_WINDOW checkpoints centred on it."""
    owner = [op for op, _ in refs]
    times = [t for _, t in refs]
    out = []
    for i in range(n_ops):
        a, b = bisect_left(owner, i), bisect_right(owner, i)
        width = min(len(times), max(REF_WINDOW, b - a))
        lo = max(0, min((a + b - width) // 2, len(times) - width))
        out.append(REF_NOMINAL_S / statistics.median(times[lo:lo + width]) if width else 1.0)
    return out


class Reference:
    """Checkpoints [op index, reference time], taken from a signal handler,
    and the total time spent taking them."""

    def __init__(self):
        self.op = -1
        self.refs: list[list] = []
        self.spent = 0.0

    def checkpoint(self, signum, frame):
        t = time.perf_counter()
        self.refs.append([self.op, sum(_reference_time() for _ in range(REF_SAMPLES)) / REF_SAMPLES])
        self.spent += time.perf_counter() - t


def _peak_rss_mb() -> float:
    """High-water RSS of this process's own address space.  VmHWM starts
    afresh at exec, while ru_maxrss also keeps the RSS of the parent that
    forked this process."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _cache(membership):
    info = getattr(membership, "cache_info", None)
    if info is None:
        return None
    c = info()
    return [c.hits, c.misses, c.currsize]


def _timed(lib, op, deadline, documented, ref):
    """[ops, seconds, outcome, answer]; outcome is ok, deadline,
    documented (a documented library error) or undocumented.  The seconds
    exclude the time of reference checkpoints taken during the op."""
    prepared = lib.prepare(op)
    signal.setitimer(signal.ITIMER_REAL, deadline)
    spent = ref.spent
    t = time.perf_counter()
    try:
        result = lib.run(op, prepared)
        dt = time.perf_counter() - t - (ref.spent - spent)
        signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineMiss:
        return [lib.planned_ops(op), time.perf_counter() - t, "deadline", None]
    except documented as exc:
        outcome = f"documented:{type(exc).__name__}"
    except Exception as exc:  # a benchmark must count, not stop on, a crash
        outcome = f"undocumented:{type(exc).__name__}"
    else:
        ops, answer = lib.digest(op, result)
        return [ops, dt, "ok", answer]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return [lib.planned_ops(op), time.perf_counter() - t, outcome, None]


# ops whose system comes from a spec string (verify builds its own)
PARSED_OPS = ("window", "witness", "count", "corr")


class Library:
    """Performs one deck op through multrep's public functions, looked up
    on their modules at call time so that a traced run sees its spans."""

    def __init__(self, systems: dict, modules: dict):
        self.systems = systems
        self.catalog = modules["catalog"]
        self.ramsey = modules["ramsey"]
        self.repcount = modules["repcount"]
        self.set_partitions = modules["set_partitions"]
        self.squarefree_map = modules["squarefree_map"]
        self.witness_search = modules["witness_search"]

    @staticmethod
    def prepare(op):
        """The library's input for a Ramsey op, built before the timing:
        per colouring, (ground, k, {frozenset: colour})."""
        kind = op[0]
        if kind == "search":
            return [_library_input(decks.colouring(spec)) for spec in op[2]]
        if kind == "paley":
            return [_library_input(decks.paley(op[2], op[4]))]
        if kind == "chain":
            return [[_library_input(decks.colouring(spec)) for spec in level]
                    for level in op[2]]
        return None

    def run(self, op, prepared):
        kind = op[0]
        if kind == "window":
            _, system, lo, hi = op
            return self.repcount.window_stats(self.systems[system[0]], lo, hi)
        if kind == "verify":
            _, _, name, h, t, s, scan_max = op
            return self.catalog.verify(self.catalog.build(name, h, t=t, s=s), scan_max)
        if kind == "witness":
            _, system, target, strategy, max_n = op
            budget = self.witness_search.SearchBudget(max_n=max_n, strategy=strategy)
            return self.witness_search.find_witness(self.systems[system[0]], target, budget)
        if kind == "count":
            _, system, n = op
            return self.repcount.count_system_reps(self.systems[system[0]], n)
        if kind == "corr":
            _, system, q, primes = op
            return self.set_partitions.verify_correspondence(self.systems[system[0]], q, primes)
        if kind == "partitions":
            _, h, q, _ = op
            return self.squarefree_map.factorizations_as_partitions(q, h)
        if kind in ("search", "paley"):
            return self.ramsey.find_homogeneous(self._coloring(prepared), op[3])
        if kind == "chain":
            return self.ramsey.iterated_chain([self._coloring(f) for f in prepared], op[3])
        raise ValueError(kind)

    def _coloring(self, factors):
        """Build each factor, send it through dump/load, and take the
        product when there are several factors."""
        r = self.ramsey
        loaded = [r.load_coloring(r.dump_coloring(r.Coloring(*factor)))
                  for factor in factors]
        if len(loaded) == 1:
            return loaded[0]
        return r.load_coloring(r.dump_coloring(r.product_coloring(loaded)))

    @staticmethod
    def planned_ops(op):
        kind = op[0]
        if kind == "window":
            return op[3] - op[2] + 1
        if kind == "verify":
            return op[-1]
        return 1

    @staticmethod
    def digest(op, result):
        """(ops, answer) in plain JSON types, computed after the timing."""
        kind = op[0]
        if kind == "window":
            w = result
            return op[3] - op[2] + 1, [w.min_count, w.argmin, w.max_count, w.argmax]
        if kind == "verify":
            r = result
            ops = r.scan_max + len(r.prime_values or ()) + len(r.evidence)
            w = r.window
            return ops, {"ok": r.ok, "all_match": r.all_match,
                         "window": [w.min_count, w.argmin, w.max_count, w.argmax],
                         "prime_values": r.prime_values, "evidence": r.evidence}
        if kind == "witness":
            o = result
            w = o.witness
            return o.candidates_tried, {
                "n": None if w is None else w.n,
                "count": None if w is None else w.count,
                "tuples": None if w is None else w.tuples,
                "tried": o.candidates_tried,
            }
        if kind == "count":
            return 1, [result.count, result.tuples, result.truncated]
        if kind == "corr":
            return 1, [result.system_count, result.cover_count, result.equal]
        if kind == "partitions":
            return 1, _partition_digest(op[3], result)
        if kind in ("search", "paley"):
            return 1, result
        if kind == "chain":
            return 1, None if result is None else [result.subsets, result.epsilons]
        raise ValueError(kind)


def _library_input(colouring):
    ground, k, table = colouring
    return ground, k, {frozenset(c): v for c, v in table.items()}


def _partition_digest(primes, partitions):
    """[number of tuples, number of distinct ones, all valid]: a tuple is
    valid when its blocks are disjoint and cover the primes of q."""
    target = sorted(primes)
    seen = set()
    valid = True
    for blocks in partitions:
        flat = [p for block in blocks for p in block.primes]
        valid = valid and sorted(flat) == target
        seen.add(tuple(tuple(block.primes) for block in blocks))
    return [len(partitions), len(seen), valid]


if __name__ == "__main__":
    main()
