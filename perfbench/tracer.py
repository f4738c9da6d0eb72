"""Spans around the calls into multrep's modules, recorded from outside.

install() rebinds each traced function under every name a caller looks
up (the module attribute in each multrep module that holds it), plus two
methods of ramsey.Coloring.  The library's code is untouched.  Spans
(name, start, end, parent, op id) are appended to typed arrays, kept in
memory for the whole run and written out when it ends.  A span's self
time is its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import json
import time
from array import array

# span name -> (module, attribute) of the function it wraps.  Every module
# attribute bound to that function object is rebound, except for
# membership, which is traced only where repcount looks it up, so that
# witness checks and cover blocks stay inside their callers' self time.
TRACED = {
    "integer_sets.factorize": ("integer_sets", "factorize"),
    "integer_sets.is_prime": ("integer_sets", "is_prime"),
    "integer_sets.prime_index": ("integer_sets", "prime_index"),
    "integer_sets.membership": ("repcount", "membership"),
    "repcount.count_system_reps": ("repcount", "count_system_reps"),
    "repcount.window_stats": ("repcount", "window_stats"),
    "catalog.verify": ("catalog", "verify"),
    "catalog.closed_form": ("catalog", "closed_form"),
    "witness_search.find_witness": ("witness_search", "find_witness"),
    "set_partitions.verify_correspondence": ("set_partitions", "verify_correspondence"),
    "set_partitions.count_ordered_covers": ("set_partitions", "count_ordered_covers"),
    "squarefree_map.phi": ("squarefree_map", "phi"),
    "squarefree_map.factorizations_as_partitions": ("squarefree_map", "factorizations_as_partitions"),
    "ramsey.load_coloring": ("ramsey", "load_coloring"),
    "ramsey.dump_coloring": ("ramsey", "dump_coloring"),
    "ramsey.product_coloring": ("ramsey", "product_coloring"),
    "ramsey.iterated_chain": ("ramsey", "iterated_chain"),
    "ramsey.find_homogeneous": ("ramsey", "find_homogeneous"),
}
SINGLE_CALLER = {"integer_sets.membership"}
METHODS = {
    "ramsey.color_of": "color_of",
    "ramsey.coloring_build": "__post_init__",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.current_op = -1
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack = self.stack
        name_ids, starts, ends = self.name_id, self.start, self.end
        parents, ops = self.parent, self.op

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, multrep_modules: dict) -> None:
        for name, (mod, attr) in TRACED.items():
            original = getattr(multrep_modules[mod], attr)
            wrapped = self.wrap(name, original)
            owners = (
                [multrep_modules[mod]] if name in SINGLE_CALLER
                else [m for m in multrep_modules.values()
                      if getattr(m, attr, None) is original]
            )
            for owner in owners:
                self._rebind(owner, attr, wrapped)
        coloring = multrep_modules["ramsey"].Coloring
        for name, attr in METHODS.items():
            self._rebind(coloring, attr, self.wrap(name, getattr(coloring, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def aggregate(self, op_class: list[str], scales: list[float]) -> dict:
        """Per span name: calls, total and self seconds, each span's time
        multiplied by its op's scale.  Also, per op class, membership spans
        directly under a count and the counts."""
        n = len(self.start)
        covered = array("d", bytes(8 * n))
        starts, ends, parents = self.start, self.end, self.parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        k = len(self.names)
        calls, total, self_s = [0] * k, [0.0] * k, [0.0] * k
        for i in range(n):
            nid = self.name_id[i]
            scale = scales[self.op[i]] if self.op[i] >= 0 else 1.0
            dur = ends[i] - starts[i]
            calls[nid] += 1
            total[nid] += scale * dur
            self_s[nid] += scale * (dur - covered[i])
        by_name = {
            name: {"calls": calls[i], "total_s": total[i], "self_s": self_s[i]}
            for i, name in enumerate(self.names)
        }
        count_id = self.names.index("repcount.count_system_reps")
        member_id = self.names.index("integer_sets.membership")
        per_class = {}
        for i in range(n):
            nid = self.name_id[i]
            if nid != count_id and nid != member_id:
                continue
            cls = op_class[self.op[i]] if self.op[i] >= 0 else "setup"
            row = per_class.setdefault(cls, [0, 0])
            if nid == count_id:
                row[0] += 1
            elif parents[i] >= 0 and self.name_id[parents[i]] == count_id:
                row[1] += 1
        return {"spans": n, "by_name": by_name, "counts_and_checks": per_class}

    def write(self, path_stem: str) -> None:
        """Spans as raw arrays in machine byte order plus a JSON index."""
        with open(path_stem + ".bin", "wb") as f:
            for arr in (self.name_id, self.start, self.end, self.parent, self.op):
                arr.tofile(f)
        with open(path_stem + ".json", "w") as f:
            json.dump({
                "names": self.names,
                "count": len(self.start),
                "layout": ["name_id:H", "start:d", "end:d", "parent:i", "op:i"],
            }, f)
