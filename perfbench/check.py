"""Checks one deck op's answer, as reported by child.py, against oracle.py."""

from __future__ import annotations

from itertools import combinations

import decks
import oracle


def answer(op, ans) -> bool:
    kind = op[0]
    if kind == "window":
        _, (_, _, rule, _), lo, hi = op
        return list(oracle.window(rule, lo, hi)) == ans
    if kind == "verify":
        return _verify(op, ans)
    if kind == "witness":
        _, (_, _, rule, preds), target, strategy, max_n = op
        n, pos = oracle.first_witness(rule, target, strategy, max_n)
        return (ans["n"] == n and ans["tried"] == pos
                and ans["count"] == oracle.count(rule, n)
                and _tuples(preds, n, ans["count"], ans["tuples"]))
    if kind == "count":
        _, (_, _, rule, preds), n = op
        count, tuples, truncated = ans
        return (count == oracle.count(rule, n)
                and _tuples(preds, n, count, tuples)
                and truncated == (count > len(tuples)))
    if kind == "corr":
        _, (_, _, rule, _), q, _ = op
        expected = oracle.count(rule, q)
        return ans == [expected, expected, True]
    if kind == "partitions":
        _, h, _, primes = op
        return ans == [h ** len(primes), h ** len(primes), True]
    if kind == "search":
        _, _, specs, m = op
        ground, k, table, _ = _table([decks.colouring(spec) for spec in specs])
        expected = oracle.least_homogeneous(table, k, ground, m)
        return (None if expected is None else list(expected)) == ans
    if kind == "paley":
        return _paley(op, ans)
    if kind == "chain":
        return _chain(op, ans)
    raise ValueError(kind)


def _tuples(preds, n, count, tuples) -> bool:
    """The listed tuples are valid, distinct, and as many as the library's
    default cap of 64 allows."""
    return len(tuples) == min(count, 64) and oracle.tuples_ok(preds, n, tuples)


def _verify(op, ans) -> bool:
    _, (_, _, rule, _), name, _, _, s, scan_max = op
    if not (ans["ok"] and ans["all_match"]):
        return False
    if ans["window"] != list(oracle.window(rule, 2, scan_max)):
        return False
    if name == "s-inf":
        primes = [p for p, _ in ans["prime_values"]]
        if primes != oracle.first_primes(100):
            return False
        if any(c != s for _, c in ans["prime_values"]):
            return False
    return all(c == oracle.count(rule, n) for _, n, c in ans["evidence"])


def _table(factors):
    """One colour table whose colours are tuples of factor colours, and
    the mixed-radix index the library encodes each tuple as."""
    ground, k, _ = factors[0]
    radices = [max(t.values(), default=0) + 1 for _, _, t in factors]
    table = {c: tuple(t[c] for _, _, t in factors) for c in factors[0][2]}

    def encode(colours):
        idx = 0
        for colour, radix in zip(colours, radices):
            idx = idx * radix + colour
        return idx

    return ground, k, table, encode


def _paley(op, ans) -> bool:
    """Too large for the brute force: the answer must be homogeneous, and
    exist exactly when m is at most the graph's known clique number."""
    _, _, p, m, seed = op
    ground, k, table = decks.paley(p, seed)
    if m > oracle.PALEY_CLIQUE[p]:
        return ans is None
    return (ans is not None and len(set(ans)) == m
            and set(ans) <= set(ground) and oracle.homogeneous(table, k, ans))


def _chain(op, ans) -> bool:
    _, _, levels, sizes = op
    tables = [_table([decks.colouring(spec) for spec in level]) for level in levels]
    expected = oracle.chain([(g, k, t) for g, k, t, _ in tables], sizes)
    if expected is None or ans is None:
        return expected is None and ans is None
    subsets, epsilons = ans
    if [list(s) for s in expected] != subsets:
        return False
    for level, (subset, eps) in enumerate(zip(expected, epsilons)):
        _, k, table, encode = tables[level]
        first = next(combinations(subset, k))
        if encode(table[first]) != eps:
            return False
    return True
