"""Kernels: the hot inner loops of every engine, in pure Python.

The engines call these through parkstat.backend.kernels; count_step and
jet_step are the exceptions, kept only as test-time references (see
there).  The brute-force
kernel enumerates sorted vectors; the test suite checks it against a naive
odometer over every vector.

All diagonal-step kernels operate on anti-diagonals of the (length, shift)
state triangle: `prev` holds diagonal s-1 indexed by length n', entry n'
describing state (n', s-1-n').  States with shift 0 and length >= 1 are the
zero boundary (None for table entries, 0 for counts); state (0, s) is the
unit boundary.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement
from math import factorial

BACKEND = "pure"


def brute_area_counts(n: int, a: int) -> list[int]:
    """Tally area over all preference vectors in {1..n+a-1}^n.

    The parking condition and the area depend only on the sorted vector, so
    this walks the multisets (sorted vectors) instead of the vectors: each
    one that satisfies p_(i) <= a+i-1 adds its n!/prod(m_j!) orderings at
    area offset - sum.  Returns the dense list counts[area] for
    area = 0 .. n(2a+n-3)/2.
    """
    if n < 1:
        raise ValueError("brute kernel needs n >= 1")
    max_area = n * (2 * a + n - 3) // 2
    offset = n * (2 * a + n - 1) // 2  # area = offset - sum
    caps = range(a, a + n)
    orderings = factorial(n)
    hist = [0] * (max_area + 1)
    for srt in combinations_with_replacement(range(1, n + a), n):
        if any(p > cap for p, cap in zip(srt, caps)):
            continue
        weight = orderings
        for m in Counter(srt).values():
            weight //= factorial(m)
        hist[offset - sum(srt)] += weight
    return hist


def count_step(prev: list, s: int, n_cap: int, binom: list) -> list:
    """One anti-diagonal of the counting recurrence.

    cur[n'] = p(n', s-n') = p(n', s-n'-1) + sum_k C(n',k) p(n'-k, s-n'+k-1),
    with all referenced states living on diagonal s-1 (= prev).

    No engine calls this: counting_engine.count reads the order-0 jet of the
    Wright-Abel sums in genfun_engine.  It stays as the independent O(n^3)
    path the tests check those counts against, and because the benchmark
    tracer wraps it.
    """
    top = min(s, n_cap)
    cur = [0] * (top + 1)
    cur[0] = 1
    for n in range(1, top + 1):
        if s - n == 0:
            continue  # shift 0: no functions
        acc = prev[n]
        row = binom[n]
        for k in range(1, n + 1):
            c = prev[n - k]
            if c:
                acc += row[k] * c
        cur[n] = acc
    return cur


def genfun_step(prev: list, s: int, n_cap: int, binom: list) -> list:
    """One anti-diagonal of the area generating-function recurrence.

    Entries are dense coefficient lists (or None for the zero boundary).
    cur[n'] accumulates prev[n'] plus C(n',k) * x^{k(k+2a-3)/2} * prev[n'-k].
    """
    top = min(s, n_cap)
    cur = [None] * (top + 1)
    cur[0] = [1]
    for n in range(1, top + 1):
        a = s - n
        if a == 0:
            continue
        deg = n * (2 * a + n - 3) // 2
        acc = [0] * (deg + 1)
        head = prev[n]
        if head is not None:
            for i in range(len(head)):
                acc[i] = head[i]
        row = binom[n]
        for k in range(1, n + 1):
            child = prev[n - k]
            if child is None:
                continue
            w = row[k]
            e = k * (k + 2 * a - 3) // 2
            for i in range(len(child)):
                c = child[i]
                if c:
                    acc[e + i] += w * c
        cur[n] = acc
    return cur


def jet_step(prev: list, s: int, n_cap: int, kmax: int, binom: list) -> list:
    """One anti-diagonal of the order-kmax jet recurrence, Taylor basis.

    Entries are lists T with T[i] = Q^(i)(1)/i! (exact integers).  The shift
    x^e contributes binomially: T_i <- T_i + C(n,k) * C(e,t) * T_child[i-t],
    which is the k-times-differentiated recurrence divided through by i!.

    No engine calls this: the jet engine uses one Wright-Abel suffix-sum run
    per state in genfun_engine.  It stays as the independent O(n^3 K^2) path
    the tests check that engine against, and because the benchmark tracer
    wraps it.
    """
    top = min(s, n_cap)
    width = kmax + 1
    cur = [None] * (top + 1)
    unit = [0] * width
    unit[0] = 1
    cur[0] = unit
    for n in range(1, top + 1):
        a = s - n
        if a == 0:
            continue
        head = prev[n]
        acc = list(head) if head is not None else [0] * width
        row = binom[n]
        for k in range(1, n + 1):
            child = prev[n - k]
            if child is None:
                continue
            w = row[k]
            e = k * (k + 2 * a - 3) // 2
            for i in range(width):
                acc[i] += w * child[i]
            c = 1
            for t in range(1, width):
                c = c * (e - t + 1) // t
                if c == 0:
                    break
                wc = w * c
                for i in range(t, width):
                    acc[i] += wc * child[i - t]
        cur[n] = acc
    return cur
