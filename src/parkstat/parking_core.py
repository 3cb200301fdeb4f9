"""Combinatorial ground truth: definitions, statistics, brute-force oracle.

An a-parking function of length n is a vector of positive integers whose
weakly increasing sort (p_(1), ..., p_(n)) satisfies p_(i) <= a + i - 1;
a = 1 gives classical parking functions.  The statistics are

    sum(p)  = p_1 + ... + p_n
    area(p) = n(2a + n - 1)/2 - sum(p)      (nonnegative exactly when
                                             p is an a-parking function)

brute_histogram tallies area over the full superset {1..n+a-1}^n by direct
enumeration, one sorted vector at a time, with no recurrence: every engine
in this package is validated against it.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Sequence

from . import backend
from .errors import BudgetExceeded

DEFAULT_BUDGET = 10**7
ORACLE_A_CAP = 12

PrefVector = Sequence[int]


def is_a_parking(v: PrefVector, a: int = 1) -> bool:
    """True iff the sorted vector satisfies p_(i) <= a + i - 1 for all i."""
    if a < 1:
        raise ValueError(f"shift parameter must be >= 1, got {a}")
    if any(p < 1 for p in v):
        raise ValueError("preference entries must be >= 1")
    srt = sorted(v)
    return all(p <= a + i for i, p in enumerate(srt))


def sum_stat(v: PrefVector) -> int:
    return sum(v)


def area_stat(v: PrefVector, a: int = 1) -> int:
    """n(2a+n-1)/2 - sum(v); only defined on a-parking functions."""
    if not is_a_parking(v, a):
        raise ValueError(f"{tuple(v)} is not an {a}-parking function")
    n = len(v)
    return n * (2 * a + n - 1) // 2 - sum(v)


def max_area(n: int, a: int) -> int:
    """Largest possible area, attained only by the all-ones vector."""
    return n * (2 * a + n - 3) // 2 if n >= 1 else 0


class _AreaHistogramFields(NamedTuple):
    n: int
    a: int
    counts: dict[int, int]


class AreaHistogram(_AreaHistogramFields):
    """Exact count of a-parking functions of length n for every area value."""

    __slots__ = ()

    def __new__(cls, n: int, a: int, counts: dict[int, int] | None = None) -> AreaHistogram:
        return super().__new__(cls, n, a, {} if counts is None else counts)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def to_csv(self) -> str:
        lines = ["area,count"]
        lines += [f"{m},{c}" for m, c in sorted(self.counts.items())]
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "a": self.a,
            "total": str(self.total),
            "counts": {str(m): str(c) for m, c in sorted(self.counts.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def oracle_pairs(budget: int = DEFAULT_BUDGET) -> list[tuple[int, int]]:
    """All (n, a <= ORACLE_A_CAP) whose full superset (n+a-1)^n fits the budget.

    The shift cap closes the quantifier: for tiny n the budget alone admits
    absurdly large shifts (for n = 1 every a qualifies).
    """
    pairs = []
    n = 1
    while n**n <= budget:
        for a in range(1, ORACLE_A_CAP + 1):
            if (n + a - 1) ** n <= budget:
                pairs.append((n, a))
        n += 1
    return pairs


def brute_histogram(n: int, a: int = 1, budget: int = DEFAULT_BUDGET) -> AreaHistogram:
    """Tally area over all (n+a-1)^n preference vectors.

    Hard-fails with BudgetExceeded when the superset is larger than `budget`
    (a truncated oracle would be worse than none).  The budget is charged
    for the whole superset, although the kernel visits only its sorted
    vectors, so the set of states an oracle budget admits stays fixed.
    """
    if n < 0 or a < 1:
        raise ValueError("need n >= 0 and a >= 1")
    if n == 0:
        return AreaHistogram(n=0, a=a, counts={0: 1})
    required = (n + a - 1) ** n
    if required > budget:
        raise BudgetExceeded(required, budget, what="brute-force vectors")
    dense = backend.kernels.brute_area_counts(n, a)
    counts = {m: c for m, c in enumerate(dense) if c}
    return AreaHistogram(n=n, a=a, counts=counts)
