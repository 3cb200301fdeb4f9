"""Combinatorial ground truth: definitions, statistics, brute-force oracle.

An a-parking function of length n is a vector of positive integers whose
weakly increasing sort (p_(1), ..., p_(n)) satisfies p_(i) <= a + i - 1;
a = 1 gives classical parking functions.  The statistics are

    sum(p)  = p_1 + ... + p_n
    area(p) = n(2a + n - 1)/2 - sum(p)      (nonnegative exactly when
                                             p is an a-parking function)

brute_histogram tallies area over the full superset {1..n+a-1}^n by direct
enumeration, one sorted vector at a time, with no recurrence: every engine
in this package is validated against it.  The tally is Q(n,a) itself, so
it comes back as the polynomial engine's record (genfun_engine.AreaGenFun)
and the two compare with ==.
"""

from __future__ import annotations

from typing import Sequence

from . import backend
from .errors import DEFAULT_BUDGET, BudgetExceeded
from .exactalg import PolyX
from .genfun_engine import AreaGenFun

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


def brute_histogram(n: int, a: int = 1, budget: int = DEFAULT_BUDGET) -> AreaGenFun:
    """Q(n,a), tallied over all (n+a-1)^n preference vectors.

    Hard-fails with BudgetExceeded when the superset is larger than `budget`
    (a truncated oracle would be worse than none).  The budget is charged
    for the whole superset, although the kernel visits only its sorted
    vectors, so the set of states an oracle budget admits stays fixed.
    """
    if n < 0 or a < 1:
        raise ValueError("need n >= 0 and a >= 1")
    if n == 0:
        return AreaGenFun(n=0, a=a, poly=PolyX([1]))
    required = (n + a - 1) ** n
    if required > budget:
        raise BudgetExceeded(required, budget, what="brute-force vectors")
    return AreaGenFun(n=n, a=a, poly=PolyX(backend.kernels.brute_area_counts(n, a)))
