"""Airy-distribution moments and the scaled-moment convergence check.

The limit law of the scaled area statistic is the Airy distribution (the
area under the normalized Brownian excursion).  Its raw moments m_k admit
an exact split form r * (2*pi)^(h/2) with r rational and h = k mod 2,
computed here from the classical quadratic moment recurrence

    v_0 = -1/2,
    v_k = (3k - 4)/8 * v_{k-1} + sum_{j=1..k-1} v_j v_{k-j},

    m_k = 4 * k! * v_k * 2^(k/2) * sqrt(pi) / Gamma((3k - 1)/2).

External-knowledge firewall: the recurrence lives outside this package's
own derivations, so the first six values are pinned against independently
published leading coefficients by the test suite and any transcription
drift fails loudly.

asymptotic_check then renders, for each k, the exact ratio
E_k(n,1) / (m_k n^(3k/2)) on a grid of n values and reports whether the
deviations |ratio - 1| shrink along the grid and end below THRESHOLD.
The rational part of each ratio is one correctly rounded quotient of
integers taken straight from the jets and the moment, with no reduced
Fraction of the jets' big values: the integers divide once into a
quotient a digit or two longer than the 40 digits it is rounded to, and
only that short quotient becomes a Decimal.  So rendering stays cheap at
n = 10^5, where the jets hold 500,000-digit integers.  For even k that
quotient is the ratio; odd k divide it by sqrt(2*pi*n), with 2*pi*n, the
root and the division each rounded to 40 digits.  Every Decimal operation
goes through the methods of one Context that exactalg.decimal_context
builds per call, never the thread's context or decimal.DefaultContext, so
the report depends on the arguments alone.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal
from fractions import Fraction
from typing import NamedTuple

from .exactalg import (PI_40, TwoPiPow, decimal_context, quotient_decimal, rat_str,
                       to_sig_str)
from .genfun_engine import jet_many

RATIO_DIGITS = 20
WORK_DIGITS = 40  # the digits PI_40 carries
THRESHOLD = Fraction(1, 4)


def airy_moments(order: int) -> tuple[TwoPiPow, ...]:
    """Exact moments e_1..e_order in split form, e_k at index k-1, h = k mod 2."""
    if order < 1:
        raise ValueError("need order >= 1")
    v = [Fraction(-1, 2)]
    for k in range(1, order + 1):
        vk = Fraction(3 * k - 4, 8) * v[k - 1]
        vk += sum((v[j] * v[k - j] for j in range(1, k)), Fraction(0))
        v.append(vk)
    out = []
    for k in range(1, order + 1):
        if k % 2:
            # Gamma((3k-1)/2) = ((3k-3)/2)! and one factor sqrt(2) joins
            # sqrt(pi) to make sqrt(2*pi)
            r = 4 * math.factorial(k) * v[k] * 2 ** ((k - 1) // 2) \
                / math.factorial((3 * k - 3) // 2)
        else:
            m = (3 * k - 2) // 2
            gamma_ratio = Fraction(4**m * math.factorial(m),
                                   math.factorial(2 * m))
            r = 4 * math.factorial(k) * v[k] * 2 ** (k // 2) * gamma_ratio
        out.append(TwoPiPow(r, k % 2))
    return tuple(out)


class RatioRow(NamedTuple):
    k: int
    n: int
    ratio: str      # E_k(n,1) / (e_k n^(3k/2)), fixed-precision decimal
    deviation: str  # |ratio - 1|


class KSummary(NamedTuple):
    k: int
    decreasing: bool
    final_deviation: str
    below_threshold: bool


class AsymptoticReport(NamedTuple):
    moments: tuple[TwoPiPow, ...]  # e_1..e_K, e_k at index k-1
    grid: tuple[int, ...]
    rows: tuple[RatioRow, ...]
    per_k: tuple[KSummary, ...]

    def to_csv(self) -> str:
        lines = ["k,n,ratio,deviation"]
        lines += [f"{r.k},{r.n},{r.ratio},{r.deviation}" for r in self.rows]
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "k_max": len(self.moments),
            "grid": list(self.grid),
            "threshold": rat_str(THRESHOLD),
            "moments": [{"k": k, "r": rat_str(m.r), "h": m.h}
                        for k, m in enumerate(self.moments, 1)],
            "rows": [{"k": r.k, "n": r.n, "ratio": r.ratio,
                      "deviation": r.deviation} for r in self.rows],
            "per_k": [{"k": s.k, "decreasing": s.decreasing,
                       "final_deviation": s.final_deviation,
                       "below_threshold": s.below_threshold}
                      for s in self.per_k],
        }


def asymptotic_check(order: int, grid: list[int]) -> AsymptoticReport:
    """Moment-by-moment convergence report over an ascending grid of n."""
    if order < 1:
        raise ValueError("need order >= 1")
    grid = list(grid)
    if not grid:
        raise ValueError("grid must not be empty")
    if grid != sorted(grid) or len(set(grid)) != len(grid):
        raise ValueError("grid must be strictly ascending")
    if any(n < 1 for n in grid):
        raise ValueError("grid values must be >= 1")
    moments = airy_moments(order)
    jets = jet_many([(n, 1) for n in grid], order)
    rows: list[RatioRow] = []
    summaries: list[KSummary] = []
    ctx = decimal_context(WORK_DIGITS)
    for k, moment in enumerate(moments, 1):
        devs: list[Decimal] = []
        for n in grid:
            ratio = _ratio_decimal(k, n, moment, jets[(n, 1)].values, ctx)
            devs.append(ctx.abs(ctx.subtract(ratio, 1)))
            rows.append(RatioRow(k=k, n=n,
                                 ratio=to_sig_str(ratio, RATIO_DIGITS),
                                 deviation=to_sig_str(devs[-1], RATIO_DIGITS)))
        summaries.append(KSummary(
            k=k,
            decreasing=all(devs[i + 1] < devs[i] for i in range(len(devs) - 1)),
            final_deviation=rows[-1].deviation,
            below_threshold=devs[-1] < THRESHOLD,
        ))
    return AsymptoticReport(moments=moments, grid=tuple(grid),
                            rows=tuple(rows), per_k=tuple(summaries))


def _ratio_decimal(k: int, n: int, moment: TwoPiPow,
                   values: tuple[int, ...], ctx: Context) -> Decimal:
    """E_k(n,1) / (e_k n^(3k/2)) to WORK_DIGITS digits.

    With E_k = values[k]/values[0] (values[0] = Q(n,1)(1), the count) and
    e_k = r (2*pi)^(h/2), the rational part is one correctly rounded
    quotient of exact integers (exactalg.quotient_decimal: one short
    integer division, no jet-sized Decimal); odd k then divide by
    sqrt(2*pi*n), each step rounded in ctx, asymptotic_check's
    WORK_DIGITS context.
    """
    ratio = quotient_decimal(values[k] * moment.r.denominator,
                             values[0] * moment.r.numerator * n ** (3 * k // 2),
                             WORK_DIGITS)
    if moment.h:
        ratio = ctx.divide(ratio, ctx.sqrt(ctx.multiply(ctx.multiply(2, PI_40), n)))
    return ratio
