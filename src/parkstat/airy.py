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
deviations |ratio - 1| shrink along the grid and end below a threshold.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from .exactalg import TwoPiPow, _pi_decimal, rat_str, to_sig_str
from .genfun_engine import jet_many

RATIO_DIGITS = 20


@dataclass(frozen=True)
class AiryMoment:
    """k-th raw moment of the Airy distribution: value r * (2*pi)^(h/2)."""

    k: int
    r: Fraction
    h: int

    @property
    def split(self) -> TwoPiPow:
        return TwoPiPow(self.r, self.h)

    def decimal(self, sig: int = RATIO_DIGITS) -> Decimal:
        return self.split.decimal(sig)

    def __str__(self) -> str:
        return f"e_{self.k} = {self.split}"


def airy_moments(order: int) -> list[AiryMoment]:
    """Exact moments e_1..e_order in split form, h = k mod 2."""
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
            out.append(AiryMoment(k=k, r=r, h=1))
        else:
            m = (3 * k - 2) // 2
            gamma_ratio = Fraction(4**m * math.factorial(m),
                                   math.factorial(2 * m))
            r = 4 * math.factorial(k) * v[k] * 2 ** (k // 2) * gamma_ratio
            out.append(AiryMoment(k=k, r=r, h=0))
    return out


@dataclass(frozen=True)
class RatioRow:
    k: int
    n: int
    ratio: str      # E_k(n,1) / (e_k n^(3k/2)), fixed-precision decimal
    deviation: str  # |ratio - 1|


@dataclass(frozen=True)
class KSummary:
    k: int
    decreasing: bool
    final_deviation: str
    below_threshold: bool


@dataclass(frozen=True)
class AsymptoticReport:
    order: int
    grid: tuple[int, ...]
    threshold: str
    rows: tuple[RatioRow, ...]
    per_k: tuple[KSummary, ...]

    @property
    def ok(self) -> bool:
        return all(s.decreasing and s.below_threshold for s in self.per_k)

    def to_csv(self) -> str:
        lines = ["k,n,ratio,deviation"]
        lines += [f"{r.k},{r.n},{r.ratio},{r.deviation}" for r in self.rows]
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        moments = airy_moments(self.order)
        return {
            "k_max": self.order,
            "grid": list(self.grid),
            "threshold": self.threshold,
            "moments": [{"k": m.k, "r": rat_str(m.r), "h": m.h}
                        for m in moments],
            "rows": [{"k": r.k, "n": r.n, "ratio": r.ratio,
                      "deviation": r.deviation} for r in self.rows],
            "per_k": [{"k": s.k, "decreasing": s.decreasing,
                       "final_deviation": s.final_deviation,
                       "below_threshold": s.below_threshold}
                      for s in self.per_k],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def asymptotic_check(order: int, grid: list[int],
                     threshold: Fraction = Fraction(1, 4)) -> AsymptoticReport:
    """Moment-by-moment convergence report over an ascending grid of n."""
    if order < 1:
        raise ValueError("need order >= 1")
    grid = list(grid)
    if grid != sorted(grid) or len(set(grid)) != len(grid):
        raise ValueError("grid must be strictly ascending")
    if any(n < 1 for n in grid):
        raise ValueError("grid values must be >= 1")
    moments = airy_moments(order)
    jets = jet_many([(n, 1) for n in grid], order)
    rows: list[RatioRow] = []
    summaries: list[KSummary] = []
    with localcontext() as ctx:
        ctx.prec = RATIO_DIGITS + 20
        thr = Decimal(threshold.numerator) / Decimal(threshold.denominator)
        for k in range(1, order + 1):
            mom = moments[k - 1]
            devs: list[Decimal] = []
            for n in grid:
                values = jets[(n, 1)].values  # values[0] = Q(n,1)(1), the count
                ek = Fraction(values[k], values[0])
                ratio = _ratio_decimal(k, n, mom, ek)
                dev = abs(ratio - 1)
                devs.append(dev)
                rows.append(RatioRow(k=k, n=n,
                                     ratio=to_sig_str(ratio, RATIO_DIGITS),
                                     deviation=to_sig_str(dev, RATIO_DIGITS)))
            decreasing = all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))
            summaries.append(KSummary(
                k=k,
                decreasing=decreasing,
                final_deviation=to_sig_str(devs[-1], RATIO_DIGITS),
                below_threshold=devs[-1] < thr,
            ))
    return AsymptoticReport(order=order, grid=tuple(grid),
                            threshold=rat_str(threshold),
                            rows=tuple(rows), per_k=tuple(summaries))


def _ratio_decimal(k: int, n: int, moment: AiryMoment,
                   ek_value: Fraction) -> Decimal:
    if k % 2 == 0:
        exact = ek_value / (moment.r * Fraction(n) ** (3 * k // 2))
        return Decimal(exact.numerator) / Decimal(exact.denominator)
    # odd k: e_k n^(3k/2) = r sqrt(2*pi) n^((3k-1)/2) sqrt(n)
    exact = ek_value / (moment.r * Fraction(n) ** ((3 * k - 1) // 2))
    num = Decimal(exact.numerator) / Decimal(exact.denominator)
    two_pi_n = 2 * _pi_decimal(RATIO_DIGITS + 20) * n
    return num / two_pi_n.sqrt()
