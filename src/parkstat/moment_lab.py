"""Exact expectations, factorial moments, conversions, scaled histograms.

The closed forms implemented here:

    W_n               = (n!/n^(n-1)) sum_{k=0..n-2} n^k/k!
    E_area(n, a)      = n(a-2)/2 + (1/2) sum_{j=1..n} n!/((n-j)! (a+n)^(j-1))
    E_sum(n, a)       = n(a+n+1)/2 - (1/2) sum_{j=1..n} n!/((n-j)! (a+n)^(j-1))
    P'(n, a)(1)       = (1/2) a n (a+n+1) (a+n)^(n-1)
                        - (1/2) sum_{j=1..n} C(n,j) j! a (a+n)^(n-j)

so that E_area(n,1) = -n/2 + W_(n+1)/2 and E_sum + E_area = n(2a+n-1)/2.
The k-th factorial moment is E_k(n,a) = Q^(k)(n,a)(1) / (a(a+n)^(n-1)),
taken from the jet engine; raw moments follow via Stirling numbers of the
second kind, central moments by binomial expansion about the mean, and
scaled moments are kept in exact split form central_j * variance^(-j/2)
(the standard deviation is irrational, so decimal rendering happens only at
the output boundary, at an explicit precision).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from .exactalg import PolyX, binomial, rat_str, sqrt_decimal, to_sig_str
from .genfun_engine import DEFAULT_CELL_BUDGET, area_genfun, jet_at_one


def w_value(n: int) -> Fraction:
    """Riordan-Sloane total-height expectation W_n; W_1 = 0 (empty sum)."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return Fraction(0)
    # sum_{k=0..n-2} n^k/k! = U/(n-2)! with U = sum n^k (n-2)!/k!,
    # built by U_k = k U_{k-1} + n^k so everything stays integral.
    u = 1
    p = 1
    for k in range(1, n - 1):
        p *= n
        u = k * u + p
    return Fraction((n - 1) * u, n ** (n - 2))


def _falling_sum(n: int, a: int) -> Fraction:
    # sum_{j=1..n} n!/((n-j)! (a+n)^(j-1)), exact
    base = a + n
    acc = 0
    ff = 1
    power = base ** (n - 1)
    for j in range(1, n + 1):
        ff *= n - j + 1
        acc += ff * power
        power //= base  # exact: power = base^(n-j) before this line
    return Fraction(acc, base ** (n - 1))


def expectation_area(n: int, a: int = 1) -> Fraction:
    """Exact expectation of the area statistic on a-parking functions."""
    if n < 1 or a < 1:
        raise ValueError("need n >= 1 and a >= 1")
    return Fraction(n * (a - 2), 2) + _falling_sum(n, a) / 2


def expectation_sum(n: int, a: int = 1) -> Fraction:
    """Exact expectation of the sum statistic on a-parking functions."""
    if n < 1 or a < 1:
        raise ValueError("need n >= 1 and a >= 1")
    return Fraction(n * (a + n + 1), 2) - _falling_sum(n, a) / 2


def p_prime_closed(n: int, a: int = 1) -> int:
    """P'(n,a)(1) in closed form, always an exact integer.

    The first factor carries (a+n+1): the displayed list form with (a+n-1)
    contradicts both the sum-expectation formula and direct evaluation
    (P'(2,1)(1) = 8, not 2), so the consistent variant is used here.
    """
    if n < 1 or a < 1:
        raise ValueError("need n >= 1 and a >= 1")
    head = Fraction(a * n * (a + n + 1) * (a + n) ** (n - 1), 2)
    tail = Fraction(0)
    ff = 1
    for j in range(1, n + 1):
        ff *= n - j + 1  # C(n,j) j! = n!/(n-j)!
        tail += ff * a * (a + n) ** (n - j)
    val = head - tail / 2
    assert val.denominator == 1
    return val.numerator


def factorial_moments(n: int, a: int = 1, order: int = 2) -> list[Fraction]:
    """E_1..E_order, with E_k = Q^(k)(n,a)(1) / (a(a+n)^(n-1))."""
    if n < 1 or a < 1 or order < 1:
        raise ValueError("need n >= 1, a >= 1, order >= 1")
    total, *derivs = jet_at_one(n, a, order).values
    return [Fraction(v, total) for v in derivs]


_stirling2_rows: list[list[int]] = [[1]]


def stirling2(j: int, k: int) -> int:
    """Stirling number of the second kind, by the triangular recurrence."""
    if j < 0 or k < 0:
        raise ValueError("need j, k >= 0")
    if k > j:
        return 0
    while len(_stirling2_rows) <= j:
        m = len(_stirling2_rows)
        prev = _stirling2_rows[-1]
        row = [0] * (m + 1)
        for t in range(1, m + 1):
            row[t] = prev[t - 1] + (t * prev[t] if t < m else 0)
        _stirling2_rows.append(row)
    return _stirling2_rows[j][k]


@dataclass(frozen=True)
class MomentTable:
    """Factorial, raw, central and scaled moments of the area statistic.

    Index i holds the (i+1)-st moment.  `scaled` entries are exact split
    pairs (central_j, var_power) meaning central_j * variance^(-var_power);
    it is None when the variance vanishes (scaled moments undefined).
    """

    n: int
    a: int
    order: int
    factorial: tuple[Fraction, ...]
    raw: tuple[Fraction, ...]
    central: tuple[Fraction, ...]
    scaled: tuple[tuple[Fraction, Fraction], ...] | None

    @property
    def mean(self) -> Fraction:
        return self.raw[0]

    @property
    def variance(self) -> Fraction:
        return self.central[1] if self.order >= 2 else Fraction(0)

    def scaled_decimal(self, j: int, precision: int = 15) -> Decimal:
        """Scaled moment j rendered as a decimal (variance must be > 0)."""
        if self.scaled is None:
            raise ValueError("scaled moments undefined: variance is zero")
        central_j, var_power = self.scaled[j - 1]
        with localcontext() as ctx:
            ctx.prec = precision + 10
            num = Decimal(central_j.numerator) / Decimal(central_j.denominator)
            vp = self.variance ** var_power.numerator  # var_power = j/2, reduced
            denom = Decimal(vp.numerator) / Decimal(vp.denominator)
            if var_power.denominator == 2:
                denom = denom.sqrt()
            return +(num / denom)

    def to_json_obj(self, precision: int = 15) -> dict:
        obj = {
            "n": self.n,
            "a": self.a,
            "k": self.order,
            "factorial": [rat_str(x) for x in self.factorial],
            "raw": [rat_str(x) for x in self.raw],
            "central": [rat_str(x) for x in self.central],
        }
        if self.scaled is None:
            obj["scaled_split"] = None
        else:
            obj["scaled_split"] = [
                {"central": rat_str(c), "var_power": rat_str(p)}
                for c, p in self.scaled
            ]
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def convert_moments(factorial: list[Fraction]) -> tuple[
        tuple[Fraction, ...], tuple[Fraction, ...],
        tuple[tuple[Fraction, Fraction], ...] | None]:
    """Factorial -> (raw, central, scaled split form).

    raw_j = sum_k S(j,k) factorial_k; central by binomial expansion about
    the mean; scaled_j left as (central_j, j/2) since variance^(j/2) is
    irrational for odd j.  Scaled is None when the variance is zero.
    """
    order = len(factorial)
    factorial = [Fraction(x) for x in factorial]
    raw = [sum((stirling2(j, k) * factorial[k - 1] for k in range(1, j + 1)),
               Fraction(0))
           for j in range(1, order + 1)]
    mean = raw[0] if raw else Fraction(0)
    full_raw = [Fraction(1)] + raw  # raw_0 = 1
    central = []
    for j in range(1, order + 1):
        c = sum(binomial(j, i) * full_raw[i] * (-mean) ** (j - i)
                for i in range(0, j + 1))
        central.append(c)
    if order >= 2 and central[1] > 0:
        scaled = tuple((central[j - 1], Fraction(j, 2))
                       for j in range(1, order + 1))
    else:
        scaled = None
    return tuple(raw), tuple(central), scaled


def moment_table(n: int, a: int = 1, order: int = 2) -> MomentTable:
    fact = factorial_moments(n, a, order)
    raw, central, scaled = convert_moments(fact)
    return MomentTable(n=n, a=a, order=order, factorial=tuple(fact),
                       raw=raw, central=central, scaled=scaled)


@dataclass(frozen=True)
class HistogramRow:
    area: int
    count: int
    x: str        # (area - E)/sigma, fixed-precision decimal
    density: str  # count * sigma / total, fixed-precision decimal


@dataclass(frozen=True)
class ScaledHistogram:
    """Exact area histogram with the scaled coordinate x = (m - E)/sigma."""

    n: int
    a: int
    precision: int
    mean: Fraction
    variance: Fraction
    rows: tuple[HistogramRow, ...]

    @property
    def total(self) -> int:
        return sum(r.count for r in self.rows)

    def to_csv(self) -> str:
        lines = ["area,count,x,density"]
        lines += [f"{r.area},{r.count},{r.x},{r.density}" for r in self.rows]
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "a": self.a,
            "total": str(self.total),
            "mean": rat_str(self.mean),
            "variance": rat_str(self.variance),
            "rows": [
                {"area": r.area, "count": str(r.count), "x": r.x,
                 "density": r.density}
                for r in self.rows
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def scaled_histogram(n: int, a: int = 1, precision: int = 15,
                     budget: int = DEFAULT_CELL_BUDGET) -> ScaledHistogram:
    """Rows (area, exact count, x, density) over every conceivable area.

    E and Var are computed exactly from the full generating polynomial
    before anything is rendered as a decimal.
    """
    if n < 2:
        raise ValueError("need n >= 2 for a positive variance")
    if a < 1:
        raise ValueError("need a >= 1 for a nonempty histogram")
    gf = area_genfun(n, a, budget)
    poly: PolyX = gf.poly
    total = poly.eval_one()
    m1 = sum(m * c for m, c in enumerate(poly.coeffs))
    m2 = sum(m * m * c for m, c in enumerate(poly.coeffs))
    mean = Fraction(m1, total)
    variance = Fraction(m2, total) - mean * mean
    with localcontext() as ctx:
        ctx.prec = precision + 10
        sigma = sqrt_decimal(variance, precision + 10)
        total_d = Decimal(total)
        rows = []
        for m, c in enumerate(poly.coeffs):
            if not c:
                continue
            x = (Decimal((m - mean).numerator) / Decimal((m - mean).denominator)) / sigma
            density = Decimal(c) * sigma / total_d
            rows.append(HistogramRow(
                area=m, count=c,
                x=to_sig_str(x, precision),
                density=to_sig_str(density, precision),
            ))
    return ScaledHistogram(n=n, a=a, precision=precision, mean=mean,
                           variance=variance, rows=tuple(rows))
