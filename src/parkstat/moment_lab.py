"""Exact expectations, factorial moments, conversions, scaled histograms.

The closed forms, with b = a+n and the Abel-type sum
S = sum_{l=0..n} n^{falling l} b^{n-l} (genfun_engine.abel_sum):

    W_n               = (n!/n^(n-1)) sum_{k=0..n-2} n^k/k!
    E_area(n, a)      = n(a-2)/2 + (S - b^n)/(2 b^(n-1))
    E_sum(n, a)       = n(a+n+1)/2 - (S - b^n)/(2 b^(n-1))
    P'(n, a)(1)       = a (n(a+n+1) b^(n-1) - S + b^n)/2

so that E_area(n,1) = -n/2 + W_(n+1)/2 and E_sum + E_area = n(2a+n-1)/2.
E_area lives in genfun_engine (expectation_area, with _abel_tail), next to
the moment identities built around it, and is imported here; the other
three are defined here.  The expectations and P' take S from one
binary-split abel_sum call, which is sub-quadratic in n.  W_n keeps its
own Riordan-Sloane sum, so the E_area(n,1) = -n/2 + W_(n+1)/2 check stays
one between two independent formulas rather than an identity true by
construction.
The k-th factorial moment is E_k(n,a) = Q^(k)(n,a)(1) / (a(a+n)^(n-1)),
taken from the jet engine; raw moments follow via Stirling numbers of the
second kind, central moments by binomial expansion about the mean, and
scaled moments are kept in exact split form central_j * variance^(-j/2)
(the standard deviation is irrational, so decimal rendering happens only at
the output boundary, at an explicit precision).  convert_moments runs in
integers over one common denominator D, which divides a(a+n)^(n-1): raw
moment j is R_j/D and central moment j is C_j/D^j, each reduced by one gcd
at the end rather than by a Fraction operation per term.  The scaled
histogram renders each row's x and density as one correctly rounded square
root of exact integers (see scaled_histogram).  The module keeps no mutable
state of its own.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .exactalg import PolyX, binomial, int_str, rat_str, sqrt_decimal, to_sig_str
from .errors import DEFAULT_BUDGET
from .genfun_engine import _abel_tail, area_genfun, expectation_area, jet_at_one


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


def expectation_sum(n: int, a: int = 1) -> Fraction:
    """Exact expectation of the sum statistic on a-parking functions."""
    tail, power = _abel_tail(n, a)
    return Fraction(n * (a + n + 1) * power - tail, 2 * power)


def p_prime_closed(n: int, a: int = 1) -> int:
    """P'(n,a)(1) in closed form, always an exact integer.

    The first factor carries (a+n+1): the displayed list form with (a+n-1)
    contradicts both the sum-expectation formula and direct evaluation
    (P'(2,1)(1) = 8, not 2), so the consistent variant is used here.
    """
    tail, power = _abel_tail(n, a)
    val, odd = divmod(a * (n * (a + n + 1) * power - tail), 2)
    assert not odd
    return val


def factorial_moments(n: int, a: int = 1, order: int = 2) -> list[Fraction]:
    """E_1..E_order, with E_k = Q^(k)(n,a)(1) / (a(a+n)^(n-1))."""
    if n < 1 or a < 1 or order < 1:
        raise ValueError("need n >= 1, a >= 1, order >= 1")
    total, *derivs = jet_at_one(n, a, order).values
    return [Fraction(v, total) for v in derivs]


def stirling2(j: int, k: int) -> int:
    """Stirling number of the second kind, by the explicit sum
    S(j,k) = sum_{i=0..k} (-1)^i C(k,i) (k-i)^j / k!."""
    if j < 0 or k < 0:
        raise ValueError("need j, k >= 0")
    return sum((-1) ** i * math.comb(k, i) * (k - i) ** j
               for i in range(k + 1)) // math.factorial(k)


class MomentTable(NamedTuple):
    """Factorial, raw, central and scaled moments of the area statistic.

    Index i holds the (i+1)-st moment.  `variance` is the second central
    moment, held even at order 1.
    """

    n: int
    a: int
    order: int
    factorial: tuple[Fraction, ...]
    raw: tuple[Fraction, ...]
    central: tuple[Fraction, ...]
    variance: Fraction

    @property
    def mean(self) -> Fraction:
        return self.raw[0]

    @property
    def scaled(self) -> tuple[tuple[Fraction, Fraction], ...] | None:
        """Exact split pairs (central_j, j/2) meaning central_j * variance^(-j/2),
        left unrendered since variance^(j/2) is irrational for odd j; None when
        the variance vanishes (scaled moments undefined)."""
        if self.variance <= 0:
            return None
        return tuple((c, Fraction(j, 2)) for j, c in enumerate(self.central, 1))

    def to_json_obj(self) -> dict:
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


def convert_moments(factorial: list[Fraction]) -> tuple[
        tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Factorial -> (raw, central), in integers over one denominator.

    With D the lcm of the denominators and factorial_k = v_k/D, the raw
    moments are R_j/D with R_j = sum_k S(j,k) v_k, and the central moments,
    the binomial expansion about the mean R_1/D, are C_j/D^j with
    C_j = sum_i C(j,i) R_i (-R_1)^(j-i) D^(i-1), where R_0 D^-1 = 1.
    Each moment is then one Fraction, so one gcd.
    """
    factorial = [Fraction(x) for x in factorial]
    den = math.lcm(*(x.denominator for x in factorial))
    v = [x.numerator * (den // x.denominator) for x in factorial]
    raw = [sum(stirling2(j, k) * v[k - 1] for k in range(1, j + 1))
           for j in range(1, len(v) + 1)]
    scaled = [1] + [r * den ** i for i, r in enumerate(raw)]  # R_i D^(i-1)
    central = [Fraction(sum(binomial(j, i) * scaled[i] * (-raw[0]) ** (j - i)
                            for i in range(j + 1)), den ** j)
               for j in range(1, len(v) + 1)]
    return tuple(Fraction(r, den) for r in raw), tuple(central)


def moment_table(n: int, a: int = 1, order: int = 2) -> MomentTable:
    """Moments 1..order; at order 1, the prefix of the order-2 table."""
    # the variance needs the second moment
    fact = factorial_moments(n, a, 2 if order == 1 else order)
    raw, central = convert_moments(fact)
    return MomentTable(n=n, a=a, order=order, factorial=tuple(fact[:order]),
                       raw=raw[:order], central=central[:order],
                       variance=central[1])


class HistogramRow(NamedTuple):
    area: int
    count: int
    x: str        # (area - E)/sigma, fixed-precision decimal
    density: str  # count * sigma / total, fixed-precision decimal


class ScaledHistogram(NamedTuple):
    """Exact area histogram with the scaled coordinate x = (m - E)/sigma."""

    n: int
    a: int
    mean: Fraction
    variance: Fraction
    rows: tuple[HistogramRow, ...]

    @property
    def total(self) -> int:
        return sum(r.count for r in self.rows)

    def to_csv(self) -> str:
        lines = ["area,count,x,density"]
        lines += [f"{r.area},{int_str(r.count)},{r.x},{r.density}" for r in self.rows]
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "a": self.a,
            "total": int_str(self.total),
            "mean": rat_str(self.mean),
            "variance": rat_str(self.variance),
            "rows": [
                {"area": r.area, "count": int_str(r.count), "x": r.x,
                 "density": r.density}
                for r in self.rows
            ],
        }


def scaled_histogram(n: int, a: int = 1, precision: int = 15,
                     budget: int = DEFAULT_BUDGET) -> ScaledHistogram:
    """Rows (area, exact count, x, density) over every conceivable area.

    Each value is one correctly rounded root of exact integers.  With
    T = sum c, m1 = sum m c, spread = T sum m^2 c - m1^2 (T^2 Var) and
    d = m T - m1 for the row at area m: |x| = sqrt(d^2/spread) with the
    sign of d, and density = c sigma/T = sqrt(c^2 spread/T^4).
    """
    if n < 2:
        raise ValueError("need n >= 2 for a positive variance")
    if a < 1:
        raise ValueError("need a >= 1 for a nonempty histogram")
    gf = area_genfun(n, a, budget)
    poly: PolyX = gf.poly
    total = poly.eval_one()
    m1 = sum(m * c for m, c in enumerate(poly.coeffs))
    spread = total * sum(m * m * c for m, c in enumerate(poly.coeffs)) - m1 * m1
    total4 = total ** 4
    rows = []
    for m, c in enumerate(poly.coeffs):
        if not c:
            continue
        d = m * total - m1
        x = sqrt_decimal(d * d, spread, precision)
        rows.append(HistogramRow(
            area=m, count=c,
            x=to_sig_str(x.copy_negate() if d < 0 else x, precision),
            density=to_sig_str(sqrt_decimal(c * c * spread, total4, precision),
                               precision),
        ))
    return ScaledHistogram(n=n, a=a, mean=Fraction(m1, total),
                           variance=Fraction(spread, total * total), rows=tuple(rows))
