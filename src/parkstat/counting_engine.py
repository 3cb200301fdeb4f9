"""Exact counting of a-parking functions by recurrence, not by closed form.

With p(n, a) the number of a-parking functions of length n, moving the k = 0
term of the fundamental recurrence to the left gives

    p(n, a) = p(n, a-1) + sum_{k=1..n} C(n,k) p(n-k, a+k-1),
    p(0, a) = 1,  p(n, 0) = 0 for n >= 1.

count takes p(n, a) = Q(n,a)(1) from the jet engine at order 0, i.e. from
the Kreweras convolution and the Kung-Yan addition law (see genfun_engine).
The anti-diagonal sweep of the recurrence above (kernels.count_step) is kept
only as the test-time cross-check of those counts, like kernels.jet_step.
count_symbolic runs the recurrence with a symbolic shift, telescoping the
right-hand side over the shift with exact polynomial summation, and
verify_closed_form is the proof-by-evaluation that the counts equal
a(a+n)^(n-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactalg import SymPoly, binomial, lagrange_interpolate
from .genfun_engine import jet_many


def count(n: int, a: int = 1) -> int:
    """Number of a-parking functions of length n, by the jet recurrence.

    The order-0 jet of Q(n,a) at x = 1 is the count; see jet_many.
    """
    if n < 0 or a < 0:
        raise ValueError("need n >= 0 and a >= 0")
    return jet_many([(n, a)], 0)[(n, a)].values[0]


def _shift_poly(coeffs: list[Fraction], c: int) -> list[Fraction]:
    # p(b + c) by Horner: fold coefficients highest-first against (b + c)
    out: list[Fraction] = []
    for coef in reversed(coeffs):
        # out(b) <- out(b) * (b + c) + coef
        shifted = [Fraction(0)] + out
        for i in range(len(out)):
            shifted[i] += c * out[i]
        out = shifted
        if out:
            out[0] += coef
        else:
            out = [Fraction(coef)]
    return out or [Fraction(0)]


def _sum_from_one(coeffs: list[Fraction]) -> list[Fraction]:
    """Discrete antiderivative S(a) = sum_{b=1..a} g(b), exact.

    S is a polynomial of degree deg(g) + 1; it is pinned down by its values
    at a = 0..deg(g)+1 (cumulative sums) via Lagrange interpolation.
    """

    def g_at(b: int) -> Fraction:
        acc = Fraction(0)
        for coef in reversed(coeffs):
            acc = acc * b + coef
        return acc

    deg = len(coeffs) - 1
    xs = list(range(deg + 2))
    ys: list[Fraction] = []
    acc = Fraction(0)
    for b in xs:
        if b > 0:
            acc += g_at(b)
        ys.append(acc)
    return lagrange_interpolate(xs, ys)


def count_symbolic(n: int) -> SymPoly:
    """p_n(a) as an exact polynomial in the shift a.

    Runs the rearranged recurrence with the shift kept symbolic: at each
    length the k >= 1 part is assembled from the shorter polynomials
    (composed at shifted arguments) and telescoped over the shift by exact
    polynomial summation from 1 to a.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    polys: list[list[Fraction]] = [[Fraction(1)]]  # p_0(a) = 1
    for m in range(1, n + 1):
        g = [Fraction(0)] * m  # degree of g is m - 1
        for k in range(1, m + 1):
            child = _shift_poly(polys[m - k], k - 1)
            w = binomial(m, k)
            for i, coef in enumerate(child):
                g[i] += w * coef
        polys.append(_sum_from_one(g))
    coeffs = polys[n]
    return SymPoly.from_univariate(coeffs, "a")


def closed_form_symbolic(n: int) -> SymPoly:
    """a(a+n)^(n-1) expanded as a polynomial in a (n >= 1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    terms = {(j + 1,): Fraction(binomial(n - 1, j) * n ** (n - 1 - j))
             for j in range(n)}
    return SymPoly(("a",), terms)


@dataclass(frozen=True)
class ClosedFormReport:
    """Outcome of the proof-by-evaluation of p(n,a) = a(a+n)^(n-1).

    Both sides at fixed n are polynomials in a of degree <= n, so n+1
    distinct shift values per n suffice; `claim` is "proved" when the grid
    is wide enough for that degree argument (a_max >= n_max + 1) and
    "checked" otherwise.
    """

    ok: bool
    points_checked: int
    n_max: int
    a_max: int
    claim: str
    failure: tuple[int, int] | None = None
    failure_kind: str | None = None  # "count" or "identity"

    def describe(self) -> str:
        if self.ok:
            return (f"{self.claim}: closed form and binomial identity hold at "
                    f"{self.points_checked} points (n <= {self.n_max}, a <= {self.a_max})")
        return (f"FAILED at (n, a) = {self.failure} [{self.failure_kind} check] "
                f"after {self.points_checked} points")


def _identity_rhs(n: int, a: int) -> int:
    # sum_{k=0..n} C(n,k) (a+k-1) (a+n-1)^(n-k-1); the k = n factor
    # (a+n-1)^(-1) cancels exactly against (a+k-1), leaving 1.
    base = a + n - 1
    acc = 1  # k = n term
    for k in range(n):
        acc += binomial(n, k) * (a + k - 1) * base ** (n - k - 1)
    return acc


def verify_closed_form(n_max: int, a_max: int) -> ClosedFormReport:
    """Check p(n,a) = a(a+n)^(n-1) and the binomial identity on a grid."""
    if n_max < 1 or a_max < 1:
        raise ValueError("need n_max >= 1 and a_max >= 1")
    grid = [(n, a) for n in range(1, n_max + 1) for a in range(1, a_max + 1)]
    counts = jet_many(grid, 0)
    claim = "proved" if a_max >= n_max + 1 else "checked"
    checked = 0
    for n, a in grid:
        closed = a * (a + n) ** (n - 1)
        if counts[(n, a)].values[0] != closed:
            return ClosedFormReport(False, checked, n_max, a_max, claim,
                                    (n, a), "count")
        if _identity_rhs(n, a) != closed:
            return ClosedFormReport(False, checked, n_max, a_max, claim,
                                    (n, a), "identity")
        checked += 1
    return ClosedFormReport(True, checked, n_max, a_max, claim)
