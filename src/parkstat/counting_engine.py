"""Exact counting of a-parking functions by recurrence, not by closed form.

With p(n, a) the number of a-parking functions of length n, moving the k = 0
term of the fundamental recurrence to the left gives

    p(n, a) = p(n, a-1) + sum_{k=1..n} C(n,k) p(n-k, a+k-1),
    p(0, a) = 1,  p(n, 0) = 0 for n >= 1.

count takes p(n, a) = Q(n,a)(1) from the jet engine at order 0, i.e. from
one Lagrange-inversion sum per state, g_0 - g_1 with
g_l = n^{falling l} (a+n)^{n-l}, run by the same suffix-sum loop as every
higher order (see genfun_engine).
The anti-diagonal sweep of the recurrence above (kernels.count_step) is kept
only as the test-time cross-check of those counts, like kernels.jet_step.
count_symbolic keeps the shift symbolic in the exponential-formula law
log E_a(z) = sum_m [am]_x Q(m-1,1) z^m/m! at x = 1, where it becomes an
integer recurrence on coefficient lists in a, and verify_closed_form is the
proof-by-evaluation that the counts equal a(a+n)^(n-1).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exactalg import SymPoly, binomial
from .genfun_engine import jet_many


def count(n: int, a: int = 1) -> int:
    """Number of a-parking functions of length n, by the jet recurrence.

    The order-0 jet of Q(n,a) at x = 1 is the count; see jet_many.
    """
    if n < 0 or a < 0:
        raise ValueError("need n >= 0 and a >= 0")
    return jet_many([(n, a)], 0)[(n, a)].values[0]


def count_symbolic(n: int) -> SymPoly:
    """p_n(a) as an exact polynomial in the shift a, by the exponential formula.

    With E_a(z) = sum_m p_m(a) z^m/m!, the Kung-Yan shift decomposition at
    x = 1 gives E_a(z) = E_1(z)^a, and the exponential formula (see
    genfun_engine) gives

        log E_a(z) = a sum_{m>=1} m p_{m-1}(1) z^m/m!.

    Differentiating E_a = exp(log E_a) and comparing the coefficients of
    z^(m-1)/(m-1)! gives

        p_m(a) = a sum_{i<m} C(m-1,i) (i+1) p_i(1) p_{m-1-i}(a),

    where p_i(1) is the coefficient sum of the p_i already computed.  Each
    p_m is an integer coefficient list in a, and multiplying by a shifts it
    one place: n(n+1)(n+2)/6 multiply-adds in all.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    polys = [[1]]  # polys[m][j] is the coefficient of a^j in p_m(a)
    at_one = [1]   # p_m(1)
    for m in range(1, n + 1):
        p = [0] * (m + 1)
        for i in range(m):
            w = binomial(m - 1, i) * (i + 1) * at_one[i]
            for j, c in enumerate(polys[m - 1 - i]):
                p[j + 1] += w * c
        polys.append(p)
        at_one.append(sum(p))
    return SymPoly.from_univariate(polys[n], "a")


def closed_form_symbolic(n: int) -> SymPoly:
    """a(a+n)^(n-1) expanded as a polynomial in a (n >= 1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    terms = {(j + 1,): Fraction(binomial(n - 1, j) * n ** (n - 1 - j))
             for j in range(n)}
    return SymPoly(("a",), terms)


class ClosedFormReport(NamedTuple):
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
