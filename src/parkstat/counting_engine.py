"""Exact counts of a-parking functions: numeric, symbolic in a, and checked.

count takes p(n, a) = Q(n,a)(1) from the order-0 Lagrange-inversion sum of
each state, g_0 - g_1 with g_l = n^{falling l} (a+n)^{n-l}, read by
genfun_engine.suffix_sum(n, a, 0), the suffix-sum evaluation that checks
the jet engine.  Algebraically g_0 - g_1 is the closed form a(a+n)^(n-1),
which the jet engine itself uses; verify_closed_form (the closed-form
suite) checks suffix_sum(n, a, 0) against that closed form evaluated on its
own, a proof by evaluation once a_max >= n_max + 1.

The tests' reference for the counts is the fundamental recurrence: with
p(n, a) the number of a-parking functions of length n, moving its k = 0
term to the left gives

    p(n, a) = p(n, a-1) + sum_{k=1..n} C(n,k) p(n-k, a+k-1),
    p(0, a) = 1,  p(n, 0) = 0 for n >= 1.

No production path sweeps it; its anti-diagonal kernel (kernels.count_step)
is the test-time cross-check of the counts, like kernels.jet_step for the
jets.  count_symbolic expands the closed form in the shift a by the binomial
theorem; its test-time reference is the exponential-formula law
log E_a(z) = sum_m [am]_x Q(m-1,1) z^m/m! at x = 1, an integer recurrence on
coefficient lists in a (tests/reference.py).
"""

from __future__ import annotations

from typing import NamedTuple

from .exactalg import SymPoly, binomial
from .genfun_engine import suffix_sum


def count(n: int, a: int = 1) -> int:
    """Number of a-parking functions of length n, as Q(n,a)(1).

    Read by suffix_sum(n, a, 0), the order-0 Lagrange-inversion sum.
    """
    if n < 0 or a < 0:
        raise ValueError("need n >= 0 and a >= 0")
    return suffix_sum(n, a, 0)


def count_symbolic(n: int) -> SymPoly:
    """p_n(a) as an exact polynomial in the shift a, from the closed form.

    a(a+n)^(n-1) = sum_{j<n} C(n-1,j) n^(n-1-j) a^(j+1) by the binomial
    theorem, and p_0(a) = 1: n coefficients, each one product of running
    binomials and powers of n.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    coeffs = [0] * (n + 1) if n else [1]  # coeffs[j+1] = C(n-1,j) n^(n-1-j)
    c, power = 1, 1
    for j in range(n - 1, -1, -1):
        coeffs[j + 1] = c * power
        c, power = c * j // (n - j), power * n  # C(n-1,j-1), n^(n-j)
    return SymPoly.from_univariate(coeffs, "a")


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
    claim = "proved" if a_max >= n_max + 1 else "checked"
    checked = 0
    for n, a in grid:
        closed = a * (a + n) ** (n - 1)
        if suffix_sum(n, a, 0) != closed:
            return ClosedFormReport(False, checked, n_max, a_max, claim,
                                    (n, a), "count")
        if _identity_rhs(n, a) != closed:
            return ClosedFormReport(False, checked, n_max, a_max, claim,
                                    (n, a), "identity")
        checked += 1
    return ClosedFormReport(True, checked, n_max, a_max, claim)
