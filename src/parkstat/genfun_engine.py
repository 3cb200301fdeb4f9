"""Area and sum generating polynomials, plus the jet engine at x = 1.

Q(n,a)(x) = sum of x^area(p) over all a-parking functions p of length n.
It satisfies the shifted analog of the counting recurrence,

    Q(n,a)(x) = Q(n,a-1)(x)
              + sum_{k=1..n} C(n,k) x^{k(k+2a-3)/2} Q(n-k,a+k-1)(x),
    Q(0,a)(x) = 1,  Q(n,0)(x) = 0,

and P(n,a)(x) (the sum-statistic analog) is its coefficient reversal at
offset n(2a+n-1)/2.

Two engines compute Q:

  * area_genfun materializes the full coefficient vector of Q by sweeping
    anti-diagonals of the state triangle with this recurrence, retiring a
    diagonal as soon as the sweep passes it (the audit path; memory grows
    with n^3);
  * jet_at_one carries only (Q(1), Q'(1), ..., Q^(K)(1)) per state (the
    performance path; this is what makes n in the hundreds cheap).

The jets never use the triangle.  Every shift follows from one law.  Write
E_a(z) = sum_m Q(m,a) z^m/m!.  The shift decomposition of Kung & Yan
("Goncarov polynomials and parking functions", JCTA 2003) gives
E_a(z) = prod_{j<a} E_1(x^j z).  The Kreweras convolution (area enumerator
of parking functions = inversion enumerator of trees, Period. Math.
Hungar. 1980) is the statement that
log E_1(z) = sum_m [m]_x Q(m-1,1) z^m/m!, with [e]_x = 1 + x + ... +
x^{e-1}.  Summing it over the a factors, the x^j turn [m]_x into [am]_x:

    log E_a(z) = sum_m [am]_x Q(m-1,1) z^m/m!,

and differentiating in z gives one recurrence for every shift (see
_convolution_jets),

    Q(m,a) = sum_{i<m} C(m-1,i) [a(i+1)]_x Q(i,1) Q(m-1-i,a),

which at a = 1 is the Kreweras convolution itself.  In the Taylor basis
below, [e]_x is the jet C(e, t+1).

At a = 1 the convolution only runs up to a small seed.  By Mallows-Riordan
and Kreweras, Taylor coefficient t of Q(n,1) at x = 1 is c(n+1, n+t), the
number of connected graphs on n+1 labelled vertices with excess t-1 (Knuth,
"Linear probing and graphs", Algorithmica 1998).  Wright (J. Graph Theory
1977) gives their generating functions as W_k = P_k(T)/(1-T)^{3k} in the
tree function T, so Lagrange inversion turns each count into one sum over
O(n) terms, O(nK) big-by-small work per length (see _wright_jet); the
order-0 term is Cayley's formula.  The polynomials P_k are read off exact
jets at n <= 3K-2, which the convolution computes on first use at each
order K (_wright_polys).  Each shift a > 1 is one run of the convolution,
fed with the Wright jets of every m < n.  Jets are held in the Taylor basis
T_i = Q^(i)(1)/i!, where products are truncated Leibniz convolutions; they
are converted back to derivative values on harvest.  The convolution at
a = 1 and the triangle's jet kernel (kernels.jet_step) are the test-time
cross-checks of this engine.
"""

from __future__ import annotations

import functools
import json
import math
from operator import mul
from typing import Iterable, NamedTuple

from . import backend
from .errors import BudgetExceeded
from .exactalg import PolyX, binomial_rows

DEFAULT_CELL_BUDGET = 10**7


class AreaGenFun(NamedTuple):
    """Q(n,a) as a dense polynomial: coeff of x^m counts functions of area m."""

    n: int
    a: int
    poly: PolyX

    @property
    def total(self) -> int:
        return self.poly.eval_one()

    def coeff(self, m: int) -> int:
        return self.poly.coeff(m)

    def to_csv(self) -> str:
        lines = ["area,count"]
        lines += [f"{m},{c}" for m, c in enumerate(self.poly.coeffs) if c]
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "a": self.a,
            "total": str(self.total),
            "counts": {str(m): str(c)
                       for m, c in enumerate(self.poly.coeffs) if c},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


class JetAtOne(NamedTuple):
    """(Q(n,a)(1), Q'(n,a)(1), ..., Q^(K)(n,a)(1)) as exact integers."""

    n: int
    a: int
    order: int
    values: tuple[int, ...]

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "a": self.a,
            "k": self.order,
            "values": [str(v) for v in self.values],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def _diagonal_cells(s: int, n_cap: int) -> int:
    # coefficient slots held by the full-polynomial diagonal s
    cells = 0
    for n in range(0, min(s, n_cap) + 1):
        a = s - n
        if n == 0:
            cells += 1
        elif a >= 1:
            cells += n * (2 * a + n - 3) // 2 + 1
    return cells


def _check_cell_budget(targets: list[tuple[int, int]], n_cap: int, s_max: int,
                       budget: int) -> None:
    peak = 0
    prev = 1
    for s in range(1, s_max + 1):
        cur = _diagonal_cells(s, n_cap)
        peak = max(peak, prev + cur)
        prev = cur
    harvest = sum(n * (2 * a + n - 3) // 2 + 1
                  for n, a in targets if n >= 1 and a >= 1)
    if peak + harvest > budget:
        raise BudgetExceeded(peak + harvest, budget,
                             what="generating-function coefficient slots")


def _sweep(targets: Iterable[tuple[int, int]], unit, step, budget: int | None):
    """Drive a diagonal-step kernel over the triangle covering `targets`.

    `step(prev, s, n_cap, binom)` computes diagonal s from diagonal s-1 and
    `unit` is the entry of state (0, 0).  Returns {(n, a): kernel entry} for
    each requested state (None for zero states).  Only two diagonals are
    live at any moment.
    """
    targets = sorted(set(targets))
    if not targets:
        return {}
    if any(n < 0 or a < 0 for n, a in targets):
        raise ValueError("states need n >= 0 and a >= 0")
    n_cap = max(n for n, _ in targets)
    s_max = max(n + a for n, a in targets)
    if budget is not None:
        _check_cell_budget(targets, n_cap, s_max, budget)
    by_diag: dict[int, list[tuple[int, int]]] = {}
    for n, a in targets:
        by_diag.setdefault(n + a, []).append((n, a))
    binom = binomial_rows(n_cap)
    harvest: dict[tuple[int, int], object] = {}
    prev = [unit]
    for n, a in by_diag.get(0, ()):
        harvest[(n, a)] = prev[0]
    for s in range(1, s_max + 1):
        cur = step(prev, s, n_cap, binom)
        for n, a in by_diag.get(s, ()):
            harvest[(n, a)] = cur[n]
        prev = cur
    return harvest


def area_genfun_many(targets: Iterable[tuple[int, int]],
                     budget: int = DEFAULT_CELL_BUDGET) -> dict[tuple[int, int], AreaGenFun]:
    """Q(n,a) for every requested state, from one shared sweep."""
    raw = _sweep(targets, [1], backend.kernels.genfun_step, budget)
    return {
        (n, a): AreaGenFun(n=n, a=a,
                           poly=PolyX(coeffs) if coeffs is not None else PolyX.zero())
        for (n, a), coeffs in raw.items()
    }


def area_genfun(n: int, a: int = 1,
                budget: int = DEFAULT_CELL_BUDGET) -> AreaGenFun:
    """Q(n,a)(x) with exact integer coefficients."""
    return area_genfun_many([(n, a)], budget)[(n, a)]


def sum_genfun(n: int, a: int = 1, budget: int = DEFAULT_CELL_BUDGET) -> PolyX:
    """P(n,a)(x): coefficient of x^s counts functions with sum s.

    Computed as the reversal of Q at offset n(2a+n-1)/2; the lowest term is
    x^n (the all-ones function) and P(1) = Q(1).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    q = area_genfun(n, a, budget)
    return q.poly.reverse(n * (2 * a + n - 1) // 2)


def _jet_mul(p: list[int], q: list[int], width: int) -> list[int]:
    """Truncated product of two Taylor jets: (pq)[t] = sum_s p[s] q[t-s]."""
    rq = q[::-1]
    return [sum(map(mul, p, rq[width - 1 - t:])) for t in range(width)]


def _add_scaled(acc: list[int], c: int, term: list[int]) -> None:
    for t, v in enumerate(term):
        acc[t] += c * v


def _convolution_jets(n_max: int, a: int, width: int,
                      at_one: list[list[int]] | None) -> list[list[int]]:
    """Taylor jets of Q(m,a) for m = 0..n_max, by the exponential formula.

    Q(m,a) = sum_{i<m} C(m-1,i) [a(i+1)]_x Q(i,1) Q(m-1-i,a), with the
    bracket jet [e]_x = C(e, t+1) (see the module docstring).  at_one holds
    the jets of Q(i,1) for i < n_max; None feeds the recurrence on its own
    output, which is valid at a = 1 only.  Each lam[i] = [a(i+1)]_x Q(i,1)
    is formed once, so each term is one jet product.  Production runs it at
    a = 1 only up to n = 3K-2, the seed size of _wright_polys; the tests run
    it further as the reference.
    """
    binom = binomial_rows(n_max)
    jets = [[1] + [0] * (width - 1)]
    ones = jets if at_one is None else at_one
    lam = []
    for m in range(1, n_max + 1):
        bracket = [math.comb(a * m, t + 1) for t in range(width)]
        lam.append(_jet_mul(bracket, ones[m - 1], width))
        row = binom[m - 1]
        acc = [0] * width
        for i in range(m):
            _add_scaled(acc, row[i], _jet_mul(lam[i], jets[m - 1 - i], width))
        jets.append(acc)
    return jets


def _wright_polys(top: int) -> list[tuple[list[int], int]]:
    """Wright's P_1..P_top as (integer coefficients of T^0.., denominator).

    W_k(T e^{-T}) = P_k(T)/(1-T)^{3k} with deg P_k <= 3k+2, so P_k is read
    off the exact counts c(N, N+k) for N <= 3k+2.  Those are Taylor
    coefficient k+1 of Q(N-1,1), from one convolution at n <= 3 top + 1:
        d! [T^d] W_k(T e^{-T}) = sum_N C(d,N) c(N,N+k) (-N)^{d-N}.
    """
    seed = _convolution_jets(3 * top + 1, 1, top + 2, None) if top >= 1 else []
    polys = []
    for k in range(1, top + 1):
        deg = 3 * k + 2
        scale = math.factorial(deg)
        w = [scale // math.factorial(d)
             * sum(math.comb(d, N) * seed[N - 1][k + 1] * (-N) ** (d - N)
                   for N in range(1, d + 1))
             for d in range(deg + 1)]
        p = [sum((-1) ** j * math.comb(3 * k, j) * w[d - j] for j in range(d + 1))
             for d in range(deg + 1)]
        g = math.gcd(scale, *p)
        polys.append(([c // g for c in p], scale // g))
    return polys


@functools.lru_cache(maxsize=None)
def _wright_derivatives(top: int) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """W_k'(u) = num(u) / (den (1-u)^level) as (num, level, den), k = -1..top.

    W_{-1}' = 1 - u, W_0' = u^2/(2(1-u)) and, for k >= 1,
    W_k' = (P_k'(1-u) + 3k P_k) / (1-u)^{3k+1}.  Derived on first use.
    """
    terms = [((1, -1), 0, 1), ((0, 0, 1), 1, 2)]
    for k, (p, den) in enumerate(_wright_polys(top), start=1):
        dp = [i * c for i, c in enumerate(p)][1:] + [0]
        num = tuple(3 * k * c + d - (dp[i - 1] if i else 0)
                    for i, (c, d) in enumerate(zip(p, dp)))
        terms.append((num, 3 * k + 1, den))
    return tuple(terms[:top + 2])


def _wright_jet(n: int, width: int) -> list[int]:
    """Taylor jet of Q(n,1) at x = 1 from Wright's excess series.

    Entry t is c(N, N-1+t), N = n+1, the number of connected graphs with
    excess k = t-1.  Lagrange inversion of T = z e^T gives
        c(N, N+k) = N! [z^N] W_k(T) = sum_i h_{k,i} g_i,
        g_i = (N-1)^{falling i} N^{N-1-i},
    with h_k the series of W_k'(u).  The factor (1-u)^{-m} of W_k' turns g
    into its m-fold suffix sums, shared by every k.  They are run from
    i = N-1 down, so the big integers live at once number O(K^2), not O(N).
    """
    N = n + 1
    terms = _wright_derivatives(width - 2)
    levels = terms[-1][1]
    low = min(N, max(len(num) for num, _, _ in terms))
    sums = [0] * (levels + 1)  # sums[m]: m-fold suffix sum of g at i
    at = [None] * low          # at[j]: sums at i = j
    g = math.factorial(N - 1)
    for i in range(N - 1, -1, -1):
        sums[0] = g
        for m in range(1, levels + 1):
            sums[m] += sums[m - 1]
        if i < low:
            at[i] = sums[:]
        if i:
            g = g * N // (N - i)
    return [sum(c * at[j][m] for j, c in enumerate(num[:N])) // den
            for num, m, den in terms]


def jet_many(targets: Iterable[tuple[int, int]], order: int) -> dict[tuple[int, int], JetAtOne]:
    """K-jets at x = 1 for every requested state.

    At a = 1 each requested length is one Wright sum (see _wright_jet),
    unless no length exceeds the 3K-2 that deriving Wright's polynomials
    would convolve to; then the convolution itself is the cheaper path.
    Every shift a > 1 is one run of the convolution (see _convolution_jets)
    up to the longest length asked for at that shift, fed with the jets of
    Q(i,1) below it; shifts do not depend on each other.  Per the
    Taylor-basis note in the module docstring, harvested entries are
    rescaled by i! to derivative values.
    """
    if order < 0:
        raise ValueError("need order >= 0")
    targets = sorted(set(targets))
    if any(n < 0 or a < 0 for n, a in targets):
        raise ValueError("states need n >= 0 and a >= 0")
    width = order + 1
    harvest: dict[tuple[int, int], list[int]] = {}
    by_shift: dict[int, list[int]] = {}
    for n, a in targets:
        if n == 0:
            harvest[(n, a)] = [1] + [0] * order
        elif a == 0:
            harvest[(n, a)] = [0] * width
        else:
            by_shift.setdefault(a, []).append(n)
    if by_shift:
        longest = max(max(ns) for ns in by_shift.values())
        if longest <= 3 * order - 2:
            # within the seed size of _wright_polys the convolution is cheaper
            at_one = _convolution_jets(longest, 1, width, None).__getitem__
        else:
            at_one = functools.partial(_wright_jet, width=width)
        # each a > 1 run reads Q(i,1) below its longest length
        wide = max((max(ns) for a, ns in by_shift.items() if a > 1), default=0)
        ones = [at_one(m) for m in range(wide)]
        for a, ns in by_shift.items():
            jet = at_one if a == 1 else \
                _convolution_jets(max(ns), a, width, ones).__getitem__
            for n in ns:
                harvest[(n, a)] = jet(n)
    fact = [math.factorial(i) for i in range(width)]
    return {
        (n, a): JetAtOne(n=n, a=a, order=order,
                         values=tuple(t * f for t, f in zip(taylor, fact)))
        for (n, a), taylor in harvest.items()
    }


def jet_at_one(n: int, a: int, order: int) -> JetAtOne:
    """(Q(1), Q'(1), ..., Q^(order)(1)) for one state."""
    return jet_many([(n, a)], order)[(n, a)]
