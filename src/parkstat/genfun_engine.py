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

The jets never use the triangle; every shift runs one path.  Write
E_a(z) = sum_m Q(m,a) z^m/m! and x = 1+q.  The shift decomposition of
Kung & Yan (JCTA 2003) and the Kreweras convolution (Period. Math. Hungar.
1980) give

    log E_a(z) = sum_m [am]_x Q(m-1,1) z^m/m!,  [e]_x = 1 + x + ... + x^{e-1},

and by Mallows-Riordan and Kreweras, Taylor coefficient t of Q(m-1,1) at
x = 1 is the number of connected graphs on m labelled vertices with excess
t-1 (Knuth, "Linear probing and graphs", Algorithmica 1998).  Wright
(J. Graph Theory 1977) gives their generating functions W_k as rational
functions of the tree function T = z e^T, from his own recurrence
(_wright).  With [am]_x = sum_s C(am, s+1) q^s and theta = z d/dz, the q^t
part of log E_a is Lambda_t = sum_{r=1..t+1} C(a theta, r) W_{t-r}, and
Lambda_0 = aT, so E_a = e^{aT} G with G = exp(sum_{t>=1} q^t Lambda_t)
(Janson, Knuth, Luczak & Pittel, "The birth of the giant component",
Random Struct. Algorithms 1993, for the theta calculus).  One table per
shift holds the G_t (_shift_table), and Lagrange inversion turns Taylor
coefficient t of each Q(n,a) into one sum over O(n) terms: about
(n+1)(3K-2) big-integer additions per state (_state_jet).  The order-0 term
is a(a+n)^(n-1).  Jets are held in the Taylor basis T_t = Q^(t)(1)/t! and
converted back to derivative values on harvest.  The exponential-formula
convolution that follows from log E_a by differentiating in z, and the
triangle's jet kernel (kernels.jet_step), are the test-time cross-checks
of this engine.
"""

from __future__ import annotations

import functools
import json
import math
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


def _norm(level: int, p: list[int], d: int) -> tuple[int, list[int], int]:
    while len(p) > 1 and not p[-1]:
        p.pop()
    g = math.gcd(d, *p)
    return level, [c // g for c in p], d // g


def _combine(terms, div: int = 1) -> tuple[int, list[int], int]:
    """sum of c f over (c, f) pairs with integer c, divided by div.

    A rational function of T is held as f = (L, p, d), meaning
    sum_i p_i T^i / (d (1-T)^L) with integer p_i and d > 0; the sum is
    taken over the highest L of its terms.
    """
    level = max(f[0] for _, f in terms)
    den = math.lcm(*(f[2] for _, f in terms))
    acc: list[int] = []
    for c, (L, p, d) in terms:
        for _ in range(level - L):
            p = [x - y for x, y in zip(p + [0], [0] + p)]
        acc += [0] * (len(p) - len(acc))
        scale = c * (den // d)
        for i, x in enumerate(p):
            acc[i] += scale * x
    return _norm(level, acc, den * div)


def _theta(f) -> tuple[int, list[int], int]:
    """theta = z d/dz = T/(1-T) d/dT: p/(1-T)^L -> T(p'(1-T) + Lp)/(1-T)^(L+2)."""
    L, p, d = f
    return _norm(L + 2, [0] + [(i + 1) * y + (L - i) * x
                               for i, (x, y) in enumerate(zip(p, p[1:] + [0]))], d)


def _mul(f, g) -> tuple[int, list[int], int]:
    (L, p, d), (M, q, e) = f, g
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return _norm(L + M, out, d * e)


@functools.lru_cache(maxsize=None)
def _wright(top: int) -> tuple[tuple, tuple]:
    """((theta W_{-1}, ..., theta W_top), W_top) in Wright's excess series.

    W_k is the egf of connected graphs with excess k in the tree function T:
    W_{-1} = T - T^2/2, theta W_{-1} = T, theta W_0 = T^3/(2(1-T)^2), and for
    k >= 0, with D = T d/dT,
        2(k+1+D) W_{k+1} = (theta^2 - 3 theta - 2k) W_k
                           + sum_{i+j=k; i,j>=0} theta W_i theta W_j,
    which is 2x d/dx F = z^2 F'' for F = sum_m x^C(m,2) z^m/m! written for
    log F = sum_k q^k W_k(qz), x = 1+q.  With W_{k+1} = P/(1-T)^{3k+3} and
    the right side r/(2d (1-T)^{3k+4}), D turns into the forward recurrence
    (k+1+i) p_i = r_i/(2d) - (2k+3-i) p_{i-1}, exact in integers over
    2d (k+1)(k+2)...  W_0 itself has a log term but is never read, since
    its factor 2k is 0; it stands as 0.
    """
    thetas, w = [(0, [0, 1], 1), (2, [0, 0, 0, 1], 2)], (0, [0], 1)
    for k in range(top):
        terms = [(1, _theta(thetas[-1])), (-3, thetas[-1]), (-2 * k, w)]
        terms += [(1, _mul(thetas[i + 1], thetas[k - i + 1])) for i in range(k + 1)]
        level, r, d = _combine(terms)
        scale = math.prod(range(k + 1, k + 1 + len(r)))
        p = [0]
        for i, x in enumerate(r):
            p.append((x * scale - (level - 1 - k - i) * p[-1]) // (k + 1 + i))
        w = _norm(level - 1, p[1:], 2 * d * scale)
        thetas.append(_theta(w))
    return tuple(thetas), w


def _shift_table(a: int, top: int) -> list[tuple[int, list[int], int]]:
    """(1-u) G_t(u) as (level, p, d) for t = 0..top, at shift a.

    Lambda_t = sum_{r=1..t+1} C(a theta, r) W_{t-r} is the q^t part of
    log E_a(z) = sum_m [am]_x Q(m-1,1) z^m/m!, and G = exp(sum_{t>=1} q^t
    Lambda_t) by t G_t = sum_{s=1..t} s Lambda_s G_{t-s}, G_0 = 1.
    """
    lam = [(0, [0], 1)] * (top + 1)  # lam[0] collects Lambda_0, never read
    thetas = _wright(max(top - 1, 0))[0]
    for k in range(-1, top):
        v = _combine([(a, thetas[k + 1])])
        for r in range(1, top - k + 1):
            if r > 1:  # C(a theta, r) = C(a theta, r-1) (a theta - r + 1)/r
                v = _combine([(a, _theta(v)), (1 - r, v)], r)
            lam[k + r] = _combine([(1, lam[k + r]), (1, v)])
    g = [(0, [1], 1)]
    for t in range(1, top + 1):
        g.append(_combine([(s, _mul(lam[s], g[t - s])) for s in range(1, t + 1)], t))
    return [(0, [1, -1], 1)] + [(L - 1, p, d) for L, p, d in g[1:]]


def _state_jet(n: int, a: int, table) -> list[int]:
    """Taylor jet of Q(n,a) at x = 1 from the shift table of a.

    Lagrange inversion of T = z e^T, n! [z^n] e^{aT} G_t(T) =
    n! [u^n] e^{(a+n)u} (1-u) G_t(u), turns entry t into sum_j p_j S_L(j)/d,
    where S_L(j) is the L-fold suffix sum at j of
    g_l = n^{falling l} (a+n)^{n-l}.  The sums are run from l = n down, so
    the big integers live at once number O(K^2), not O(n).
    """
    b = a + n
    levels = max(L for L, _, _ in table)
    low = min(n + 1, max(len(p) for _, p, _ in table))
    sums = [0] * (levels + 1)  # sums[m]: m-fold suffix sum of g at l
    at = [None] * low          # at[j]: sums at l = j
    g = math.factorial(n)
    for l in range(n, -1, -1):
        sums[0] = g
        for m in range(1, levels + 1):
            sums[m] += sums[m - 1]
        if l < low:
            at[l] = sums[:]
        if l:
            g = g * b // (n - l + 1)
    return [sum(c * at[j][L] for j, c in enumerate(p[:n + 1])) // d
            for L, p, d in table]


def jet_many(targets: Iterable[tuple[int, int]], order: int) -> dict[tuple[int, int], JetAtOne]:
    """K-jets at x = 1 for every requested state.

    Each shift builds one table (_shift_table) up to the highest order its
    states can use, since orders above deg Q(n,a) = n(2a+n-3)/2 are zeros.
    Each state is then one suffix-sum run (_state_jet).  Per the
    Taylor-basis note in the module docstring, entries are rescaled by t! to
    derivative values.
    """
    if order < 0:
        raise ValueError("need order >= 0")
    targets = sorted(set(targets), reverse=True)
    if any(n < 0 or a < 0 for n, a in targets):
        raise ValueError("states need n >= 0 and a >= 0")
    fact = [math.factorial(t) for t in range(order + 1)]
    tables: dict[int, list] = {}
    jets = {}
    for n, a in targets:  # the longest length at a shift uses the most orders
        if n and a:
            top = min(order, n * (2 * a + n - 3) // 2)
            if a not in tables:
                tables[a] = _shift_table(a, top)
            taylor = _state_jet(n, a, tables[a][:top + 1])
        else:
            taylor = [int(n == 0)]
        taylor += [0] * (order + 1 - len(taylor))
        jets[(n, a)] = JetAtOne(n=n, a=a, order=order,
                                values=tuple(t * f for t, f in zip(taylor, fact)))
    return jets


def jet_at_one(n: int, a: int, order: int) -> JetAtOne:
    """(Q(1), Q'(1), ..., Q^(order)(1)) for one state."""
    return jet_many([(n, a)], order)[(n, a)]
