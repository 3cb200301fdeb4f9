"""Area and sum generating polynomials, plus the jet engine at x = 1.

Q(n,a)(x) = sum of x^area(p) over all a-parking functions p of length n.
It satisfies the shifted analog of the counting recurrence,

    Q(n,a)(x) = Q(n,a-1)(x)
              + sum_{k=1..n} C(n,k) x^{k(k+2a-3)/2} Q(n-k,a+k-1)(x),
    Q(0,a)(x) = 1,  Q(n,0)(x) = 0,

and P(n,a)(x) (the sum-statistic analog) is its coefficient reversal at
offset n(2a+n-1)/2.

Two engines compute Q, each for its own consumers:

  * area_genfun is the only engine that gives every coefficient of Q.  It
    sweeps anti-diagonals of the state triangle with this recurrence,
    retiring a diagonal as soon as the sweep passes it (memory grows with
    n^3).  genfun, hist and verify's oracle suite read it;
  * jet_many carries only (Q(1), Q'(1), ..., Q^(K)(1)) per state, which is
    what makes n in the hundreds cheap.  count, moments, fit and airy read
    it.

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
coefficient t of each Q(n,a) into one sum over the n+1 Abel terms below.
The order-0 term is a(a+n)^(n-1).  jet_many evaluates every sum through
the moment identity below: it reads each table entry once per shift
(_lagrange_parts), and then a state costs one abel_sum plus K evaluations
of small integer polynomials in n.  suffix_sum evaluates one entry term by
term, by L-fold suffix sums; it is the independent evaluation that count,
verify_closed_form and the fits' re-check read.  The exponential-formula
convolution that follows from log E_a by differentiating in z, and the
triangle's jet kernel (kernels.jet_step), are the test-time cross-checks
of this engine.

The Abel terms g_l = n^{falling l} b^{n-l}, b = a+n, that suffix_sum sums
add up to the Abel-type sum (Riordan, Combinatorial Identities, 1968)

    S = sum_{l=0..n} n^{falling l} b^{n-l},

at a = 1 equal to (n+1)^n Q(n+1) with Ramanujan's Q (Knuth, TAOCP vol. 1,
1.2.11.3).  The expectation E_1 = n(a-2)/2 + (S - b^n)/(2 b^(n-1))
(expectation_area) and every closed form in moment_lab are rational
functions of S and b.  abel_sum computes S by binary splitting (Haible &
Papanikolaou, "Fast multiprecision evaluation of series of rational
numbers", ANTS 1998): consecutive terms have the ratio (n-l+1)/b, so over
l in [lo, hi) the pair (P, T), P = prod (n-l+1) and
T = sum_l prod_{lo..l} (n-j+1) b^{hi-1-l}, starts from the leaf (n-l+1, n-l+1), and halves combine as
(P1 P2, T1 b^{hi-mid} + P1 T2).  Then S = b^n + T over [1, n+1), and
S = 1 at n = 0.  The products are of balanced size, so CPython's Karatsuba
makes the sum sub-quadratic in n.

The same terms give jet_many's evaluation and the moment identities
E_k = A_k + B_k E_1 (shift_identity; conjecture_fit interpolates them in
a).  Entry k of the shift table of a is (L, p, d), and Taylor coefficient
k of Q(n,a) at x = 1 is sum_j p_j S_L(j)/d, where S_L(j) is the L-fold
suffix sum at j of g_l (suffix_sum).  The weight of g_l there, times
(L-1)!, is the polynomial

    (l-j+L-1)^{falling L-1} = sum_r C(L-1, r) (L-1-j)^{falling L-1-r} l^{falling r}

(Vandermonde), except at the head: the suffix sum starts at l = j, so
e_l = sum_{j>l} p_j (l-j+L-1)^{falling L-1} comes off g_l.  The product
vanishes for 0 < j-l < L, so only l < len(p) - L carries a head.  The
moment sums G_r = sum_l l^{falling r} g_l obey, by (n-l) g_l = b g_{l+1},

    G_0 = S,  G_1 = b^{n+1} - a S,  G_{r+1} = -(2r+a) G_r + r(n+1-r) G_{r-1},

so G_r = alpha_r b^n + beta_r S with alpha_r, beta_r integer polynomials in
n (_moment_sum).  Summing the weights gives the coefficient as

    (alpha b^n + beta S - sum_l e_l g_l) / (d (L-1)!),

with alpha = sum_r w_r alpha_r and beta = sum_r w_r beta_r (_lagrange_parts).
jet_many subtracts every head term.  shift_identity reads e_0 and e_1 only,
which needs len(p) <= L+2:
tests/test_genfun_engine.py::test_shift_table_entries_have_two_head_terms
checks every entry up to t = 16 at shifts 1, 2, 3, 7, 40 and 300, and the
fits' re-check against suffix_sum fails on an identity that drops a head.
expectation_area's E_1 gives S = b^{n-1} (2 E_1 - n(a-2) + b), and the
count is a b^{n-1}, so with alpha' = alpha - e_0 - e_1 n/b

    A_k = c (alpha' b + beta (b - n(a-2))),  B_k = 2 c beta,  c = k!/(a d (L-1)!).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import backend
from .errors import DEFAULT_BUDGET, BudgetExceeded
from .exactalg import PolyX, binomial, binomial_rows, falling_factorial, horner, int_str


class AreaGenFun(NamedTuple):
    """Q(n,a) as a dense polynomial: coeff of x^m counts functions of area m.

    The polynomial sweep and the brute-force oracle
    (parking_core.brute_histogram) both return it.
    """

    n: int
    a: int
    poly: PolyX

    @property
    def total(self) -> int:
        return self.poly.eval_one()

    def to_csv(self) -> str:
        lines = ["area,count"]
        lines += [f"{m},{int_str(c)}" for m, c in enumerate(self.poly.coeffs) if c]
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "a": self.a,
            "total": int_str(self.total),
            "counts": {str(m): int_str(c)
                       for m, c in enumerate(self.poly.coeffs) if c},
        }


class JetAtOne(NamedTuple):
    """(Q(n,a)(1), Q'(n,a)(1), ..., Q^(K)(n,a)(1)) as exact integers."""

    n: int
    a: int
    order: int
    values: tuple[int, ...]


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
                     budget: int = DEFAULT_BUDGET) -> dict[tuple[int, int], AreaGenFun]:
    """Q(n,a) for every requested state, from one shared sweep."""
    raw = _sweep(targets, [1], backend.kernels.genfun_step, budget)
    return {
        (n, a): AreaGenFun(n=n, a=a,
                           poly=PolyX(coeffs) if coeffs is not None else PolyX.zero())
        for (n, a), coeffs in raw.items()
    }


def area_genfun(n: int, a: int = 1,
                budget: int = DEFAULT_BUDGET) -> AreaGenFun:
    """Q(n,a)(x) with exact integer coefficients."""
    return area_genfun_many([(n, a)], budget)[(n, a)]


def sum_genfun(n: int, a: int = 1, budget: int = DEFAULT_BUDGET) -> PolyX:
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


@functools.lru_cache(maxsize=None)
def _shift_table(a: int, top: int) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """(1-u) G_t(u) as (level, p, d) for t = 0..top, at shift a.

    Lambda_t = sum_{r=1..t+1} C(a theta, r) W_{t-r} is the q^t part of
    log E_a(z) = sum_m [am]_x Q(m-1,1) z^m/m!, and G = exp(sum_{t>=1} q^t
    Lambda_t) by t G_t = sum_{s=1..t} s Lambda_s G_{t-s}, G_0 = 1.
    Cached and immutable, so a moment fit's derivation and its re-check's
    jets share one table per shift.
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
    return ((0, (1, -1), 1),) + tuple((L - 1, tuple(p), d) for L, p, d in g[1:])


def suffix_sum(n: int, a: int, k: int) -> int:
    """Q^(k)(n,a)(1) from entry k of the shift table of a, by suffix sums.

    Lagrange inversion of T = z e^T, n! [z^n] e^{aT} G_k(T) =
    n! [u^n] e^{(a+n)u} (1-u) G_k(u), turns entry k = (L, p, d) into
    sum_j p_j S_L(j)/d, where S_L(j) is the L-fold suffix sum at j of
    g_l = n^{falling l} (a+n)^{n-l}.  The sums run from l = n down, so only
    L+1 big integers live at once.  jet_many evaluates the same entry
    through the moment identity instead; this is the independent
    evaluation that count, verify_closed_form and the fits' re-check read.
    """
    L, p, d = _shift_table(a, k)[k]
    sums = [0] * (L + 1)  # sums[m]: m-fold suffix sum of g at l
    total, g = 0, math.factorial(n)
    for l in range(n, -1, -1):
        sums[0] = g
        for m in range(1, L + 1):
            sums[m] += sums[m - 1]
        if l < len(p):
            total += p[l] * sums[L]
        if l:
            g = g * (a + n) // (n - l + 1)
    return total // d * math.factorial(k)


def jet_many(targets: Iterable[tuple[int, int]], order: int) -> dict[tuple[int, int], JetAtOne]:
    """K-jets at x = 1 for every requested state, from the moment identity.

    Each shift builds one table (_shift_table) up to the highest order its
    states can use, since orders above deg Q(n,a) = n(2a+n-3)/2 are zeros,
    and reads each entry once (_lagrange_parts).  Each state is then
    Q(1) = a b^{n-1}, one Abel sum S and, per order t,
    t! (alpha(n) b^n + beta(n) S - sum_l e_l g_l)/den.
    """
    if order < 0:
        raise ValueError("need order >= 0")
    targets = sorted(set(targets), reverse=True)
    if any(n < 0 or a < 0 for n, a in targets):
        raise ValueError("states need n >= 0 and a >= 0")
    parts: dict[int, list] = {}
    jets = {}
    for n, a in targets:  # the longest length at a shift uses the most orders
        b = a + n
        top = min(order, n * (2 * a + n - 3) // 2) if a else 0
        if top and a not in parts:
            parts[a] = [_lagrange_parts(entry, a) for entry in _shift_table(a, top)[1:]]
        values = [a * b ** (n - 1) if n else 1]
        bn, s = (b ** n, abel_sum(n, b)) if top else (0, 0)
        for t, (alpha, beta, heads, den) in enumerate(parts.get(a, [])[:top], 1):
            acc = (horner(alpha, n) * bn + horner(beta, n) * s
                   - sum(e * falling_factorial(n, l) * bn // b ** l  # e_l g_l
                         for l, e in enumerate(heads[:n + 1])))
            values.append(acc // den * math.factorial(t))
        values += [0] * (order + 1 - len(values))
        jets[(n, a)] = JetAtOne(n=n, a=a, order=order, values=tuple(values))
    return jets


def jet_at_one(n: int, a: int, order: int) -> JetAtOne:
    """(Q(1), Q'(1), ..., Q^(order)(1)) for one state."""
    return jet_many([(n, a)], order)[(n, a)]


def abel_sum(n: int, b: int) -> int:
    """S = sum_{l=0..n} n^{falling l} b^{n-l}, by binary splitting
    (module docstring)."""
    def split(lo: int, hi: int) -> tuple[int, int]:  # (P, T) over [lo, hi)
        if hi - lo == 1:
            return n - lo + 1, n - lo + 1
        mid = (lo + hi) // 2
        p1, t1 = split(lo, mid)
        p2, t2 = split(mid, hi)
        return p1 * p2, t1 * b ** (hi - mid) + p1 * t2

    return b ** n + split(1, n + 1)[1] if n else 1


def _abel_tail(n: int, a: int) -> tuple[int, int]:
    """(S - b^n, b^(n-1)) with b = a+n, S = abel_sum(n, b)."""
    if n < 1 or a < 1:
        raise ValueError("need n >= 1 and a >= 1")
    power = (a + n) ** (n - 1)
    return abel_sum(n, a + n) - (a + n) * power, power


def expectation_area(n: int, a: int = 1) -> Fraction:
    """Exact expectation of the area statistic on a-parking functions,
    E_1 = n(a-2)/2 + (S - b^n)/(2 b^(n-1)) (module docstring)."""
    tail, power = _abel_tail(n, a)
    return Fraction(n * (a - 2) * power + tail, 2 * power)


def _moment_sum(weights: list[int], x: list[int], y: list[int], a: int) -> list[int]:
    """sum_r w_r x_r, where x_0 = x, x_1 = y and
    x_{r+1} = -(2r+a) x_r + r(n+1-r) x_{r-1}, as coefficient lists in n."""
    total = [0] * (len(weights) // 2 + 2)  # deg x_r <= (r+1)/2
    for r, w in enumerate(weights):
        for i, c in enumerate(x):
            total[i] += w * c
        z = [-(2 * r + 2 + a) * c for c in y] + [0] * (len(x) + 1 - len(y))
        for i, c in enumerate(x):
            z[i] -= (r + 1) * r * c
            z[i + 1] += (r + 1) * c
        x, y = y, z
    return total


def _lagrange_parts(entry, a: int) -> tuple[list[int], list[int], list[int], int]:
    """(alpha, beta, heads, den) of one shift-table entry (module docstring).

    At length n its Taylor coefficient is (alpha(n) b^n + beta(n) S -
    sum_l heads[l] g_l) / den, with alpha and beta integer coefficient
    lists in n and heads[l] = e_l for every l < len(p) - L.
    """
    L, p, d = entry
    m = L - 1
    weights = [0] * L  # w_r of l^{falling r}
    for j, c in enumerate(p):
        for s in range(L):  # c = p_j (m-j)^{falling s}, for r = m-s
            weights[m - s] += c
            c *= m - j - s
    weights = [binomial(m, r) * w for r, w in enumerate(weights)]
    alpha = _moment_sum(weights, [0], [a, 1], a)  # G_0 = S, G_1 = b^{n+1} - a S
    beta = _moment_sum(weights, [1], [-a], a)
    heads = [sum(c * falling_factorial(l - j + m, m) for j, c in enumerate(p) if j > l)
             for l in range(len(p) - L)]
    return alpha, beta, heads, d * falling_factorial(m, m)


def shift_identity(k: int, a: int) -> tuple[list[Fraction], list[Fraction]]:
    """A_k and B_k at shift a, as coefficient lists in n (module docstring)."""
    alpha, beta, heads, den = _lagrange_parts(_shift_table(a, k)[k], a)
    e0, e1 = (heads + [0, 0])[:2]
    alpha[0] -= e0
    num = [0] * (len(alpha) + 1)  # alpha b + beta (b - n(a-2)) - e1 n
    for i, (x, y) in enumerate(zip(alpha, beta)):
        num[i] += a * (x + y)
        num[i + 1] += x + (3 - a) * y
    num[1] -= e1
    k_fact = falling_factorial(k, k)
    return ([Fraction(k_fact * c, a * den) for c in num],
            [Fraction(2 * k_fact * c, a * den) for c in beta])
