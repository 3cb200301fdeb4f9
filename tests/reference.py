"""Independent slow paths the engines are checked against at test time.

convolution_jets is the jet engine's reference.  Write
E_a(z) = sum_m Q(m,a) z^m/m!.  The shift decomposition of Kung & Yan
("Goncarov polynomials and parking functions", JCTA 2003) gives
E_a(z) = prod_{j<a} E_1(x^j z), and the Kreweras convolution (area
enumerator of parking functions = inversion enumerator of trees, Period.
Math. Hungar. 1980) states log E_1(z) = sum_m [m]_x Q(m-1,1) z^m/m!, with
[e]_x = 1 + x + ... + x^{e-1}.  Summed over the a factors, the x^j turn
[m]_x into [am]_x, and differentiating log E_a in z gives one recurrence
for every shift,

    Q(m,a) = sum_{i<m} C(m-1,i) [a(i+1)]_x Q(i,1) Q(m-1-i,a),

which at a = 1 is the Kreweras convolution itself.  Jets are held in the
Taylor basis T_i = Q^(i)(1)/i!, where products are truncated Leibniz
convolutions and the bracket [e]_x is the jet C(e, t+1).  The cost is
O(n^2 K^2) big-by-big products per shift.
"""

import math
from operator import mul

from parkstat.exactalg import binomial_rows


def jet_mul(p: list[int], q: list[int], width: int) -> list[int]:
    """Truncated product of two Taylor jets: (pq)[t] = sum_s p[s] q[t-s]."""
    rq = q[::-1]
    return [sum(map(mul, p, rq[width - 1 - t:])) for t in range(width)]


def add_scaled(acc: list[int], c: int, term: list[int]) -> None:
    for t, v in enumerate(term):
        acc[t] += c * v


def convolution_jets(n_max: int, a: int, width: int,
                     at_one: list[list[int]] | None = None) -> list[list[int]]:
    """Taylor jets of Q(m,a) for m = 0..n_max, by the exponential formula.

    at_one holds the jets of Q(i,1) for i < n_max; None feeds the recurrence
    on its own output, which is valid at a = 1 only.  Each
    lam[i] = [a(i+1)]_x Q(i,1) is formed once, so each term is one jet
    product.
    """
    binom = binomial_rows(n_max)
    jets = [[1] + [0] * (width - 1)]
    ones = jets if at_one is None else at_one
    lam = []
    for m in range(1, n_max + 1):
        bracket = [math.comb(a * m, t + 1) for t in range(width)]
        lam.append(jet_mul(bracket, ones[m - 1], width))
        row = binom[m - 1]
        acc = [0] * width
        for i in range(m):
            add_scaled(acc, row[i], jet_mul(lam[i], jets[m - 1 - i], width))
        jets.append(acc)
    return jets


def reference_jets(targets, order: int) -> dict[tuple[int, int], tuple[int, ...]]:
    """Derivative values (Q(1), ..., Q^(order)(1)) of every state by the
    convolution, one run per shift over the a = 1 run below it."""
    targets = sorted(set(targets))
    width = order + 1
    n_top = max((n for n, _ in targets), default=0)
    ones = convolution_jets(n_top, 1, width)
    runs = {a: ones if a == 1 else
            convolution_jets(max(n for n, b in targets if b == a), a, width, ones)
            for a in {a for _, a in targets if a >= 1}}
    fact = [math.factorial(t) for t in range(width)]
    out = {}
    for n, a in targets:
        if n == 0:
            taylor = [1] + [0] * order
        elif a == 0:
            taylor = [0] * width
        else:
            taylor = runs[a][n]
        out[(n, a)] = tuple(t * f for t, f in zip(taylor, fact))
    return out
