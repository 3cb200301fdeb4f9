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

The jets do not use the triangle.  Every Q(m,1) up to the longest target
comes from one pass of the Kreweras convolution (area enumerator of
parking functions = inversion enumerator of trees),

    Q(m,1) = sum_{i<m} C(m-1,i) [i+1]_x Q(i,1) Q(m-1-i,1),

in O(n^2 K^2) instead of the triangle's O(n^3 K^2); larger shifts follow
from the Kung-Yan shift decomposition and the addition law it implies
(see _compose).  Jets are held in the Taylor basis T_i = Q^(i)(1)/i!, where
products are truncated Leibniz convolutions and the monomial x^e is the
binomial jet C(e,t); they are converted back to derivative values on
harvest.  The triangle's jet kernel (kernels.jet_step) is kept as the
test-time cross-check of this engine.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import mul
from typing import Iterable

from . import backend
from .errors import BudgetExceeded
from .exactalg import PolyX, binomial_rows

DEFAULT_CELL_BUDGET = 10**7


@dataclass(frozen=True)
class AreaGenFun:
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


@dataclass(frozen=True)
class JetAtOne:
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


def _classical_jets(n_max: int, width: int) -> list[list[int]]:
    """Taylor jets of Q(m,1) for m = 0..n_max, by the Kreweras convolution.

    Q(m,1) = sum_{i<m} C(m-1,i) [i+1]_x Q(i,1) Q(m-1-i,1), where
    [i+1]_x = 1 + x + ... + x^i has Taylor coefficients C(i+1, t+1).  The
    terms i and m-1-i share the product Q(i,1) Q(m-1-i,1) and the weight
    C(m-1,i), so each pair is multiplied out once.
    """
    binom = binomial_rows(n_max)
    brackets = [[binom[i + 1][t + 1] if t <= i else 0 for t in range(width)]
                for i in range(n_max)]
    jets = [[1] + [0] * (width - 1)]
    for m in range(1, n_max + 1):
        row = binom[m - 1]
        acc = [0] * width
        for i in range((m - 1) // 2 + 1):
            j = m - 1 - i
            weight = brackets[i] if i == j else \
                [x + y for x, y in zip(brackets[i], brackets[j])]
            pair = _jet_mul(jets[i], jets[j], width)
            _add_scaled(acc, row[i], _jet_mul(weight, pair, width))
        jets.append(acc)
    return jets


def _compose(left: list[list[int]], right: list[list[int]], b: int,
             top: int, width: int) -> list[list[int]]:
    """Taylor jets of Q(m,a+b), m = 0..top, from left = Q(.,a), right = Q(.,b).

    Addition law: Q(m,a+b) = sum_k C(m,k) x^{kb} Q(k,a) Q(m-k,b).  At a = 1
    it is the shift decomposition of Kung & Yan ("Goncarov polynomials and
    parking functions", JCTA 2003),

        Q(m,b+1) = sum_k C(m,k) x^{kb} Q(k,1) Q(m-k,b),

    which says that E_a(z) = sum_m Q(m,a) z^m/m! satisfies
    E_a(z) = E_1(x^{a-1} z) E_{a-1}(z); hence E_a(z) = prod_{j<a} E_1(x^j z)
    and E_{a+b}(z) = E_a(x^b z) E_b(z), the law above.  At x = 1 it is
    Abel's identity.  In the Taylor basis x^e is the binomial jet C(e,t).
    The exponent kb is pinned by the tests against the triangle recurrence
    and against area_genfun.
    """
    shifted = [_jet_mul([math.comb(k * b, t) for t in range(width)], left[k], width)
               for k in range(top + 1)]
    level = [right[0]]
    for m in range(1, top + 1):
        # the k = 0 and k = m terms multiply by the unit jet
        acc = [x + y for x, y in zip(right[m], shifted[m])]
        for k in range(1, m):
            _add_scaled(acc, math.comb(m, k), _jet_mul(shifted[k], right[m - k], width))
        level.append(acc)
    return level


def _shift_jets(classical: list[list[int]], d: int, top: int,
                width: int) -> list[list[int]]:
    """Taylor jets of Q(m,d), m = 0..top, by binary powering of _compose."""
    base, base_shift = classical[:top + 1], 1
    result, result_shift = None, 0
    while True:
        if d & 1:
            result = base if result is None else \
                _compose(base, result, result_shift, top, width)
            result_shift += base_shift
        d >>= 1
        if not d:
            return result
        base = _compose(base, base, base_shift, top, width)
        base_shift *= 2


def jet_many(targets: Iterable[tuple[int, int]], order: int) -> dict[tuple[int, int], JetAtOne]:
    """K-jets at x = 1 for every requested state, from one shared pass.

    One Kreweras pass gives every Q(m,1) up to the longest target.  The
    requested shifts are then reached in ascending order, each from the
    one before by the addition law (see _compose): a step of one shift is
    one level of the shift decomposition and a longer step costs O(log gap)
    levels.  Per the Taylor-basis note in the module docstring, harvested
    entries are rescaled by i! to derivative values.
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
        shifts = sorted(by_shift)
        # need[a]: the longest length asked for at shift a or above
        need, longest = {}, 0
        for a in reversed(shifts):
            longest = max(longest, *by_shift[a])
            need[a] = longest
        classical = level = _classical_jets(longest, width)
        at = 1
        for a in shifts:
            if a > at:
                gap = _shift_jets(classical, a - at, need[a], width)
                level = _compose(gap, level, at, need[a], width)
                at = a
            for n in by_shift[a]:
                harvest[(n, a)] = level[n]
    fact = [math.factorial(i) for i in range(width)]
    return {
        (n, a): JetAtOne(n=n, a=a, order=order,
                         values=tuple(t * f for t, f in zip(taylor, fact)))
        for (n, a), taylor in harvest.items()
    }


def jet_at_one(n: int, a: int, order: int) -> JetAtOne:
    """(Q(1), Q'(1), ..., Q^(order)(1)) for one state."""
    return jet_many([(n, a)], order)[(n, a)]
