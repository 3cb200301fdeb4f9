"""Factorial-moment identities E_k = A_k + B_k * E_1, derived and re-checked.

For each moment order k there are polynomials A_k and B_k (in n alone, or
in n and a) with

    E_k = A_k + B_k * E_1

exactly, where E_k is the k-th factorial moment of the area statistic and
E_1 its expectation.  They are derived from the jet engine's Wright-Abel
sums (_shift_identity).  Entry k of the shift table of a
(genfun_engine._shift_table) is (L, p, d), and Taylor coefficient k of
Q(n,a) at x = 1 is sum_j p_j S_L(j)/d, where S_L(j) is the L-fold suffix
sum at j of g_l = n^{falling l} b^{n-l}, b = a+n.  The weight of g_l there,
times (L-1)!, is the polynomial

    (l-j+L-1)^{falling L-1} = sum_r C(L-1, r) (L-1-j)^{falling L-1-r} l^{falling r}

(Vandermonde), except at the head: the suffix sum starts at l = j, so
e_l = sum_{j>l} p_j (l-j+L-1)^{falling L-1} comes off g_l.  The product
vanishes for 0 < j-l < L, and p has at most L+2 entries (every table up to
k = 12 and a = 40 was checked), so only l = 0 and l = 1 carry a head.  The
moment sums G_r = sum_l l^{falling r} g_l obey, by (n-l) g_l = b g_{l+1},

    G_0 = S,  G_1 = b^{n+1} - a S,  G_{r+1} = -(2r+a) G_r + r(n+1-r) G_{r-1},

so G_r = alpha_r b^n + beta_r S with alpha_r, beta_r integer polynomials in
n.  Summing the weights gives the coefficient as (alpha b^n + beta S) /
(d (L-1)!), with alpha = sum_r w_r alpha_r - e_0 - e_1 n/b.  moment_lab's
E_1 gives S = b^{n-1} (2 E_1 - n(a-2) + b), and the count is a b^{n-1}, so

    A_k = c (alpha b + beta (b - n(a-2))),  B_k = 2 c beta,  c = k!/(a d (L-1)!).

In n alone that is the shift a = 1.  In (n, a) the per-shift polynomials
are interpolated in a over shifts 1..3k, as A_k and B_k have total degree
at most 3k-1 (the re-check grid runs past the nodes, to shift 3k+1).
Wright's recurrence, Lagrange inversion and the shift decomposition are
theorems, so this is a derivation, not a fit.  It is still re-checked
exactly against the jets and the closed-form E_1 on the sample grid and
holdout the dense fit would use (so the reported grid is unchanged); a
miss is status "inconsistent" with that point as witness.

An explicit MomentAnsatz too narrow for the derived identity keeps the
undetermined-coefficients fit: an exact solve (solve_exact) on the sample
grid, verified on the holdout.  A failed fit escalates both degree bounds
once (+1) and then fails loudly rather than silently widening further.
The default bounds are deg A = floor(3k/2), deg B = floor(3(k-1)/2) in n
alone, and total degrees 3k-1 and 3(k-1) in (n, a) (the shift direction
carries degree up to 3k-2, e.g. the n*a^4 term in the second-moment A).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exactalg import (Inconsistent, LinSys, RatLike, SymPoly, TwoPiPow,
                       Underdetermined, UniqueSolution, binomial,
                       falling_factorial, interpolate, rat_str, solve_exact)
from .genfun_engine import _shift_table, jet_many
from .moment_lab import expectation_area

HOLDOUT_MARGIN = 5


class MomentAnsatz(NamedTuple):
    """Basis layout for one fit: symbols plus degree bounds for A and B.

    Monomials are ordered by total degree then lexicographically in the
    exponent tuple, so the system layout (and hence the fit output) is
    deterministic.  For two symbols the bound applies to total degree.
    """

    k: int
    symbols: tuple[str, ...]
    deg_a: int
    deg_b: int

    @classmethod
    def default(cls, k: int, general_a: bool = False) -> MomentAnsatz:
        if k < 1:
            raise ValueError("need k >= 1")
        if general_a:
            return cls(k=k, symbols=("n", "a"),
                       deg_a=3 * k - 1, deg_b=3 * (k - 1))
        return cls(k=k, symbols=("n",),
                   deg_a=(3 * k) // 2, deg_b=(3 * (k - 1)) // 2)

    def escalated(self) -> MomentAnsatz:
        return MomentAnsatz(self.k, self.symbols, self.deg_a + 1, self.deg_b + 1)

    def _monomials(self, deg: int) -> list[tuple[int, ...]]:
        if len(self.symbols) == 1:
            exps = [(d,) for d in range(deg + 1)]
        else:
            exps = [(i, j) for i in range(deg + 1) for j in range(deg + 1 - i)]
        return sorted(exps, key=lambda e: (sum(e), e))

    @property
    def basis_a(self) -> list[tuple[int, ...]]:
        return self._monomials(self.deg_a)

    @property
    def basis_b(self) -> list[tuple[int, ...]]:
        return self._monomials(self.deg_b)

    @property
    def unknowns(self) -> int:
        return len(self.basis_a) + len(self.basis_b)


class FitResult:
    """Outcome of one moment identity, derived or fitted.

    status "verified" means the identity E_k = A + B*E_1 holds exactly at
    every sample and every holdout point.  On failure, `witness` carries
    the offending sample point (inconsistent) or the pivotless column index
    (underdetermined).  Mutable: verify_fit extends `holdout_verified`.
    """

    __slots__ = ("k", "symbols", "a_poly", "b_poly", "samples_used",
                 "holdout_verified", "status", "ansatz", "escalated", "witness")

    def __init__(self, k: int, symbols: tuple[str, ...], a_poly: SymPoly,
                 b_poly: SymPoly, samples_used: list[tuple[int, int]],
                 holdout_verified: list[tuple[int, int]], status: str,
                 ansatz: MomentAnsatz, escalated: bool = False,
                 witness: tuple[int, int] | int | None = None) -> None:
        self.k = k
        self.symbols = symbols
        self.a_poly = a_poly
        self.b_poly = b_poly
        self.samples_used = samples_used
        self.holdout_verified = holdout_verified
        self.status = status
        self.ansatz = ansatz
        self.escalated = escalated
        self.witness = witness

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"FitResult({fields})"

    def predicted(self, n: int, a: int, e1: Fraction) -> Fraction:
        point = {"n": n, "a": a}
        return self.a_poly.eval(point) + self.b_poly.eval(point) * e1

    def theorem_text(self) -> str:
        e1 = "E_1(n)" if self.symbols == ("n",) else "E_1(n,a)"
        lhs = f"E_{self.k}(n)" if self.symbols == ("n",) else f"E_{self.k}(n,a)"
        return (f"{lhs} = {self.a_poly.format(star=True)}"
                f" + ({self.b_poly.format(star=True)}) * {e1}")

    def to_json_obj(self) -> dict:
        def terms(p: SymPoly) -> list[dict]:
            return [{"powers": dict(zip(p.symbols, exps)), "coeff": rat_str(c)}
                    for exps, c in p.ordered_terms()]

        return {
            "k": self.k,
            "symbols": list(self.symbols),
            "status": self.status,
            "deg_a": self.ansatz.deg_a,
            "deg_b": self.ansatz.deg_b,
            "escalated": self.escalated,
            "A": terms(self.a_poly),
            "B": terms(self.b_poly),
            "samples": [list(p) for p in self.samples_used],
            "holdout": [list(p) for p in self.holdout_verified],
            "witness": list(self.witness) if isinstance(self.witness, tuple)
                       else self.witness,
        }


def _default_points(ansatz: MomentAnsatz,
                    n_max: int | None = None) -> tuple[list, list]:
    """(samples, holdout) grids for an ansatz; see the sample-grid note.

    Single symbol: n = 1..(unknowns + HOLDOUT_MARGIN) at a = 1, holdout the
    next HOLDOUT_MARGIN values of n.  Two symbols: a cross grid of n rows
    against shifts 1..(degree bound + 2) -- the shift axis must offer more
    distinct values than any fitted power of a, or the system goes
    rank-deficient.
    """
    u = ansatz.unknowns
    if ansatz.symbols == ("n",):
        top = max(u + HOLDOUT_MARGIN, n_max or 0)
        samples = [(n, 1) for n in range(1, top + 1)]
        holdout = [(n, 1) for n in range(top + 1, top + HOLDOUT_MARGIN + 1)]
    else:
        width = max(ansatz.deg_a, ansatz.deg_b) + 2
        shifts = tuple(range(1, width + 1))
        rows = max(-(-(u + HOLDOUT_MARGIN) // width), width, n_max or 0)  # ceil
        samples = [(n, a) for n in range(1, rows + 1) for a in shifts]
        holdout = [(rows + 1, a) for a in shifts]
    return samples, holdout


def _moment_data(points: list[tuple[int, int]], k: int,
                 ) -> dict[tuple[int, int], tuple[Fraction, Fraction]]:
    """(E_k, E_1) at every point: E_k from jets, E_1 from the closed form."""
    jets = jet_many(points, k)
    data = {}
    for n, a in points:
        values = jets[(n, a)].values  # values[0] = Q(n,a)(1), the count
        ek = Fraction(values[k], values[0])
        data[(n, a)] = (ek, expectation_area(n, a))
    return data


def _eval_mono(exps: tuple[int, ...], symbols: tuple[str, ...],
               n: int, a: int) -> int:
    vals = {"n": n, "a": a}
    out = 1
    for s, e in zip(symbols, exps):
        out *= vals[s] ** e
    return out


def _row(ansatz: MomentAnsatz, n: int, a: int, e1: Fraction) -> list[RatLike]:
    """Coefficients of the unknowns in E_k(n,a) = A(n,a) + B(n,a) E_1(n,a)."""
    row: list[RatLike] = [_eval_mono(e, ansatz.symbols, n, a) for e in ansatz.basis_a]
    row += [_eval_mono(e, ansatz.symbols, n, a) * e1 for e in ansatz.basis_b]
    return row


def _attempt(ansatz: MomentAnsatz, samples, holdout, data):
    sysm = LinSys(ansatz.unknowns)
    for n, a in samples:
        ek, e1 = data[(n, a)]
        sysm.add_row(_row(ansatz, n, a, e1), ek)
    sol = solve_exact(sysm)
    if isinstance(sol, Underdetermined):
        return "underdetermined", sol.free_column, None, None
    if isinstance(sol, Inconsistent):
        return "inconsistent", _inconsistency_witness(ansatz, samples, data), None, None
    assert isinstance(sol, UniqueSolution)
    na = len(ansatz.basis_a)
    a_poly = SymPoly(ansatz.symbols,
                     dict(zip(ansatz.basis_a, sol.values[:na])))
    b_poly = SymPoly(ansatz.symbols,
                     dict(zip(ansatz.basis_b, sol.values[na:])))
    miss = _first_miss(a_poly, b_poly, holdout, data)
    if miss:
        return "inconsistent", miss, None, None
    return "verified", None, a_poly, b_poly


def _inconsistency_witness(ansatz, samples, data):
    """Name a sample the square subsystem's solution fails to reproduce."""
    u = ansatz.unknowns
    if len(samples) <= u:
        return samples[0]
    square = LinSys(u)
    for n, a in samples[:u]:
        ek, e1 = data[(n, a)]
        square.add_row(_row(ansatz, n, a, e1), ek)
    sol = solve_exact(square)
    if not isinstance(sol, UniqueSolution):
        return samples[0]
    for n, a in samples[u:]:
        ek, e1 = data[(n, a)]
        row = _row(ansatz, n, a, e1)
        if sum(r * c for r, c in zip(row, sol.values)) != ek:
            return (n, a)
    return samples[0]


def _first_miss(a_poly: SymPoly, b_poly: SymPoly, points: list[tuple[int, int]],
                data: dict) -> tuple[int, int] | None:
    """The first point where A + B*E_1 differs from E_k, if any."""
    for n, a in points:
        ek, e1 = data[(n, a)]
        point = {"n": n, "a": a}
        if a_poly.eval(point) + b_poly.eval(point) * e1 != ek:
            return (n, a)
    return None


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


def _shift_identity(k: int, a: int) -> tuple[list[Fraction], list[Fraction]]:
    """A_k and B_k at shift a, as coefficient lists in n (module docstring)."""
    L, p, d = _shift_table(a, k)[k]
    m = L - 1
    weights = [0] * L  # w_r of l^{falling r}
    for j, c in enumerate(p):
        for s in range(L):  # c = p_j (m-j)^{falling s}, for r = m-s
            weights[m - s] += c
            c *= m - j - s
    weights = [binomial(m, r) * w for r, w in enumerate(weights)]
    alpha = _moment_sum(weights, [0], [a, 1], a)  # G_0 = S, G_1 = b^{n+1} - a S
    beta = _moment_sum(weights, [1], [-a], a)
    e0, e1 = (sum(c * falling_factorial(l - j + m, m) for j, c in enumerate(p) if j > l)
              for l in (0, 1))
    alpha[0] -= e0
    num = [0] * (len(alpha) + 1)  # alpha b + beta (b - n(a-2)) - e1 n
    for i, (x, y) in enumerate(zip(alpha, beta)):
        num[i] += a * (x + y)
        num[i + 1] += x + (3 - a) * y
    num[1] -= e1
    den = a * d * falling_factorial(m, m)
    k_fact = falling_factorial(k, k)
    return ([Fraction(k_fact * c, den) for c in num],
            [Fraction(2 * k_fact * c, den) for c in beta])


def _derive(k: int, symbols: tuple[str, ...]) -> tuple[SymPoly, SymPoly]:
    """(A_k, B_k) in `symbols`: the shift a = 1, or shifts 1..3k interpolated."""
    if symbols == ("n",):
        return tuple(SymPoly(symbols, {(i,): c for i, c in enumerate(coeffs)})
                     for coeffs in _shift_identity(k, 1))
    shifts = [_shift_identity(k, a) for a in range(1, 3 * k + 1)]
    polys = []
    for part in zip(*shifts):  # A at every shift, then B
        terms = {}
        for i in range(max(map(len, part))):
            column = [coeffs[i] if i < len(coeffs) else 0 for coeffs in part]
            for j, c in enumerate(interpolate(column)):
                terms[(i, j)] = c
        polys.append(SymPoly(symbols, terms))
    return polys[0], polys[1]


def _within(poly: SymPoly, degree: int) -> bool:
    return all(sum(exps) <= degree for exps in poly.terms)


def fit_moment(k: int, ansatz: MomentAnsatz | None = None,
               general_a: bool = False, n_max: int | None = None) -> FitResult:
    """E_k = A + B*E_1, derived from the Wright-Abel sums and re-checked.

    The derived A and B stand when they fit the ansatz's degree bounds and
    reproduce E_k exactly at every sample and holdout point; a miss is
    status "inconsistent" with the first failing point as witness.  An
    ansatz too narrow for them gets the dense fit instead: the sample
    system is overdetermined by HOLDOUT_MARGIN rows (exact elimination of
    the extra rows is itself a consistency check) and the solution is then
    verified on HOLDOUT_MARGIN fresh points beyond the sample grid.  An
    inconsistent dense attempt escalates the degree bounds once; a second
    failure is reported, never papered over.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    ansatz = ansatz or MomentAnsatz.default(k, general_a)
    a_poly, b_poly = _derive(k, ansatz.symbols)
    derived = _within(a_poly, ansatz.deg_a) and _within(b_poly, ansatz.deg_b)
    escalated = False
    while True:
        samples, holdout = _default_points(ansatz, n_max)
        data = _moment_data(samples + holdout, k)
        if derived:
            witness = _first_miss(a_poly, b_poly, samples + holdout, data)
            status = "inconsistent" if witness else "verified"
        else:
            status, witness, a_poly, b_poly = _attempt(ansatz, samples, holdout, data)
        if status == "verified":
            return FitResult(k=k, symbols=ansatz.symbols, a_poly=a_poly,
                             b_poly=b_poly, samples_used=samples,
                             holdout_verified=list(holdout), status="verified",
                             ansatz=ansatz, escalated=escalated)
        if status == "inconsistent" and not (derived or escalated):
            ansatz = ansatz.escalated()
            escalated = True
            continue
        zero = SymPoly(ansatz.symbols)
        return FitResult(k=k, symbols=ansatz.symbols, a_poly=zero, b_poly=zero,
                         samples_used=samples, holdout_verified=[],
                         status=status, ansatz=ansatz, escalated=escalated,
                         witness=witness)


def verify_fit(fit: FitResult, extra_points: list[tuple[int, int]]) -> bool:
    """Exact re-check of a verified fit at additional (n, a) points."""
    if fit.status != "verified":
        raise ValueError("verify_fit needs a verified fit")
    points = list(extra_points)
    if _first_miss(fit.a_poly, fit.b_poly, points, _moment_data(points, fit.k)):
        return False
    fit.holdout_verified.extend(points)
    return True


def leading_asymptotics(fit: FitResult) -> tuple[TwoPiPow, Fraction]:
    """Dominant term of A + B*E_1 as n -> infinity, in exact split form.

    Substitutes the expectation's leading asymptotics
    E_1 ~ (sqrt(2*pi)/4) n^(3/2), so candidates are lead(A) * n^deg(A) and
    (lead(B)/4) sqrt(2*pi) * n^(deg(B)+3/2); ties in the exponent (only
    possible between same-parity candidates) are summed, not rejected.
    """
    if fit.status != "verified":
        raise ValueError("leading_asymptotics needs a verified fit")
    if fit.symbols != ("n",):
        raise ValueError("leading_asymptotics is defined for fits in n alone")
    candidates: list[tuple[Fraction, TwoPiPow]] = []
    if not fit.a_poly.is_zero():
        d = fit.a_poly.degree_in("n")
        candidates.append((Fraction(d),
                           TwoPiPow(fit.a_poly.coeff_of((d,)), 0)))
    if not fit.b_poly.is_zero():
        d = fit.b_poly.degree_in("n")
        candidates.append((Fraction(d) + Fraction(3, 2),
                           TwoPiPow(fit.b_poly.coeff_of((d,)) / 4, 1)))
    if not candidates:
        raise ValueError("both fitted polynomials are zero")
    top = max(e for e, _ in candidates)
    picked = [c for e, c in candidates if e == top]
    if len(picked) == 1:
        return picked[0], top
    if any(c.h != picked[0].h for c in picked):
        raise ValueError("ambiguous dominant term with mixed radical parts")
    total = sum((c.r for c in picked), Fraction(0))
    return TwoPiPow(total, picked[0].h), top
