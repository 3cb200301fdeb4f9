"""Undetermined-coefficients fitting of factorial-moment identities.

Target shape: for each moment order k there are polynomials A_k and B_k
(in n alone, or in n and a) with

    E_k = A_k + B_k * E_1

exactly, where E_k is the k-th factorial moment of the area statistic and
E_1 its expectation.  The fit cranks out exact moment data on a sample
grid, solves the resulting linear system over the rationals, and then
verifies the identity on held-out points; since both sides are polynomial
identities in (n, a) once E_1 is adjoined, exact verification at enough
points is a proof.

Degree bounds follow the empirical pattern deg A = floor(3k/2),
deg B = floor(3(k-1)/2) for fits in n alone; the two-symbol identities need
total degrees 3k-1 and 3(k-1) (measured at k = 2, 3: the shift direction
carries degree up to 3k-2, e.g. the n*a^4 term in the second-moment A).
A failed fit escalates both bounds once (+1) and then fails loudly rather
than silently widening further.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exactalg import (Inconsistent, LinSys, SymPoly, TwoPiPow, Underdetermined,
                       UniqueSolution, rat_str, solve_exact)
from .genfun_engine import jet_many
from .moment_lab import expectation_area

HOLDOUT_MARGIN = 5


@dataclass(frozen=True)
class MomentAnsatz:
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


@dataclass
class FitResult:
    """Outcome of one undetermined-coefficients fit.

    status "verified" means the identity E_k = A + B*E_1 holds exactly at
    every sample and every holdout point.  On failure, `witness` carries
    the offending sample point (inconsistent) or the pivotless column index
    (underdetermined).
    """

    k: int
    symbols: tuple[str, ...]
    a_poly: SymPoly
    b_poly: SymPoly
    samples_used: list[tuple[int, int]]
    holdout_verified: list[tuple[int, int]]
    status: str
    ansatz: MomentAnsatz
    escalated: bool = False
    witness: tuple[int, int] | int | None = None
    _data: dict[tuple[int, int], tuple[Fraction, Fraction]] = field(
        default_factory=dict, repr=False)

    def predicted(self, n: int, a: int, e1: Fraction) -> Fraction:
        point = {"n": Fraction(n), "a": Fraction(a)}
        point = {s: point[s] for s in self.symbols}
        return self.a_poly.eval(point) + self.b_poly.eval(point) * e1

    def theorem_text(self) -> str:
        e1 = "E_1(n)" if self.symbols == ("n",) else "E_1(n,a)"
        lhs = f"E_{self.k}(n)" if self.symbols == ("n",) else f"E_{self.k}(n,a)"
        return (f"{lhs} = {self.a_poly.format(star=True)}"
                f" + ({self.b_poly.format(star=True)}) * {e1}")

    def to_json_obj(self) -> dict:
        def terms(p: SymPoly) -> list[dict]:
            keys = sorted(p.terms, key=lambda e: (-sum(e), tuple(-x for x in e)))
            return [
                {"powers": {s: e for s, e in zip(p.symbols, exps)},
                 "coeff": rat_str(p.terms[exps])}
                for exps in keys
            ]

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


def _default_points(ansatz: MomentAnsatz, margin: int,
                    n_max: int | None = None) -> tuple[list, list]:
    """(samples, holdout) grids for an ansatz; see the sample-grid note.

    Single symbol: n = 1..(unknowns + margin) at a = 1, holdout the next
    `margin` values of n.  Two symbols: a cross grid of n rows against
    shifts 1..(degree bound + 2) -- the shift axis must offer more distinct
    values than any fitted power of a, or the system goes rank-deficient.
    """
    u = ansatz.unknowns
    if ansatz.symbols == ("n",):
        top = max(u + margin, n_max or 0)
        samples = [(n, 1) for n in range(1, top + 1)]
        holdout = [(n, 1) for n in range(top + 1, top + margin + 1)]
    else:
        width = max(ansatz.deg_a, ansatz.deg_b) + 2
        shifts = tuple(range(1, width + 1))
        rows = max(-(-(u + margin) // width), width, n_max or 0)  # ceil
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
               n: int, a: int) -> Fraction:
    vals = {"n": n, "a": a}
    out = Fraction(1)
    for s, e in zip(symbols, exps):
        if e:
            out *= Fraction(vals[s]) ** e
    return out


def _row(ansatz: MomentAnsatz, n: int, a: int, e1: Fraction) -> list[Fraction]:
    """Coefficients of the unknowns in E_k(n,a) = A(n,a) + B(n,a) E_1(n,a)."""
    row = [_eval_mono(e, ansatz.symbols, n, a) for e in ansatz.basis_a]
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
    for n, a in holdout:
        ek, e1 = data[(n, a)]
        point = {s: Fraction(v) for s, v in zip(("n", "a"), (n, a))
                 if s in ansatz.symbols}
        if a_poly.eval(point) + b_poly.eval(point) * e1 != ek:
            return "inconsistent", (n, a), None, None
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


def fit_moment(k: int, ansatz: MomentAnsatz | None = None,
               general_a: bool = False, n_max: int | None = None,
               holdout_margin: int = HOLDOUT_MARGIN) -> FitResult:
    """Fit E_k = A + B*E_1 by exact undetermined coefficients.

    The sample system is overdetermined by `holdout_margin` rows (exact
    elimination of the extra rows is itself a consistency check) and the
    solution is then verified on `holdout_margin` fresh points beyond the
    sample grid.  An inconsistent attempt escalates the degree bounds once;
    a second failure is reported, never papered over.
    """
    ansatz = ansatz or MomentAnsatz.default(k, general_a)
    escalated = False
    while True:
        samples, holdout = _default_points(ansatz, holdout_margin, n_max)
        data = _moment_data(samples + holdout, k)
        status, witness, a_poly, b_poly = _attempt(ansatz, samples, holdout, data)
        if status == "verified":
            return FitResult(k=k, symbols=ansatz.symbols, a_poly=a_poly,
                             b_poly=b_poly, samples_used=samples,
                             holdout_verified=list(holdout), status="verified",
                             ansatz=ansatz, escalated=escalated, _data=data)
        if status == "inconsistent" and not escalated:
            ansatz = ansatz.escalated()
            escalated = True
            continue
        zero = SymPoly(ansatz.symbols)
        return FitResult(k=k, symbols=ansatz.symbols, a_poly=zero, b_poly=zero,
                         samples_used=samples, holdout_verified=[],
                         status=status, ansatz=ansatz, escalated=escalated,
                         witness=witness, _data=data)


def verify_fit(fit: FitResult, extra_points: list[tuple[int, int]]) -> bool:
    """Exact re-check of a verified fit at additional (n, a) points."""
    if fit.status != "verified":
        raise ValueError("verify_fit needs a verified fit")
    data = _moment_data(list(extra_points), fit.k)
    for n, a in extra_points:
        ek, e1 = data[(n, a)]
        if fit.predicted(n, a, e1) != ek:
            return False
    fit.holdout_verified.extend(extra_points)
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
