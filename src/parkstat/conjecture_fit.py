"""Factorial-moment identities E_k = A_k + B_k * E_1, derived and re-checked.

For each moment order k there are polynomials A_k and B_k (in n alone, or
in n and a) with

    E_k = A_k + B_k * E_1

exactly, where E_k is the k-th factorial moment of the area statistic and
E_1 its expectation.  They are derived from the jet engine's Wright-Abel
sums: genfun_engine.shift_identity gives A_k and B_k at one shift as
coefficient lists in n, and the genfun_engine docstring holds the
derivation.  In n alone that is the shift a = 1.  In (n, a) the per-shift
polynomials are interpolated in a over shifts 1..3k, as A_k and B_k have
total degree at most 3k-1 (the re-check grid runs past the nodes, to
shift 3k+1).
Wright's recurrence, Lagrange inversion and the shift decomposition are
theorems, so this is a derivation, not a fit.  It is still re-checked
exactly, against the closed-form E_1 (genfun_engine.expectation_area), on
the sample grid and holdout that the output reports (_default_points).  The
re-check reads E_k from genfun_engine.suffix_sum at order k: the L-fold
suffix sums of the Abel terms, a second evaluation of the table entries
that the derivation reads through their moment sums and head terms.  It
reduces A and B to polynomials in n once per shift (SymPoly.row), so each
point costs two Horner passes of degree at most 3k-1.  The degree bounds are
deg A = floor(3k/2), deg B = floor(3(k-1)/2) in n alone, and total degrees
3k-1 and 3(k-1) in (n, a) (the shift direction carries degree up to 3k-2,
e.g. the n*a^4 term in the second-moment A).  A derived pair outside the
bounds, or one that misses a grid point, is status "inconsistent"; the
bounds are never widened.  The undetermined-coefficients solve on the same
grid is the tests' independent reference (tests/reference.py).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exactalg import SymPoly, TwoPiPow, binomial, horner, interpolate, rat_str
from .genfun_engine import expectation_area, shift_identity, suffix_sum

HOLDOUT_MARGIN = 5


class MomentAnsatz(NamedTuple):
    """Degree bounds of one identity: symbols plus the bounds for A and B.

    For two symbols the bounds apply to total degree; `unknowns` counts the
    monomials under them, the size of the grid's undetermined-coefficients
    system.
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

    @property
    def unknowns(self) -> int:
        s = len(self.symbols)
        return binomial(self.deg_a + s, s) + binomial(self.deg_b + s, s)


class FitResult(NamedTuple):
    """Outcome of one derived moment identity.

    status "verified" means the identity E_k = A + B*E_1 lies within the
    degree bounds and holds exactly at every sample and every holdout
    point.  Otherwise status is "inconsistent", A and B are zero, and
    `witness` is the first failing point, or None when only the bounds were
    exceeded.  `escalated` is always False; it stays for the JSON schema.
    The fields are fixed, but the point lists are not: verify_fit extends
    `holdout_verified` in place, and the lists make the record unhashable.
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
    witness: tuple[int, int] | None = None

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
            "witness": list(self.witness) if self.witness else None,
        }


def _default_points(ansatz: MomentAnsatz,
                    n_max: int | None = None) -> tuple[list, list]:
    """(samples, holdout): the re-check grid, which the output reports.

    Single symbol: n = 1..(unknowns + HOLDOUT_MARGIN) at a = 1, holdout the
    next HOLDOUT_MARGIN values of n.  Two symbols: a cross grid of n rows
    against shifts 1..(degree bound + 2).  The samples overdetermine the
    ansatz's undetermined-coefficients system by HOLDOUT_MARGIN rows, and
    the shift axis offers more distinct values than any power of a under
    the bounds, so that system has a unique solution on this grid.
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
    """(E_k, E_1) at every point: E_k is Q^(k)(1) from suffix_sum over the
    count a(a+n)^(n-1), and E_1 comes from the closed form."""
    data = {}
    for n, a in points:
        e1 = expectation_area(n, a)  # ValueError unless n, a >= 1
        data[(n, a)] = (Fraction(suffix_sum(n, a, k), a * (a + n) ** (n - 1)), e1)
    return data


def _first_miss(a_poly: SymPoly, b_poly: SymPoly, points: list[tuple[int, int]],
                data: dict) -> tuple[int, int] | None:
    """The first point where A + B*E_1 differs from E_k, if any.

    A and B are reduced to polynomials in n once per shift (SymPoly.row),
    so a point costs two Horner passes.
    """
    rows = {}
    for n, a in points:
        if a not in rows:
            rows[a] = a_poly.row({"a": a}), b_poly.row({"a": a})
        ek, e1 = data[(n, a)]
        if (Fraction(horner(rows[a][0], n), a_poly.den)
                + Fraction(horner(rows[a][1], n), b_poly.den) * e1 != ek):
            return (n, a)
    return None


def _derive(k: int, symbols: tuple[str, ...]) -> tuple[SymPoly, SymPoly]:
    """(A_k, B_k) in `symbols`: the shift a = 1, or shifts 1..3k interpolated."""
    if symbols == ("n",):
        return tuple(SymPoly.from_univariate(coeffs, "n")
                     for coeffs in shift_identity(k, 1))
    shifts = [shift_identity(k, a) for a in range(1, 3 * k + 1)]
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
    return all(sum(exps) <= degree for exps in poly.nums)


def fit_moment(k: int, general_a: bool = False,
               n_max: int | None = None) -> FitResult:
    """E_k = A + B*E_1, derived from the Wright-Abel sums and re-checked.

    The derived A and B stand when they lie within the default degree
    bounds and reproduce E_k exactly at every sample and holdout point.
    Otherwise the fit fails: status "inconsistent", with the first failing
    point as witness (None if only the bounds were exceeded).
    """
    ansatz = MomentAnsatz.default(k, general_a)
    a_poly, b_poly = _derive(k, ansatz.symbols)
    samples, holdout = _default_points(ansatz, n_max)
    data = _moment_data(samples + holdout, k)
    witness = _first_miss(a_poly, b_poly, samples + holdout, data)
    if (witness is None and _within(a_poly, ansatz.deg_a)
            and _within(b_poly, ansatz.deg_b)):
        return FitResult(k=k, symbols=ansatz.symbols, a_poly=a_poly,
                         b_poly=b_poly, samples_used=samples,
                         holdout_verified=holdout, status="verified",
                         ansatz=ansatz)
    zero = SymPoly(ansatz.symbols)
    return FitResult(k=k, symbols=ansatz.symbols, a_poly=zero, b_poly=zero,
                     samples_used=samples, holdout_verified=[],
                     status="inconsistent", ansatz=ansatz, witness=witness)


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
    E_1 ~ (sqrt(2*pi)/4) n^(3/2), so the candidates are lead(A) * n^deg(A)
    and (lead(B)/4) sqrt(2*pi) * n^(deg(B)+3/2).  One exponent is an
    integer and the other an integer plus 3/2, so they never tie and the
    larger one dominates.
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
    top, term = max(candidates)
    return term, top
