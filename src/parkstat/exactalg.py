"""Exact arithmetic toolkit: integers, rationals, polynomials, linear solves.

Everything in this package computes over exact values; no float enters a
result.  The building blocks are:

  * arbitrary-precision integers  -- Python's int
  * rationals                     -- fractions.Fraction, always reduced
  * PolyX                         -- dense univariate polynomial with int
                                     coefficients (trailing zeros trimmed,
                                     degree of the zero polynomial is None)
  * SymPoly                       -- sparse polynomial with Fraction
                                     coefficients over a declared symbol set
  * LinSys / solve_exact          -- exact rational Gaussian elimination

Decimal strings only appear at the output boundary (to_sig_str, sqrt_decimal),
with an explicit number of significant digits.  All values are immutable
after construction and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Rat = Fraction
RatLike = Union[int, Fraction]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); zero outside 0 <= k <= n."""
    if n < 0:
        raise ValueError(f"binomial needs n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def binomial_rows(n_max: int) -> list[list[int]]:
    """Pascal triangle rows 0..n_max, for kernels that index C(n, k) a lot."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
        rows.append(row)
    return rows


def falling_factorial(x: int, t: int) -> int:
    """x(x-1)...(x-t+1), with the empty product 1 for t = 0."""
    out = 1
    for i in range(t):
        out *= x - i
    return out


# ---------------------------------------------------------------------------
# Dense univariate integer polynomials
# ---------------------------------------------------------------------------


class PolyX:
    """Dense polynomial in x with int coefficients, coeffs[m] ~ x^m.

    Instances are immutable.  The zero polynomial has an empty coefficient
    tuple and degree None (a tagged marker, never -1).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("PolyX is immutable")

    @classmethod
    def zero(cls) -> PolyX:
        return cls(())

    @classmethod
    def one(cls) -> PolyX:
        return cls((1,))

    @classmethod
    def monomial(cls, e: int, c: int = 1) -> PolyX:
        return cls([0] * e + [c])

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, m: int) -> int:
        return self.coeffs[m] if 0 <= m < len(self.coeffs) else 0

    def add_scaled(self, other: PolyX, c: int = 1) -> PolyX:
        """self + c * other, coefficientwise."""
        if c == 0 or not other.coeffs:
            return self
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        out = [0] * n
        for i, v in enumerate(a):
            out[i] = v
        for i, v in enumerate(b):
            out[i] += c * v
        return PolyX(out)

    def __add__(self, other: PolyX) -> PolyX:
        return self.add_scaled(other, 1)

    def __sub__(self, other: PolyX) -> PolyX:
        return self.add_scaled(other, -1)

    def scale(self, c: int) -> PolyX:
        if c == 0:
            return PolyX.zero()
        return PolyX(tuple(c * v for v in self.coeffs))

    def eval_one(self) -> int:
        return sum(self.coeffs)

    def derivatives_at_one(self, order: int) -> tuple[int, ...]:
        """(p(1), p'(1), ..., p^(order)(1)) via falling-factorial sums.

        Independent of any recurrence machinery: computed directly as
        sum_m coeffs[m] * m(m-1)...(m-i+1), so it can audit other paths.
        """
        out = []
        for i in range(order + 1):
            out.append(sum(c * falling_factorial(m, i)
                           for m, c in enumerate(self.coeffs) if c))
        return tuple(out)

    def reverse(self, offset: int) -> PolyX:
        """x^offset * p(1/x) as a polynomial; needs offset >= degree."""
        if not self.coeffs:
            return self
        deg = len(self.coeffs) - 1
        if offset < deg:
            raise ValueError(f"offset {offset} smaller than degree {deg}")
        out = [0] * (offset + 1)
        for m, c in enumerate(self.coeffs):
            out[offset - m] = c
        return PolyX(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyX) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"PolyX({list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials over the rationals
# ---------------------------------------------------------------------------


class SymPoly:
    """Polynomial with Fraction coefficients in a fixed tuple of symbols.

    Terms map exponent tuples (one entry per declared symbol) to nonzero
    coefficients; the symbol set is fixed at construction.
    """

    __slots__ = ("symbols", "terms")

    def __init__(self, symbols: Sequence[str],
                 terms: Mapping[tuple[int, ...], RatLike] | None = None):
        syms = tuple(symbols)
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, c in (terms or {}).items():
            if len(exps) != len(syms):
                raise ValueError(f"exponent tuple {exps} does not match symbols {syms}")
            c = Fraction(c)
            if c:
                clean[tuple(exps)] = c
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SymPoly is immutable")

    @classmethod
    def constant(cls, symbols: Sequence[str], c: RatLike) -> SymPoly:
        return cls(symbols, {(0,) * len(tuple(symbols)): Fraction(c)})

    @classmethod
    def variable(cls, symbols: Sequence[str], name: str) -> SymPoly:
        syms = tuple(symbols)
        exps = [0] * len(syms)
        exps[syms.index(name)] = 1
        return cls(syms, {tuple(exps): Fraction(1)})

    @classmethod
    def from_univariate(cls, coeffs: Sequence[RatLike], symbol: str) -> SymPoly:
        """Dense coefficient list (index = exponent) -> one-symbol SymPoly."""
        return cls((symbol,), {(m,): c for m, c in enumerate(coeffs)})

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: SymPoly) -> None:
        if self.symbols != other.symbols:
            raise ValueError(f"symbol sets differ: {self.symbols} vs {other.symbols}")

    def __add__(self, other: SymPoly) -> SymPoly:
        self._check(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, Fraction(0)) + c
        return SymPoly(self.symbols, out)

    def __sub__(self, other: SymPoly) -> SymPoly:
        return self + other.scale(-1)

    def __mul__(self, other: SymPoly) -> SymPoly:
        self._check(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return SymPoly(self.symbols, out)

    def __pow__(self, e: int) -> SymPoly:
        if e < 0:
            raise ValueError("negative power")
        out = SymPoly.constant(self.symbols, 1)
        for _ in range(e):
            out = out * self
        return out

    def scale(self, c: RatLike) -> SymPoly:
        c = Fraction(c)
        return SymPoly(self.symbols, {e: c * v for e, v in self.terms.items()})

    def eval(self, point: Mapping[str, RatLike]) -> Fraction:
        missing = [s for s in self.symbols if s not in point]
        if missing:
            raise ValueError(f"missing assignment for symbols {missing}")
        vals = [Fraction(point[s]) for s in self.symbols]
        total = Fraction(0)
        for exps, c in self.terms.items():
            term = c
            for v, e in zip(vals, exps):
                if e:
                    term *= v ** e
            total += term
        return total

    def degree_in(self, symbol: str) -> int | None:
        if not self.terms:
            return None
        i = self.symbols.index(symbol)
        return max(e[i] for e in self.terms)

    def total_degree(self) -> int | None:
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def coeff_of(self, exps: tuple[int, ...]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def __eq__(self, other) -> bool:
        return (isinstance(other, SymPoly) and self.symbols == other.symbols
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.symbols, frozenset(self.terms.items())))

    def format(self, star: bool = False) -> str:
        """Expanded form, terms by descending total degree then symbol order.

        star=False glues coefficients to monomials ("6a^2"); star=True writes
        an explicit "*" ("6*a^2").
        """
        if not self.terms:
            return "0"
        sep = "*" if star else ""
        keys = sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e)))
        parts = []
        for exps in keys:
            c = self.terms[exps]
            mono = sep.join(
                f"{s}^{e}" if e > 1 else s
                for s, e in zip(self.symbols, exps) if e
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}{sep}{mono}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        head_sign, head = parts[0]
        text = ("-" if head_sign == "-" else "") + head
        for sign, body in parts[1:]:
            text += sign + body
        return text

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"SymPoly({self.symbols!r}, {self.terms!r})"


# ---------------------------------------------------------------------------
# Exact linear systems
# ---------------------------------------------------------------------------


class LinSys:
    """Rows (coefficient vector, right-hand side) over the rationals."""

    def __init__(self, width: int):
        if width < 0:
            raise ValueError("width must be >= 0")
        self.width = width
        self.rows: list[tuple[list[Fraction], Fraction]] = []

    def add_row(self, coeffs: Sequence[RatLike], rhs: RatLike) -> None:
        if len(coeffs) != self.width:
            raise ValueError(f"row width {len(coeffs)} != {self.width}")
        self.rows.append(([Fraction(c) for c in coeffs], Fraction(rhs)))

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class UniqueSolution:
    values: tuple[Fraction, ...]


@dataclass(frozen=True)
class Underdetermined:
    free_column: int


@dataclass(frozen=True)
class Inconsistent:
    row_index: int  # index of a reduced row of the form 0 = nonzero


SolveResult = Union[UniqueSolution, Underdetermined, Inconsistent]


def _pivot_size(x: Fraction) -> int:
    # smaller representations keep intermediate fractions small
    return x.numerator.bit_length() + x.denominator.bit_length()


def solve_exact(sys: LinSys) -> SolveResult:
    """Exact rational Gaussian elimination with size-based partial pivoting.

    Inconsistency takes precedence over free columns: a reduced row
    0 = nonzero is reported even if pivotless columns exist.
    """
    if not sys.rows:
        raise ValueError("system has no rows")
    w = sys.width
    mat = [row[:] + [rhs] for row, rhs in sys.rows]
    pivots: list[tuple[int, int]] = []  # (row, col)
    free_cols: list[int] = []
    rank = 0
    for col in range(w):
        best = None
        best_size = None
        for r in range(rank, len(mat)):
            v = mat[r][col]
            if v:
                size = _pivot_size(v)
                if best is None or size < best_size:
                    best, best_size = r, size
        if best is None:
            free_cols.append(col)
            continue
        mat[rank], mat[best] = mat[best], mat[rank]
        prow = mat[rank]
        inv = 1 / prow[col]
        for j in range(col, w + 1):
            prow[j] *= inv
        for r in range(len(mat)):
            if r == rank:
                continue
            f = mat[r][col]
            if f:
                row = mat[r]
                for j in range(col, w + 1):
                    row[j] -= f * prow[j]
        pivots.append((rank, col))
        rank += 1
    for r in range(rank, len(mat)):
        if mat[r][w]:
            return Inconsistent(row_index=r)
    if free_cols:
        return Underdetermined(free_column=free_cols[0])
    values = [Fraction(0)] * w
    for r, col in pivots:
        values[col] = mat[r][w]
    return UniqueSolution(values=tuple(values))


def lagrange_interpolate(xs: Sequence[RatLike], ys: Sequence[RatLike]) -> list[Fraction]:
    """Dense coefficients of the unique degree < len(xs) interpolant.

    Exact over the rationals; nodes must be distinct.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    n = len(xs)
    xs = [Fraction(x) for x in xs]
    ys = [Fraction(y) for y in ys]
    coeffs = [Fraction(0)] * n
    for i in range(n):
        # basis polynomial prod_{j != i} (x - x_j) / (x_i - x_j)
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            basis = [Fraction(0)] + basis[:]
            for t in range(len(basis) - 1):
                basis[t] -= xs[j] * basis[t + 1]
            denom *= xs[i] - xs[j]
        scale = ys[i] / denom
        for t in range(len(basis)):
            coeffs[t] += scale * basis[t]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


# ---------------------------------------------------------------------------
# Exact values of the form r * (2*pi)^(h/2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoPiPow:
    """Exact split form r * (2*pi)^(h/2) with r rational and h in {0, 1}."""

    r: Fraction
    h: int

    def __post_init__(self):
        if self.h not in (0, 1):
            raise ValueError("h must be 0 or 1")

    def decimal(self, sig: int = 20) -> Decimal:
        with localcontext() as ctx:
            ctx.prec = sig + 10
            val = Decimal(self.r.numerator) / Decimal(self.r.denominator)
            if self.h:
                val *= (2 * _pi_decimal(sig + 10)).sqrt()
            return +val

    def __str__(self) -> str:
        if self.h == 0:
            return str(self.r)
        return f"{self.r}*sqrt(2*pi)"


def _pi_decimal(prec: int) -> Decimal:
    # Machin-like arctan series; deterministic at any precision
    with localcontext() as ctx:
        ctx.prec = prec + 10

        def arctan_inv(x: int) -> Decimal:
            # the terms shrink strictly, so once one no longer changes the
            # rounded total, none after it would
            total = term = Decimal(1) / x
            xsq = x * x
            k = 3
            while True:
                term /= xsq
                nxt = total - term / k if (k // 2) % 2 else total + term / k
                if nxt == total:
                    return total
                total = nxt
                k += 2

        pi = 16 * arctan_inv(5) - 4 * arctan_inv(239)
    with localcontext() as ctx:
        ctx.prec = prec
        return +pi


# ---------------------------------------------------------------------------
# Serialization boundary
# ---------------------------------------------------------------------------


def rat_str(x: RatLike) -> str:
    """Rational as "num/den", omitting the denominator when it is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def sqrt_decimal(x: RatLike, prec: int) -> Decimal:
    """Correctly-rounded decimal square root of a nonnegative rational."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("square root of a negative value")
    with localcontext() as ctx:
        ctx.prec = prec
        return (Decimal(x.numerator) / Decimal(x.denominator)).sqrt()


def to_sig_str(d: Decimal, sig: int) -> str:
    """Fixed-point string with `sig` significant digits, never scientific."""
    if d == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = max(sig + 4, 28)
        q = d.quantize(Decimal(1).scaleb(d.adjusted() - sig + 1),
                       rounding=ROUND_HALF_EVEN)
    return format(q, "f")
