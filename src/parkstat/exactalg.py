"""Exact arithmetic toolkit: integers, rationals, polynomials, linear solves.

Everything in this package computes over exact values; no float enters a
result.  The building blocks are:

  * arbitrary-precision integers  -- Python's int
  * rationals                     -- fractions.Fraction, always reduced
  * PolyX                         -- dense univariate polynomial with int
                                     coefficients (trailing zeros trimmed,
                                     so the zero polynomial has none)
  * SymPoly                       -- sparse polynomial with rational
                                     coefficients over a declared symbol
                                     set, as int numerators over one
                                     common denominator
  * LinSys / solve_exact          -- exact rational linear solve by
                                     fraction-free elimination over the
                                     integers, back-substituted in Fractions

No production path calls solve_exact: the moment identities are derived,
not fitted.  It serves the tests' undetermined-coefficients reference for
those identities, and perfbench/tracer.py wraps it.

PolyX and SymPoly are containers with evaluation, not an algebra: the engines
build their coefficients directly (PolyX from the area sweep, SymPoly from
count_symbolic's coefficient lists and the derived moment identities), and
the classes hold, read, evaluate, reverse and print them.  Neither adds or
multiplies polynomials.  `interpolate` turns values at x = 1..m into
coefficients.  SymPoly has one form, integer numerators over the reduced
common denominator, which equality and hashing compare; it makes Fractions
only for a reader that asks for coefficients.  It has one evaluator: `row`
fixes every symbol but the first, leaving a coefficient list in the first,
and `horner` evaluates that list, so a caller with many points at one value
of the other symbols reduces the polynomial once.

Decimals only appear at the output boundary (quotient_decimal,
sqrt_decimal, PI_40 for the odd Airy ratios, to_sig_str); the one other
Decimal arithmetic is airy's division of odd-k ratios by sqrt(2*pi*n).
Each helper takes its number of significant digits as an argument and
rounds in a Context from decimal_context, as airy does.  That constructor
is the package's one rounding policy: half-even, with every other field
fixed at the decimal module's stock value, so no result depends on the
thread's Decimal context or on decimal.DefaultContext.  The quotient and
the root of two integers are computed in integers with a sticky last
digit and rounded once, so each is correctly rounded and big operands are
never converted to Decimal.  PolyX, SymPoly, TwoPiPow and the solve
results are immutable after construction and safe to share between
threads; a LinSys is a mutable list of rows, filled by add_row.
"""

from __future__ import annotations

import math
from decimal import (ROUND_HALF_EVEN, Context, Decimal, DivisionByZero,
                     InvalidOperation, Overflow)
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

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


def interpolate(values: Sequence[RatLike]) -> list[Fraction]:
    """Coefficients of the polynomial of degree < len(values) that takes
    values[i] at x = i + 1, lowest power first.

    Newton's forward form p(x) = sum_j (Delta^j p)(1) (x-1)^{falling j}/j!,
    run in integers over one common denominator: the lcm of the values'
    denominators times (m-1)!, which every j! here divides.
    """
    m = len(values)
    den = math.lcm(*(v.denominator for v in values)) * math.factorial(max(m - 1, 0))
    diffs = [v.numerator * (den // v.denominator) for v in values]
    coeffs = [0] * m
    falling = [1]  # (x-1)^{falling j}, lowest power first
    for j in range(m):
        scale = diffs[0] // math.factorial(j)
        for i, c in enumerate(falling):
            coeffs[i] += scale * c
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
        falling = [x - (j + 1) * y for x, y in zip([0] + falling, falling + [0])]
    return [Fraction(c, den) for c in coeffs]


# ---------------------------------------------------------------------------
# Dense univariate integer polynomials
# ---------------------------------------------------------------------------


class PolyX:
    """Dense polynomial in x with int coefficients, coeffs[m] ~ x^m.

    Instances are immutable.  Trailing zero coefficients are trimmed, so
    len(coeffs) - 1 is the degree and the zero polynomial has an empty
    coefficient tuple.
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

    def is_zero(self) -> bool:
        return not self.coeffs

    def eval_one(self) -> int:
        return sum(self.coeffs)

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


def horner(coeffs: Sequence, x: RatLike):
    """sum_i coeffs[i] x^i by Horner's rule, in the type of its inputs."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class SymPoly:
    """Polynomial with rational coefficients in a fixed tuple of symbols.

    Held as `nums`, one nonzero integer numerator per exponent tuple (one
    entry per declared symbol), over one denominator `den`, the lcm of the
    reduced coefficients' denominators: a canonical form.  `terms` and the
    readers built on it make Fractions only when called.
    """

    __slots__ = ("symbols", "den", "nums")

    def __init__(self, symbols: Sequence[str],
                 terms: Mapping[tuple[int, ...], RatLike] | None = None):
        syms = tuple(symbols)
        for exps in terms or ():
            if len(exps) != len(syms):
                raise ValueError(f"exponent tuple {exps} does not match symbols {syms}")
        clean = {tuple(exps): Fraction(c) for exps, c in (terms or {}).items() if c}
        den = math.lcm(*(c.denominator for c in clean.values()))
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", {exps: c.numerator * (den // c.denominator)
                                          for exps, c in clean.items()})

    def __setattr__(self, name, value):
        raise AttributeError("SymPoly is immutable")

    @classmethod
    def from_univariate(cls, coeffs: Sequence[RatLike], symbol: str) -> SymPoly:
        """Dense coefficient list (index = exponent) -> one-symbol SymPoly."""
        return cls((symbol,), {(m,): c for m, c in enumerate(coeffs)})

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """Exponent tuple -> nonzero coefficient, as a new dict."""
        return {exps: Fraction(c, self.den) for exps, c in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def row(self, point: Mapping[str, RatLike]) -> list:
        """The polynomial in the first symbol left when every other symbol
        takes its value at `point`: its coefficients lowest power first, as
        numerators over `den` (integers at an integer point)."""
        missing = [s for s in self.symbols[1:] if s not in point]
        if missing:
            raise ValueError(f"missing assignment for symbols {missing}")
        out = [0] * (1 + max((exps[0] for exps in self.nums), default=-1))
        for exps, c in self.nums.items():
            for s, e in zip(self.symbols[1:], exps[1:]):
                c *= point[s] ** e
            out[exps[0]] += c
        return out

    def eval(self, point: Mapping[str, RatLike]) -> Fraction:
        """Value at `point`: row, then Horner's rule in the first symbol."""
        if self.symbols[0] not in point:  # row checks the others
            raise ValueError(f"missing assignment for symbols {list(self.symbols[:1])}")
        return Fraction(horner(self.row(point), point[self.symbols[0]]), self.den)

    def degree_in(self, symbol: str) -> int | None:
        """None for the zero polynomial."""
        return max((e[self.symbols.index(symbol)] for e in self.nums), default=None)

    def coeff_of(self, exps: tuple[int, ...]) -> Fraction:
        return Fraction(self.nums.get(tuple(exps), 0), self.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SymPoly) and self.symbols == other.symbols
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self) -> int:
        return hash((self.symbols, self.den, frozenset(self.nums.items())))

    def ordered_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """(exponents, coefficient) pairs in output order: by descending total
        degree, then by descending powers in symbol order."""
        return sorted(self.terms.items(),
                      key=lambda t: (-sum(t[0]), tuple(-x for x in t[0])))

    def format(self, star: bool = False) -> str:
        """Expanded form, terms in `ordered_terms` order.

        star=False glues coefficients to monomials ("6a^2"); star=True writes
        an explicit "*" ("6*a^2").
        """
        if not self.nums:
            return "0"
        sep = "*" if star else ""
        parts = []
        for exps, c in self.ordered_terms():
            mono = sep.join(
                f"{s}^{e}" if e > 1 else s
                for s, e in zip(self.symbols, exps) if e
            )
            if not mono:
                body = rat_str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{rat_str(abs(c))}{sep}{mono}"
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


class UniqueSolution(NamedTuple):
    values: tuple[Fraction, ...]


class Underdetermined(NamedTuple):
    free_column: int


class Inconsistent(NamedTuple):
    # the row 0 = nonzero, as an index into the reduced system: the pivot
    # rows in column order, then the leftover rows in input order
    row_index: int


SolveResult = Union[UniqueSolution, Underdetermined, Inconsistent]


def solve_exact(sys: LinSys) -> SolveResult:
    """Solve a rational linear system exactly, by fraction-free elimination.

    Each row is scaled to integers once, by the lcm of its denominators.
    Columns are eliminated in order: the pivot is the first remaining row
    with a nonzero entry in the column, and every remaining row with an
    entry f there becomes pc*row - f*pivot (pc the pivot's entry), divided
    by the gcd of its entries so the integers stay small: fraction-free
    elimination as in Bareiss (Math. Comp. 22, 1968), with the row's gcd
    as the divisor in place of the previous pivot.  The rows left over
    keep their input order.  A leftover row 0 = nonzero is reported before
    any pivotless column; a system with neither is back-substituted in
    Fractions.
    """
    if not sys.rows:
        raise ValueError("system has no rows")
    rows = []
    for coeffs, rhs in sys.rows:
        den = math.lcm(rhs.denominator, *(c.denominator for c in coeffs))
        rows.append([x.numerator * (den // x.denominator) for x in (*coeffs, rhs)])
    # each pass drops the leading column, so the remaining rows always start
    # at the current column, and a pivot row holds its own column, the
    # columns after it and the rhs
    pivots = []
    free = []
    for col in range(sys.width):
        piv = next((i for i, row in enumerate(rows) if row[0]), None)
        if piv is None:
            free.append(col)
            rows = [row[1:] for row in rows]
            continue
        prow = rows.pop(piv)
        pivots.append(prow)
        pc, tail = prow[0], prow[1:]
        for i, row in enumerate(rows):
            if f := row[0]:
                row = [pc * x - f * y for x, y in zip(row[1:], tail)]
                g = math.gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
            else:
                rows[i] = row[1:]
    for i, (rhs,) in enumerate(rows):
        if rhs:
            return Inconsistent(row_index=len(pivots) + i)
    if free:
        return Underdetermined(free_column=free[0])
    values: list[Fraction] = []  # the unknowns after the current pivot's column
    for prow in reversed(pivots):
        known = sum(c * x for c, x in zip(prow[1:-1], values))
        values.insert(0, (prow[-1] - known) / Fraction(prow[0]))
    return UniqueSolution(values=tuple(values))


# ---------------------------------------------------------------------------
# Exact values of the form r * (2*pi)^(h/2)
# ---------------------------------------------------------------------------


class _TwoPiPowFields(NamedTuple):
    r: Fraction
    h: int


class TwoPiPow(_TwoPiPowFields):
    """Exact split form r * (2*pi)^(h/2) with r rational and h in {0, 1}."""

    __slots__ = ()

    def __new__(cls, r: Fraction, h: int) -> TwoPiPow:
        if h not in (0, 1):
            raise ValueError("h must be 0 or 1")
        return super().__new__(cls, r, h)


# pi correctly rounded to 40 significant digits, the precision the Airy
# ratios are computed at
PI_40 = Decimal("3.141592653589793238462643383279502884197")


# ---------------------------------------------------------------------------
# Serialization boundary
# ---------------------------------------------------------------------------


def int_str(x: int) -> str:
    """Decimal digits of an integer, however long.

    Every renderer prints its integers through here.  Decimal's str gives
    the same digits as int's but is not capped by Python's int -> str
    digit limit (sys.set_int_max_str_digits), so no caller has to lift it.
    """
    return str(Decimal(x))


def rat_str(x: RatLike) -> str:
    """Rational as "num/den", omitting the denominator when it is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return int_str(x.numerator)
    return f"{int_str(x.numerator)}/{int_str(x.denominator)}"


def decimal_context(digits: int) -> Context:
    """A new Context that rounds half-even to `digits` significant digits,
    the one rounding policy of the package.

    Every other field is spelled out at the decimal module's stock value:
    a field left unset would be copied from decimal.DefaultContext, which
    any code in the process may edit.  A fresh object per call, because a
    Context's flags are mutable and a shared one would be shared state.
    """
    return Context(prec=digits, rounding=ROUND_HALF_EVEN, Emin=-999999, Emax=999999,
                   capitals=1, clamp=0, flags=[],
                   traps=[InvalidOperation, DivisionByZero, Overflow])


def _scale(num: int, den: int, digits: int) -> int:
    """An s with num 10^s / den >= 10^digits when num > 0 (den > 0), from
    the bit lengths alone: num/den > 2^-e, and ceil(e c) >= e log10(2) when
    c rounds log10(2) away from zero."""
    e = den.bit_length() - num.bit_length() + 1
    return digits - (-e * (30103 if e > 0 else 30102) // 100000)


def quotient_decimal(num: int, den: int, digits: int) -> Decimal:
    """num/den for integers num >= 0 and den > 0, correctly rounded
    half-even to `digits` significant digits: equal in value to
    Decimal(num) / Decimal(den) at that precision, but not in exponent.
    The result keeps all its digits (at 40 digits, 1/4 is 0.2500...0, and
    0/d is 0E-43), so callers render it through to_sig_str, not str or
    format.

    One short division: q, r = divmod(num 10^s, den) with q of at least
    digits+1 digits, whatever the operands' sizes, so the division costs
    about the operands' length and only q becomes a Decimal.  A sticky last
    digit, 1 when r != 0, and one rounding follow.  This is rounding to odd
    (Boldo and Melquiond, IEEE Trans. Computers 57, 2008): every point
    where the final rounding changes (a value of `digits` digits, or a
    midpoint between two) is a multiple of 10^-s, so the sticky digit moves
    an inexact quotient off such a point and never across one, and the
    result is the rounding of the exact num/den.
    """
    s = _scale(num, den, digits)
    q, r = divmod(num * 10 ** max(s, 0), den * 10 ** max(-s, 0))
    return Decimal(10 * q + (r != 0)).scaleb(-s - 1, decimal_context(digits))


def sqrt_decimal(num: int, den: int, digits: int) -> Decimal:
    """Square root of num/den for integers num >= 0 and den > 0, correctly
    rounded half-even to `digits` significant digits.

    As in quotient_decimal: y, r = divmod(num 100^t, den), the integer root
    m = isqrt(y) gets at least digits+1 digits, and a sticky last digit
    records an inexact root (r != 0 or m^2 != y), so one rounding to odd
    suffices.  Also as there, the result is exact in value, not in exponent
    (sqrt 0 is 0E-(digits+2)), so callers render it through to_sig_str.
    """
    if num < 0 or den <= 0:
        raise ValueError("square root needs num >= 0 and den > 0")
    t = -(-_scale(num, den, 2 * digits) // 2)
    y, r = divmod(num * 100 ** max(t, 0), den * 100 ** max(-t, 0))
    m = math.isqrt(y)
    return Decimal(10 * m + (r != 0 or m * m != y)).scaleb(-t - 1, decimal_context(digits))


def to_sig_str(d: Decimal, sig: int) -> str:
    """Fixed-point string of d rounded half-even to exactly `sig`
    significant digits, never scientific: 9.96 at 2 is "10", 0.5 at 3 is
    "0.500" and 12345678 at 4 is "12350000".  Zero is "0"."""
    if d == 0:
        return "0"
    ctx = decimal_context(sig)
    q = ctx.plus(d)  # the one rounding; a carry lands in q's exponent
    # pad with zeros to sig digits, which is exact
    pad = Decimal(1).scaleb(q.adjusted() - sig + 1, ctx)
    return format(q.quantize(pad, context=ctx), "f")
