"""Tests for the exact arithmetic toolkit."""

import random
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkstat.exactalg import (PI_40, Inconsistent, LinSys, PolyX, SymPoly, TwoPiPow,
                               Underdetermined, UniqueSolution, binomial, binomial_rows,
                               horner, int_str, interpolate, quotient_decimal, rat_str,
                               solve_exact, sqrt_decimal, to_sig_str)
from reference import PI_110, derivatives_at_one, gauss_jordan


@pytest.mark.parametrize("n,k,expected", [(4, 2, 6), (7, 0, 1), (5, 9, 0)])
def test_binomial_examples(n, k, expected):
    assert binomial(n, k) == expected


def test_binomial_pascal_rule():
    for n in range(1, 65):
        for k in range(0, n + 1):
            assert binomial(n, k) == binomial(n - 1, k) + binomial(n - 1, k - 1)


def test_binomial_rows_match():
    rows = binomial_rows(40)
    for n in range(41):
        assert rows[n] == [binomial(n, k) for k in range(n + 1)]


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_poly_trims_trailing_zeros():
    assert PolyX.zero().coeffs == ()
    assert PolyX([0, 0]).coeffs == ()
    assert PolyX([3, 0]).coeffs == (3,)
    assert PolyX([0, 0, 4, 0, 0]).coeffs == (0, 0, 4)


def _combination(xs, ys, c):
    """Coefficients of xs + c * ys, the shorter list padded with zeros."""
    width = max(len(xs), len(ys))
    xs = list(xs) + [0] * (width - len(xs))
    ys = list(ys) + [0] * (width - len(ys))
    return [x + c * y for x, y in zip(xs, ys)]


def test_poly_linearity_property():
    rng = random.Random(1234)
    for _ in range(200):
        ps = [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
        qs = [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
        c = rng.randint(-5, 5)
        e = 6 + rng.randint(0, 4)
        p, q = PolyX(ps), PolyX(qs)
        combo = PolyX(_combination(ps, qs, c))
        assert combo.reverse(e) == PolyX(
            _combination(p.reverse(e).coeffs, q.reverse(e).coeffs, c))
        assert derivatives_at_one(combo.coeffs, 3) == tuple(_combination(
            derivatives_at_one(p.coeffs, 3), derivatives_at_one(q.coeffs, 3), c))


def test_poly_eval_and_derivatives():
    p = PolyX([6, 6, 3, 1])  # 6 + 6x + 3x^2 + x^3
    assert p.eval_one() == 16
    assert derivatives_at_one(p.coeffs, 3) == (16, 15, 12, 6)


def test_poly_reverse():
    assert PolyX([2, 1]).reverse(3) == PolyX([0, 0, 1, 2])
    with pytest.raises(ValueError):
        PolyX([1, 1, 1]).reverse(1)


def test_rat_exactness_property():
    rng = random.Random(99)
    for _ in range(500):
        p = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        r = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        assert (p + r) - r == p
        assert p.denominator > 0


def test_solve_unique():
    sys = LinSys(2)
    sys.add_row([1, 1], 3)
    sys.add_row([1, -1], 1)
    sol = solve_exact(sys)
    assert isinstance(sol, UniqueSolution)
    assert sol.values == (Fraction(2), Fraction(1))


def _same(got, want) -> bool:
    # the result types are NamedTuples, and Underdetermined(1) ==
    # Inconsistent(1) as tuples, so the type is compared too
    return type(got) is type(want) and got == want


def test_solve_underdetermined():
    sys = LinSys(2)
    sys.add_row([1, 1], 1)
    assert _same(solve_exact(sys), Underdetermined(free_column=1))
    # the first pivotless column is named, here ahead of a pivot column
    sys = LinSys(3)
    sys.add_row([0, 0, 2], 1)
    sys.add_row([0, 3, 0], 1)
    assert _same(solve_exact(sys), Underdetermined(free_column=0))


def test_solve_inconsistent():
    sys = LinSys(1)
    sys.add_row([1], 1)
    sys.add_row([1], 2)
    assert _same(solve_exact(sys), Inconsistent(row_index=1))
    # row_index counts the pivot rows first, then the leftover rows in input
    # order: input row 0 is the leftover 0 = 5 here, and it also wins over
    # the pivotless column 1
    sys = LinSys(2)
    sys.add_row([0, 0], 5)
    sys.add_row([2, 0], 1)
    sys.add_row([4, 0], 2)
    assert _same(solve_exact(sys), Inconsistent(row_index=1))


def test_solve_planted_solutions():
    rng = random.Random(7)
    for _ in range(40):
        w = rng.randint(1, 6)
        planted = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                   for _ in range(w)]
        # random square system; regenerate on the rare singular draw, as
        # the reference elimination judges it
        while True:
            sys = LinSys(w)
            for _ in range(w):
                row = [rng.randint(-9, 9) for _ in range(w)]
                sys.add_row(row, sum(c * x for c, x in zip(row, planted)))
            if isinstance(gauss_jordan(sys), UniqueSolution):
                break
        assert solve_exact(sys) == UniqueSolution(values=tuple(planted))


def _planted_system(rng, planted, rows, coeff_bits=4):
    """`rows` random Fraction rows, right-hand sides from `planted`."""
    sys = LinSys(len(planted))
    top = 2**coeff_bits
    for _ in range(rows):
        row = [Fraction(rng.randint(-top, top), rng.randint(1, top))
               for _ in planted]
        sys.add_row(row, sum(c * x for c, x in zip(row, planted)))
    return sys


@st.composite
def linear_systems(draw):
    """Square, overdetermined, rank-deficient and inconsistent systems.

    Planted solutions reach ~200-bit numerators and denominators, so the
    eliminated rows grow well past machine words.
    """
    w = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["square", "over", "deficient", "inconsistent"]))
    bits = draw(st.integers(1, 200))
    rng = random.Random(draw(st.integers(0, 2**32)))
    planted = [Fraction(rng.randint(-2**bits, 2**bits), rng.randint(1, 2**bits))
               for _ in range(w)]
    if kind == "square":
        return _planted_system(rng, planted, w)
    if kind == "over":
        return _planted_system(rng, planted, w + draw(st.integers(1, 4)))
    if kind == "inconsistent":
        sys = _planted_system(rng, planted, w + draw(st.integers(1, 4)))
        i = rng.randrange(len(sys.rows))
        coeffs, rhs = sys.rows[i]
        sys.rows[i] = (coeffs, rhs + Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        return sys
    # rank < w: every row is an integer combination of fewer base rows
    base = _planted_system(rng, planted, rng.randint(0, w - 1)).rows
    sys = LinSys(w)
    for _ in range(w + draw(st.integers(0, 3))):
        mix = [rng.randint(-3, 3) for _ in base]
        coeffs = [sum((m * r[0][j] for m, r in zip(mix, base)), Fraction(0))
                  for j in range(w)]
        sys.add_row(coeffs, sum((m * r[1] for m, r in zip(mix, base)), Fraction(0)))
    return sys


@settings(max_examples=150, deadline=None)
@given(linear_systems())
def test_solve_exact_matches_gauss_jordan_property(sys):
    assert _same(solve_exact(sys), gauss_jordan(sys))


def test_solve_150_bit_planted_system():
    # 150-bit numerators and denominators, 8 rows for 5 unknowns
    rng = random.Random(11)
    planted = [Fraction(rng.getrandbits(150) | 1 << 149, rng.getrandbits(150) | 1)
               for _ in range(5)]
    sys = _planted_system(rng, planted, 8)
    assert solve_exact(sys) == UniqueSolution(values=tuple(planted))


def test_solve_coefficient_divisible_by_a_large_prime():
    p = 2**61 - 1
    sys = LinSys(2)
    sys.add_row([p, 1], p + 2)
    sys.add_row([2 * p, 3], 2 * p + 6)
    assert solve_exact(sys) == UniqueSolution(values=(Fraction(1), Fraction(2)))


def test_solve_denominator_divisible_by_a_large_prime():
    p = 2**61 - 1
    sys = LinSys(2)
    sys.add_row([Fraction(1, p), 1], Fraction(5, p) + 7)
    sys.add_row([1, -1], -2)
    assert solve_exact(sys) == UniqueSolution(values=(Fraction(5), Fraction(7)))


def test_solve_overdetermined_consistent():
    sys = LinSys(2)
    sys.add_row([1, 1], 3)
    sys.add_row([1, -1], 1)
    sys.add_row([2, 1], 5)
    assert solve_exact(sys) == UniqueSolution(values=(Fraction(2), Fraction(1)))


def test_sympoly_eval_examples():
    # a(a+3)^2 = a^3 + 6a^2 + 9a at a=1 -> 16
    p = SymPoly(("a",), {(3,): 1, (2,): 6, (1,): 9})
    assert p.eval({"a": 1}) == 16
    # a(a+2) = a^2 + 2a at a=2 -> 8
    q = SymPoly(("a",), {(2,): 1, (1,): 2})
    assert q.eval({"a": 2}) == 8
    # all-zero point gives the constant term
    r = SymPoly(("a",), {(3,): 1, (2,): 6, (1,): 9, (0,): Fraction(5, 7)})
    assert r.eval({"a": 0}) == Fraction(5, 7)
    # two symbols: n^2 a - 3a at (n, a) = (2, 5) -> 5
    s = SymPoly(("n", "a"), {(2, 1): 1, (0, 1): -3})
    assert s.eval({"n": 2, "a": 5}) == 5


POINTS = st.one_of(st.integers(-30, 30), st.fractions(max_denominator=9))


@settings(max_examples=80, deadline=None)
@given(terms=st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                             st.fractions(max_denominator=60), max_size=10),
       n=POINTS, a=POINTS)
def test_sympoly_eval_matches_term_by_term_sum(terms, n, a):
    want = sum((c * Fraction(n) ** i * Fraction(a) ** j
                for (i, j), c in terms.items()), Fraction(0))
    poly = SymPoly(("n", "a"), terms)
    assert poly.eval({"n": n, "a": a}) == want
    # the row at a, a polynomial in n over den, evaluated by Horner's rule
    assert Fraction(horner(poly.row({"a": a}), n), poly.den) == want


def test_sympoly_is_canonical():
    # one form per polynomial: reduced coefficients over one denominator,
    # zero coefficients dropped
    p = SymPoly(("n",), {(1,): Fraction(2, 4), (2,): 0})
    q = SymPoly(("n",), {(1,): Fraction(1, 2)})
    assert p == q and hash(p) == hash(q)
    assert p.terms == q.terms == {(1,): Fraction(1, 2)}
    assert (p.den, p.nums) == (2, {(1,): 1})
    assert p != SymPoly(("a",), {(1,): Fraction(1, 2)})


@settings(max_examples=60, deadline=None)
@given(coeffs=st.lists(st.fractions(max_denominator=40), max_size=12))
def test_interpolate_recovers_the_polynomial(coeffs):
    values = [sum((c * x ** i for i, c in enumerate(coeffs)), Fraction(0))
              for x in range(1, len(coeffs) + 1)]
    assert interpolate(values) == coeffs


def test_sympoly_missing_symbol_errors():
    p = SymPoly(("n", "a"), {(1, 0): 1})
    with pytest.raises(ValueError):
        p.eval({"n": 3})


def test_sympoly_format():
    p = SymPoly(("a",), {(3,): 1, (2,): 6, (1,): 9})
    assert str(p) == "a^3+6a^2+9a"
    q = SymPoly(("n",), {(1,): Fraction(-7, 3), (0,): Fraction(-7, 3)})
    assert q.format(star=True) == "-7/3*n-7/3"
    assert str(SymPoly(("n",))) == "0"


def test_two_pi_pow():
    # (r, h) is the value r * (2*pi)^(h/2); h outside {0, 1} is refused
    assert tuple(TwoPiPow(Fraction(1, 4), 1)) == (Fraction(1, 4), 1)
    assert tuple(TwoPiPow(h=0, r=Fraction(5, 12))) == (Fraction(5, 12), 0)
    with pytest.raises(ValueError):
        TwoPiPow(Fraction(1), 2)
    with pytest.raises(ValueError):
        TwoPiPow(r=Fraction(1), h=-1)


def test_rat_str_roundtrip():
    assert rat_str(Fraction(3, 7)) == "3/7"
    assert rat_str(Fraction(5)) == "5"
    assert rat_str(Fraction(-1, 2)) == "-1/2"
    for x in (Fraction(3, 7), Fraction(5), Fraction(-1, 2)):
        assert Fraction(rat_str(x)) == x


def test_renderers_are_not_capped_by_the_int_str_limit():
    # every renderer prints its integers through int_str (Decimal), so none
    # needs a process-wide sys.set_int_max_str_digits(0);
    # moment_table(400, 1, 8) has central moments of more than 4300 digits
    from parkstat.genfun_engine import AreaGenFun
    from parkstat.moment_lab import HistogramRow, ScaledHistogram, moment_table
    limit = sys.get_int_max_str_digits()
    big = 7 ** 10000
    gf = AreaGenFun(2, 1, PolyX([big, 1]))
    hist = ScaledHistogram(2, 1, Fraction(1, 2), Fraction(1, 4),
                           (HistogramRow(0, big, "-1", "0.5"),))
    poly = SymPoly(("n", "a"), {(0, 0): big, (1, 0): Fraction(-big, 3)})
    try:
        sys.set_int_max_str_digits(0)
        digits, total = str(big), str(big + 1)
        sys.set_int_max_str_digits(4300)
        assert int_str(big) == digits
        assert (rat_str(big), rat_str(Fraction(-big, 3))) == (digits, f"-{digits}/3")
        assert poly.format(star=True) == f"-{digits}/3*n+{digits}"
        assert gf.to_csv() == f"area,count\n0,{digits}\n1,1\n"
        obj = gf.to_json_obj()
        assert (obj["total"], obj["counts"]) == (total, {"0": digits, "1": "1"})
        assert hist.to_csv() == f"area,count,x,density\n0,{digits},-1,0.5\n"
        obj = hist.to_json_obj()
        assert (obj["total"], obj["rows"][0]["count"]) == (digits, digits)
        obj = moment_table(400, 1, 8).to_json_obj()
        assert max(len(c) for c in obj["central"]) > 4300
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("num,den,want", [(25, 100, "0.2"), (35, 100, "0.4"),
                                          (250001, 10**6, "0.3")])
def test_quotient_decimal_ties_at_one_digit(num, den, want):
    # 0.25 and 0.35 are ties, rounded half-even; 0.250001 is just past the
    # tie 0.25, which only the sticky digit records
    assert str(quotient_decimal(num, den, 1)) == want


@settings(max_examples=300, deadline=None)
@given(num_bits=st.integers(0, 3000), den_bits=st.integers(1, 3000),
       prec=st.integers(1, 60), kind=st.sampled_from(["any", "exact", "tie", "past"]),
       data=st.data())
def test_quotient_decimal_matches_decimal_division(num_bits, den_bits, prec, kind, data):
    # bit-length gaps of thousands in either direction, a zero numerator
    # (num_bits = 0), exact quotients, and quotients at or just past a tie
    # between two prec-digit neighbours
    num = data.draw(st.integers(0, 2**num_bits - 1))
    den = data.draw(st.integers(1, 2**den_bits - 1))
    if kind == "exact":
        num *= den
    elif kind in ("tie", "past"):
        m = data.draw(st.integers(10 ** (prec - 1), 10**prec - 1))
        num = (10 * m + 5) * den + (kind == "past")
        den *= 10 ** data.draw(st.integers(0, 60))
    got = quotient_decimal(num, den, prec)
    with localcontext() as ctx:
        ctx.prec = prec
        want = Decimal(num) / Decimal(den)
    assert got == want
    assert to_sig_str(got, prec) == to_sig_str(want, prec)


def test_sqrt_decimal_is_correctly_rounded():
    # rounding the quotient and then the root missed here by one in the
    # last digit: the root is 0.538783...
    assert sqrt_decimal(77487, 266933, 5) == Decimal("0.53878")
    assert sqrt_decimal(0, 7, 5) == 0
    assert sqrt_decimal(1, 4, 1) == Decimal("0.5")
    assert sqrt_decimal(25, 16, 2) == Decimal("1.2")  # tie 1.25
    # the operands need not be reduced
    assert sqrt_decimal(25 * 3**40, 16 * 3**40, 2) == Decimal("1.2")
    # just past the tie: 1.250001 rounds up, which only the exactness test
    # sees; the integer part of 1.250001^2 10^4 is 15625 = 125^2, so it is
    # the division's remainder that shows the root is not 1.25
    assert sqrt_decimal(1250001**2, 10**12, 2) == Decimal("1.3")
    with pytest.raises(ValueError):
        sqrt_decimal(-1, 1, 5)
    with pytest.raises(ValueError):
        sqrt_decimal(1, 0, 5)


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(st.fractions(min_value=0, max_denominator=10**6),
                   st.fractions(min_value=0, max_denominator=10**6).map(lambda f: f * f),
                   st.builds(Fraction, st.integers(1, 2**600), st.integers(1, 2**600))),
       prec=st.integers(1, 40))
def test_sqrt_decimal_brackets_the_root(x, prec):
    # r is correctly rounded iff (r - ulp_below/2)^2 <= x <= (r + ulp/2)^2,
    # and at equality r's last digit is even (half-even)
    r = sqrt_decimal(x.numerator, x.denominator, prec)
    if x == 0:
        assert r == 0
        return
    digits = r.as_tuple().digits
    assert len(digits) <= prec
    exact = Fraction(r)
    ulp = Fraction(10) ** (r.adjusted() - prec + 1)
    ulp_below = ulp / 10 if exact == Fraction(10) ** r.adjusted() else ulp
    low, high = (exact - ulp_below / 2) ** 2, (exact + ulp / 2) ** 2
    assert low <= x <= high
    if x in (low, high):
        assert (digits + (0,) * prec)[prec - 1] % 2 == 0


def test_decimal_rendering():
    with localcontext() as ctx:
        ctx.prec = 30
        d = Decimal(1) / Decimal(3)
    assert to_sig_str(d, 5) == "0.33333"
    assert to_sig_str(Decimal(12345678), 4) == "12350000"
    assert to_sig_str(Decimal(-1) / Decimal(8), 3) == "-0.125"
    assert to_sig_str(Decimal(0), 5) == "0"
    # a histogram row at the mean has d = 0, and its x must print "0"
    assert to_sig_str(sqrt_decimal(0, 5, 3), 3) == "0"
    s = sqrt_decimal(2, 1, 25)
    assert str(s).startswith("1.414213562373095")


@pytest.mark.parametrize("d,sig,want", [
    ("9.96", 2, "10"), ("0.0000999", 2, "0.00010"), ("-9.951", 2, "-10"),
    ("9.5", 1, "10"), ("0.5", 3, "0.500"), ("12345678", 4, "12350000")])
def test_to_sig_str_prints_exactly_sig_digits(d, sig, want):
    # a rounding that carries into the next power of ten used to print one
    # digit too many: "10.0" for 9.96 at 2
    assert to_sig_str(Decimal(d), sig) == want


def test_pi_decimal_matches_reference_digits():
    # PI_40 is the 110-digit reference rounded half-even to 40 digits
    with localcontext() as ctx:
        ctx.prec = 40
        ctx.rounding = ROUND_HALF_EVEN
        want = +Decimal(PI_110)
    assert str(PI_40) == str(want)
