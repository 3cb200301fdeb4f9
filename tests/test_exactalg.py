"""Tests for the exact arithmetic toolkit."""

import random
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import pytest

from parkstat.exactalg import (Inconsistent, LinSys, PolyX, SymPoly, TwoPiPow,
                               Underdetermined, UniqueSolution, _pi_decimal, binomial,
                               binomial_rows, lagrange_interpolate, rat_str,
                               solve_exact, to_sig_str, sqrt_decimal)


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


def test_poly_add_scaled_examples():
    assert PolyX([1, 1]).add_scaled(PolyX([1, 1]), 1) == PolyX([2, 2])
    assert PolyX([0, 0, 1]).add_scaled(PolyX([1]), 3) == PolyX([3, 0, 1])
    p = PolyX([5, -2, 7])
    assert p.add_scaled(PolyX.zero(), 7) == p
    assert p - p == PolyX.zero()
    assert PolyX([1, 2]) + PolyX([0, -2, 4]) == PolyX([1, 0, 4])


def test_poly_zero_degree_is_none():
    assert PolyX.zero().degree is None
    assert PolyX([0, 0]).degree is None
    assert PolyX([3]).degree == 0
    assert PolyX([0, 0, 4]).degree == 2


def test_poly_linearity_property():
    rng = random.Random(1234)
    for _ in range(200):
        p = PolyX([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))])
        q = PolyX([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))])
        c = rng.randint(-5, 5)
        e = 6 + rng.randint(0, 4)
        combo = p.add_scaled(q, c)
        assert combo.reverse(e) == p.reverse(e).add_scaled(q.reverse(e), c)
        assert combo.derivatives_at_one(3) == tuple(
            x + c * y for x, y in zip(p.derivatives_at_one(3),
                                      q.derivatives_at_one(3)))


def test_poly_eval_and_derivatives():
    p = PolyX([6, 6, 3, 1])  # 6 + 6x + 3x^2 + x^3
    assert p.eval_one() == 16
    assert p.derivatives_at_one(3) == (16, 15, 12, 6)


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


def test_solve_underdetermined():
    sys = LinSys(2)
    sys.add_row([1, 1], 1)
    sol = solve_exact(sys)
    assert isinstance(sol, Underdetermined)


def test_solve_inconsistent():
    sys = LinSys(1)
    sys.add_row([1], 1)
    sys.add_row([1], 2)
    sol = solve_exact(sys)
    assert isinstance(sol, Inconsistent)


def test_solve_planted_solutions():
    rng = random.Random(7)
    for _ in range(40):
        w = rng.randint(1, 6)
        planted = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                   for _ in range(w)]
        sys = LinSys(w)
        # random square system; regenerate on the rare singular draw
        for _ in range(w):
            row = [rng.randint(-9, 9) for _ in range(w)]
            rhs = sum(c * x for c, x in zip(row, planted))
            sys.add_row(row, rhs)
        sol = solve_exact(sys)
        if isinstance(sol, UniqueSolution):
            assert list(sol.values) == planted


def test_sympoly_eval_examples():
    # a(a+3)^2 at a=1 -> 16
    a = SymPoly.variable(("a",), "a")
    three = SymPoly.constant(("a",), 3)
    p = a * (a + three) ** 2
    assert p.eval({"a": 1}) == 16
    # a(a+2) at a=2 -> 8
    q = a * (a + SymPoly.constant(("a",), 2))
    assert q.eval({"a": 2}) == 8
    # all-zero point gives the constant term
    r = p + SymPoly.constant(("a",), Fraction(5, 7))
    assert r.eval({"a": 0}) == Fraction(5, 7)


def test_sympoly_missing_symbol_errors():
    p = SymPoly.variable(("n", "a"), "n")
    with pytest.raises(ValueError):
        p.eval({"n": 3})


def test_sympoly_format():
    p = SymPoly(("a",), {(3,): 1, (2,): 6, (1,): 9})
    assert str(p) == "a^3+6a^2+9a"
    q = SymPoly(("n",), {(1,): Fraction(-7, 3), (0,): Fraction(-7, 3)})
    assert q.format(star=True) == "-7/3*n-7/3"
    assert str(SymPoly(("n",))) == "0"


def test_lagrange_interpolation_roundtrip():
    rng = random.Random(42)
    for _ in range(50):
        deg = rng.randint(0, 5)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                  for _ in range(deg + 1)]
        xs = list(range(deg + 1))
        ys = [sum(c * Fraction(x) ** i for i, c in enumerate(coeffs))
              for x in xs]
        got = lagrange_interpolate(xs, ys)
        want = coeffs[:]
        while len(want) > 1 and want[-1] == 0:
            want.pop()
        assert got == want


def test_two_pi_pow():
    v = TwoPiPow(Fraction(1, 4), 1)
    # sqrt(2*pi)/4 = 0.62665706...
    assert str(v.decimal(10)).startswith("0.626657068")
    assert str(TwoPiPow(Fraction(5, 12), 0).decimal(10)).startswith("0.41666666")
    with pytest.raises(ValueError):
        TwoPiPow(Fraction(1), 2)


def test_rat_str_roundtrip():
    assert rat_str(Fraction(3, 7)) == "3/7"
    assert rat_str(Fraction(5)) == "5"
    assert rat_str(Fraction(-1, 2)) == "-1/2"
    for x in (Fraction(3, 7), Fraction(5), Fraction(-1, 2)):
        assert Fraction(rat_str(x)) == x


def test_decimal_rendering():
    with localcontext() as ctx:
        ctx.prec = 30
        d = Decimal(1) / Decimal(3)
    assert to_sig_str(d, 5) == "0.33333"
    assert to_sig_str(Decimal(12345678), 4) == "12350000"
    assert to_sig_str(Decimal(-1) / Decimal(8), 3) == "-0.125"
    assert to_sig_str(Decimal(0), 5) == "0"
    s = sqrt_decimal(Fraction(2), 25)
    assert str(s).startswith("1.414213562373095")


# pi to 110 significant digits
PI_110 = ("3.1415926535897932384626433832795028841971693993751058209749445923"
          "078164062862089986280348253421170679821480865")


def test_pi_decimal_matches_reference_digits():
    for prec in range(1, 101):
        with localcontext() as ctx:
            ctx.prec = prec
            ctx.rounding = ROUND_HALF_EVEN
            want = +Decimal(PI_110)
        assert str(_pi_decimal(prec)) == str(want)
