"""Tests for expectations, moment conversions, and the scaled histogram."""

from decimal import Decimal
from fractions import Fraction

import pytest

from parkstat.counting_engine import count
from parkstat.exactalg import sqrt_decimal
from parkstat.genfun_engine import jet_many, sum_genfun
from parkstat.moment_lab import (convert_moments, expectation_area,
                                 expectation_sum, factorial_moments,
                                 moment_table, p_prime_closed,
                                 scaled_histogram, stirling2, w_value)


def test_w_examples():
    assert w_value(1) == 0
    assert w_value(2) == 1
    assert w_value(3) == Fraction(8, 3)


def test_w_asymptotic_ratio_tightens():
    # W_n / ((sqrt(2*pi)/2) n^(3/2)) approaches 1; closer at 4000 than 400
    from decimal import localcontext

    from parkstat.exactalg import _pi_decimal

    with localcontext() as ctx:
        ctx.prec = 40
        pi = _pi_decimal(40)

        def dev(n):
            scale = (2 * pi).sqrt() / 2 * Decimal(n**3).sqrt()
            w = w_value(n)
            return abs(Decimal(w.numerator) / w.denominator / scale - 1)

        assert dev(4000) < dev(400)


@pytest.mark.parametrize("n,a,expected", [
    (1, 1, Fraction(0)),
    (2, 1, Fraction(1, 3)),
    (3, 1, Fraction(15, 16)),
])
def test_expectation_area_examples(n, a, expected):
    assert expectation_area(n, a) == expected


@pytest.mark.parametrize("n,a,expected", [
    (2, 1, Fraction(8, 3)),
    (1, 1, Fraction(1)),
    (3, 1, Fraction(81, 16)),
])
def test_expectation_sum_examples(n, a, expected):
    assert expectation_sum(n, a) == expected


def test_sum_plus_area_expectations():
    for n in range(1, 30):
        for a in range(1, 5):
            total = Fraction(n * (2 * a + n - 1), 2)
            assert expectation_sum(n, a) + expectation_area(n, a) == total


def test_expectation_area_equals_jet_ratio():
    jets = jet_many([(n, a) for n in range(1, 26) for a in range(1, 4)], 1)
    for (n, a), jet in jets.items():
        assert expectation_area(n, a) == Fraction(jet.values[1], count(n, a))


def test_expectation_area_w_relation():
    for n in range(1, 61):
        assert expectation_area(n, 1) == Fraction(-n, 2) + w_value(n + 1) / 2


@pytest.mark.parametrize("n,a,expected", [(1, 1, 1), (2, 1, 8), (3, 1, 81)])
def test_p_prime_examples(n, a, expected):
    assert p_prime_closed(n, a) == expected


def test_p_prime_matches_sum_genfun_derivative():
    for n in range(1, 11):
        for a in range(1, 4):
            p = sum_genfun(n, a)
            assert p_prime_closed(n, a) == p.derivatives_at_one(1)[1]


def test_p_prime_satisfies_differentiated_recurrence():
    # P'(n,a)(1) - sum_{k=0..n} C(n,k) P'(n-k,a+k-1)(1) = n p(n,a)
    from parkstat.exactalg import binomial

    def pp(n, a):
        if n == 0 or a == 0:
            return 0
        return p_prime_closed(n, a)

    for n in range(1, 13):
        for a in range(1, 4):
            rhs = n * count(n, a)
            lhs = pp(n, a) - sum(binomial(n, k) * pp(n - k, a + k - 1)
                                 for k in range(0, n + 1))
            assert lhs == rhs, (n, a)


def test_factorial_moments_examples():
    assert factorial_moments(3, 1, 2) == [Fraction(15, 16), Fraction(3, 4)]
    assert factorial_moments(2, 1, 2) == [Fraction(1, 3), Fraction(0)]
    assert factorial_moments(1, 1, 4) == [Fraction(0)] * 4


def test_stirling_numbers():
    known = {(0, 0): 1, (1, 1): 1, (4, 2): 7, (5, 3): 25, (6, 3): 90,
             (4, 5): 0, (3, 0): 0}
    for (j, k), v in known.items():
        assert stirling2(j, k) == v


def test_convert_moments_example():
    raw, central, scaled = convert_moments([Fraction(15, 16), Fraction(3, 4)])
    assert raw == (Fraction(15, 16), Fraction(27, 16))
    assert central[0] == 0
    assert central[1] == Fraction(207, 256)
    assert scaled is not None
    assert scaled[1] == (Fraction(207, 256), Fraction(1))


def test_convert_moments_zero_variance_flag():
    raw, central, scaled = convert_moments([Fraction(0), Fraction(0)])
    assert scaled is None


def test_convert_moments_central1_always_zero():
    import random
    rng = random.Random(3)
    for _ in range(50):
        fact = [Fraction(rng.randint(0, 30), rng.randint(1, 9))
                for _ in range(4)]
        _, central, _ = convert_moments(fact)
        assert central[0] == 0


def test_convert_matches_direct_polynomial_moments():
    from parkstat.genfun_engine import area_genfun
    for n in range(2, 21):
        gf = area_genfun(n, 1)
        total = gf.total
        raw_direct = [
            Fraction(sum(c * m**j for m, c in enumerate(gf.poly.coeffs)), total)
            for j in range(1, 5)
        ]
        table = moment_table(n, 1, 4)
        assert list(table.raw) == raw_direct


def test_moment_table_scaled_second_is_one():
    table = moment_table(5, 1, 3)
    assert table.scaled_decimal(2, 20) == Decimal(1)
    assert table.variance > 0


def test_moment_table_zero_variance():
    table = moment_table(1, 1, 2)
    assert table.scaled is None
    with pytest.raises(ValueError):
        table.scaled_decimal(2)


def test_scaled_histogram_small():
    hist = scaled_histogram(2, 1)
    assert [(r.area, r.count) for r in hist.rows] == [(0, 2), (1, 1)]
    assert hist.mean == Fraction(1, 3)
    assert hist.total == 3
    hist3 = scaled_histogram(3, 1)
    assert [(r.area, r.count) for r in hist3.rows] == \
           [(0, 6), (1, 6), (2, 3), (3, 1)]
    # x columns are antisymmetric around the mean in sign
    assert hist3.rows[0].x.startswith("-")
    assert not hist3.rows[-1].x.startswith("-")


def test_scaled_histogram_density_integrates_to_one():
    hist = scaled_histogram(6, 1, precision=18)
    sigma = sqrt_decimal(hist.variance, 30)
    total = sum(Decimal(r.density) for r in hist.rows) / sigma
    assert abs(total - 1) < Decimal("1e-12")


def test_scaled_histogram_csv_shape():
    hist = scaled_histogram(4, 1)
    lines = hist.to_csv().strip().split("\n")
    assert lines[0] == "area,count,x,density"
    assert len(lines) == 1 + len(hist.rows)
    assert all(len(line.split(",")) == 4 for line in lines[1:])


def test_scaled_histogram_needs_n_at_least_two():
    with pytest.raises(ValueError):
        scaled_histogram(1, 1)
