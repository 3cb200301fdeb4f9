"""Tests for the Airy moments and the convergence report."""

import decimal
from decimal import ROUND_FLOOR, Decimal, Inexact, Rounded, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkstat.airy import airy_moments, asymptotic_check
from parkstat.exactalg import quotient_decimal, sqrt_decimal, to_sig_str
from parkstat.moment_lab import scaled_histogram
from reference import fraction_hist_rows, fraction_ratio_rows

# independently known values of the first six moments; they pin the
# transcription of the moment recurrence
PINNED = [
    (Fraction(1, 4), 1),
    (Fraction(5, 12), 0),
    (Fraction(15, 128), 1),
    (Fraction(221, 1008), 0),
    (Fraction(565, 8192), 1),
    (Fraction(82825, 576576), 0),
]


def test_first_six_moments_pinned():
    moments = airy_moments(6)
    assert [(m.r, m.h) for m in moments] == PINNED


def test_parity_invariant():
    for k, m in enumerate(airy_moments(12), 1):
        assert m.h == k % 2
        assert m.r > 0


def test_airy_moments_validation():
    with pytest.raises(ValueError):
        airy_moments(0)


def test_asymptotic_check_small_grid():
    report = asymptotic_check(2, [9, 36, 144])
    # k = 2 ends at deviation 0.2533 at n = 144, just above THRESHOLD = 1/4
    assert [s.below_threshold for s in report.per_k] == [True, False]
    assert len(report.rows) == 6
    for summary in report.per_k:
        assert summary.decreasing  # deviations shrink as n quadruples


def test_asymptotic_check_ratio_value_at_tiny_n():
    # second moment at n = 3: E_2 = 3/4 against e_2 * 27 = 45/4, ratio 1/15
    report = asymptotic_check(2, [3, 12])
    row = next(r for r in report.rows if r.k == 2 and r.n == 3)
    assert row.ratio == "0.066666666666666666667"  # 1/15 at 20 digits
    assert row.deviation.startswith("0.9333333333")


def test_asymptotic_check_ratio_is_zero_at_n_1():
    # Q(1,1) = 1 has no area, so every E_k(1,1) with k >= 1 is 0: the ratio's
    # numerator is zero
    report = asymptotic_check(3, [1, 4])
    rows = [r for r in report.rows if r.n == 1]
    assert [(r.ratio, r.deviation) for r in rows] == [("0", "1.0000000000000000000")] * 3


def test_asymptotic_check_deviation_halves_when_n_quadruples():
    # the n^(-1/2) error scale: dev(4n)/dev(n) should sit in (0.3, 0.8)
    report = asymptotic_check(2, [50, 200])
    for k in (1, 2):
        devs = [Decimal(r.deviation) for r in report.rows if r.k == k]
        ratio = devs[1] / devs[0]
        assert Decimal("0.3") < ratio < Decimal("0.8"), (k, ratio)


@settings(max_examples=25, deadline=None)
@given(order=st.integers(1, 8),
       grid=st.lists(st.integers(1, 400), min_size=1, max_size=4, unique=True).map(sorted),
       n=st.integers(2, 30), a=st.integers(1, 5), precision=st.integers(1, 40))
def test_ratio_and_x_strings_match_fraction_reference(order, grid, n, a, precision):
    # the engines divide unreduced integers; correctly rounded division
    # gives the reduced-Fraction rendering's digits exactly
    report = asymptotic_check(order, grid)
    assert [tuple(r) for r in report.rows] == fraction_ratio_rows(order, grid)
    hist = scaled_histogram(n, a, precision)
    coeffs = [0] * (hist.rows[-1].area + 1)
    for r in hist.rows:
        coeffs[r.area] = r.count
    assert [tuple(r) for r in hist.rows] == fraction_hist_rows(coeffs, precision)


@pytest.mark.parametrize("n,a", [(2, 1), (9, 3), (30, 1)])
def test_hist_rows_at_precision_40_match_fraction_reference(n, a):
    hist = scaled_histogram(n, a, 40)
    coeffs = [0] * (hist.rows[-1].area + 1)
    for r in hist.rows:
        coeffs[r.area] = r.count
    assert [tuple(r) for r in hist.rows] == fraction_hist_rows(coeffs, 40)


def test_renderers_ignore_the_thread_decimal_context():
    # every helper takes its digits as an argument and rounds in a Context
    # from exactalg.decimal_context, whose fields are all set there: neither
    # an ambient context that keeps 3 digits, rounds down and traps every
    # rounding, nor a DefaultContext that traps roundings and narrows the
    # exponent range, changes a digit or an exponent, or raises
    def render():
        return (scaled_histogram(12, 2, 40), asymptotic_check(3, [10, 40]),
                quotient_decimal(10**60 + 7, 3**50, 45), sqrt_decimal(2, 7**30, 45),
                to_sig_str(Decimal("9.96"), 2))

    def assert_same(got, want):
        assert got == want
        assert [x.as_tuple() for x in got[2:4]] == [x.as_tuple() for x in want[2:4]]

    want = render()
    with localcontext() as ctx:
        ctx.prec = 3
        ctx.rounding = ROUND_FLOOR
        ctx.traps[Inexact] = ctx.traps[Rounded] = True
        got = render()
    assert_same(got, want)

    # a new Context copies each field it is not given from DefaultContext;
    # this thread's own context already exists (localcontext above read
    # it), so the edit reaches only Contexts built while it lasts
    default = decimal.DefaultContext
    saved = (default.traps.copy(), default.Emin, default.Emax, default.clamp)
    try:
        default.traps[Inexact] = default.traps[Rounded] = True
        default.Emin, default.Emax, default.clamp = -5, 5, 1
        got = render()
    finally:
        default.traps, default.Emin, default.Emax, default.clamp = saved
    assert_same(got, want)


def test_asymptotic_check_grid_validation():
    with pytest.raises(ValueError):
        asymptotic_check(2, [100, 50])
    with pytest.raises(ValueError):
        asymptotic_check(2, [50, 50])
    with pytest.raises(ValueError):
        asymptotic_check(0, [10])
    with pytest.raises(ValueError):
        asymptotic_check(2, [])


def test_report_serialization():
    report = asymptotic_check(2, [4, 16])
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "k,n,ratio,deviation"
    assert len(lines) == 5
    obj = report.to_json_obj()
    assert obj["k_max"] == 2
    assert obj["moments"][0] == {"k": 1, "r": "1/4", "h": 1}
    assert len(obj["rows"]) == 4
