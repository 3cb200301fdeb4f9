"""Tests for area/sum generating polynomials and the jet engine."""

import functools
import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkstat import backend, genfun_engine
from parkstat.airy import asymptotic_check
from parkstat.conjecture_fit import fit_moment
from parkstat.cli import main as cli_main
from parkstat.counting_engine import count, verify_closed_form
from parkstat.errors import BudgetExceeded
from parkstat.exactalg import PolyX
from parkstat.genfun_engine import (_sweep, abel_sum, area_genfun,
                                    area_genfun_many, jet_at_one, jet_many,
                                    suffix_sum, sum_genfun)
from parkstat.moment_lab import expectation_area, moment_table
from parkstat.parking_core import brute_histogram, max_area, oracle_pairs
from reference import (convolution_jets, derivatives_at_one, diagonal_cells,
                       reference_jets, sweep_cells)


def test_area_genfun_examples():
    assert area_genfun(0, 3).poly == PolyX([1])
    assert area_genfun(2, 1).poly == PolyX([2, 1])
    assert area_genfun(3, 1).poly == PolyX([6, 6, 3, 1])
    assert area_genfun(5, 0).poly == PolyX.zero()


def test_area_genfun_matches_brute_force():
    for n in range(0, 6):
        for a in range(1, 4):
            assert brute_histogram(n, a) == area_genfun(n, a), (n, a)


def test_area_genfun_invariants():
    for n in range(1, 13):
        for a in range(1, 4):
            gf = area_genfun(n, a)
            assert gf.total == a * (a + n) ** (n - 1) == count(n, a)
            assert len(gf.poly.coeffs) - 1 == n * (2 * a + n - 3) // 2 == max_area(n, a)
            assert gf.poly.coeffs[-1] == 1
        assert area_genfun(n, 1).poly.coeffs[0] == math.factorial(n)


def test_area_genfun_many_shares_sweep():
    targets = [(n, a) for n in range(0, 8) for a in range(0, 4)]
    table = area_genfun_many(targets)
    for n, a in targets:
        assert table[(n, a)].poly == area_genfun(n, a).poly


def test_sum_genfun_examples():
    assert sum_genfun(2, 1) == PolyX([0, 0, 1, 2])       # x^2 + 2x^3
    assert sum_genfun(1, 1) == PolyX([0, 1])             # x
    assert sum_genfun(3, 1) == PolyX([0, 0, 0, 1, 3, 6, 6])


def test_sum_genfun_invariants():
    for n in range(1, 10):
        for a in range(1, 4):
            p = sum_genfun(n, a)
            assert p.eval_one() == count(n, a)
            assert len(p.coeffs) - 1 == n * (2 * a + n - 1) // 2
            lowest = next(m for m, c in enumerate(p.coeffs) if c)
            assert lowest == n  # the all-ones function


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 16), a=st.integers(1, 10))
def test_area_and_sum_genfun_properties(n, a):
    coeffs = area_genfun(n, a).poly.coeffs
    total = sum(coeffs)
    assert total == a * (a + n) ** (n - 1)
    assert coeffs[-1] == 1
    assert len(coeffs) - 1 == max_area(n, a)
    # the mean area against the Abel-sum closed form, an independent path
    assert Fraction(sum(m * c for m, c in enumerate(coeffs)), total) == expectation_area(n, a)
    # x^n is the lowest term: only the all-ones function sums to n
    assert sum_genfun(n, a).coeffs[:n + 1] == (0,) * n + (1,)


def test_sum_genfun_needs_positive_n():
    with pytest.raises(ValueError):
        sum_genfun(0, 1)


def test_jet_examples():
    assert jet_at_one(3, 1, 2).values == (16, 15, 12)
    assert jet_at_one(2, 1, 1).values == (3, 1)
    for n, a in [(4, 1), (3, 2), (5, 3)]:
        assert jet_at_one(n, a, 0).values == (a * (a + n) ** (n - 1),)


def test_jet_boundaries():
    assert jet_at_one(0, 4, 3).values == (1, 0, 0, 0)
    assert jet_at_one(0, 0, 1).values == (1, 0)
    assert jet_at_one(5, 0, 2).values == (0, 0, 0)
    assert jet_many([], 3) == {}
    for bad in [(-1, 1), (2, -1)]:
        with pytest.raises(ValueError):
            jet_many([bad], 2)
    with pytest.raises(ValueError):
        jet_many([(3, 1)], -1)


def test_jets_match_polynomial_derivatives():
    for n in range(0, 16):
        for a in (1, 2):
            expected = derivatives_at_one(area_genfun(n, a).poly.coeffs, 4)
            assert jet_at_one(n, a, 4).values == expected


def test_jet_many_shares_sweep():
    targets = [(n, 1) for n in range(1, 20)]
    jets = jet_many(targets, 3)
    for n, _ in targets:
        assert jets[(n, 1)].values == jet_at_one(n, 1, 3).values


def triangle_jets(targets, order):
    """Jets from the anti-diagonal triangle recurrence (kernels.jet_step)."""
    raw = _sweep(targets, [1] + [0] * order,
                 lambda prev, s, n_cap, binom:
                 backend.kernels.jet_step(prev, s, n_cap, order, binom),
                 None)
    fact = [math.factorial(i) for i in range(order + 1)]
    return {state: (0,) * (order + 1) if taylor is None
            else tuple(t * f for t, f in zip(taylor, fact))
            for state, taylor in raw.items()}


@pytest.mark.parametrize("targets,order", [
    ([(n, 1) for n in range(0, 61)], 8),
    ([(n, a) for n in range(0, 31) for a in range(0, 9)], 6),
    ([(n, a) for n in range(0, 13) for a in (3, 17, 40)], 4),
], ids=["classical n<=60 K=8", "n<=30 a<=8 K=6", "sparse shifts n<=12 K=4"])
def test_convolution_matches_triangle(targets, order):
    want = triangle_jets(targets, order)
    got = jet_many(targets, order)
    assert {state: jet.values for state, jet in got.items()} == want


def test_wright_polynomials_pinned():
    # Wright (1977): P_1 = T^4 (6 - T)/24, P_2 = T^4 (2 + 28T - 23T^2 + 9T^3 - T^4)/48
    p1, p2 = ([Fraction(c, den) for c in coeffs]
              for _, coeffs, den in (genfun_engine._wright(k)[1] for k in (1, 2)))
    assert p1 == [0] * 4 + [Fraction(c, 24) for c in (6, -1)]
    assert p2 == [0] * 4 + [Fraction(c, 48) for c in (2, 28, -23, 9, -1)]
    for k in range(1, 8):
        level, coeffs, den = genfun_engine._wright(k)[1]
        assert level == 3 * k
        assert len(coeffs) == 3 * k + 3 and coeffs[-1] != 0
        assert math.gcd(den, *coeffs) == 1


def derivative_values(taylor):
    return tuple(t * math.factorial(i) for i, t in enumerate(taylor))


def test_wright_jets_match_convolution():
    ref = convolution_jets(150, 1, 9)
    lengths = list(range(0, 151))
    got = jet_many([(n, 1) for n in lengths + [400]], 8)
    for n in lengths:
        assert got[(n, 1)].values == derivative_values(ref[n]), n
    # sha256 of the convolution's values at n = 400, which takes seconds
    blob = repr([got[(400, 1)].values]).encode()
    assert hashlib.sha256(blob).hexdigest() == \
        "78fd6c6478e7e5bf87f27bc25fc47bd9a8660dd4ee0be929e9485f51c204d95c"


SHIFT_GRID = [(n, a) for n in range(0, 61) for a in range(0, 11)]


@functools.lru_cache(maxsize=None)
def shift_grid_reference():
    return reference_jets(SHIFT_GRID, 8)


@pytest.mark.parametrize("order", range(0, 9))
def test_shifted_jets_match_convolution_reference(order):
    want = shift_grid_reference()
    got = jet_many(SHIFT_GRID, order)
    for state in SHIFT_GRID:
        assert got[state].values == want[state][:order + 1], state


def test_short_lengths_at_high_order_stop_at_the_degree(monkeypatch):
    # orders above deg Q(n,a) = n(2a+n-3)/2 are zeros, so no shift table is
    # built past the degree of its longest state
    tops = []
    shift_table = genfun_engine._shift_table

    def recorded(a, top):
        tops.append(top)
        return shift_table(a, top)

    monkeypatch.setattr(genfun_engine, "_shift_table", recorded)
    for n, a, order in [(3, 1, 50), (10, 1, 30), (5, 3, 30)]:
        expected = derivatives_at_one(area_genfun(n, a).poly.coeffs, order)
        assert jet_at_one(n, a, order).values == expected
        assert tops.pop() == min(order, max_area(n, a))


@functools.lru_cache(maxsize=None)
def classical_convolution(n_max, width):
    return convolution_jets(n_max, 1, width)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 150), order=st.integers(0, 8))
def test_wright_jets_equal_convolution_property(n, order):
    expected = derivative_values(classical_convolution(150, 9)[n][:order + 1])
    assert jet_at_one(n, 1, order).values == expected


@functools.lru_cache(maxsize=None)
def shift_reference(a):
    return reference_jets([(n, a) for n in range(0, 61)], 8)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 60),
       a=st.one_of(st.integers(0, 12), st.sampled_from([17, 40, 100, 300])),
       order=st.integers(0, 8))
def test_jets_equal_convolution_reference_property(n, a, order):
    expected = shift_reference(a)[(n, a)][:order + 1]
    assert jet_at_one(n, a, order).values == expected
    # the suffix sums, which count and the fits' re-check read
    assert suffix_sum(n, a, order) == expected[order]


def test_jets_equal_suffix_sums_at_long_lengths():
    # the identity's head terms and Abel sum against the term-by-term
    # suffix sums, far past the convolution reference's reach
    got = jet_many([(1600, 1), (2000, 7)], 8)
    for (n, a), jet in got.items():
        for order, value in enumerate(jet.values):
            assert value == suffix_sum(n, a, order), (n, a, order)


def test_jets_equal_suffix_sums_at_high_order():
    # orders above 8 at a long length, which the convolution reference
    # cannot reach in test time
    got = jet_many([(300, 1), (300, 3)], 20)
    for (n, a), jet in got.items():
        assert len(jet.values) == 21
        for order, value in enumerate(jet.values):
            assert value == suffix_sum(n, a, order), (n, a, order)


def test_jets_equal_convolution_reference_sparse_and_long():
    sparse = [(n, a) for n in range(0, 25) for a in (17, 40, 100, 300)]
    long = [(100, 2), (200, 5), (150, 300)]
    targets = sparse + long
    got = jet_many(targets, 8)
    want = reference_jets(targets, 8)
    for state in targets:
        assert got[state].values == want[state], state


def test_long_shifted_jets_golden():
    # sha256 of the values the O(n^2 K^2) convolution gives; it takes
    # several seconds per state at n = 400, too slow to run as the reference
    got = jet_many([(400, 2), (400, 300)], 8)
    blob = repr([got[state].values for state in sorted(got)]).encode()
    assert hashlib.sha256(blob).hexdigest() == \
        "07482edd5b690c7cfb2033c03649b155f8b09d461be2a2d5c01af812293f1e9c"


def naive_abel_sum(n, b):
    total, falling = 0, 1
    for l in range(n + 1):
        total += falling * b ** (n - l)
        falling *= n - l
    return total


@pytest.mark.parametrize("n,a", [(n, a) for n in (0, 1, 2, 3, 17, 64, 65)
                                 for a in (1, 2, 7)] + [(2000, 1), (2000, 7)])
def test_abel_sum_equals_the_term_by_term_sum(n, a):
    # 17 and 65 split unevenly, where b^(hi-mid) and b^(mid-lo) differ
    assert abel_sum(n, a + n) == naive_abel_sum(n, a + n)


def test_shift_table_entries_have_two_head_terms():
    # the module docstring proves len(p) <= L + 2 for every entry, so the
    # identity reads head terms at l = 0 and 1 only; this spot-checks it
    for a in (1, 2, 3, 7, 40, 300):
        for L, p, _ in genfun_engine._shift_table(a, 32)[1:]:
            assert len(p) <= L + 2, (a, L, len(p))


def gregory_coefficients(count):
    # y/log(1+y) by inverting the series log(1+y)/y = sum_i (-1)^i y^i/(i+1)
    h = [Fraction((-1) ** i, i + 1) for i in range(count)]
    g = [Fraction(1)]
    for m in range(1, count):
        g.append(-sum(h[i] * g[m - i] for i in range(1, m + 1)))
    return g


def test_wright_leading_coefficients_are_the_gregory_coefficients():
    # steps 2 and 3 of the module docstring's proof: theta W_k ~ l_k T at
    # T = infinity, l_k obeys the recurrence read off Wright's, and
    # sum_k l_k y^(k+1) = y/log(1+y), for k = -1..30
    gregory = gregory_coefficients(32)
    lead = [Fraction(1), Fraction(1, 2)]
    for k in range(30):
        pairs = sum(lead[i + 1] * lead[k - i + 1] for i in range(k + 1))
        lead.append(-(k * lead[k + 1] + pairs) / (k + 3))
    assert lead == gregory
    thetas = genfun_engine._wright(31)[0]
    assert len(thetas) == 33
    for k, (L, p, d) in enumerate(thetas[:32], -1):
        assert len(p) - 1 - L == 1, k  # ord theta W_k = 1 exactly
        assert Fraction(p[-1] * (-1) ** L, d) == gregory[k + 1], k


def _pmul(p: PolyX, q: PolyX) -> PolyX:
    out = [0] * (len(p.coeffs) + len(q.coeffs))
    for i, c in enumerate(p.coeffs):
        for j, d in enumerate(q.coeffs):
            out[i + j] += c * d
    return PolyX(out)


def test_exponential_formula_law_as_polynomials():
    # Q(n,a) = sum_i C(n-1,i) [a(i+1)]_x Q(i,1) Q(n-1-i,a); at a = 1 it is
    # the Kreweras convolution
    grid = [(10, a) for a in range(1, 8)] + [(6, 13), (6, 40)]
    states = [(n, b) for n_max, a in grid for n in range(n_max + 1) for b in (1, a)]
    q = {state: gf.poly for state, gf in area_genfun_many(states).items()}
    for n_max, a in grid:
        for n in range(1, n_max + 1):
            rhs = []
            for i in range(n):
                term = _pmul(PolyX([1] * (a * (i + 1))),
                             _pmul(q[(i, 1)], q[(n - 1 - i, a)]))
                rhs += [0] * (len(term.coeffs) - len(rhs))
                for m, c in enumerate(term.coeffs):
                    rhs[m] += math.comb(n - 1, i) * c
            assert PolyX(rhs) == q[(n, a)], (n, a)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 25), a=st.integers(0, 6), order=st.integers(0, 6))
def test_jets_equal_polynomial_derivatives_property(n, a, order):
    expected = derivatives_at_one(area_genfun(n, a).poly.coeffs, order)
    assert jet_at_one(n, a, order).values == expected


def test_production_paths_avoid_the_triangle(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the triangle kernels are test-only cross-checks")

    monkeypatch.setattr(backend.kernels, "jet_step", refuse)
    monkeypatch.setattr(backend.kernels, "count_step", refuse)
    assert jet_many([(12, 1), (7, 3)], 4)[(12, 1)].values[0] == 13 ** 11
    assert jet_many([(400, 1)], 8)[(400, 1)].values[0] == 401 ** 399
    assert moment_table(30, 2, 4).factorial[0] > 0
    assert moment_table(100, 1, 8).factorial[0] > 0
    assert len(asymptotic_check(3, [10, 20]).rows) == 6
    assert len(asymptotic_check(8, [100, 400]).rows) == 16
    assert fit_moment(2).status == "verified"
    assert count(30, 4) == 4 * 34 ** 29
    assert count(300) == 301 ** 299
    assert count(300, 5) == 5 * 305 ** 299
    assert verify_closed_form(10, 11).ok
    assert cli_main(["count", "--n", "50"]) == 0
    assert capsys.readouterr().out == f"{51 ** 49}\n"
    assert cli_main(["verify", "--suite", "closed-form"]) == 0


def test_jets_and_moments_never_run_the_suffix_sums(monkeypatch):
    # jets come from the moment identity alone; suffix_sum is the checks'
    # independent evaluation
    def refuse(*args, **kwargs):
        raise AssertionError("suffix_sum is the checks' path, not the jets'")

    monkeypatch.setattr(genfun_engine, "suffix_sum", refuse)
    assert jet_many([(400, 2)], 8)[(400, 2)].values[0] == 2 * 402 ** 399
    assert moment_table(100, 1, 8).factorial[0] > 0
    assert len(asymptotic_check(8, [100, 400]).rows) == 16


def test_genfun_budget_guard():
    with pytest.raises(BudgetExceeded):
        area_genfun(500, 1, budget=10**5)
    # the guard is O(1) in n, so a length no sweep could reach is refused
    with pytest.raises(BudgetExceeded):
        area_genfun(10**23, 1)


def required_cells(targets) -> int:
    """The slots the guard predicts for `targets` (a budget of -1 trips on
    every request)."""
    with pytest.raises(BudgetExceeded) as exc:
        area_genfun_many(targets, budget=-1)
    return exc.value.required


def test_cell_guard_closed_form_matches_the_diagonal_scan():
    # on each side of s - 1 = n_cap the count of a diagonal is a polynomial
    # of degree at most 3 in s and n_cap, so this grid covers every size;
    # (0, 0) is s_max = 0, and n_cap = 0 is the shift-only column
    for n_cap in range(41):
        for s_max in range(n_cap, n_cap + 61):
            targets = [(n_cap, s_max - n_cap)]
            assert required_cells(targets) == sweep_cells(targets), targets
    pairs = oracle_pairs(10**6)
    assert required_cells(pairs) == sweep_cells(pairs)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 30)), min_size=1, max_size=6))
def test_cell_guard_on_target_sets(targets):
    assert required_cells(targets) == sweep_cells(targets)


def test_cell_guard_at_one_million_sums_the_last_two_diagonals():
    # every diagonal holds at least as many slots as the one before, so the
    # scan's peak is its last pair, here counted term by term
    n = 10**6
    harvest = n * (n - 1) // 2 + 1
    assert required_cells([(n, 1)]) == (diagonal_cells(n, n) + diagonal_cells(n + 1, n)
                                        + harvest) == 666666166668500002


def test_serialization():
    gf = area_genfun(3, 1)
    assert gf.to_csv() == "area,count\n0,6\n1,6\n2,3\n3,1\n"
    obj = gf.to_json_obj()
    assert obj["total"] == "16"
    assert obj["counts"]["3"] == "1"
    assert jet_at_one(3, 1, 2).values == (16, 15, 12)
