"""Tests for area/sum generating polynomials and the jet engine."""

import functools
import hashlib
import json
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
from parkstat.genfun_engine import (_sweep, area_genfun, area_genfun_many,
                                    jet_at_one, jet_many, sum_genfun)
from parkstat.moment_lab import moment_table
from parkstat.parking_core import brute_histogram, max_area
from reference import convolution_jets, reference_jets


def test_area_genfun_examples():
    assert area_genfun(0, 3).poly == PolyX([1])
    assert area_genfun(2, 1).poly == PolyX([2, 1])
    assert area_genfun(3, 1).poly == PolyX([6, 6, 3, 1])
    assert area_genfun(5, 0).poly == PolyX.zero()


def test_area_genfun_matches_brute_force():
    for n in range(0, 6):
        for a in range(1, 4):
            gf = area_genfun(n, a)
            hist = brute_histogram(n, a)
            assert {m: c for m, c in enumerate(gf.poly.coeffs) if c} == hist.counts


def test_area_genfun_invariants():
    for n in range(1, 13):
        for a in range(1, 4):
            gf = area_genfun(n, a)
            assert gf.total == a * (a + n) ** (n - 1) == count(n, a)
            assert gf.poly.degree == n * (2 * a + n - 3) // 2 == max_area(n, a)
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
            assert p.degree == n * (2 * a + n - 1) // 2
            lowest = next(m for m, c in enumerate(p.coeffs) if c)
            assert lowest == n  # the all-ones function


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
            expected = area_genfun(n, a).poly.derivatives_at_one(4)
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
    ref = convolution_jets(400, 1, 9)
    lengths = list(range(0, 121)) + [400]
    got = jet_many([(n, 1) for n in lengths], 8)
    for n in lengths:
        assert got[(n, 1)].values == derivative_values(ref[n]), n


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
        expected = area_genfun(n, a).poly.derivatives_at_one(order)
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
    expected = area_genfun(n, a).poly.derivatives_at_one(order)
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


def test_genfun_budget_guard():
    with pytest.raises(BudgetExceeded):
        area_genfun(500, 1, budget=10**5)


def test_serialization():
    gf = area_genfun(3, 1)
    assert gf.to_csv() == "area,count\n0,6\n1,6\n2,3\n3,1\n"
    obj = json.loads(gf.to_json())
    assert obj["total"] == "16"
    assert obj["counts"]["3"] == "1"
    jet = jet_at_one(3, 1, 2)
    jobj = json.loads(jet.to_json())
    assert jobj == {"n": 3, "a": 1, "k": 2, "values": ["16", "15", "12"]}
