"""Tests for area/sum generating polynomials and the jet engine."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkstat import backend
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


def _pmul(p: PolyX, q: PolyX) -> PolyX:
    out = [0] * (len(p.coeffs) + len(q.coeffs))
    for i, c in enumerate(p.coeffs):
        for j, d in enumerate(q.coeffs):
            out[i + j] += c * d
    return PolyX(out)


def test_kreweras_and_addition_laws_as_polynomials():
    q = {(n, a): area_genfun(n, a).poly for n in range(0, 11) for a in range(0, 8)}
    for n in range(1, 11):
        # Q(n,1) = sum_i C(n-1,i) [i+1]_x Q(i,1) Q(n-1-i,1)
        rhs = PolyX.zero()
        for i in range(n):
            term = _pmul(PolyX([1] * (i + 1)), _pmul(q[(i, 1)], q[(n - 1 - i, 1)]))
            rhs = rhs.add_scaled(term, math.comb(n - 1, i))
        assert rhs == q[(n, 1)]
        for a in range(2, 8):
            # addition law Q(n,a) = sum_k C(n,k) x^{kb} Q(k,a-b) Q(n-k,b);
            # b = a-1 is the shift decomposition
            for b in range(1, a):
                rhs = PolyX.zero()
                for k in range(n + 1):
                    term = _pmul(PolyX.monomial(k * b),
                                 _pmul(q[(k, a - b)], q[(n - k, b)]))
                    rhs = rhs.add_scaled(term, math.comb(n, k))
                assert rhs == q[(n, a)]


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
    assert moment_table(30, 2, 4).factorial[0] > 0
    assert len(asymptotic_check(3, [10, 20]).rows) == 6
    assert fit_moment(2).status == "verified"
    assert count(30, 4) == 4 * 34 ** 29
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
