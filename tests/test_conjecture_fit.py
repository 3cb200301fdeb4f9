"""Tests for the moment identities: derived, re-checked, and equal to the
dense solve of tests/reference.py."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkstat import conjecture_fit, exactalg, genfun_engine
from parkstat.cli import main as cli_main
from parkstat.conjecture_fit import (MomentAnsatz, fit_moment,
                                     leading_asymptotics, verify_fit)
from parkstat.exactalg import SymPoly
from reference import dense_fit, monomials

# the known second-factorial-moment identity:
#   E_2 = -7/3 (n+1) E_1 + 5/12 n^3 - 1/12 n^2 - 1/3 n
SECOND_A = SymPoly(("n",), {(3,): Fraction(5, 12), (2,): Fraction(-1, 12),
                            (1,): Fraction(-1, 3)})
SECOND_B = SymPoly(("n",), {(1,): Fraction(-7, 3), (0,): Fraction(-7, 3)})


def test_fit_first_moment_is_identity():
    fit = fit_moment(1)
    assert fit.status == "verified"
    assert fit.a_poly.is_zero()
    assert fit.b_poly == SymPoly(("n",), {(0,): 1})


def test_fit_second_moment_reproduces_known_coefficients():
    fit = fit_moment(2)
    assert fit.status == "verified"
    assert not fit.escalated
    assert fit.a_poly == SECOND_A
    assert fit.b_poly == SECOND_B
    assert len(fit.holdout_verified) >= 5


def test_fit_third_moment_lead_terms():
    fit = fit_moment(3)
    assert fit.status == "verified"
    assert fit.b_poly.coeff_of((3,)) == Fraction(15, 32)
    assert fit.b_poly.coeff_of((0,)) == Fraction(743, 96)
    assert fit.a_poly.coeff_of((4,)) == Fraction(-175, 192)


def test_fit_fourth_moment_lead_term():
    fit = fit_moment(4)
    assert fit.status == "verified"
    assert fit.a_poly.coeff_of((6,)) == Fraction(221, 1008)
    assert fit.b_poly.coeff_of((4,)) == Fraction(-35, 16)


def test_verify_fit_extra_points():
    fit = fit_moment(2)
    before = len(fit.holdout_verified)
    assert verify_fit(fit, [(20, 1), (31, 1)])
    assert len(fit.holdout_verified) == before + 2


def test_verify_fit_detects_corruption():
    fit = fit_moment(2)
    terms = dict(fit.a_poly.terms)
    terms[(0,)] = terms.get((0,), 0) + 1
    fit = fit._replace(a_poly=SymPoly(("n",), terms))
    assert not verify_fit(fit, [(18, 1)])


def test_verify_fit_requires_verified_status():
    fit = fit_moment(2)._replace(status="inconsistent")
    with pytest.raises(ValueError):
        verify_fit(fit, [(12, 1)])


def test_leading_asymptotics_even_and_odd():
    lead2, exp2 = leading_asymptotics(fit_moment(2))
    assert (lead2.r, lead2.h, exp2) == (Fraction(5, 12), 0, Fraction(3))
    lead3, exp3 = leading_asymptotics(fit_moment(3))
    assert (lead3.r, lead3.h, exp3) == (Fraction(15, 128), 1, Fraction(9, 2))


def test_fit_stability_under_larger_sample():
    base = fit_moment(2)
    wide = fit_moment(2, n_max=25)
    assert wide.a_poly == base.a_poly
    assert wide.b_poly == base.b_poly


def _at_a_one(poly: SymPoly) -> SymPoly:
    """An (n, a) polynomial with a = 1 substituted, as a polynomial in n."""
    terms = {}
    for (i, j), c in poly.terms.items():
        terms[(i,)] = terms.get((i,), Fraction(0)) + c
    return SymPoly(("n",), terms)


def test_fit_general_a_restricts_to_classical():
    fit = fit_moment(2, general_a=True)
    assert fit.status == "verified"
    # substitute a = 1 and compare with the known n-only polynomials
    assert _at_a_one(fit.a_poly) == SECOND_A
    assert _at_a_one(fit.b_poly) == SECOND_B


def test_fit_general_a_k5_restricts_to_classical():
    fit = fit_moment(5, general_a=True)
    assert fit.status == "verified"
    assert not fit.escalated
    classical = fit_moment(5)
    assert classical.status == "verified"
    assert _at_a_one(fit.a_poly) == classical.a_poly
    assert _at_a_one(fit.b_poly) == classical.b_poly


@pytest.mark.parametrize("k,general_a",
                         [(k, True) for k in range(1, 6)]
                         + [(k, False) for k in range(1, 9)])
def test_derived_identity_equals_dense_solve(k, general_a):
    # k = 5 in (n, a) is 211 unknowns, the largest system the suite solves
    fit = fit_moment(k, general_a=general_a)
    assert fit.status == "verified" and not fit.escalated
    assert (fit.a_poly, fit.b_poly) == dense_fit(k, general_a)


def test_fit_general_a_k8_restricts_to_classical():
    fit = fit_moment(8, general_a=True)
    assert fit.status == "verified"
    assert len(fit.samples_used) == 625 and len(fit.holdout_verified) == 25
    classical = fit_moment(8)
    assert _at_a_one(fit.a_poly) == classical.a_poly
    assert _at_a_one(fit.b_poly) == classical.b_poly


@functools.lru_cache(maxsize=None)
def general_fit(k: int):
    return fit_moment(k, general_a=True)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 6), n=st.integers(1, 80), a=st.integers(1, 30))
def test_derived_identity_holds_off_the_grid(k, n, a):
    assert verify_fit(general_fit(k), [(n, a)])


def test_default_fits_reach_no_solve(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the dense solve ran")

    # a copy of solve_exact imported under another name escapes the first
    # patch, but every solve needs a LinSys, and the second refuses to
    # build one however the class was imported
    monkeypatch.setattr(exactalg, "solve_exact", refuse)
    monkeypatch.setattr(exactalg.LinSys, "__init__", refuse)
    for k in ("1", "3", "6"):
        assert cli_main(["fit", "--k", k]) == 0
        assert cli_main(["fit", "--k", k, "--general-a"]) == 0
    assert capsys.readouterr().out.count("verified on") == 6


def test_fit_builds_each_shift_table_once():
    # the derivation reads shifts 1..3k and the re-check's jets 1..3k+1,
    # all at order k: one build per shift
    genfun_engine._shift_table.cache_clear()
    assert fit_moment(3, general_a=True).status == "verified"
    assert genfun_engine._shift_table.cache_info().misses == 10


def test_derived_identity_that_misses_is_reported(monkeypatch, capsys):
    # a derived identity that fails its re-check is exit 4 with the first
    # failing grid point, and no identity is printed
    derive = conjecture_fit._derive

    def off_by_one(k, symbols):
        a_poly, b_poly = derive(k, symbols)
        terms = dict(a_poly.terms)
        terms[(0,) * len(symbols)] = terms.get((0,) * len(symbols), 0) + 1
        return SymPoly(symbols, terms), b_poly

    monkeypatch.setattr(conjecture_fit, "_derive", off_by_one)
    fit = fit_moment(3)
    assert (fit.status, fit.witness) == ("inconsistent", (1, 1))
    assert fit.a_poly.is_zero() and fit.b_poly.is_zero()
    assert not fit.holdout_verified
    assert cli_main(["fit", "--k", "3", "--general-a"]) == 4
    assert capsys.readouterr().out == "fit failed: inconsistent, witness (1, 1)\n"


@pytest.mark.parametrize("data_follows", [False, True])
def test_derived_identity_outside_the_bounds_fails(monkeypatch, capsys,
                                                   data_follows):
    # a derived term one degree past deg A is a failed fit, never a wider
    # bound.  n^(deg A + 1) vanishes at no grid point, so the re-check
    # misses at the first sample; with E_k moved by the same term the
    # re-check passes and only the bound refuses it (witness None)
    deg = MomentAnsatz.default(3).deg_a + 1
    derive, moment_data = conjecture_fit._derive, conjecture_fit._moment_data

    def widened(k, symbols):
        a_poly, b_poly = derive(k, symbols)
        return SymPoly(symbols, {**a_poly.terms, (deg,): 1}), b_poly

    def moved(points, k):
        return {(n, a): (ek + n ** deg, e1)
                for (n, a), (ek, e1) in moment_data(points, k).items()}

    monkeypatch.setattr(conjecture_fit, "_derive", widened)
    if data_follows:
        monkeypatch.setattr(conjecture_fit, "_moment_data", moved)
    witness = None if data_follows else (1, 1)
    fit = fit_moment(3)
    assert (fit.status, fit.witness) == ("inconsistent", witness)
    assert fit.a_poly.is_zero() and fit.b_poly.is_zero()
    assert cli_main(["fit", "--k", "3"]) == 4
    assert capsys.readouterr().out == f"fit failed: inconsistent, witness {witness}\n"


def test_fit_general_a_key_coefficients():
    fit = fit_moment(2, general_a=True)
    assert fit.b_poly.coeff_of((1, 0)) == Fraction(-7, 3)  # the n term
    assert fit.b_poly.coeff_of((0, 3)) == Fraction(-1, 3)  # the a^3 term
    assert fit.a_poly.coeff_of((1, 4)) == Fraction(1, 6)   # the n a^4 term


def test_ansatz_defaults_and_escalation():
    ans = MomentAnsatz.default(4)
    assert (ans.deg_a, ans.deg_b) == (6, 4)
    ans2 = MomentAnsatz.default(2, general_a=True)
    assert (ans2.deg_a, ans2.deg_b) == (5, 3)
    assert ans2.unknowns == 21 + 10


def test_ansatz_basis_ordering():
    ans = MomentAnsatz(k=2, symbols=("n", "a"), deg_a=2, deg_b=1)
    assert monomials(ans.symbols, ans.deg_a) == [(0, 0), (0, 1), (1, 0),
                                                 (0, 2), (1, 1), (2, 0)]
    assert monomials(ans.symbols, ans.deg_b) == [(0, 0), (0, 1), (1, 0)]
    assert ans.unknowns == 9


def test_leading_asymptotics_matches_airy_recurrence_at_7_and_8():
    # the data-driven fits independently confirm the transcribed moment
    # recurrence beyond the six pinned values
    from parkstat.airy import airy_moments

    moments = airy_moments(8)
    for k in (7, 8):
        lead, exp = leading_asymptotics(fit_moment(k))
        assert (lead.r, lead.h) == (moments[k - 1].r, moments[k - 1].h)
        assert exp == Fraction(3 * k, 2)


def test_fit_json_and_text_output():
    fit = fit_moment(2)
    obj = fit.to_json_obj()
    assert obj["status"] == "verified"
    assert obj["k"] == 2
    assert {"powers": {"n": 3}, "coeff": "5/12"} in obj["A"]
    text = fit.theorem_text()
    assert "E_2(n)" in text and "5/12*n^3" in text and "E_1(n)" in text
