"""Tests for the counting recurrence, symbolic counting, and closed form."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkstat import backend
from parkstat.counting_engine import (ClosedFormReport, count, count_symbolic,
                                      verify_closed_form)
from parkstat.exactalg import SymPoly
from parkstat.genfun_engine import _sweep, jet_many
from parkstat.parking_core import brute_histogram
from reference import symbolic_counts


@pytest.mark.parametrize("n,a,expected", [
    (3, 1, 16),
    (0, 5, 1),
    (4, 0, 0),
    (2, 2, 8),
    (7, 3, 3 * 10**6),
])
def test_count_examples(n, a, expected):
    assert count(n, a) == expected


def test_count_konheim_weiss():
    for n in range(1, 61):
        assert count(n, 1) == (n + 1) ** (n - 1)


def test_count_matches_brute_totals():
    for n in range(0, 6):
        for a in range(1, 4):
            assert count(n, a) == brute_histogram(n, a).total


def test_count_monotone_in_shift():
    for n in range(1, 12):
        for a in range(1, 8):
            assert count(n, a) <= count(n, a + 1)


@pytest.mark.parametrize("targets", [
    [(n, a) for n in range(0, 41) for a in range(0, 11)],
    [(n, a) for n in range(0, 7) for a in (37, 300, 20000)],
], ids=["n<=40 a<=10", "n<=6 wide shifts"])
def test_count_matches_triangle(targets):
    # the anti-diagonal counting recurrence (kernels.count_step) is the
    # independent reference for the jet engine's order-0 counts
    want = _sweep(targets, 1, backend.kernels.count_step, None)
    jets = jet_many(targets, 0)
    assert {state: jet.values[0] for state, jet in jets.items()} == want
    assert {state: count(*state) for state in targets} == want


@given(n=st.integers(0, 60), a=st.integers(0, 40))
def test_count_equals_closed_form_property(n, a):
    assert count(n, a) == (1 if n == 0 else a * (a + n) ** (n - 1))


def test_count_rejects_negative():
    with pytest.raises(ValueError):
        count(-1, 1)
    with pytest.raises(ValueError):
        count(1, -1)


def test_count_symbolic_small():
    assert count_symbolic(0) == SymPoly(("a",), {(0,): 1})
    assert count_symbolic(1) == SymPoly(("a",), {(1,): 1})
    assert count_symbolic(2) == SymPoly(("a",), {(2,): 1, (1,): 2})
    assert count_symbolic(3) == SymPoly(("a",), {(3,): 1, (2,): 6, (1,): 9})


def test_count_symbolic_matches_closed_form():
    # count_symbolic is the closed form; the reference is the recurrence
    reference = symbolic_counts(100)
    for n in [*range(61), 100]:
        assert count_symbolic(n) == reference[n], n


@given(n=st.integers(0, 40), a=st.integers(0, 40))
def test_count_symbolic_evaluates_to_counts(n, a):
    assert count_symbolic(n).eval({"a": a}) == count(n, a)


def test_verify_closed_form_success():
    report = verify_closed_form(6, 7)
    assert report.ok
    assert report.claim == "proved"
    assert report.points_checked == 42
    assert "proved" in report.describe()


def test_verify_closed_form_checked_claim():
    report = verify_closed_form(6, 3)
    assert report.ok
    assert report.claim == "checked"


def test_verify_closed_form_single_point():
    report = verify_closed_form(1, 1)
    assert report.ok and report.points_checked == 1


def test_closed_form_report_failure_describe():
    rep = ClosedFormReport(False, 3, 5, 5, "checked", (2, 2), "identity")
    assert "FAILED" in rep.describe()
