"""Tests for the combinatorial definitions and the brute-force oracle."""

import itertools
import math

import pytest

from parkstat.errors import BudgetExceeded
from parkstat.parking_core import (area_stat, brute_histogram, is_a_parking,
                                   max_area, oracle_pairs, sum_stat)


def _counts(gf):
    """The nonzero coefficients of an area record, as {area: count}."""
    return {m: c for m, c in enumerate(gf.poly.coeffs) if c}


def odometer_area_counts(n, a):
    """Reference oracle: visit every vector of {1..n+a-1}^n, one at a time.

    Independent of the sorted-vector enumeration the package uses; it costs
    (n+a-1)^n steps, so it serves small states only.
    """
    base = n + a - 1
    offset = n * (2 * a + n - 1) // 2
    counts = {}
    vec = [1] * n
    while True:
        srt = sorted(vec)
        if all(srt[i] <= a + i for i in range(n)):
            area = offset - sum(vec)
            counts[area] = counts.get(area, 0) + 1
        j = n - 1
        while j >= 0 and vec[j] == base:
            vec[j] = 1
            j -= 1
        if j < 0:
            return counts
        vec[j] += 1


def test_is_parking_examples():
    assert is_a_parking((3, 1, 1, 4), 1)
    assert not is_a_parking((4, 4, 4, 4), 1)
    assert is_a_parking((1, 1, 1, 1, 1), 1)
    assert not is_a_parking((2, 2), 1)


def test_is_parking_all_n_n_false():
    for n in range(2, 8):
        assert not is_a_parking((n,) * n, 1)
        assert is_a_parking((1,) * n, 1)


def test_is_parking_entry_validation():
    with pytest.raises(ValueError):
        is_a_parking((0, 1), 1)
    with pytest.raises(ValueError):
        is_a_parking((1, 2), 0)
    # oversized entries are not an error, they just fail the criterion
    assert not is_a_parking((99,), 1)


def test_sum_stat():
    assert sum_stat((1, 2, 3)) == 6
    assert sum_stat((1, 1)) == 2
    assert sum_stat((3, 1, 1, 4)) == 9


def test_area_stat_examples():
    assert area_stat((1, 2, 3), 1) == 0
    assert area_stat((1, 1), 1) == 1
    assert area_stat((1,), 1) == 0


def test_area_stat_rejects_non_parking():
    with pytest.raises(ValueError):
        area_stat((2, 2), 1)


def test_sum_plus_area_constant():
    n, a = 4, 2
    for v in itertools.product(range(1, n + a), repeat=n):
        if is_a_parking(v, a):
            assert sum_stat(v) + area_stat(v, a) == n * (2 * a + n - 1) // 2


def test_brute_histogram_small():
    h2 = brute_histogram(2, 1)
    assert _counts(h2) == {0: 2, 1: 1}
    assert h2.total == 3
    h3 = brute_histogram(3, 1)
    assert _counts(h3) == {0: 6, 1: 6, 2: 3, 3: 1}
    assert h3.total == 16
    assert brute_histogram(2, 2).total == 8


def test_brute_histogram_against_direct_enumeration():
    # independent oracle-of-the-oracle: itertools instead of the kernel
    for n, a in [(1, 1), (2, 3), (3, 2), (4, 1)]:
        direct = {}
        for v in itertools.product(range(1, n + a), repeat=n):
            if is_a_parking(v, a):
                m = area_stat(v, a)
                direct[m] = direct.get(m, 0) + 1
        assert _counts(brute_histogram(n, a)) == direct


def test_brute_histogram_totals_and_permutation_count():
    for n in range(1, 8):
        h = brute_histogram(n, 1)
        counts = _counts(h)
        assert h.total == (n + 1) ** (n - 1)
        assert counts[0] == math.factorial(n)
        top = max_area(n, 1)
        assert counts.get(top, 0) == 1  # all-ones vector only
        assert all(0 <= m <= top for m in counts)


def test_brute_histogram_n_zero():
    h = brute_histogram(0, 3)
    assert _counts(h) == {0: 1}
    assert h.total == 1


def test_brute_histogram_budget_guard():
    with pytest.raises(BudgetExceeded) as exc:
        brute_histogram(6, 1, budget=1000)
    assert exc.value.required == 6**6
    # charged for the whole superset (n+a-1)^n, not the sorted vectors visited
    for n, a in [(1, 1), (3, 2), (5, 1), (4, 4)]:
        superset = (n + a - 1) ** n
        assert brute_histogram(n, a, budget=superset).total > 0
        with pytest.raises(BudgetExceeded) as exc:
            brute_histogram(n, a, budget=superset - 1)
        assert exc.value.required == superset


def test_brute_histogram_matches_odometer():
    pairs = oracle_pairs(10**4)
    assert len(pairs) == 45
    for n, a in pairs:
        assert _counts(brute_histogram(n, a, budget=10**4)) == \
               odometer_area_counts(n, a), (n, a)


def test_histogram_serialization():
    h = brute_histogram(2, 1)
    assert h.to_csv() == "area,count\n0,2\n1,1\n"
    obj = h.to_json_obj()
    assert obj == {"n": 2, "a": 1, "total": "3", "counts": {"0": "2", "1": "1"}}


def test_oracle_pairs_closure():
    pairs = oracle_pairs(10**7)
    assert all((n + a - 1) ** n <= 10**7 for n, a in pairs)
    for n in range(1, 8):
        assert (n, 1) in pairs
    assert (8, 1) not in pairs  # 8^8 > 10^7
    assert (7, 4) in pairs      # 10^7 exactly
    assert (7, 5) not in pairs
