"""Smoke test: every engine runs through the kernels module it calls."""

import parkstat
from parkstat import backend


def test_engines_run_on_pure_backend():
    from parkstat.counting_engine import count
    from parkstat.genfun_engine import area_genfun_many, jet_many
    from parkstat.parking_core import brute_histogram

    assert parkstat.BACKEND == backend.kernels.BACKEND == "pure"
    assert [count(n, 1) for n in range(1, 7)] == \
           [(n + 1) ** (n - 1) for n in range(1, 7)]
    gf = area_genfun_many([(3, 1)])[(3, 1)]
    assert gf.poly.coeffs == (6, 6, 3, 1)
    jets = jet_many([(3, 1)], 2)[(3, 1)]
    assert jets.values == (16, 15, 12)
    assert brute_histogram(3, 1).counts == {0: 6, 1: 6, 2: 3, 3: 1}
