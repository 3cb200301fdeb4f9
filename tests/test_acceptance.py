"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one "ACCEPTANCE <k> ...: PASS/FAIL" line (visible with -s
or -rA).  Exact equalities are asserted exactly; stated runtime bounds are
asserted against wall-clock time of the pure-Python kernels, the only ones
the package has.

Criterion 8 note: the criterion asks that E_k(n,1) / (e_k n^(3k/2)) tend to
1 for k = 1..8, checked at n = 100 and 400 against a 0.25 threshold.  Read
literally as |R_k(400) - 1| < 0.25 it is false for k >= 4: the ratio carries
a c_k / sqrt(n) correction that is still 0.2659 (k = 4) to 0.3935 (k = 8) at
n = 400, which the known fourth-moment identity gives exactly for k = 4.  The
test applies the 0.25 threshold to the Richardson-extrapolated ratio
2 R_k(400) - R_k(100) instead; it cancels the n^(-1/2) term and leaves an
O(1/n) residual.  The literal clause itself is asserted at n = 1600, where
the correction has halved (0.0456 for k = 1 to 0.2228 for k = 8).  All three
sets of deviations are printed; see README "Known red".
"""

import math
import time
from decimal import Decimal
from fractions import Fraction

from parkstat import (airy_moments, area_genfun_many, asymptotic_check,
                      brute_histogram, count, count_symbolic,
                      expectation_area, fit_moment, jet_many, oracle_pairs,
                      p_prime_closed, w_value)
from parkstat.cli import main as cli_main
from parkstat.exactalg import SymPoly, binomial
from reference import derivatives_at_one, symbolic_counts

BUDGET = 10**7


def report(idx: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"ACCEPTANCE {idx} {name}: {status}{suffix}")


def test_criterion_1_closed_form_counting():
    t0 = time.perf_counter()
    bad = [n for n in range(1, 201) if count(n, 1) != (n + 1) ** (n - 1)]
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 10.0
    report(1, "closed-form counting n<=200", ok, f"{elapsed:.2f}s")
    assert not bad
    assert elapsed < 10.0


def test_criterion_2_symbolic_counting():
    reference = symbolic_counts(10)
    bad = [n for n in range(1, 11) if count_symbolic(n) != reference[n]]
    ok = not bad
    report(2, "symbolic counting n<=10", ok)
    assert not bad


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    pairs = oracle_pairs(BUDGET)
    assert all((n, 1) in pairs for n in range(1, 8))
    genfuns = area_genfun_many(pairs)
    mismatches = []
    for n, a in pairs:
        if brute_histogram(n, a, budget=BUDGET) != genfuns[(n, a)]:
            mismatches.append((n, a))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 300.0
    report(3, f"oracle equivalence on {len(pairs)} states", ok,
           f"{elapsed:.1f}s")
    assert not mismatches
    assert elapsed < 300.0


def test_criterion_4_jet_polynomial_cross_validation():
    targets = [(n, 1) for n in range(1, 41)]
    jets = jet_many(targets, 6)
    polys = area_genfun_many(targets)
    bad = [n for n, _ in targets
           if jets[(n, 1)].values != derivatives_at_one(polys[(n, 1)].poly.coeffs, 6)]
    ok = not bad
    report(4, "jet vs polynomial derivatives n<=40, K=6", ok)
    assert not bad


def test_criterion_5_expectation_closed_forms():
    jet_targets = [(n, a) for n in range(1, 101) for a in range(1, 6)]
    jets = jet_many(jet_targets, 1)
    bad_jets = [(n, a) for n, a in jet_targets
                if expectation_area(n, a) * (a * (a + n) ** (n - 1))
                != jets[(n, a)].values[1]]

    bad_w = [n for n in range(1, 201)
             if expectation_area(n, 1) != Fraction(-n, 2) + w_value(n + 1) / 2]

    def pp(n, a):
        return p_prime_closed(n, a) if n >= 1 and a >= 1 else 0

    bad_rec = []
    for n in range(1, 31):
        for a in range(1, 6):
            lhs = pp(n, a) - sum(binomial(n, k) * pp(n - k, a + k - 1)
                                 for k in range(0, n + 1))
            if lhs != n * count(n, a):
                bad_rec.append((n, a))
    ok = not (bad_jets or bad_w or bad_rec)
    report(5, "expectation closed forms", ok)
    assert not bad_jets
    assert not bad_w
    assert not bad_rec


# known closed forms of the 2nd..6th factorial moments, frozen
# coefficient-by-coefficient (keys are powers of n)
KNOWN_IDENTITIES = {
    2: ({3: "5/12", 2: "-1/12", 1: "-1/3"},
        {1: "-7/3", 0: "-7/3"}),
    3: ({4: "-175/192", 3: "-283/192", 2: "199/192", 1: "259/192"},
        {3: "15/32", 2: "521/96", 1: "1219/96", 0: "743/96"}),
    4: ({6: "221/1008", 5: "63737/30240", 4: "101897/15120", 3: "22217/5040",
         2: "-1375/189", 1: "-187463/30240"},
        {4: "-35/16", 3: "-449/27", 2: "-130243/2520", 1: "-7409/105",
         0: "-503803/15120"}),
    5: ({7: "-105845/110592", 6: "-2170159/290304", 5: "-99955651/3870720",
         4: "-30773609/725760", 3: "-94846903/11612160", 2: "24676991/483840",
         1: "392763901/11612160"},
        {6: "565/2048", 5: "1005/128", 4: "9832585/165888", 3: "1111349/5184",
         2: "826358527/1935360", 1: "159943787/362880",
         0: "1024580441/5806080"}),
    6: ({9: "82825/576576", 8: "373340075/110702592", 7: "9401544029/332107776",
         6: "14473244813/127733760", 5: "414139396709/1660538880",
         4: "88215445651/332107776", 3: "-18783816473/332107776",
         2: "-643359542029/1660538880", 1: "-358936540409/1660538880"},
        {7: "-3955/2048", 6: "-186349/6144", 5: "-259283273/1161216",
         4: "-119912501/129024", 3: "-149860633081/63866880",
         2: "-601794266581/166053888", 1: "-864000570107/276756480",
         0: "-921390308389/830269440"}),
}


def _poly_from_table(table: dict) -> SymPoly:
    return SymPoly(("n",), {(e,): Fraction(c) for e, c in table.items()})


def test_criterion_6_theorem_reproduction():
    t0 = time.perf_counter()
    bad = []
    for k, (a_table, b_table) in KNOWN_IDENTITIES.items():
        fit = fit_moment(k)
        if fit.status != "verified":
            bad.append((k, fit.status))
            continue
        if fit.a_poly != _poly_from_table(a_table) or \
           fit.b_poly != _poly_from_table(b_table):
            bad.append((k, "coefficients"))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 600.0
    report(6, "moment identity reproduction k=2..6", ok, f"{elapsed:.1f}s")
    assert not bad
    assert elapsed < 600.0


def test_criterion_7_airy_pinning():
    expected = [
        (Fraction(1, 4), 1),
        (Fraction(5, 12), 0),
        (Fraction(15, 128), 1),
        (Fraction(221, 1008), 0),
        (Fraction(565, 8192), 1),
        (Fraction(82825, 576576), 0),
    ]
    got = [(m.r, m.h) for m in airy_moments(6)]
    ok = got == expected
    report(7, "Airy moment pinning k<=6", ok)
    assert got == expected


def test_criterion_8_asymptotic_convergence():
    t0 = time.perf_counter()
    rep = asymptotic_check(8, [100, 400])
    far = asymptotic_check(8, [1600])
    elapsed = time.perf_counter() - t0
    devs = {(r.k, r.n): Decimal(r.deviation) for r in rep.rows + far.rows}
    ratios = {(r.k, r.n): Decimal(r.ratio) for r in rep.rows}
    decreasing_ok = all(devs[(k, 400)] < devs[(k, 100)] for k in range(1, 9))
    # n^(-1/2) scale spot check (module invariant): dev(4n)/dev(n) in (0.3, 0.8)
    scale_ok = all(Decimal("0.3") < devs[(k, 400)] / devs[(k, 100)] < Decimal("0.8")
                   for k in range(1, 5))
    runtime_ok = elapsed < 600.0
    # R_k(n) = 1 + c_k/sqrt(n) + O(1/n), so 2 R_k(4n) - R_k(n) = 1 + O(1/n)
    limit_devs = {k: abs(2 * ratios[(k, 400)] - ratios[(k, 100)] - 1)
                  for k in range(1, 9)}
    extrapolated = {k: f"{d:.4f}" for k, d in limit_devs.items()}
    limit_bad = {k: extrapolated[k] for k, d in limit_devs.items()
                 if not d < Decimal("0.25")}
    # the literal clause, where the c_k/sqrt(n) term has shrunk below 0.25
    literal = {k: f"{devs[(k, 1600)]:.4f}" for k in range(1, 9)}
    literal_bad = {k: literal[k] for k in range(1, 9)
                   if not devs[(k, 1600)] < Decimal("0.25")}
    ok = (decreasing_ok and scale_ok and runtime_ok and not limit_bad
          and not literal_bad)
    raw = {k: f"{devs[(k, 400)]:.4f}" for k in range(1, 9)}
    report(8, "asymptotic convergence k<=8", ok,
           f"{elapsed:.1f}s; decreasing={decreasing_ok}; "
           f"raw deviations at n=400: {raw}; "
           f"extrapolated deviations 2R(400)-R(100): {extrapolated}; "
           f"raw deviations at n=1600: {literal}")
    assert decreasing_ok
    assert scale_ok
    assert runtime_ok
    assert not limit_bad, (
        "E_k(n,1)/(e_k n^(3k/2)) must tend to 1 for k=1..8: the extrapolated "
        "ratio 2 R_k(400) - R_k(100) is off by at least 0.25 for "
        f"{limit_bad}, so e_k or E_k is mis-normalised. The raw n=400 "
        "deviation is not bounded here because its c_k/sqrt(n) term is "
        "still 0.27-0.39 for k>=4; see README \"Known red\"."
    )
    assert not literal_bad, (
        "|E_k(1600,1)/(e_k 1600^(3k/2)) - 1| must be below 0.25 for k=1..8, "
        f"but is not for {literal_bad}"
    )


def test_criterion_9_histogram_scale(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "h100.csv"
    code = cli_main(["hist", "--n", "100", "--format", "csv",
                     "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "area,count"
    rows = [line.split(",") for line in lines[1:]]
    n_rows = len(rows)
    total = sum(int(c) for _, c in rows)
    constant = int(rows[0][1])
    leading = int(rows[-1][1])
    ok = (n_rows == 4951 and total == 101**99
          and constant == math.factorial(100) and leading == 1
          and elapsed < 300.0)
    report(9, "histogram scale n=100", ok, f"{elapsed:.1f}s, {n_rows} rows")
    assert n_rows == 4951
    assert total == 101**99
    assert constant == math.factorial(100)
    assert leading == 1
    assert elapsed < 300.0


# CLI invocations covering the surfaces of criteria 1..9; the heavy criteria
# run reduced sizes here (their full-scale runs happen once, above).  No
# code path reads --threads, so these pin that the flag stays accepted and
# leaves every output byte unchanged.
DETERMINISM_COMMANDS = [
    ("c1-count", ["count", "--n", "200", "--format", "json"]),
    ("c2-symbolic", ["count", "--n", "10", "--symbolic", "--format", "csv"]),
    ("c3-oracle", ["verify", "--suite", "oracle", "--budget", "1000000",
                   "--format", "json"]),
    ("c4-moments", ["moments", "--n", "40", "--k", "6", "--format", "json"]),
    ("c5-expect", ["moments", "--n", "60", "--a", "5", "--k", "1",
                   "--format", "csv"]),
    ("c6-fit", ["fit", "--k", "3", "--format", "json"]),
    ("c7c8-airy", ["airy", "--k", "2", "--grid", "36,144", "--format", "csv"]),
    ("c9-hist", ["hist", "--n", "60", "--scaled", "--format", "csv"]),
]


def test_criterion_10_thread_determinism(tmp_path):
    diffs = []
    for name, argv in DETERMINISM_COMMANDS:
        blobs = []
        codes = []
        for threads in ("1", "8"):
            out = tmp_path / f"{name}-t{threads}"
            codes.append(cli_main(argv + ["--threads", threads,
                                          "--out", str(out)]))
            blobs.append(out.read_bytes())
        if blobs[0] != blobs[1] or codes[0] != codes[1]:
            diffs.append(name)
    ok = not diffs
    report(10, "thread determinism", ok,
           f"{len(DETERMINISM_COMMANDS)} commands byte-compared")
    assert not diffs
