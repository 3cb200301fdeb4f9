"""Workload definitions and seed-independent output checks.

A workload is a fixed list of CLI jobs.  `make_jobs` draws sizes from narrow
bands around the workload's nominal values, using only the seed, so two
seeds give different inputs of about the same cost.  The size that sets a
job's cost (airy's largest n, hist's n, the general-a k) stays fixed: one
step in it changes the workload's time by 3-15%, more than the run-to-run
bound.  Each job carries the exit code it must return and a checker that
compares its stdout against closed forms computed here, independently of
the program under test.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable

WORKLOADS = ("asymptotics", "identities", "oracle-hist")

# 50 digits of pi, for the independent k = 1 check of the airy report
PI_50 = Decimal("3.14159265358979323846264338327950288419716939937510")


@dataclass(frozen=True)
class Job:
    """One CLI invocation: `python -m parkstat.cli *argv`."""

    job_id: str
    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[bytes], str | None]  # stdout -> None or a failure reason


# ---------------------------------------------------------------------------
# Closed forms (module-level so the self-test can corrupt them)
# ---------------------------------------------------------------------------


def parking_count(n: int, a: int) -> int:
    """Number of a-parking functions of length n: a(a+n)^(n-1)."""
    return a * (a + n) ** (n - 1)


def area_mean(n: int, a: int) -> Fraction:
    """E[area] = n(a-2)/2 + (1/2) sum_{j=1..n} n!/((n-j)! (a+n)^(j-1))."""
    acc = Fraction(0)
    falling = 1
    for j in range(1, n + 1):
        falling *= n - j + 1
        acc += Fraction(falling, (a + n) ** (j - 1))
    return Fraction(n * (a - 2), 2) + acc / 2


def oracle_state_count(budget: int, a_cap: int = 12) -> int:
    """States (n, a <= a_cap) whose superset (n+a-1)^n fits the budget."""
    states = 0
    n = 1
    while n**n <= budget:
        states += sum(1 for a in range(1, a_cap + 1) if (n + a - 1) ** n <= budget)
        n += 1
    return states


def airy_mean_ratio(n: int) -> Decimal:
    """E_1(n,1) / (sqrt(pi/8) n^(3/2)), the k = 1 row of the airy report."""
    with localcontext() as ctx:
        ctx.prec = 40
        mean = area_mean(n, 1)
        num = Decimal(mean.numerator) / Decimal(mean.denominator)
        return num / ((PI_50 / 8).sqrt() * n * Decimal(n).sqrt())


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


def _text(out: bytes) -> str:
    return out.decode("ascii")


def check_count(n: int, a: int):
    def check(out: bytes) -> str | None:
        if _text(out) != f"{parking_count(n, a)}\n":
            return f"count --n {n} differs from a(a+n)^(n-1)"
        return None
    return check


def check_moments(n: int, a: int, k: int):
    def check(out: bytes) -> str | None:
        obj = json.loads(out)
        if (obj["n"], obj["a"], obj["k"]) != (n, a, k):
            return "moments header mismatch"
        if any(len(obj[key]) != k for key in ("factorial", "raw", "central")):
            return "moments table incomplete"
        mean = area_mean(n, a)
        if Fraction(obj["raw"][0]) != mean or Fraction(obj["factorial"][0]) != mean:
            return "moments mean differs from the closed-form expectation"
        return None
    return check


def check_hist(n: int):
    def check(out: bytes) -> str | None:
        rows = list(csv.reader(io.StringIO(_text(out))))
        if rows[0] != ["area", "count", "x", "density"]:
            return "hist header mismatch"
        body = rows[1:]
        # at a = 1 every area 0 .. n(n-1)/2 occurs
        if [int(r[0]) for r in body] != list(range(n * (n - 1) // 2 + 1)):
            return "hist area column incomplete"
        total = sum(int(r[1]) for r in body)
        if total != parking_count(n, 1):
            return "hist total differs from (n+1)^(n-1)"
        if Fraction(sum(int(r[0]) * int(r[1]) for r in body), total) != area_mean(n, 1):
            return "hist mean differs from the closed-form expectation"
        return None
    return check


def check_verify(budget: int):
    def check(out: bytes) -> str | None:
        want = (f"PASS oracle-equivalence: {oracle_state_count(budget)} states, "
                "brute force equals generating function coefficientwise\n"
                "all checks passed\n")
        return None if _text(out) == want else "verify did not pass every state"
    return check


def check_airy(k_max: int, grid: tuple[int, ...]):
    def check(out: bytes) -> str | None:
        rows = list(csv.reader(io.StringIO(_text(out))))
        if rows[0] != ["k", "n", "ratio", "deviation"]:
            return "airy header mismatch"
        want = [(k, n) for k in range(1, k_max + 1) for n in grid]
        if [(int(r[0]), int(r[1])) for r in rows[1:]] != want:
            return "airy report incomplete"
        tol = Decimal("1e-18")
        for r in rows[1:]:
            ratio, dev = Decimal(r[2]), Decimal(r[3])
            if abs(abs(ratio - 1) - dev) > tol:
                return f"airy deviation inconsistent at k={r[0]}, n={r[1]}"
            if r[0] == "1" and abs(ratio - airy_mean_ratio(int(r[1]))) > tol:
                return f"airy k=1 ratio differs from the closed form at n={r[1]}"
        return None
    return check


def check_fit(k: int, general_a: bool, verify_fit):
    """Fit must be verified, then re-verified on two further points.

    `verify_fit` is the program's exact re-check; it runs in the benchmark
    process after the job's timed span has ended.
    """
    def check(out: bytes) -> str | None:
        obj = json.loads(out)
        symbols = ("n", "a") if general_a else ("n",)
        if obj["status"] != "verified" or obj["k"] != k or tuple(obj["symbols"]) != symbols:
            return f"fit --k {k} not verified"
        last = max(tuple(p) for p in obj["holdout"])
        if general_a:
            extra = [(last[0] + 1, 1), (last[0] + 1, 2)]
        else:
            extra = [(last[0] + 1, 1), (last[0] + 2, 1)]
        if not verify_fit(obj, extra):
            return f"fit --k {k} fails on further points {extra}"
        return None
    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def make_jobs(workload: str, seed: int, verify_fit, small: bool = False) -> list[Job]:
    """The jobs of one pass over `workload`, with sizes drawn from `seed`.

    `small` shrinks every size so the whole workload runs in about a second;
    the self-test uses it.  `verify_fit(fit_json, points) -> bool` re-checks
    a fit at further points.
    """
    rng = random.Random(f"{workload}:{seed}")
    common = ("--threads", "1")
    if workload == "asymptotics":
        # every airy call renders pi at least once (about 1 s), so the small
        # variant keeps one grid point
        k = 2 if small else 8
        grid = (rng.randint(8, 12),) if small else (rng.randint(40, 60), 100)
        n_mom = rng.randint(18, 22) if small else rng.randint(98, 102)
        return [
            Job("airy", ("airy", "--k", str(k), "--grid", ",".join(map(str, grid)),
                         "--format", "csv") + common, 4, check_airy(k, grid)),
            Job("moments", ("moments", "--n", str(n_mom), "--k", str(k),
                            "--format", "json") + common, 0,
                check_moments(n_mom, 1, k)),
        ]
    if workload == "identities":
        ks = (2, 3) if small else (2, 3, 4, 5, 6)
        general_k = 2 if small else 4
        n_count = rng.randint(28, 32) if small else rng.randint(295, 305)
        jobs = []
        for k in ks:
            # --n-max past the default grid end adds a few samples
            unknowns = 3 * k // 2 + 1 + 3 * (k - 1) // 2 + 1
            n_max = unknowns + 5 + rng.randint(0, 3)
            jobs.append(Job(f"fit-k{k}", ("fit", "--k", str(k), "--n-max", str(n_max),
                                          "--format", "json") + common, 0,
                            check_fit(k, False, verify_fit)))
        jobs.append(Job(f"fit-k{general_k}-general-a",
                        ("fit", "--k", str(general_k), "--general-a",
                         "--format", "json") + common, 0,
                        check_fit(general_k, True, verify_fit)))
        jobs.append(Job("count", ("count", "--n", str(n_count)) + common, 0,
                        check_count(n_count, 1)))
        return jobs
    if workload == "oracle-hist":
        # every budget in [10^6, 16^5) admits the same 65 states
        budget = rng.randint(1000, 1100) if small else rng.randint(10**6, 16**5 - 1)
        n_hist = 12 if small else 60
        precision = rng.randint(12, 18)
        return [
            Job("verify", ("verify", "--suite", "oracle", "--budget", str(budget))
                + common, 0, check_verify(budget)),
            Job("hist", ("hist", "--n", str(n_hist), "--scaled", "--precision",
                         str(precision), "--format", "csv") + common, 0,
                check_hist(n_hist)),
        ]
    raise ValueError(f"unknown workload {workload!r}")
