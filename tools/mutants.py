"""Mutation check: the tier-1 suite must fail on every mutant listed here.

Each mutant is (name, file, old text, new text): one small change that
breaks a fast path, a reference or a kernel.  The runner copies the
repository into a temporary directory per mutant, applies the change there
and runs the tier-1 suite with -x, criteria 9 and 10 deselected (the
polynomial triangle at n = 100 and the repeated CLI runs, about 75 s
between them).  It prints killed or SURVIVED with the seconds per mutant
and the test that killed it, and exits 1 if any mutant survives.  It
first runs the unmutated suite the same way and stops with exit 2 if that
fails.

    python3 tools/mutants.py [NAME ...]

With names, only those mutants run.  A survivor is first checked for
equivalence (a change that cannot alter behaviour); otherwise the tests
miss it, and the fix is an assertion that kills it, never a looser check.
tests/test_mutants.py asserts that every old text occurs exactly once in
its file, so the list cannot rot silently.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINE = "src/parkstat/genfun_engine.py"
KERNELS = "src/parkstat/_kernels_pure.py"
EXACT = "src/parkstat/exactalg.py"
MOMENTS = "src/parkstat/moment_lab.py"
AIRY = "src/parkstat/airy.py"

MUTANTS = [
    ("abel_sum leaf", ENGINE,
     "return n - lo + 1, n - lo + 1", "return n - lo + 1, n - lo"),
    ("jet heads past l = 0 dropped", ENGINE,
     "enumerate(heads[:n + 1])", "enumerate(heads[:1])"),
    ("suffix_sum starts one term low", ENGINE,
     "for l in range(n, -1, -1):", "for l in range(n - 1, -1, -1):"),
    ("_moment_sum sign", ENGINE,
     "z = [-(2 * r + 2 + a) * c for c in y]", "z = [(2 * r + 2 + a) * c for c in y]"),
    ("shift_identity e_1 sign", ENGINE,
     "num[1] -= e1", "num[1] += e1"),
    ("genfun_step exponent", KERNELS,
     "e = k * (k + 2 * a - 3) // 2\n            for i in range(len(child)):",
     "e = k * (k + 2 * a - 2) // 2\n            for i in range(len(child)):"),
    ("brute kernel cap", KERNELS,
     "if any(p > cap for", "if any(p >= cap for"),
    ("brute kernel multiplicity", KERNELS,
     "weight //= factorial(m)", "weight //= m"),
    ("count_symbolic running binomial", "src/parkstat/counting_engine.py",
     "c, power = c * j // (n - j), power * n", "c, power = c * (j + 1) // (n - j), power * n"),
    ("odd-k Airy divisor", AIRY,
     "ctx.multiply(ctx.multiply(2, PI_40), n)", "ctx.multiply(PI_40, n)"),
    ("Airy deviation abs dropped", AIRY,
     "ctx.abs(ctx.subtract(ratio, 1))", "ctx.subtract(ratio, 1)"),
    ("convert_moments mean sign", MOMENTS,
     "(-raw[0]) ** (j - i)", "raw[0] ** (j - i)"),
    ("stirling2 sign", MOMENTS,
     "(-1) ** i * math.comb(k, i)", "(-1) ** (i + 1) * math.comb(k, i)"),
    ("sticky digit dropped", EXACT,
     "Decimal(10 * q + (r != 0))", "Decimal(10 * q)"),
    ("quotient guard digit dropped", EXACT,
     "return digits - (-e", "return digits - 1 - (-e"),
    ("sqrt exactness test dropped", EXACT,
     "r != 0 or m * m != y", "False"),
    ("sqrt remainder dropped", EXACT,
     "r != 0 or m * m != y", "m * m != y"),
    ("decimal_context Emin inherited from DefaultContext", EXACT,
     "Emin=-999999, ", ""),
    ("to_sig_str carry fix dropped", EXACT,
     "scaleb(q.adjusted() - sig + 1", "scaleb(d.adjusted() - sig + 1"),
    ("histogram x sign dropped", MOMENTS,
     "x.copy_negate() if d < 0 else x", "x"),
    ("int_str capped by the int -> str limit", EXACT,
     "return str(Decimal(x))", "return str(x)"),
    ("Horner's rule from the constant term up", EXACT,
     "for c in reversed(coeffs):", "for c in coeffs:"),
    ("SymPoly.row ignores the fixed symbol's exponent", EXACT,
     "c *= point[s] ** e", "c *= point[s]"),
    ("solve_exact elimination sign", EXACT,
     "pc * x - f * y", "pc * x + f * y"),
    ("solve_exact back-substitution offset", EXACT,
     "zip(prow[1:-1], values)", "zip(prow[2:-1], values)"),
]

DESELECT = ["tests/test_acceptance.py::test_criterion_9_histogram_scale",
            "tests/test_acceptance.py::test_criterion_10_thread_determinism"]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".hypothesis", ".benchmarks", ".perfbench_out")


def failing_test(file: str = "", old: str = "", new: str = "") -> str | None:
    """The first test that fails once `old` becomes `new` in `file` (no
    change when file is empty), or None when the suite passes."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        if file:
            path = copy / file
            text = path.read_text()
            assert text.count(old) == 1, f"old text not found once in {file}: {old!r}"
            path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--continue-on-collection-errors"]
        cmd += [arg for test in DESELECT for arg in ("--deselect", test)]
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else f"pytest exit {proc.returncode}"


def main(names: list[str]) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    # a suite that already fails would "kill" every mutant
    baseline = failing_test()
    if baseline:
        print(f"the unmutated suite fails: {baseline}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    survivors = 0
    for name, *change in chosen:
        start = time.perf_counter()
        failed = failing_test(*change)
        survivors += failed is None
        print(f"{'SURVIVED' if failed is None else 'killed':8}"
              f"  {time.perf_counter() - start:5.1f} s  {name}  [{failed}]", flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
