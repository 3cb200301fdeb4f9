"""Command-line surface: count, genfun, moments, fit, airy, hist, verify.

Every command writes deterministic machine-readable output (csv, json, or
text via --format) to stdout or --out.  Exit codes: 0 ok, 2 usage error,
3 resource guard tripped, 4 mathematical verification failure.  Big numbers
always print as exact decimal strings, never scientific notation.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import airy as airy_mod
from .conjecture_fit import MomentAnsatz, fit_moment
from .counting_engine import count, count_symbolic, verify_closed_form
from .errors import BudgetExceeded
from .exactalg import rat_str
from .genfun_engine import area_genfun, area_genfun_many
from .moment_lab import moment_table, scaled_histogram
from .parking_core import brute_histogram, oracle_pairs

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_VERIFY = 4


def _emit(args: argparse.Namespace, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            # reported by main() as a usage error, like any other bad value
            raise ValueError(f"cannot write --out {args.out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def cmd_count(args: argparse.Namespace) -> int:
    if args.symbolic:
        poly = count_symbolic(args.n)
        if args.fmt == "json":
            text = json.dumps({"n": args.n, "symbolic": str(poly)})
        elif args.fmt == "csv":
            text = f"n,polynomial\n{args.n},{poly}"
        else:
            text = str(poly)
    else:
        value = count(args.n, args.a)
        if args.fmt == "json":
            text = json.dumps({"n": args.n, "a": args.a, "count": str(value)})
        elif args.fmt == "csv":
            text = f"n,a,count\n{args.n},{args.a},{value}"
        else:
            text = str(value)
    _emit(args, text)
    return EXIT_OK


def cmd_genfun(args: argparse.Namespace) -> int:
    gf = area_genfun(args.n, args.a, budget=args.budget)
    if args.fmt == "json":
        text = gf.to_json()
    elif args.fmt == "csv":
        text = gf.to_csv()
    else:
        lines = [f"Q({args.n},{args.a}): {len(gf.poly.coeffs)} area values, "
                 f"total {gf.total}"]
        lines += [f"  area {m}: {c}" for m, c in enumerate(gf.poly.coeffs) if c]
        text = "\n".join(lines)
    _emit(args, text)
    return EXIT_OK


def cmd_moments(args: argparse.Namespace) -> int:
    table = moment_table(args.n, args.a, args.k)
    if args.fmt == "json":
        text = table.to_json()
    elif args.fmt == "csv":
        lines = ["j,factorial,raw,central,scaled_central,scaled_var_power"]
        for j in range(1, args.k + 1):
            sc = ("," .join((rat_str(table.scaled[j - 1][0]),
                             rat_str(table.scaled[j - 1][1])))
                  if table.scaled is not None else ",")
            lines.append(f"{j},{rat_str(table.factorial[j - 1])},"
                         f"{rat_str(table.raw[j - 1])},"
                         f"{rat_str(table.central[j - 1])},{sc}")
        text = "\n".join(lines)
    else:
        lines = [f"moments of the area statistic at n={args.n}, a={args.a}",
                 f"  mean     = {rat_str(table.mean)}",
                 f"  variance = {rat_str(table.variance)}"]
        for j in range(1, args.k + 1):
            lines.append(f"  E_{j} (factorial) = {rat_str(table.factorial[j - 1])}")
        if table.scaled is None:
            lines.append("  scaled moments undefined (variance = 0)")
        else:
            for j in range(1, args.k + 1):
                c, p = table.scaled[j - 1]
                lines.append(f"  scaled_{j} = {rat_str(c)} * variance^(-{rat_str(p)})")
        text = "\n".join(lines)
    _emit(args, text)
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    ansatz = MomentAnsatz.default(args.k, args.general_a)
    fit = fit_moment(args.k, ansatz=ansatz, general_a=args.general_a,
                     n_max=args.n_max)
    if args.fmt == "json":
        text = json.dumps(fit.to_json_obj())
    elif args.fmt == "csv":
        lines = ["poly,powers,coeff"]
        for name, poly in (("A", fit.a_poly), ("B", fit.b_poly)):
            keys = sorted(poly.terms, key=lambda e: (-sum(e), tuple(-x for x in e)))
            for exps in keys:
                powers = " ".join(f"{s}^{e}" for s, e in zip(poly.symbols, exps))
                lines.append(f"{name},{powers},{rat_str(poly.terms[exps])}")
        text = "\n".join(lines)
    else:
        if fit.status == "verified":
            text = (fit.theorem_text()
                    + f"\nverified on {len(fit.samples_used)} samples and "
                      f"{len(fit.holdout_verified)} holdout points")
        else:
            text = f"fit failed: {fit.status}, witness {fit.witness}"
    _emit(args, text)
    if fit.status != "verified":
        print(f"fit --k {args.k}: status {fit.status}, witness {fit.witness}",
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_airy(args: argparse.Namespace) -> int:
    grid = list(args.grid) or [50, 100, 200]
    report = airy_mod.asymptotic_check(args.k, grid)
    if args.fmt == "json":
        text = report.to_json()
    elif args.fmt == "csv":
        text = report.to_csv()
    else:
        lines = [f"Airy moment convergence, k <= {args.k}, grid {grid}"]
        for s in report.per_k:
            lines.append(f"  k={s.k}: final deviation {s.final_deviation}, "
                         f"decreasing={s.decreasing}, below_threshold={s.below_threshold}")
        text = "\n".join(lines)
    _emit(args, text)
    if not report.ok:
        bad = [s.k for s in report.per_k
               if not (s.decreasing and s.below_threshold)]
        print(f"airy: convergence check failed for k in {bad}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_hist(args: argparse.Namespace) -> int:
    if args.scaled:
        hist = scaled_histogram(args.n, args.a, precision=args.precision,
                                budget=args.budget)
        if args.fmt == "json":
            text = hist.to_json()
        elif args.fmt == "csv":
            text = hist.to_csv()
        else:
            lines = [f"scaled area histogram at n={args.n}, a={args.a}: "
                     f"{len(hist.rows)} rows, total {hist.total}",
                     f"  mean {rat_str(hist.mean)}, variance {rat_str(hist.variance)}"]
            text = "\n".join(lines)
    else:
        gf = area_genfun(args.n, args.a, budget=args.budget)
        if args.fmt == "json":
            text = gf.to_json()
        elif args.fmt == "csv":
            text = gf.to_csv()
        else:
            text = (f"area histogram at n={args.n}, a={args.a}: "
                    f"{len([c for c in gf.poly.coeffs if c])} rows, "
                    f"total {gf.total}")
    _emit(args, text)
    return EXIT_OK


def _verify_closed_form_suite(args: argparse.Namespace) -> list[tuple[str, bool, str]]:
    n_max = args.n if args.n else 10
    a_max = args.a if args.a != 1 else n_max + 1
    report = verify_closed_form(n_max, a_max)
    return [("closed-form", report.ok, report.describe())]


def _verify_oracle_suite(args: argparse.Namespace) -> list[tuple[str, bool, str]]:
    pairs = oracle_pairs(args.budget)
    genfuns = area_genfun_many(pairs)
    checks = []
    bad = []
    for n, a in pairs:
        hist = brute_histogram(n, a, budget=args.budget)
        gf = genfuns[(n, a)]
        expected = {m: c for m, c in enumerate(gf.poly.coeffs) if c}
        if hist.counts != expected:
            bad.append((n, a))
    ok = not bad
    detail = (f"{len(pairs)} states, brute force equals generating function "
              f"coefficientwise" if ok else f"mismatch at {bad}")
    checks.append(("oracle-equivalence", ok, detail))
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    checks: list[tuple[str, bool, str]] = []
    if args.suite in ("closed-form", "all"):
        checks += _verify_closed_form_suite(args)
    if args.suite in ("oracle", "all"):
        checks += _verify_oracle_suite(args)
    ok = all(c[1] for c in checks)
    if args.fmt == "json":
        text = json.dumps({
            "suite": args.suite,
            "ok": ok,
            "checks": [{"name": n, "ok": o, "detail": d} for n, o, d in checks],
        })
    elif args.fmt == "csv":
        lines = ["check,ok,detail"]
        lines += [f"{n},{str(o).lower()},\"{d}\"" for n, o, d in checks]
        text = "\n".join(lines)
    else:
        lines = [f"{'PASS' if o else 'FAIL'} {n}: {d}" for n, o, d in checks]
        lines.append("all checks passed" if ok else "VERIFICATION FAILED")
        text = "\n".join(lines)
    _emit(args, text)
    if not ok:
        failing = ", ".join(n for n, o, _ in checks if not o)
        print(f"verify: failing invariants: {failing}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


_HANDLERS = {
    "count": cmd_count,
    "genfun": cmd_genfun,
    "moments": cmd_moments,
    "fit": cmd_fit,
    "airy": cmd_airy,
    "hist": cmd_hist,
    "verify": cmd_verify,
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, default=0)
    sub.add_argument("--a", type=int, default=1)
    sub.add_argument("--k", type=int, default=2)
    sub.add_argument("--grid", type=str, default="")
    sub.add_argument("--budget", type=int, default=10**7)
    sub.add_argument("--threads", type=int, default=1)
    sub.add_argument("--precision", type=int, default=15)
    sub.add_argument("--format", dest="fmt", choices=("csv", "json", "text"),
                     default="text")
    sub.add_argument("--out", type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parkstat",
        description="Exact statistics of (a-)parking functions",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("count", help="count a-parking functions")
    _add_common(p)
    p.add_argument("--symbolic", action="store_true",
                   help="print the counting polynomial in the shift a")

    p = subs.add_parser("genfun", help="area generating polynomial")
    _add_common(p)

    p = subs.add_parser("moments", help="exact moment table")
    _add_common(p)

    p = subs.add_parser("fit", help="fit E_k = A + B*E_1 by undetermined coefficients")
    _add_common(p)
    p.add_argument("--general-a", action="store_true", dest="general_a",
                   help="fit polynomials in both n and a")
    p.add_argument("--n-max", type=int, default=None, dest="n_max",
                   help="extend the sample grid up to this n")

    p = subs.add_parser("airy", help="Airy moment convergence report")
    _add_common(p)

    p = subs.add_parser("hist", help="area histogram (optionally scaled)")
    _add_common(p)
    p.add_argument("--scaled", action="store_true",
                   help="add scaled coordinate and density columns")

    p = subs.add_parser("verify", help="run verification suites")
    _add_common(p)
    p.add_argument("--suite", choices=("closed-form", "oracle", "all"),
                   default="all")

    return parser


def _check_args(args: argparse.Namespace) -> None:
    """Parse --grid into a tuple in place; reject values below 1 (exit 2)."""
    try:
        args.grid = tuple(int(x) for x in args.grid.split(",")) if args.grid else ()
    except ValueError:
        print(f"invalid --grid value: {args.grid!r}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    n_max = getattr(args, "n_max", None)
    for flag, value in (("--precision", args.precision), ("--threads", args.threads),
                        ("--budget", args.budget), ("--n-max", n_max)):
        if value is not None and value < 1:
            print(f"invalid {flag} value: {value} (must be >= 1)", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)


def main(argv: list[str] | None = None) -> int:
    # exact results have no size limit, so neither has their decimal form
    # (Python 3.11, and 3.10.7 on, cap int <-> str conversion at 4300
    # digits by default)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_args(args)
    try:
        return _HANDLERS[args.command](args)
    except BudgetExceeded as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
