"""Command-line surface: count, genfun, moments, fit, airy, hist, verify.

Each command parses only the flags its handler reads, plus --threads,
--format and --out.  Every command writes deterministic machine-readable
output (csv, json, or text via --format) to stdout or --out.  Big numbers
always print as exact decimal strings, never scientific notation.

Every handler computes its result once and hands it to _emit, which alone
holds the output rules: it builds only the requested format, ends it with
one newline, writes it, and turns a verification failure into exit 4.
Exit codes: 0 ok; 2 usage error and 3 resource guard tripped, both with
empty stdout and one stderr line (a flag argparse rejects also prints the
usage text); 4 mathematical verification failure (fit, airy, verify), with
the full report written first and then one stderr line.  An --out that
cannot be written exits 2, also where the report would have exited 4.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

# the layers are lazy modules (see the package docstring): a command
# compiles only the ones whose functions it calls
from . import (airy, conjecture_fit, counting_engine, exactalg, genfun_engine,
               moment_lab, parking_core)
from .errors import DEFAULT_BUDGET, BudgetExceeded

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_VERIFY = 4


def _emit(args: argparse.Namespace, obj: Callable[[], dict],
          csv: Callable[[], str], text: Callable[[], str],
          failure: str | None = None) -> int:
    """Write the result in --format to --out or stdout; return the exit code.

    obj (the JSON object), csv and text build one format each, and only the
    requested one is called.  A failure is the one stderr line of a
    verification failure, written after the full report.
    """
    if args.fmt == "json":
        import json  # only here, so text and csv calls never load it
        out = json.dumps(obj())
    else:
        out = csv() if args.fmt == "csv" else text()
    if not out.endswith("\n"):
        out += "\n"
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                fh.write(out)
        except OSError as exc:
            print(f"{args.command}: cannot write --out {args.out!r}: {exc.strerror}",
                  file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(out)
    if failure is None:
        return EXIT_OK
    print(failure, file=sys.stderr)
    return EXIT_VERIFY


def cmd_count(args: argparse.Namespace) -> int:
    if args.symbolic:
        result = str(counting_engine.count_symbolic(args.n))
        header, row = "n,polynomial", {"n": args.n, "symbolic": result}
    else:
        result = exactalg.int_str(counting_engine.count(args.n, args.a))
        header, row = "n,a,count", {"n": args.n, "a": args.a, "count": result}
    return _emit(args, lambda: row, lambda: f"{header}\n{','.join(map(str, row.values()))}",
                 lambda: result)


def cmd_genfun(args: argparse.Namespace) -> int:
    gf = genfun_engine.area_genfun(args.n, args.a, budget=args.budget)

    def text() -> str:
        lines = [f"Q({args.n},{args.a}): {len(gf.poly.coeffs)} area values, "
                 f"total {exactalg.int_str(gf.total)}"]
        lines += [f"  area {m}: {exactalg.int_str(c)}"
                  for m, c in enumerate(gf.poly.coeffs) if c]
        return "\n".join(lines)

    return _emit(args, gf.to_json_obj, gf.to_csv, text)


def cmd_moments(args: argparse.Namespace) -> int:
    table = moment_lab.moment_table(args.n, args.a, args.k)

    def csv() -> str:
        lines = ["j,factorial,raw,central,scaled_central,scaled_var_power"]
        for j, row in enumerate(zip(table.factorial, table.raw, table.central), 1):
            fields = [str(j), *map(exactalg.rat_str, row)]
            fields += (map(exactalg.rat_str, table.scaled[j - 1]) if table.scaled is not None
                       else ["", ""])
            lines.append(",".join(fields))
        return "\n".join(lines)

    def text() -> str:
        lines = [f"moments of the area statistic at n={args.n}, a={args.a}",
                 f"  mean     = {exactalg.rat_str(table.mean)}",
                 f"  variance = {exactalg.rat_str(table.variance)}"]
        lines += [f"  E_{j} (factorial) = {exactalg.rat_str(e)}"
                  for j, e in enumerate(table.factorial, 1)]
        if table.scaled is None:
            lines.append("  scaled moments undefined (variance = 0)")
        else:
            lines += [f"  scaled_{j} = {exactalg.rat_str(c)} * variance^(-{exactalg.rat_str(p)})"
                      for j, (c, p) in enumerate(table.scaled, 1)]
        return "\n".join(lines)

    return _emit(args, table.to_json_obj, csv, text)


def cmd_fit(args: argparse.Namespace) -> int:
    fit = conjecture_fit.fit_moment(args.k, general_a=args.general_a, n_max=args.n_max)
    verified = fit.status == "verified"

    def csv() -> str:
        lines = ["poly,powers,coeff"]
        for name, poly in (("A", fit.a_poly), ("B", fit.b_poly)):
            for exps, c in poly.ordered_terms():
                powers = " ".join(f"{s}^{e}" for s, e in zip(poly.symbols, exps))
                lines.append(f"{name},{powers},{exactalg.rat_str(c)}")
        return "\n".join(lines)

    def text() -> str:
        if not verified:
            return f"fit failed: {fit.status}, witness {fit.witness}"
        return (fit.theorem_text()
                + f"\nverified on {len(fit.samples_used)} samples and "
                  f"{len(fit.holdout_verified)} holdout points")

    return _emit(args, fit.to_json_obj, csv, text, failure=(
        None if verified else f"fit --k {args.k}: status {fit.status}, witness {fit.witness}"))


def cmd_airy(args: argparse.Namespace) -> int:
    grid = list(args.grid) or [50, 100, 200]
    report = airy.asymptotic_check(args.k, grid)
    bad = [s.k for s in report.per_k if not (s.decreasing and s.below_threshold)]

    def text() -> str:
        lines = [f"Airy moment convergence, k <= {args.k}, grid {grid}"]
        lines += [f"  k={s.k}: final deviation {s.final_deviation}, "
                  f"decreasing={s.decreasing}, below_threshold={s.below_threshold}"
                  for s in report.per_k]
        return "\n".join(lines)

    return _emit(args, report.to_json_obj, report.to_csv, text, failure=(
        f"airy: convergence check failed for k in {bad}" if bad else None))


def cmd_hist(args: argparse.Namespace) -> int:
    if args.scaled:
        hist = moment_lab.scaled_histogram(args.n, args.a, precision=args.precision,
                                           budget=args.budget)
    else:
        hist = genfun_engine.area_genfun(args.n, args.a, budget=args.budget)

    def text() -> str:
        if args.scaled:
            return (f"scaled area histogram at n={args.n}, a={args.a}: "
                    f"{len(hist.rows)} rows, total {exactalg.int_str(hist.total)}\n"
                    f"  mean {exactalg.rat_str(hist.mean)}, "
                    f"variance {exactalg.rat_str(hist.variance)}")
        return (f"area histogram at n={args.n}, a={args.a}: "
                f"{len([c for c in hist.poly.coeffs if c])} rows, "
                f"total {exactalg.int_str(hist.total)}")

    return _emit(args, hist.to_json_obj, hist.to_csv, text)


def _verify_closed_form_suite(args: argparse.Namespace) -> tuple[str, bool, str]:
    n_max = 10 if args.n is None else args.n
    a_max = n_max + 1 if args.a is None else args.a
    report = counting_engine.verify_closed_form(n_max, a_max)
    return "closed-form", report.ok, report.describe()


def _verify_oracle_suite(args: argparse.Namespace) -> tuple[str, bool, str]:
    pairs = parking_core.oracle_pairs(args.budget)
    genfuns = genfun_engine.area_genfun_many(pairs)
    bad = [(n, a) for n, a in pairs
           if parking_core.brute_histogram(n, a, budget=args.budget) != genfuns[(n, a)]]
    detail = (f"mismatch at {bad}" if bad else f"{len(pairs)} states, brute "
              f"force equals generating function coefficientwise")
    return "oracle-equivalence", not bad, detail


def cmd_verify(args: argparse.Namespace) -> int:
    suites = {"closed-form": _verify_closed_form_suite, "oracle": _verify_oracle_suite}
    checks = [run(args) for name, run in suites.items() if args.suite in (name, "all")]
    ok = all(c[1] for c in checks)
    failing = ", ".join(n for n, o, _ in checks if not o)

    def obj() -> dict:
        return {"suite": args.suite, "ok": ok,
                "checks": [{"name": n, "ok": o, "detail": d} for n, o, d in checks]}

    def csv() -> str:
        return "\n".join(["check,ok,detail"]
                         + [f"{n},{str(o).lower()},\"{d}\"" for n, o, d in checks])

    def text() -> str:
        lines = [f"{'PASS' if o else 'FAIL'} {n}: {d}" for n, o, d in checks]
        lines.append("all checks passed" if ok else "VERIFICATION FAILED")
        return "\n".join(lines)

    return _emit(args, obj, csv, text, failure=(
        None if ok else f"verify: failing invariants: {failing}"))


def _int_in(text: str, low: int | None, high: int | None) -> int:
    value = int(text)
    if low is not None and value < low:
        raise argparse.ArgumentTypeError(f"invalid value: {value} (must be >= {low})")
    if high is not None and value > high:
        raise argparse.ArgumentTypeError(f"invalid value: {value} (must be <= {high})")
    return value


def positive_int(text: str) -> int:
    """argparse type of the flags whose values must be >= 1."""
    return _int_in(text, 1, None)


def size(text: str) -> int:
    """argparse type of the sizes --n and --k: at most sys.maxsize, the
    longest range or list the engines can build."""
    return _int_in(text, None, sys.maxsize)


def positive_size(text: str) -> int:
    """argparse type of --n-max: a size >= 1."""
    return _int_in(text, 1, sys.maxsize)


def int_list(text: str) -> tuple[int, ...]:
    """argparse type of --grid: comma-separated sizes, empty for none."""
    return tuple(size(x) for x in text.split(",")) if text else ()


# every flag a command can take, as argparse keyword arguments
_FLAGS = {
    "n": {"type": size, "default": 0},
    "a": {"type": int, "default": 1},
    "k": {"type": size, "default": 2},
    "grid": {"type": int_list, "default": ()},
    "budget": {"type": positive_int, "default": DEFAULT_BUDGET},
    "precision": {"type": positive_int, "default": 15},
    "symbolic": {"action": "store_true",
                 "help": "print the counting polynomial in the shift a"},
    "general-a": {"action": "store_true", "help": "fit polynomials in both n and a"},
    "n-max": {"type": positive_size, "default": None,
              "help": "extend the sample grid up to this n"},
    "scaled": {"action": "store_true",
               "help": "add scaled coordinate and density columns"},
    "suite": {"choices": ("closed-form", "oracle", "all"), "default": "all"},
    "threads": {"type": positive_int, "default": 1},
    "format": {"dest": "fmt", "choices": ("csv", "json", "text"), "default": "text"},
    "out": {"default": None},
}

# command -> (handler, help, the flags its handler reads); every command also
# takes --threads, --format and --out
_COMMANDS = {
    "count": (cmd_count, "count a-parking functions", ("n", "a", "symbolic")),
    "genfun": (cmd_genfun, "area generating polynomial", ("n", "a", "budget")),
    "moments": (cmd_moments, "exact moment table", ("n", "a", "k")),
    "fit": (cmd_fit, "derive E_k = A + B*E_1 and re-check it exactly",
            ("k", "general-a", "n-max")),
    "airy": (cmd_airy, "Airy moment convergence report", ("k", "grid")),
    "hist": (cmd_hist, "area histogram (optionally scaled)",
             ("n", "a", "budget", "precision", "scaled")),
    "verify": (cmd_verify, "run verification suites", ("n", "a", "budget", "suite")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parkstat",
        description="Exact statistics of (a-)parking functions",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in _COMMANDS.items():
        # no abbreviations: `fit --n` must not pass for `fit --n-max`
        p = subs.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags + ("threads", "format", "out"):
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(handler=handler)
    # verify chooses its own closed-form grid for an --n or --a left unset
    subs.choices["verify"].set_defaults(n=None, a=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceeded as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
