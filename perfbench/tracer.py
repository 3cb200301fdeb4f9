"""Run one parkstat CLI job with a span around every layer's public calls.

    python perfbench/tracer.py SPANS_PATH JOB_ID ARGV...

The program is measured from outside: each wrapped function is replaced by
a timing wrapper in every parkstat module namespace that holds it (the
package uses `from .x import y`, so `airy.jet_many` and
`genfun_engine.jet_many` are separate names for one function), and the
kernel functions are replaced as attributes of `backend.kernels`, where the
engines look them up.  Work counts come from call arguments and results.
Each span also records how far the process's resident-set high-water mark
(ru_maxrss) rose while it was open, which attributes the job's peak RSS to
the layers that pushed it up.  Spans stay in memory and are written to
SPANS_PATH once, after the job ends; stdout is left to the program alone.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time

# layer -> public functions whose calls are spans of that layer
WRAPPED = {
    "airy": ("asymptotic_check",),
    "conjecture_fit": ("fit_moment",),
    "counting_engine": ("count", "count_symbolic", "verify_closed_form"),
    "exactalg": ("solve_exact",),
    "genfun_engine": ("jet_many", "area_genfun_many"),
    "moment_lab": ("moment_table", "scaled_histogram", "expectation_area"),
    "parking_core": ("brute_histogram", "oracle_pairs"),
}
KERNELS = ("jet_step", "genfun_step", "count_step", "brute_area_counts")

# counts merged by maximum; every other count is summed
MAX_COUNTS = frozenset({
    "genfun_engine.jet_peak_bits", "genfun_engine.poly_peak_bits",
    "genfun_engine.poly_coeff_slots", "exactalg.solve_peak_bits",
})


def _maxrss() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _bits(x) -> int:
    if isinstance(x, int):
        return abs(x).bit_length()
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _slots(diagonal) -> int:
    return sum(len(entry) for entry in diagonal if entry is not None)


def _count_jet_many(add, args, result):
    add("genfun_engine.jet_targets", len(result))
    add("genfun_engine.jet_peak_bits",
        max((_bits(v) for jet in result.values() for v in jet.values), default=0))


def _count_area_genfun_many(add, args, result):
    add("genfun_engine.poly_peak_bits",
        max((_bits(c) for gf in result.values() for c in gf.poly.coeffs), default=0))


def _count_jet_step(add, args, result):
    add("genfun_engine.jet_states", len(result))


def _count_genfun_step(add, args, result):
    # two diagonals are live at once: the one read and the one written
    add("genfun_engine.poly_coeff_slots", _slots(args["prev"]) + _slots(result))


def _count_count_step(add, args, result):
    add("counting_engine.cells", len(result))


def _count_solve_exact(add, args, result):
    system = args["sys"]
    add("exactalg.solve_unknowns", system.width)
    add("exactalg.solve_rows", len(system.rows))
    entries = (x for row, rhs in system.rows for x in (*row, rhs))
    peak = max((_bits(x) for x in entries), default=0)
    values = getattr(result, "values", ())
    add("exactalg.solve_peak_bits", max([peak] + [_bits(v) for v in values]))


def _count_fit_moment(add, args, result):
    add("conjecture_fit.attempts", 2 if result.escalated else 1)
    add("conjecture_fit.samples", len(result.samples_used))


def _count_brute_histogram(add, args, result):
    n, a = args["n"], args["a"]
    add("parking_core.vectors", (n + a - 1) ** n if n else 1)
    add("parking_core.found", result.total)


def _count_asymptotic_check(add, args, result):
    add("airy.rows", len(result.rows))


def _count_scaled_histogram(add, args, result):
    add("moment_lab.rows_rendered", len(result.rows))


COUNTERS = {
    "genfun_engine.jet_many": _count_jet_many,
    "genfun_engine.area_genfun_many": _count_area_genfun_many,
    "kernels.jet_step": _count_jet_step,
    "kernels.genfun_step": _count_genfun_step,
    "kernels.count_step": _count_count_step,
    "exactalg.solve_exact": _count_solve_exact,
    "conjecture_fit.fit_moment": _count_fit_moment,
    "parking_core.brute_histogram": _count_brute_histogram,
    "airy.asymptotic_check": _count_asymptotic_check,
    "moment_lab.scaled_histogram": _count_scaled_histogram,
}


class Tracer:
    """Span stack and counts of one process.

    A span is [name, start, end, parent index, RSS high-water growth in
    bytes].  Counting runs inside a `trace.count` span, so its time is not
    charged to the caller's layer.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, 0.0, 0.0, parent, _maxrss()])
        self.stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def exit(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = _maxrss() - span[4]
        self.stack.pop()

    def add(self, name: str, value: int) -> None:
        if name in MAX_COUNTS:
            self.counts[name] = max(self.counts.get(name, 0), value)
        else:
            self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(idx)
            if counter is not None:
                book = self.enter("trace.count")
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.add, bound.arguments, result)
                self.exit(book)
            return result

        return wrapper


def install(tracer: Tracer) -> None:
    """Replace every wrapped function wherever a parkstat module names it."""
    import parkstat.backend

    modules = [m for key, m in sys.modules.items()
               if key == "parkstat" or key.startswith("parkstat.")]
    for layer, names in WRAPPED.items():
        home = sys.modules[f"parkstat.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            wrapper = tracer.wrap(f"{layer}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
    kernels = parkstat.backend.kernels
    for fname in KERNELS:
        setattr(kernels, fname, tracer.wrap(f"kernels.{fname}", getattr(kernels, fname)))


def main(argv: list[str]) -> int:
    spans_path, job_id, cli_argv = argv[0], argv[1], argv[2:]
    t0 = time.perf_counter()
    import parkstat.cli as cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    root = tracer.enter("cli.main")
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.exit(root)
    sys.stdout.flush()
    with open(spans_path, "w") as fh:
        json.dump({"job": job_id, "import_s": import_s, "spans": tracer.spans,
                   "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
