"""parkstat: exact statistics of (a-)parking functions.

Counts, area generating polynomials, factorial moments, closed-form moment
identities derived from the jets, and the Airy-distribution limit check --
all in exact big-integer / rational arithmetic.

Every submodule is registered lazily: it sits in sys.modules and as an
attribute of the package from the start, but its source is compiled and
run only when one of its attributes is first read.  A CLI call, a fresh
interpreter each time, thus compiles only the layers its command uses.
The public names below resolve on first access (PEP 562).
"""

import importlib.util
import sys

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "airy": ("airy_moments", "asymptotic_check"),
    "backend": ("BACKEND",),
    "conjecture_fit": ("FitResult", "MomentAnsatz", "fit_moment",
                       "leading_asymptotics", "verify_fit"),
    "counting_engine": ("count", "count_symbolic", "verify_closed_form"),
    "errors": ("BudgetExceeded",),
    "exactalg": ("LinSys", "PolyX", "SymPoly", "TwoPiPow", "binomial", "solve_exact"),
    "genfun_engine": ("AreaGenFun", "JetAtOne", "area_genfun", "area_genfun_many",
                      "expectation_area", "jet_at_one", "jet_many", "sum_genfun"),
    "moment_lab": ("MomentTable", "ScaledHistogram", "convert_moments",
                   "expectation_sum", "factorial_moments",
                   "moment_table", "p_prime_closed", "scaled_histogram",
                   "stirling2", "w_value"),
    "parking_core": ("area_stat", "brute_histogram", "is_a_parking", "oracle_pairs",
                     "sum_stat"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)

# LazyLoader is not thread-safe in Python 3.11: the first attribute read
# turns the lazy module into a plain one before it runs the source, so a
# second thread reading the module meanwhile sees it partly run and can get
# AttributeError.  Every parkstat command is single-threaded, so a module is
# always first read by one thread.
for _name in ("_kernels_pure", *_EXPORTS):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    globals()[_name] = _module
del _name, _spec, _module, importlib, sys


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
