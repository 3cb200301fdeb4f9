"""parkstat: exact statistics of (a-)parking functions.

Counts, area generating polynomials, factorial moments, closed-form fits by
undetermined coefficients, and the Airy-distribution limit check -- all in
exact big-integer / rational arithmetic.
"""

from .airy import AiryMoment, airy_moments, asymptotic_check
from .backend import BACKEND
from .conjecture_fit import (FitResult, MomentAnsatz, fit_moment,
                             leading_asymptotics, verify_fit)
from .counting_engine import count, count_symbolic, verify_closed_form
from .errors import BudgetExceeded
from .exactalg import LinSys, PolyX, SymPoly, TwoPiPow, binomial, solve_exact
from .genfun_engine import (AreaGenFun, JetAtOne, area_genfun,
                            area_genfun_many, jet_at_one, jet_many, sum_genfun)
from .moment_lab import (MomentTable, ScaledHistogram, convert_moments,
                         expectation_area, expectation_sum, factorial_moments,
                         moment_table, p_prime_closed, scaled_histogram,
                         stirling2, w_value)
from .parking_core import (AreaHistogram, area_stat, brute_histogram,
                           is_a_parking, oracle_pairs, sum_stat)

__version__ = "0.1.0"

__all__ = [
    "AiryMoment", "AreaGenFun", "AreaHistogram", "BACKEND", "BudgetExceeded",
    "FitResult", "JetAtOne", "LinSys", "MomentAnsatz",
    "MomentTable", "PolyX", "ScaledHistogram", "SymPoly", "TwoPiPow",
    "airy_moments", "area_genfun", "area_genfun_many", "area_stat",
    "asymptotic_check", "binomial", "brute_histogram", "convert_moments",
    "count", "count_symbolic", "expectation_area", "expectation_sum",
    "factorial_moments", "fit_moment", "is_a_parking", "jet_at_one",
    "jet_many", "leading_asymptotics", "moment_table", "oracle_pairs",
    "p_prime_closed", "scaled_histogram",
    "solve_exact", "stirling2", "sum_genfun", "sum_stat",
    "verify_closed_form", "verify_fit", "w_value",
]
