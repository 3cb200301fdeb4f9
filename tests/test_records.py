"""Contract of the public value records: construction, repr, equality, immutability."""

import json
from fractions import Fraction

import pytest

from parkstat.airy import AsymptoticReport, KSummary, RatioRow
from parkstat.cli import main
from parkstat.conjecture_fit import FitResult, MomentAnsatz, verify_fit
from parkstat.counting_engine import ClosedFormReport
from parkstat.exactalg import (Inconsistent, PolyX, SymPoly, TwoPiPow, Underdetermined,
                               UniqueSolution)
from parkstat.genfun_engine import AreaGenFun, JetAtOne
from parkstat.moment_lab import HistogramRow, MomentTable, ScaledHistogram

ROW = RatioRow(k=1, n=36, ratio="0.9", deviation="0.1")
SUMMARY = KSummary(k=1, decreasing=True, final_deviation="0.1", below_threshold=True)
HIST_ROW = HistogramRow(area=0, count=6, x="-1.2", density="0.3")

# (record class, field values in declaration order)
FROZEN = [
    (RatioRow, {"k": 1, "n": 36, "ratio": "0.9", "deviation": "0.1"}),
    (KSummary, {"k": 1, "decreasing": True, "final_deviation": "0.1",
                "below_threshold": True}),
    (AsymptoticReport, {"moments": (TwoPiPow(Fraction(1, 4), 1),), "grid": (36, 144),
                        "rows": (ROW,), "per_k": (SUMMARY,)}),
    (MomentAnsatz, {"k": 2, "symbols": ("n",), "deg_a": 3, "deg_b": 1}),
    (ClosedFormReport, {"ok": False, "points_checked": 3, "n_max": 2, "a_max": 3,
                        "claim": "proved", "failure": (1, 2), "failure_kind": "count"}),
    (UniqueSolution, {"values": (Fraction(1), Fraction(-1, 2))}),
    (Underdetermined, {"free_column": 3}),
    (Inconsistent, {"row_index": 4}),
    (TwoPiPow, {"r": Fraction(5, 12), "h": 0}),
    (AreaGenFun, {"n": 2, "a": 1, "poly": PolyX([2, 1])}),
    (JetAtOne, {"n": 2, "a": 1, "order": 1, "values": (3, 1)}),
    (MomentTable, {"n": 2, "a": 1, "order": 1, "factorial": (Fraction(1, 3),),
                   "raw": (Fraction(1, 3),), "central": (Fraction(0),),
                   "variance": Fraction(2, 9)}),
    (HistogramRow, {"area": 0, "count": 6, "x": "-1.2", "density": "0.3"}),
    (ScaledHistogram, {"n": 2, "a": 1, "mean": Fraction(1, 3),
                       "variance": Fraction(2, 9), "rows": (HIST_ROW,)}),
]
MUTABLE = [
    (FitResult, {"k": 1, "symbols": ("n",), "a_poly": SymPoly(("n",)),
                 "b_poly": SymPoly(("n",), {(0,): Fraction(1)}),
                 "samples_used": [(1, 1)], "holdout_verified": [], "status": "verified",
                 "ansatz": MomentAnsatz(1, ("n",), 1, 0), "escalated": False,
                 "witness": None}),
]
ALL = FROZEN + MUTABLE


def _ids(cases):
    return [cls.__name__ for cls, _ in cases]


@pytest.mark.parametrize("cls,fields", ALL, ids=_ids(ALL))
def test_record_construction_and_repr(cls, fields):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    for rec in (by_keyword, by_position):
        assert {name: getattr(rec, name) for name in fields} == fields
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(by_keyword) == repr(by_position) == f"{cls.__name__}({body})"


@pytest.mark.parametrize("cls,fields", FROZEN, ids=_ids(FROZEN))
def test_frozen_record_equality_hash_and_immutability(cls, fields):
    rec, twin = cls(**fields), cls(*fields.values())
    assert rec == twin and hash(rec) == hash(twin)
    first = next(iter(fields))
    other = cls(**{**fields, first: None})
    assert rec != other
    with pytest.raises(AttributeError):
        setattr(rec, first, fields[first])
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_derived_members_are_properties_of_the_fields():
    table = MomentTable(**dict(FROZEN)[MomentTable])
    assert table.mean == Fraction(1, 3)
    assert table.scaled == ((Fraction(0), Fraction(1, 2)),)
    assert table._replace(variance=Fraction(0)).scaled is None
    assert ScaledHistogram(**dict(FROZEN)[ScaledHistogram]).total == 6


def test_fit_result_rebuilt_from_json_verifies(capsys):
    # the same reconstruction a consumer of `fit --format json` performs
    assert main(["fit", "--k", "2", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    symbols = tuple(obj["symbols"])

    def poly(terms):
        return SymPoly(symbols, {tuple(t["powers"][s] for s in symbols): Fraction(t["coeff"])
                                 for t in terms})

    fit = FitResult(k=obj["k"], symbols=symbols, a_poly=poly(obj["A"]),
                    b_poly=poly(obj["B"]),
                    samples_used=[tuple(p) for p in obj["samples"]],
                    holdout_verified=[tuple(p) for p in obj["holdout"]],
                    status=obj["status"],
                    ansatz=MomentAnsatz(obj["k"], symbols, obj["deg_a"], obj["deg_b"]),
                    escalated=obj["escalated"])
    assert verify_fit(fit, [(25, 1), (31, 1)])
    assert fit.holdout_verified[-2:] == [(25, 1), (31, 1)]
