"""The record contract: immutable, equal and hashed by their fields, ordered where sorted.

Plain records are ``typing.NamedTuple``s; the ones that check their input
do so in a ``__new__`` of their own, and the set-function oracles are
slotted classes whose equality, hash and repr ``SetFunctionOracle`` writes
once. Every record names its fields in ``_fields``.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

import gmk
from gmk import (
    CoverageFunction,
    CutPointSet,
    FeasibilityReport,
    GenParams,
    GmkInstance,
    IntervalElement,
    McpStage,
    Mkc,
    ModularFunction,
    MultidimKnapsackInstance,
    MultistageSolution,
    PackingResult,
    PropertyReport,
    ReducedElement,
    ReducedInstance,
    ReducedSolution,
    SchemeParams,
    SchemeResult,
    SetFunctionOracle,
    StageRows,
    SumFunction,
    TableFunction,
    ValidationReport,
)
from gmk.cutting import SchemeIteration, solve_general_result
from gmk.errors import InputError
from gmk.reduction import ReducedConstraint, ReducedObjective
from gmk.submodular import ExtendedStageFunction
from util import dense_table


def _instance() -> GmkInstance:
    items = ("a", "b")
    stage = lambda: McpStage((Mkc({"a": 1, "b": 2}, ("x",), {"x": 2}),), {"a": 3, "b": 1})
    return GmkInstance(
        items=items,
        horizon=2,
        stages=(stage(), stage()),
        gain_plus=dense_table(items, 2, 2, 1),
        gain_minus=dense_table(items, 2, 2),
        cost_plus=dense_table(items, 1, 2),
        cost_minus=dense_table(items, 1, 2),
    )


def _reduced_constraint() -> ReducedConstraint:
    return ReducedConstraint(1, 1, False, ("x",), {"x": 2}, {"a": 1})


# per record type, a builder of one record: called twice, it gives two equal records
EXAMPLES = {
    Mkc: lambda: Mkc({"a": 1}, ("x",), {"x": 2}),
    McpStage: lambda: McpStage((Mkc({"a": 1}, ("x",), {"x": 2}),), {"a": 3}),
    GmkInstance: _instance,
    MultistageSolution: lambda: MultistageSolution((frozenset({"a"}),), (({"x": frozenset({"a"})},),)),
    ValidationReport: lambda: ValidationReport(("stage 1 has no knapsack constraints",)),
    FeasibilityReport: lambda: FeasibilityReport(()),
    CutPointSet: lambda: CutPointSet((1, 3, 5)),
    SchemeParams: lambda: SchemeParams(Fraction(1, 5), 1),
    SchemeIteration: lambda: SchemeIteration(1, (1, 3), (4,), 4),
    SchemeResult: lambda: solve_general_result(StageRows(_instance()), SchemeParams(Fraction(1, 5), 1)),
    GenParams: lambda: GenParams(items=4, weight_range=(1, 2)),
    MultidimKnapsackInstance: lambda: MultidimKnapsackInstance(("a",), {"a": 2}, {"a": (1, 1)}, (2, 2)),
    IntervalElement: lambda: IntervalElement("a", 1, 2),
    PackingResult: lambda: PackingResult(None),
    ReducedElement: lambda: ReducedElement("a", 3),
    ReducedConstraint: _reduced_constraint,
    ReducedObjective: lambda: ReducedObjective((), {"a": {0: 0}}),
    ReducedInstance: lambda: ReducedInstance("modular", ("a",), 1, 1, {"a": {0: 0, 1: 2}}, (_reduced_constraint(),)),
    ReducedSolution: lambda: ReducedSolution(frozenset({ReducedElement("a", 1)}), {(1, 1): {"x": frozenset()}}),
    CoverageFunction: lambda: CoverageFunction({"u": 2}, {"a": frozenset({"u"})}),
    ModularFunction: lambda: ModularFunction({"a": 1}),
    SumFunction: lambda: SumFunction((ModularFunction({"a": 1}), ModularFunction({"a": 2}))),
    TableFunction: lambda: TableFunction({frozenset(): 0}, frozenset()),
    ExtendedStageFunction: lambda: ExtendedStageFunction(ModularFunction({"a": 1}), 2),
    PropertyReport: lambda: PropertyReport(()),
}
RECORDS = pytest.mark.parametrize("build", list(EXAMPLES.values()), ids=[cls.__name__ for cls in EXAMPLES])


def test_every_exported_record_has_an_example():
    exported = {
        value for value in vars(gmk).values()
        if isinstance(value, type) and (issubclass(value, tuple) or issubclass(value, SetFunctionOracle))
    }
    assert exported - {SetFunctionOracle} <= EXAMPLES.keys()


@RECORDS
def test_records_refuse_assignment(build):
    record = build()
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None


@RECORDS
def test_equal_fields_compare_and_hash_equal(build):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert repr(a) == repr(b)
    try:
        expected = hash(tuple(getattr(a, field) for field in a._fields))
    except TypeError:  # a mapping field: the record is unhashable too
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected


def test_records_sort_by_their_field_tuples():
    elements = [ReducedElement("b", 1), ReducedElement("a", 3), ReducedElement("a", 1)]
    assert sorted(elements) == [ReducedElement("a", 1), ReducedElement("a", 3), ReducedElement("b", 1)]
    runs = [IntervalElement("b", 1, 1), IntervalElement("a", 2, 4), IntervalElement("a", 2, 3)]
    runs.append(IntervalElement("a", 1, 5))
    assert sorted(runs) == sorted(runs, key=lambda e: (e.item, e.start, e.end))
    assert sorted(runs)[0] == IntervalElement("a", 1, 5)


def test_oracles_compare_by_class_and_fields():
    one = ModularFunction({"a": 1})
    assert one != ModularFunction({"a": 2})
    assert one != SumFunction((one,))
    assert repr(one) == "ModularFunction(values={'a': 1})"
    # a sum is held flat, and its grounds are left out of equality and repr
    nested = SumFunction((SumFunction((one, one)), one))
    assert nested == SumFunction((one, one, one)) and nested.grounds == (frozenset("a"),) * 3
    assert repr(SumFunction((one,))) == "SumFunction(parts=(ModularFunction(values={'a': 1}),))"
    for clone in (copy.deepcopy(nested), pickle.loads(pickle.dumps(nested))):
        assert clone == nested and clone.grounds == nested.grounds


def test_two_scheme_runs_compare_equal_field_by_field():
    a, b = EXAMPLES[SchemeResult](), EXAMPLES[SchemeResult]()
    assert SchemeResult.__eq__ is tuple.__eq__ and SchemeResult.__ne__ is tuple.__ne__
    assert a == b and all(x == y for x, y in zip(a, b))
    assert a != a._replace(value=a.value + 1)
    assert a._fields == ("solution", "value", "bypassed", "selected_j", "iterations")
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(a._fields, a))
    assert repr(a) == f"SchemeResult({fields})"


def test_instance_metadata_defaults_to_an_immutable_empty_mapping():
    inst = _instance()
    assert inst.metadata == {}
    with pytest.raises(TypeError):
        inst.metadata["note"] = "x"


def test_scheme_params_positional_and_keyword_forms_agree():
    positional = SchemeParams(Fraction("0.2"), 1)
    keyword = SchemeParams(epsilon=Fraction("0.2"), phi=1)
    assert positional == keyword and positional.mu_inv == keyword.mu_inv == 25
    assert SchemeParams("0.2", 1).epsilon == Fraction(1, 5)
    assert SchemeParams(Fraction(1, 5), 1, mu_inv=3).mu_inv == 3


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CutPointSet((2, 5)), "cut points must start at 1 and end at T+1, got (2, 5)"),
        (lambda: CutPointSet((1,)), "cut points must start at 1 and end at T+1, got (1,)"),
        (lambda: CutPointSet((1, 5, 5)), "cut points must be strictly increasing, got (1, 5, 5)"),
        (lambda: SchemeParams(Fraction(1, 4), 1), "epsilon must lie strictly inside (0, 1/4), got 1/4"),
        (lambda: SchemeParams(0, 1), "epsilon must lie strictly inside (0, 1/4), got 0"),
        (lambda: SchemeParams(Fraction(1, 5), 0), "phi must be an integer >= 1, got 0"),
        (lambda: SchemeParams(Fraction(1, 5), True), "phi must be an integer >= 1, got True"),
        (lambda: SchemeParams(Fraction(1, 5), 1, mu_inv=0), "mu_inv must be an integer >= 1, got 0"),
        (lambda: SchemeParams(Fraction(1, 5), 1, mu_inv=True), "mu_inv must be an integer >= 1, got True"),
        (lambda: IntervalElement("a", 0, 1), "invalid interval [0, 1]"),
        (lambda: IntervalElement("a", 3, 2), "invalid interval [3, 2]"),
    ],
)
def test_checked_records_refuse_bad_input(build, message):
    with pytest.raises(InputError) as refused:
        build()
    assert str(refused.value) == message
