"""The record and report value classes: field order, defaults, checks, equality, imports."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from slicegate.bounds import GenusBounds, Interval
from slicegate.knotdb import KnotRecord
from slicegate.laurent import FoxMilnorResult
from slicegate.obstruct import AppliedRule, Facts, ObstructionReport, Verdict
from slicegate.plfunc import CobordismCheck
from slicegate.whitehead import CompanionInvariants, WhiteheadParams

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# each value class with its fields in positional order and one positional instance
VALUE_CLASSES = [
    (Interval, ("lo", "hi"), (1, 2)),
    (GenusBounds, ("g4", "gamma4", "g3", "gamma3"),
     (Interval(0, 1), Interval(1, 2), Interval(0, 1), Interval(1, 2))),
    (KnotRecord, ("name", "seifert_matrix", "alexander", "invariants", "sigma", "arf",
                  "provenance"), ("k", None, None, CompanionInvariants(tau=1), 0, 0, {"a": 1})),
    (FoxMilnorResult, ("passes", "witness", "unit", "reason"), (False, None, None, "odd")),
    (Facts, ("name", "sigma", "arf", "delta", "fm", "upsilon_value", "surface_genus", "stored"),
     ("k", 0, 0, None, None, None, None, CompanionInvariants())),
    (AppliedRule, ("rule", "anchor", "contribution"), ("r", "a", "c")),
    (Verdict, ("topologically_slice", "smoothly_slice", "nonorientably_slice"),
     ("no", "no", "unknown")),
    (ObstructionReport, ("name", "bounds", "verdict", "applied_rules"),
     ("k", GenusBounds(), Verdict(), (AppliedRule("r", "a", "c"),))),
    (CobordismCheck, ("upsilon_start", "upsilon_end", "euler", "betti"),
     (Fraction(1, 2), Fraction(0), 4, 3)),
    (WhiteheadParams, ("clasp", "twist", "framing", "companion"), ("+", 1, 0, "3_1")),
    # inherited GenusBounds fields first
    (CompanionInvariants, ("g4", "gamma4", "g3", "gamma3", "tau", "epsilon", "nu", "s",
                           "upsilon"), (None, Interval(1, 2), None, None, 1, 1, 1, 2, None)),
]


@pytest.mark.parametrize("cls, names, args", VALUE_CLASSES,
                         ids=[cls.__name__ for cls, _, _ in VALUE_CLASSES])
def test_value_class_semantics(cls, names, args):
    value = cls(*args)
    assert cls._fields == names
    assert [getattr(value, n) for n in names] == list(args)
    assert value == cls(**dict(zip(names, args))) == copy.deepcopy(value)
    assert pickle.loads(pickle.dumps(value)) == value
    assert repr(value) == f"{cls.__name__}({', '.join(f'{n}={a!r}' for n, a in zip(names, args))})"
    with pytest.raises(AttributeError):
        setattr(value, names[0], args[0])
    with pytest.raises(AttributeError):
        delattr(value, names[0])
    if cls is not KnotRecord:  # a record's provenance dict makes it unhashable
        assert hash(value) == hash(cls(*args))


def test_value_class_defaults_are_fresh_per_instance():
    a, b = KnotRecord("a"), KnotRecord("b")
    assert a.provenance == {} and a.provenance is not b.provenance
    assert a.invariants == CompanionInvariants() and a.invariants is not b.invariants
    shared = {"x": 1}
    assert KnotRecord("c", provenance=shared).provenance is shared


# the clasp, betti, gamma4-floor and epsilon/tau checks have their own tests
@pytest.mark.parametrize("build, error", [
    (lambda: Interval(2, 1), ValueError),
    (lambda: Verdict("maybe"), ValueError),
    (lambda: Verdict(topologically_slice="unknown", smoothly_slice="yes"), ValueError),
    (lambda: Verdict(topologically_slice="no", smoothly_slice="unknown"), ValueError),
    (lambda: Interval(), TypeError),
    (lambda: Interval(1, 2, 3), TypeError),
    (lambda: Interval(1, lo=1), TypeError),
])
def test_value_class_post_init_checks_still_raise(build, error):
    with pytest.raises(error):
        build()


def test_value_class_equality_and_dedup():
    assert GenusBounds() != CompanionInvariants()  # equal shared fields, different classes
    assert Interval(1, 2) != type("Span", (Interval,), {})(1, 2)
    assert Interval(1, 2) != (1, 2)
    rules = [AppliedRule("r", "a", "c"), AppliedRule("r", "a", "c"), AppliedRule("r", "a", "d")]
    assert len(set(rules)) == 2
    assert repr(Interval(1, 2)) == "Interval(lo=1, hi=2)"
    assert CobordismCheck("1/2", 0, 4).upsilon_start == Fraction(1, 2)  # __post_init__ coerces


def test_cli_process_imports_no_dataclasses_inspect_or_typing():
    """dataclasses loads inspect, ast and dis: ~15 ms of every CLI process's start; typing ~4 ms."""
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"}
    # the CLI imports the rule engine per command, so import every module here
    code = ("import sys, slicegate.cli, slicegate.knotdb, slicegate.obstruct; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    # -S keeps site's own imports out of sys.modules
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
