"""The package's public names: each loads its submodule on first access."""

import importlib
import os
import subprocess
import sys

import pytest

import slicegate

SRC = os.path.dirname(os.path.dirname(os.path.abspath(slicegate.__file__)))

# every name the package exports, by the submodule that defines it
PUBLIC = {
    "bounds": ["GenusBounds", "Interval"],
    "laurent": ["FoxMilnorResult", "InvalidAlexanderError", "LaurentPoly", "factor",
                "fox_milnor", "normalize"],
    "knotdb": ["KnotRecord", "KnotStore", "ingest_csv", "load", "save", "seed_table",
               "whitehead_double_record"],
    "obstruct": ["AppliedRule", "InconsistentBoundsError", "ObstructionReport", "Verdict",
                 "aggregate", "yasuhara"],
    "plfunc": ["CobordismCheck", "PLFunction", "cable_sandwich", "cobordism_inequality",
               "euler_number_range", "g4_lower_bound", "oss_gamma4_lower_bound",
               "two_q_upsilon_interval", "upsilon_little"],
    "seifert": ["NotASeifertMatrixError", "SeifertMatrix", "alexander", "arf", "arf_murasugi",
                "determinant", "levine_tristram", "signature"],
    "whitehead": ["CompanionInvariants", "InvariantClashError", "MissingInvariantError",
                  "WhiteheadParams", "cable_target", "epsilon_whitehead", "gamma4_whitehead",
                  "seifert_matrix", "tau_whitehead", "upsilon_whitehead"],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


def test_every_public_name_is_its_submodules_object():
    assert len(NAMES) == 48 and sorted(slicegate.__all__) == NAMES
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"slicegate.{module}")
        for name in names:
            assert getattr(slicegate, name) is getattr(mod, name), name
    assert slicegate.__version__ == "0.1.0"


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from slicegate import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES
    assert set(NAMES) | {"__version__"} <= set(dir(slicegate))


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        slicegate.no_such_name
    with pytest.raises(ImportError):
        exec("from slicegate import no_such_name", {})


def test_import_slicegate_loads_no_submodule():
    env = {**os.environ, "PYTHONPATH": SRC}
    code = ("import sys, slicegate; "
            "print(sorted(m for m in sys.modules if m.startswith('slicegate.'))); "
            "print(slicegate.seifert.signature is slicegate.signature)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # a submodule is still an attribute of the package, loaded on first access
    assert proc.stdout.split("\n") == ["[]", "True", ""]
