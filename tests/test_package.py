"""The package's public names, each loading its submodule on first access, and its
documented library use."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import slicegate

SRC = os.path.dirname(os.path.dirname(os.path.abspath(slicegate.__file__)))
README = os.path.join(os.path.dirname(SRC), "README.md")

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


def test_readme_library_block_runs_and_its_values_hold():
    # each line that ends in a "# value" comment shows the value of its expression
    with open(README, encoding="utf-8") as fh:
        block = fh.read().split("## Library use", 1)[1].split("```python", 1)[1].split("```")[0]
    namespace, shown = {}, []
    exec(block, namespace)
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if comment and isinstance(ast.parse(code.strip()).body[0], ast.Expr):
            value = eval(code, namespace)
            shown.append(", ".join(map(str, value)) if isinstance(value, tuple) else str(value))
            assert shown[-1] == comment.split(":")[0].strip(), line
    assert shown == ["0, -t + 3 - t^-1", "False", "[2, 2]"]


VALUES = {  # a fresh value, and its repr; a store is mutable, so it has no hash or repr
    "LaurentPoly": (lambda: slicegate.LaurentPoly({1: -1, 0: 3, -1: -1}),
                    "LaurentPoly('-t + 3 - t^-1')"),
    "PLFunction": (lambda: slicegate.PLFunction([(0, 0), (1, -1), (2, 0)]),
                   "PLFunction([(0, 0), (1, -1), (2, 0)])"),
    "SeifertMatrix": (lambda: slicegate.SeifertMatrix([[1, 1], [0, -1]]),
                      "SeifertMatrix([[1, 1], [0, -1]])"),
    "KnotStore": (lambda: slicegate.seed_table(), None),
}


@pytest.mark.parametrize("kind", VALUES)
def test_values_compare_hash_and_repr_by_value(kind):
    make, text = VALUES[kind]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert not a == object() and a != "4_1"  # no other type compares equal
    if text is None:
        with pytest.raises(TypeError):
            hash(a)
        assert "4_1" in a and "5_2" not in a
    else:
        assert hash(a) == hash(b) and len({a, b}) == 1 and repr(a) == text
    if kind == "LaurentPoly":  # an int is the constant polynomial
        P = slicegate.LaurentPoly
        assert P({0: 3}) == 3 and P({}) == 0 and P({0: 3}) != 2 and a != 3
