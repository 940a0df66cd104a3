"""The command-line surface: output formats, exit codes, store handling."""

import json
import math
import os
import random
import shlex
import subprocess
import sys

import pytest
from conftest import make_valid_seifert, torus_2q_seifert
from jsonschema import validate

import slicegate
from slicegate import cli, knotdb
from slicegate import seifert as _seifert
from slicegate.cli import main
from slicegate.knotdb import KnotRecord
from slicegate.obstruct import aggregate

SRC = os.path.dirname(os.path.dirname(os.path.abspath(slicegate.__file__)))
README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

INTERVAL_SCHEMA = {
    "type": ["array", "null"],
    "prefixItems": [{"type": "integer"}, {"type": ["integer", "null"]}],
    "minItems": 2,
    "maxItems": 2,
}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["name", "bounds", "verdict", "applied_rules", "notes"],
    "properties": {
        "name": {"type": "string"},
        "bounds": {
            "type": "object",
            "required": ["g4", "gamma4", "g3", "gamma3"],
            "properties": {q: INTERVAL_SCHEMA for q in ("g4", "gamma4", "g3", "gamma3")},
        },
        "verdict": {
            "type": "object",
            "required": ["topologically_slice", "smoothly_slice", "nonorientably_slice"],
            "additionalProperties": {"enum": ["yes", "no", "unknown"]},
        },
        "applied_rules": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["rule", "anchor", "contribution"],
                "additionalProperties": {"type": "string"},
            },
        },
        "notes": {"type": "array", "items": {"type": "string"}},
    },
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_python(*args):
    """A fresh interpreter on this checkout's sources, for what in-process runs hide."""
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("SLICEGATE_STORE", None)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


def test_obstruct_json_figure_eight(capsys):
    code, out, _ = run(capsys, "obstruct", "4_1", "--json")
    assert code == 0
    doc = json.loads(out)
    validate(doc, REPORT_SCHEMA)
    assert doc["verdict"]["topologically_slice"] == "no"
    assert any(r["rule"] == "fox-milnor" for r in doc["applied_rules"])


def test_obstruct_fail_on_obstruction_exit_code(capsys):
    code, _, _ = run(capsys, "obstruct", "4_1", "--fail-on-obstruction")
    assert code == 1
    code, _, _ = run(capsys, "obstruct", "unknot", "--fail-on-obstruction")
    assert code == 0


def test_obstruct_unknown_knot_is_input_error(capsys):
    code, _, err = run(capsys, "obstruct", "19_55")
    assert code == 2
    assert "19_55" in err


def test_obstruct_batch_matches_single_reports(capsys):
    code, out, _ = run(capsys, "obstruct", "--all", "--json")
    assert code == 0
    reports = json.loads(out)["reports"]
    names = [r["name"] for r in reports]
    assert names == sorted(names)
    for report in reports:
        code, single, _ = run(capsys, "obstruct", report["name"], "--json")
        assert code == 0
        assert json.loads(single) == report


def test_whitehead_odd_twist_report(capsys):
    code, out, _ = run(capsys, "whitehead", "--clasp", "+", "--twist", "3",
                       "--companion", "unknot", "--json")
    assert code == 0
    doc = json.loads(out)
    validate(doc["report"], REPORT_SCHEMA)
    assert doc["report"]["bounds"]["gamma4"] == [2, 2]
    assert doc["cable_target_q"] == 7
    assert any("Yasuhara" in r["anchor"] for r in doc["report"]["applied_rules"])


def test_whitehead_untwisted_double_of_figure_eight(capsys):
    code, out, _ = run(capsys, "whitehead", "--clasp", "+", "--twist", "0",
                       "--companion", "4_1")
    assert code == 0
    assert "topologically slice: yes" in out
    assert "smoothly slice: unknown" in out
    assert "gamma4: [1, 2]" in out
    assert "(2, 1)-cable" in out


def test_whitehead_half_twist_warning_not_fatal(capsys):
    # a twist of the sign opposite to the clasp (once called the half-twist regime) is
    # neither fatal nor noted any more: Wh+_-1 of the unknot has the trefoil's matrix,
    # so sigma, Arf and Delta are 3_1's, and tau = 1 = g3 forces epsilon = sgn tau = 1
    code, out, _ = run(capsys, "whitehead", "--clasp", "+", "--twist", "-1",
                       "--companion", "unknot", "--json")
    assert code == 0
    doc = json.loads(out)
    validate(doc["report"], REPORT_SCHEMA)
    code, trefoil, _ = run(capsys, "invariants", "3_1", "--json")
    assert code == 0
    assert (doc["sigma"], doc["arf"]) == (-2, 1)
    assert doc["alexander"] == json.loads(trefoil)["alexander"]
    assert (doc["tau"], doc["epsilon"]) == (1, 1)
    assert doc["report"]["notes"] == []
    assert doc["report"]["bounds"]["gamma4"] == [1, 2]
    code, out, _ = run(capsys, "whitehead", "--clasp", "+", "--twist", "-1",
                       "--companion", "unknot")
    assert code == 0
    assert "sigma: -2   arf: 1" in out and "tau: 1   epsilon: 1" in out
    assert "note:" not in out


def test_invariants_text_and_json(capsys):
    code, out, _ = run(capsys, "invariants", "4_1", "--omega", "1/4")
    assert code == 0
    assert "sigma: 0" in out and "arf: 1" in out and "determinant: 5" in out
    assert "fox-milnor: fails" in out
    code, out, _ = run(capsys, "invariants", "4_1", "--json", "--omega", "1/2")
    doc = json.loads(out)
    assert doc["alexander"] == [[-1, -1], [3, 0], [-1, 1]]
    assert doc["levine_tristram"] == [{"omega": "1/2", "signature": 0}]


def test_invariants_from_matrix_file(tmp_path, capsys):
    path = tmp_path / "trefoil.json"
    path.write_text(json.dumps({"n": 2, "entries": [[-1, 1], [0, -1]]}))
    code, out, _ = run(capsys, "invariants", "--matrix-file", str(path))
    assert code == 0
    assert "sigma: -2" in out


def test_invariants_polynomial_only_record(capsys):
    # 6_1 is seeded with its Alexander polynomial but no matrix
    code, out, _ = run(capsys, "invariants", "6_1")
    assert code == 0
    assert "determinant: 9" in out and "fox-milnor: passes" in out
    code, _, err = run(capsys, "invariants", "6_1", "--omega", "1/2")
    assert code == 2 and "Levine-Tristram" in err


@pytest.mark.parametrize("angle", ["0", "1"])
def test_omega_one_error_names_the_given_angle(capsys, angle):
    code, out, err = run(capsys, "invariants", "4_1", "--omega", angle)
    assert code == 2 and out == ""
    assert err == f"error: omega = e^(2*pi*i*{angle}) = 1 is excluded from Levine-Tristram\n"


def test_obstruct_from_matrix_file(tmp_path, capsys):
    path = tmp_path / "pattern5.json"
    path.write_text(json.dumps({"n": 2, "entries": [[-1, 1], [0, 5]]}))
    code, out, _ = run(capsys, "obstruct", "--matrix-file", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "pattern5"
    assert doc["bounds"]["gamma4"] == [2, 3]  # Yasuhara fires, crosscap upper


def test_invariants_malformed_matrix_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "entries": [[1, 0], [0, 1]]}))
    code, _, err = run(capsys, "invariants", "--matrix-file", str(path))
    assert code == 2
    assert "unimodular" in err or "V - V^T" in err


def test_euler_range_cli(capsys):
    code, out, _ = run(capsys, "euler-range", "--upsilon", "0", "--q", "1", "--json")
    assert code == 0
    assert json.loads(out)["euler_range"] == [-8, 4]


def test_cobordism_cli(capsys):
    # values starting with "-" use the --option=value form
    code, out, _ = run(capsys, "cobordism", "--from-upsilon", "0",
                       "--to-upsilon=-1/2", "--euler", "-2", "--betti", "1")
    assert code == 0
    assert "consistent" in out
    code, _, _ = run(capsys, "cobordism", "--from-upsilon", "1", "--to-upsilon", "0",
                     "--euler", "0", "--fail-on-obstruction")
    assert code == 1


def test_cable_bounds_cli(capsys):
    code, out, _ = run(capsys, "cable-bounds", "--p", "2", "--q", "1", "--zero", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["lower"]["breakpoints"] == [[0, 0], [1, -1]]
    assert doc["upper"]["breakpoints"] == [[0, 0], [1, 0]]
    assert doc["upsilon_cable_interval"] == ["-3/2", "1/2"]
    code, out, _ = run(capsys, "cable-bounds", "--p", "2", "--q", "3",
                       "--upsilon-of", "3_1")
    assert code == 0


def test_import_and_show_roundtrip(tmp_path, capsys):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text('knot,matrix\nnew_knot,"[[-1,1],[0,2]]"\n', encoding="utf-8")
    store_path = tmp_path / "store.json"
    code, out, _ = run(capsys, "import", "--csv", str(csv_path),
                       "--map", "name=knot", "--map", "seifert=matrix",
                       "--save", str(store_path))
    assert code == 0
    assert "imported 1 record(s): new_knot" in out
    code, out, _ = run(capsys, "show", "new_knot", "--store", str(store_path))
    assert code == 0
    assert "new_knot" in out and "[[-1, 1], [0, 2]]" in out


def test_import_keeps_the_rest_of_a_table_past_a_bad_invariant(tmp_path, capsys):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("knot,epsilon\nbad,2\ngood,1\n", encoding="utf-8")
    code, out, err = run(capsys, "import", "--csv", str(csv_path), "--map", "name=knot",
                         "--map", "epsilon=epsilon", "--save", str(tmp_path / "store.json"))
    assert (code, err) == (0, "")
    assert "imported 2 record(s): bad, good" in out
    assert "diagnostic: row 2: epsilon: unparseable cell '2'" in out


@pytest.mark.parametrize("column,cell", [("s", "4"), ("epsilon", "1")])
def test_record_with_only_s_or_epsilon_gets_an_all_unknown_report(tmp_path, capsys, column,
                                                                  cell):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text(f"knot,{column}\nk,{cell}\n", encoding="utf-8")
    store_path = tmp_path / "store.json"
    code, _, _ = run(capsys, "import", "--csv", str(csv_path), "--map", "name=knot",
                     "--map", f"{column}={column}", "--save", str(store_path))
    assert code == 0
    code, out, err = run(capsys, "obstruct", "--all", "--json", "--store", str(store_path))
    assert (code, err) == (0, "")
    report = {r["name"]: r for r in json.loads(out)["reports"]}["k"]
    assert set(report["verdict"].values()) == {"unknown"}
    assert report["applied_rules"] == []


def test_store_env_variable(tmp_path, capsys, monkeypatch):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text('knot,matrix\nenv_knot,"[[-1,1],[0,1]]"\n', encoding="utf-8")
    store_path = tmp_path / "env_store.json"
    monkeypatch.setenv("SLICEGATE_STORE", str(store_path))
    code, _, _ = run(capsys, "import", "--csv", str(csv_path),
                     "--map", "name=knot", "--map", "seifert=matrix")
    assert code == 0 and store_path.exists()
    code, out, _ = run(capsys, "show", "env_knot")
    assert code == 0 and "env_knot" in out


def test_missing_store_file_is_input_error(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "obstruct", "--all", "--store", str(missing))
    assert code == 2
    assert out == "" and str(missing) in err
    monkeypatch.setenv("SLICEGATE_STORE", str(missing))
    code, _, err = run(capsys, "show", "3_1")
    assert code == 2 and str(missing) in err


def test_exact_rational_output(capsys):
    # rationals print as p/q, never floating point
    code, out, _ = run(capsys, "cobordism", "--from-upsilon", "0",
                       "--to-upsilon=-1/2", "--euler", "-2")
    assert code == 0
    assert "1/2" in out and "." not in out.replace("...", "")


TREFOIL = {"n": 2, "entries": [[-1, 1], [0, -1]]}  # a valid matrix file


@pytest.mark.parametrize("argv, document", [
    (["invariants", "4_1", "--omega", "1/0"], None),
    (["cobordism", "--from-upsilon", "1/0", "--to-upsilon", "0", "--euler", "0"], None),
    (["euler-range", "--upsilon", "1/0", "--q", "1"], None),
    (["cable-bounds", "--p", "2", "--q", "3", "--upsilon-file", "{file}"],
     {"breakpoints": [[0, 0], [[2, 0], 0]]}),
    (["invariants", "--matrix-file", "{file}"], {"n": 2}),
    (["invariants", "--matrix-file", "{file}"], {"entries": 5}),
    (["invariants", "4_1", "--omega", "1e-9"], None),
    (["cobordism", "--from-upsilon", "1e-9", "--to-upsilon", "0", "--euler", "0"], None),
    (["cobordism", "--from-upsilon", "0", "--to-upsilon", "1E-9", "--euler", "0"], None),
    (["euler-range", "--upsilon", "1e-9", "--q", "1"], None),
    (["cable-bounds", "--p", "2", "--q", "3", "--upsilon-file", "{file}"],
     {"breakpoints": [[0, 0], ["1e-9", 0], [2, 0]]}),
    (["invariants", "--matrix-file", "{file}"], {"n": 2, "entries": [[-1.9, 1], [0, 1.2]]}),
    (["invariants", "--matrix-file", "{file}"], {"n": 2, "entries": [["-1", 1], [0, -1]]}),
    (["invariants", "--matrix-file", "{file}"], {"n": 2, "entries": [[True, 1], [0, -1]]}),
    (["obstruct", "--matrix-file", "{file}"], {"n": 2.0, "entries": [[-1, 1], [0, -1]]}),
    (["cable-bounds", "--p", "2", "--q", "3", "--upsilon-file", "{file}"],
     {"breakpoints": [[0, 0], [[1.5, 1], -1], [2, 0]]}),
    (["invariants", "4_1", "--matrix-file", "{file}"], TREFOIL),
    (["obstruct", "4_1", "--matrix-file", "{file}"], TREFOIL),
    (["obstruct", "--all", "--matrix-file", "{file}"], TREFOIL),
    (["obstruct", "--all", "4_1"], None),
    (["cable-bounds", "--p", "2", "--q", "1", "--zero", "--upsilon-of", "3_1"], None),
    (["cable-bounds", "--p", "2", "--q", "1", "--zero", "--upsilon-file", "{file}"],
     {"breakpoints": [[0, 0], [2, 0]]}),
    (["cable-bounds", "--p", "2", "--q", "1", "--upsilon-of", "3_1", "--upsilon-file", "{file}"],
     {"breakpoints": [[0, 0], [2, 0]]}),
    (["cable-bounds", "--p", "2", "--q", "3", "--upsilon-file", "{file}"],
     {"breakpoints": [[0, 0], ["1/2", 0], [2, 0]]}),
], ids=["omega-zero-denominator", "cobordism-zero-denominator",
        "euler-range-zero-denominator", "upsilon-file-zero-denominator",
        "matrix-file-without-entries", "matrix-file-entries-not-rows",
        "omega-exponent", "from-upsilon-exponent", "to-upsilon-exponent",
        "euler-range-exponent", "upsilon-file-exponent", "matrix-file-float-entries",
        "matrix-file-string-entries", "matrix-file-bool-entries", "matrix-file-float-size",
        "upsilon-file-float-pair", "invariants-name-and-matrix-file",
        "obstruct-name-and-matrix-file", "obstruct-all-and-matrix-file", "obstruct-all-and-name",
        "cable-bounds-zero-and-upsilon-of", "cable-bounds-zero-and-upsilon-file",
        "cable-bounds-upsilon-of-and-upsilon-file", "upsilon-file-string-coordinate"])
def test_malformed_input_is_one_error_line_and_exit_2(tmp_path, argv, document):
    path = tmp_path / "input.json"
    if document is not None:
        path.write_text(json.dumps(document), encoding="utf-8")
    proc = run_python("-m", "slicegate.cli", *[str(path) if a == "{file}" else a for a in argv])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def _store_with(**fields):
    return {"format_version": 1, "records": [{"name": "k", **fields}]}


@pytest.mark.parametrize("document", [
    [],
    {"format_version": 1, "records": {"a": 1}},
    {"format_version": 1, "records": [5]},
    {"format_version": 1, "records": [{"sigma": 0}]},
    _store_with(alexander=5),
    _store_with(alexander=[[None, 0]]),
    _store_with(invariants=[1]),
    _store_with(sigma="x"),
    _store_with(invariants={"upsilon": {"breakpoints": [[0, 0], ["1e-9", -1], [2, 0]]}}),
    _store_with(seifert_matrix={"n": 2, "entries": [["-1", 1], [0, -1]]}),
    _store_with(alexander=[[True, 0]]),
    _store_with(invariants={"g4": ["0", 2]}),
    {"format_version": True, "records": []},
    _store_with(seifert_matrix=False, sigma=0),
    _store_with(invariants=False, sigma=0),
    _store_with(provenance=0, sigma=0),
    _store_with(invariants={"upsilon": 0}, sigma=0),
    _store_with(invariants={"upsilon": []}, sigma=0),
    _store_with(invariants={"tau": 1, "epsilon": 0}),
    _store_with(invariants={"upsilon": {"breakpoints": [[0, 0], ["1.5", "-1"], [2, 0]]}}),
], ids=["document-not-object", "records-not-list", "record-not-object", "record-without-name",
        "alexander-not-terms", "alexander-null-coefficient", "invariants-not-object",
        "sigma-not-integer", "upsilon-breakpoint-exponent", "matrix-string-entries",
        "alexander-bool-coefficient", "genus-string-bound", "format-version-bool",
        "matrix-false", "invariants-false", "provenance-zero", "upsilon-zero",
        "upsilon-empty-list", "epsilon-zero-tau-nonzero", "upsilon-string-coordinate"])
def test_malformed_store_is_one_error_line_and_exit_2(tmp_path, document):
    path = tmp_path / "store.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    proc = run_python("-m", "slicegate.cli", "obstruct", "--all", "--store", str(path))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def test_matrix_record_reports_the_matrix_delta_not_a_stored_unit_multiple(tmp_path, capsys):
    # the 0 x 0 matrix has Delta = 1; the stored t^2 is the same polynomial up to units
    path = tmp_path / "store.json"
    path.write_text(json.dumps(_store_with(seifert_matrix={"n": 0, "entries": []},
                                           alexander=[[1, 2]])), encoding="utf-8")
    code, out, _ = run(capsys, "invariants", "k", "--store", str(path))
    assert code == 0 and "alexander: 1\n" in out
    code, out, _ = run(capsys, "obstruct", "k", "--store", str(path), "--json")
    assert code == 0
    freedman = [r["contribution"] for r in json.loads(out)["applied_rules"]
                if r["rule"] == "freedman"]
    assert freedman == ["Delta = 1, so the knot is topologically slice"]


def test_readme_tour(tmp_path, capsys, monkeypatch):
    # every command of the README's CLI tour runs as advertised
    with open(README, encoding="utf-8") as fh:
        block = fh.read().split("## CLI tour", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    tour = [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("slicegate ")]
    assert len(tour) >= 10
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SLICEGATE_STORE", raising=False)
    (tmp_path / "knots.csv").write_text('knot,matrix\nk2,"[[-1,1],[0,2]]"\n', encoding="utf-8")
    for argv in tour:
        code, out, err = run(capsys, *argv)
        assert code == (1 if "--fail-on-obstruction" in argv else 0), (argv, err)
        assert "Traceback" not in err, argv
        if "--json" in argv:
            json.loads(out)


def count_kernels(monkeypatch):
    """Record each call of seifert's exact kernels as (kernel, size of the matrix it serves).

    One Alexander polynomial of an n x n matrix is one _charpoly_mod call of
    size n, modulo one prime, and no determinant.  One signature of V + V^T, and one
    Levine-Tristram signature on an interior arc, is one _signature_int call of size
    n (on the real, or the n x n Hermitian, form); the determinant det(V + V^T), and
    so Arf, is the last pivot of the first.  A Levine-Tristram signature on the arc
    through 1 or -1 costs no elimination.  SeifertMatrix checks det(V - V^T) = Pf^2
    with one _pfaffian call of size n.
    """
    calls = []
    for name in ("_pfaffian", "_signature_int", "_charpoly_mod"):
        def counted(*args, _name=name, _kernel=getattr(_seifert, name)):
            calls.append((_name, len(args[0])))
            return _kernel(*args)
        monkeypatch.setattr(_seifert, name, counted)
    return calls


def test_invariants_computes_alexander_once(capsys, monkeypatch):
    calls = count_kernels(monkeypatch)
    code, out, _ = run(capsys, "invariants", "4_1", "--omega", "1/3", "--omega", "2/5",
                       "--json")
    assert code == 0
    assert len(json.loads(out)["levine_tristram"]) == 2
    assert sum(name == "_charpoly_mod" for name, _ in calls) == 1


def test_sigma_and_delta_computed_once_per_matrix(tmp_path, capsys, monkeypatch):
    n = 8
    entries = make_valid_seifert(random.Random(12), n)
    sigma = _seifert.signature(_seifert.SeifertMatrix(entries))
    assert math.isqrt(det := _seifert.determinant(_seifert.SeifertMatrix(entries))) ** 2 != det
    path = tmp_path / "m8.json"
    path.write_text(json.dumps({"n": n, "entries": entries}), encoding="utf-8")
    calls = count_kernels(monkeypatch)
    # one V - V^T check and one sigma, whose last pivot gives the determinant and Arf;
    # a determinant that is not a square fails Fox-Milnor, so aggregate reads no Delta
    checked = sorted([("_pfaffian", n), ("_signature_int", n)])
    # invariants prints Delta, one characteristic polynomial; both omega lie on the arc
    # through 1 (Delta has no root between them and 1), so they add no Hermitian signature
    one_pass = sorted(checked + [("_charpoly_mod", n)])

    record = KnotRecord(name="k", seifert_matrix=_seifert.SeifertMatrix(entries), sigma=sigma)
    aggregate(record.validate())
    assert sorted(calls) == checked

    # with no store named, the CLI builds no seed table for a matrix file
    monkeypatch.delenv("SLICEGATE_STORE", raising=False)
    calls.clear()
    code, _, _ = run(capsys, "invariants", "--matrix-file", str(path),
                     "--omega", "1/3", "--omega", "2/5")
    assert code == 0
    assert sorted(calls) == one_pass

    calls.clear()
    code, _, _ = run(capsys, "obstruct", "--matrix-file", str(path))
    assert code == 0
    assert sorted(calls) == checked

    # K # -K = V (+) -V^T has det(V + V^T)^2, an odd square: Fox-Milnor reads its Delta
    mirror = [[-x for x in c] for c in zip(*entries)]
    both = [r + [0] * n for r in entries] + [[0] * n + r for r in mirror]
    path = tmp_path / "m16.json"
    path.write_text(json.dumps({"n": 2 * n, "entries": both}), encoding="utf-8")
    calls.clear()
    code, out, _ = run(capsys, "obstruct", "--matrix-file", str(path), "--json")
    assert code == 0 and json.loads(out)["verdict"]["topologically_slice"] == "unknown"
    assert sorted(calls) == sorted([("_pfaffian", 2 * n), ("_signature_int", 2 * n),
                                    ("_charpoly_mod", 2 * n)])

    # one prime modulus serves n = 32 with entries of size at most 5 too; both omega lie
    # past every root of its Delta, on the arc through -1, so they share the memoized
    # signature of V + V^T and need no Hermitian elimination
    calls.clear()
    big = _seifert.SeifertMatrix(make_valid_seifert(random.Random(32), 32))
    values = [_seifert.levine_tristram(big, w) for w in ("1/3", "2/5")]
    assert values == [_seifert.signature(big)] * 2
    assert sorted(calls) == [("_charpoly_mod", 32), ("_pfaffian", 32),
                             ("_signature_int", 32)], values

    # T(2, 7) has roots of Delta at angles 1/14, 3/14 and 5/14 of the circle, so 1/7 and
    # 1/3 lie on interior arcs: each omega adds one Hermitian signature of size 6
    path = tmp_path / "t27.json"
    path.write_text(json.dumps({"n": 6, "entries": torus_2q_seifert(7, random.Random(27))}),
                    encoding="utf-8")
    calls.clear()
    code, out, _ = run(capsys, "invariants", "--matrix-file", str(path),
                       "--omega", "1/7", "--omega", "1/3", "--json")
    assert code == 0
    assert [row["signature"] for row in json.loads(out)["levine_tristram"]] == [-2, -4]
    assert sorted(calls) == sorted([("_pfaffian", 6), ("_signature_int", 6),
                                    ("_charpoly_mod", 6)] + [("_signature_int", 6)] * 2)


def test_one_parser_serves_every_call_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    # main() reuses one parser; each in-process call reads as a fresh process does
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.delenv("SLICEGATE_STORE", raising=False)
    store = tmp_path / "store.json"
    store.write_text(json.dumps(_store_with(sigma=2)), encoding="utf-8")
    calls = [
        ["invariants", "4_1", "--omega", "1/3", "--omega", "2/5", "--json"],
        ["invariants", "4_1", "--json"],
        ["invariants", "--omega"],  # an argparse usage error
        ["invariants", "4_1", "--omega", "1/4"],
        ["obstruct", "--all", "--store", str(store), "--fail-on-obstruction"],
        ["obstruct", "--all", "--json"],
        ["show", "k"],  # not in the seeds: the store above is not kept
    ]
    seen = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        proc = run_python("-m", "slicegate.cli", *argv)
        assert (code, out.out, out.err) == (proc.returncode, proc.stdout, proc.stderr), argv
        seen.append(code)
    assert seen == [0, 0, 2, 0, 1, 0, 2]


def test_matrix_file_alone_builds_no_seed_table(tmp_path, capsys, monkeypatch):
    built = []
    seed_table = knotdb.seed_table
    monkeypatch.setattr(knotdb, "seed_table", lambda: built.append(1) or seed_table())
    monkeypatch.delenv("SLICEGATE_STORE", raising=False)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(TREFOIL), encoding="utf-8")
    for command in ("invariants", "obstruct"):
        code, out, _ = run(capsys, command, "--matrix-file", str(path), "--json")
        assert code == 0 and json.loads(out)["name"] == "m"
    assert built == []

    # a named store is still read, so a missing one is still an input error
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "invariants", "--matrix-file", str(path), "--store", str(missing))
    assert (code, out, err) == (2, "", f"error: store file {missing} does not exist\n")
    monkeypatch.setenv("SLICEGATE_STORE", str(missing))
    code, out, err = run(capsys, "obstruct", "--matrix-file", str(path))
    assert (code, out, err) == (2, "", f"error: store file {missing} does not exist\n")
    assert built == []

    monkeypatch.delenv("SLICEGATE_STORE")
    code, _, _ = run(capsys, "invariants", "4_1")
    assert code == 0 and built == [1]


def test_closed_stdout_ends_quietly_with_the_commands_exit_code(tmp_path):
    # about 180 KB of reports, well past a pipe buffer, so the writer meets the closed pipe
    records = [{"name": f"k{i:03d}", "sigma": 2, "arf": 0} for i in range(400)]
    path = tmp_path / "store.json"
    path.write_text(json.dumps({"format_version": 1, "records": records}), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.Popen(
        [sys.executable, "-m", "slicegate.cli", "obstruct", "--all", "--fail-on-obstruction",
         "--store", str(path)], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1  # obstructed, as without the pipe
    finally:
        proc.kill()
        proc.wait()
    assert first == b"knot: k000\n"
    assert err == b""


def test_runtime_needs_no_numpy():
    script = """if True:
        import sys
        import slicegate
        assert "numpy" not in sys.modules, "import slicegate pulled in numpy"
        sys.modules["numpy"] = None  # any later import of numpy now fails
        from slicegate.cli import main
        assert main(["invariants", "4_1", "--omega", "1/4", "--json"]) == 0
        assert main(["obstruct", "--all"]) == 0
    """
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
