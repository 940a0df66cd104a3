"""The command-line surface: output formats, exit codes, store handling."""

import json
import math
import os
import random
import shlex
import subprocess
import sys

import pytest
from conftest import golden_corpus, make_valid_seifert, torus_2q_seifert
from jsonschema import validate

import slicegate
from slicegate import cli, knotdb, laurent, obstruct
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


@pytest.mark.parametrize("argv", [
    ["show", "nope"],
    ["whitehead", "--clasp", "+", "--twist", "3", "--companion", "nope"],
    ["cable-bounds", "--p", "2", "--q", "3", "--upsilon-of", "nope"],
], ids=["show", "whitehead-companion", "cable-bounds-upsilon-of"])
def test_an_unknown_knot_is_one_error_line_and_exit_2(argv):
    proc = run_python("-m", "slicegate.cli", *argv)  # a fresh process, as a user runs it
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: unknown knot 'nope'\n")


def test_obstruct_batch_matches_single_reports(capsys):
    code, out, _ = run(capsys, "obstruct", "--all", "--json")
    assert code == 0
    reports = json.loads(out)["reports"]
    names = [r["name"] for r in reports]
    assert names == sorted(names)
    store = knotdb.seed_table()
    for report in reports:
        expected = json.dumps(aggregate(store.lookup(report["name"])).to_json(), indent=2) + "\n"
        assert run(capsys, "obstruct", report["name"], "--json") == (0, expected, "")
        assert json.loads(expected) == report


def _batch_stores(tmp_path):
    """Stores of no record, of one, and of the golden corpus less its two clashing records."""
    empty, one, corpus = (tmp_path / f"{n}.json" for n in ("empty", "one", "corpus"))
    empty.write_text(json.dumps({"format_version": 1, "records": []}), encoding="utf-8")
    one.write_text(json.dumps(_store_with(sigma=2)), encoding="utf-8")
    store = knotdb.KnotStore()
    for record in golden_corpus():
        if not record.name.startswith("clash-"):
            store.add(record)
    knotdb.save(store, corpus)
    return [empty, one, corpus]


def test_obstruct_all_writes_the_document_of_its_reports(tmp_path, capsys):
    # the reports are written text by text, and the bytes are those of the whole document
    obstructed = []
    for path in _batch_stores(tmp_path):
        reports = [aggregate(r) for r in knotdb.load(path).records()]
        expected = {
            "--json": json.dumps({"reports": [r.to_json() for r in reports]}, indent=2) + "\n",
            "text": "\n\n".join("\n".join(cli._report_lines(r)) for r in reports) + "\n",
        }
        flag = any(cli._verdict_obstructed(r) for r in reports)
        for mode, out in expected.items():
            argv = ["obstruct", "--all", "--store", str(path), *([mode] if mode == "--json" else [])]
            assert run(capsys, *argv) == (0, out, ""), (path.name, mode)
            assert run(capsys, *argv, "--fail-on-obstruction") == (int(flag), out, "")
        obstructed.append(flag)
    assert obstructed == [False, True, True]


def test_obstruct_all_renders_each_report_once_and_never_the_whole_document(
        tmp_path, capsys, monkeypatch):
    # --json writes each report with json_text and json.dumps sees no report and no document;
    # text mode builds each report's lines and no JSON text; neither builds a report's dict
    path = _batch_stores(tmp_path)[2]
    count = len(knotdb.load(path))
    calls = {"dumps": [], "lines": 0, "json_text": 0, "to_json": 0}

    def dumps(obj, _dumps=json.dumps, **kwargs):
        calls["dumps"].append(obj)
        return _dumps(obj, **kwargs)

    def report_lines(report, _lines=cli._report_lines):
        calls["lines"] += 1
        return _lines(report)

    def counted(name, method):
        def call(report, *args):
            calls[name] += 1
            return method(report, *args)
        return call

    monkeypatch.setattr(cli.json, "dumps", dumps)
    monkeypatch.setattr(cli, "_report_lines", report_lines)
    for name in ("json_text", "to_json"):
        method = getattr(obstruct.ObstructionReport, name)
        monkeypatch.setattr(obstruct.ObstructionReport, name, counted(name, method))
    assert run(capsys, "obstruct", "--all", "--json", "--store", str(path))[0] == 0
    assert (calls["json_text"], calls["lines"], calls["to_json"]) == (count, 0, 0)
    assert not any(isinstance(obj, dict) and {"applied_rules", "reports"} & obj.keys()
                   for obj in calls["dumps"])
    calls.update(dumps=[], json_text=0)
    assert run(capsys, "obstruct", "--all", "--store", str(path))[0] == 0
    assert (calls["json_text"], calls["lines"], calls["to_json"]) == (0, count, 0)
    assert calls["dumps"] == []


def test_obstruct_all_names_the_record_whose_bounds_clash(tmp_path, capsys):
    # 3_1's matrix has |sigma|/2 = 1 <= g4, against z's stored g4 = [0, 0]; nothing is written
    path = tmp_path / "store.json"
    records = [{"name": "a", "sigma": 0},
               {"name": "z", "seifert_matrix": {"n": 2, "entries": [[-1, 1], [0, -1]]},
                "invariants": {"g4": [0, 0]}}]
    path.write_text(json.dumps({"format_version": 1, "records": records}), encoding="utf-8")
    line = ("error: record 'z': g4: lower bound 1 from rule 'signature-bound' exceeds "
            "upper bound 0 from rule 'stored-bounds'\n")
    for mode in ([], ["--json"]):
        assert run(capsys, "obstruct", "--all", "--store", str(path), *mode) == (2, "", line)


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
    # Arf = 1 gives g4 >= 1, and Yasuhara gamma4 >= 2, as in the obstruct report
    assert doc["bounds"] == {"g4": [1, 1], "gamma4": [2, 2], "g3": [1, 1], "gamma3": [2, None]}


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
    assert "g4: [0, 0]   g3: [1, 1]\ngamma4: [1, 1]   gamma3: unknown\n" in out
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
    record = KnotRecord(name="pattern5", seifert_matrix=_seifert.SeifertMatrix([[-1, 1], [0, 5]]))
    assert out == json.dumps(aggregate(record).to_json(), indent=2) + "\n"


def test_empty_matrix_file_is_slice_with_no_stored_bound(tmp_path, capsys):
    # the 0 x 0 matrix file stores nothing: g4 <= 0 comes from its genus-0 Seifert surface
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 0, "entries": []}), encoding="utf-8")
    code, out, _ = run(capsys, "obstruct", "--matrix-file", str(path))
    assert code == 0
    assert ("topologically slice: yes; smoothly slice: yes; "
            "non-orientably slice (gamma4 = 1): yes") in out
    assert "stored-bounds" not in out


def test_invariants_malformed_matrix_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "entries": [[1, 0], [0, 1]]}))
    code, _, err = run(capsys, "invariants", "--matrix-file", str(path))
    assert code == 2
    assert "unimodular" in err or "V - V^T" in err


def test_invariants_and_obstruct_report_equal_bounds(tmp_path, capsys):
    # one rule engine decides genus bounds: invariants prints the obstruct report's, on
    # every corpus record that invariants reads (one with a matrix or Delta); one
    # obstruct --all gives each record's single report
    store = knotdb.KnotStore()
    for record in golden_corpus():
        if record.seifert_matrix is not None or record.alexander is not None:
            store.add(record)
    path = str(tmp_path / "corpus.json")
    knotdb.save(store, path)
    code, out, _ = run(capsys, "obstruct", "--all", "--json", "--store", path)
    assert code == 0
    reported = {r["name"]: r["bounds"] for r in json.loads(out)["reports"]}
    assert sorted(reported) == store.names()
    for name in store.names():
        code, out, err = run(capsys, "invariants", name, "--json", "--store", path)
        assert code == 0, (name, err)
        assert json.loads(out)["bounds"] == reported[name], name


def test_invariants_and_obstruct_refuse_contradicting_bounds_alike(tmp_path, capsys):
    # 3_1's matrix has |sigma|/2 = 1 <= g4, against a stored g4 = [0, 0]
    path = tmp_path / "store.json"
    path.write_text(json.dumps(_store_with(seifert_matrix={"n": 2, "entries": [[-1, 1], [0, -1]]},
                                           invariants={"g4": [0, 0]})), encoding="utf-8")
    line = ("error: g4: lower bound 1 from rule 'signature-bound' exceeds upper bound 0 "
            "from rule 'stored-bounds'\n")
    for command in ("invariants", "obstruct"):
        assert run(capsys, command, "k", "--store", str(path)) == (2, "", line), command


def test_invariants_factors_delta_once(tmp_path, capsys, monkeypatch):
    # K # -K = V (+) -V^T has det(V + V^T)^2, an odd square, so Fox-Milnor factors its
    # Delta; invariants builds the record's facts once, for its lines and its bounds
    n = 4
    entries = make_valid_seifert(random.Random(7), n)
    mirror = [[-x for x in c] for c in zip(*entries)]
    both = [r + [0] * n for r in entries] + [[0] * n + r for r in mirror]
    path = tmp_path / "k_mk.json"
    path.write_text(json.dumps({"n": 2 * n, "entries": both}), encoding="utf-8")
    calls = []

    def counted(delta, _fox_milnor=obstruct.fox_milnor):
        calls.append(delta)
        return _fox_milnor(delta)

    monkeypatch.setattr(obstruct, "fox_milnor", counted)
    code, out, _ = run(capsys, "invariants", "--matrix-file", str(path), "--json")
    assert code == 0 and json.loads(out)["fox_milnor"]["passes"]
    assert len(calls) == 1


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


@pytest.mark.parametrize("argv, text, doc", [
    (["--from-upsilon", "0", "--to-upsilon=-1/2", "--euler", "-2"],
     "|v(K0) - v(K1) + e/4| = 0 vs b1/2 = 1/2\ncobordism data consistent\n",
     {"upsilon_start": "0", "upsilon_end": "-1/2", "euler": -2, "betti": 1, "lhs": "0",
      "bound": "1/2", "consistent": True}),
    (["--from-upsilon", "1/3", "--to-upsilon=-2/7", "--euler", "5", "--betti", "3"],
     "|v(K0) - v(K1) + e/4| = 157/84 vs b1/2 = 3/2\n"
     "cobordism data OBSTRUCTED: no such surface\n",
     {"upsilon_start": "1/3", "upsilon_end": "-2/7", "euler": 5, "betti": 3, "lhs": "157/84",
      "bound": "3/2", "consistent": False}),
], ids=["consistent", "obstructed"])
def test_cobordism_output_is_pinned(capsys, argv, text, doc):
    assert run(capsys, "cobordism", *argv) == (0, text, "")
    assert run(capsys, "cobordism", *argv, "--json") == (0, json.dumps(doc, indent=2) + "\n", "")


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
    csv_path.write_text("knot,epsilon\n,1\nbad,2\ngood,1\n", encoding="utf-8")
    code, out, err = run(capsys, "import", "--csv", str(csv_path), "--map", "name=knot",
                         "--map", "epsilon=epsilon", "--save", str(tmp_path / "store.json"))
    assert (code, err) == (0, "")
    assert "imported 2 record(s): bad, good" in out
    assert "diagnostic: row 2: skipped, no name\n" in out
    assert "diagnostic: row 3: epsilon: unparseable cell '2'" in out


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


@pytest.mark.parametrize("value", ["1_0", "1/2_0", "\u0661/\u0662", "+1/2", " 1/2 "],
                         ids=["underscore", "underscore-in-denominator", "arabic-indic-digits",
                              "plus-sign", "blanks"])
@pytest.mark.parametrize("argv", [
    ["cobordism", "--from-upsilon", "{v}", "--to-upsilon", "0", "--euler", "0"],
    ["euler-range", "--upsilon", "{v}", "--q", "1"],
    ["invariants", "4_1", "--omega", "{v}"],
], ids=["from-upsilon", "upsilon", "omega"])
def test_a_rational_is_read_only_from_ascii_without_underscores(capsys, argv, value):
    # Fraction alone would read 1_0 as 10, 1/2_0 as 1/20, Arabic-Indic digits as 1/2, and
    # skip a plus sign and blanks
    argv = [value if a == "{v}" else a for a in argv]
    assert run(capsys, *argv) == (2, "", f"error: cannot interpret {value!r} as a rational\n")


def test_a_decimal_rational_is_exact(capsys):
    code, out, _ = run(capsys, "cobordism", "--from-upsilon", "1.5", "--to-upsilon", "0",
                       "--euler", "0", "--json")
    assert code == 0 and json.loads(out)["upsilon_start"] == "3/2"


# each integer option, by a command line that ends in it
INT_OPTIONS = {
    "whitehead --twist": ["whitehead", "--clasp", "+", "--companion", "unknot", "--twist"],
    "whitehead --framing": ["whitehead", "--clasp", "+", "--twist", "1", "--companion",
                            "unknot", "--framing"],
    "cable-bounds --p": ["cable-bounds", "--q", "1", "--zero", "--p"],
    "cable-bounds --q": ["cable-bounds", "--p", "2", "--zero", "--q"],
    "cobordism --euler": ["cobordism", "--from-upsilon", "0", "--to-upsilon", "0", "--euler"],
    "cobordism --betti": ["cobordism", "--from-upsilon", "0", "--to-upsilon", "0", "--euler",
                          "0", "--betti"],
    "euler-range --q": ["euler-range", "--upsilon", "0", "--q"],
}


@pytest.mark.parametrize("value", ["1_0", "\u0663", "+2", "1.0"],
                         ids=["underscore", "arabic-indic-digit", "plus-sign", "decimal"])
@pytest.mark.parametrize("option", INT_OPTIONS)
def test_an_integer_option_is_read_as_a_json_integer(capsys, option, value):
    # int() would read 1_0 as 10, the Arabic-Indic 3 as 3 and +2 as 2; argparse exits 2
    with pytest.raises(SystemExit) as exc:
        main([*INT_OPTIONS[option], value])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.endswith(f"error: argument {option.split()[1]}: invalid int value: {value!r}\n")
    assert main([*INT_OPTIONS[option], "3"]) == 0
    capsys.readouterr()


def test_negative_integers_and_decimal_rationals_still_read(capsys):
    code, out, _ = run(capsys, "whitehead", "--clasp", "+", "--twist", "-2", "--companion",
                       "unknot", "--json")
    assert code == 0 and json.loads(out)["effective_twist"] == -2
    code, out, _ = run(capsys, "cobordism", "--from-upsilon", "1.5", "--to-upsilon=-1/2",
                       "--euler", "-2", "--json")
    doc = json.loads(out)
    assert code == 0 and (doc["upsilon_start"], doc["upsilon_end"], doc["euler"]) == (
        "3/2", "-1/2", -2)


TREFOIL = {"n": 2, "entries": [[-1, 1], [0, -1]]}  # a valid matrix file


def _store_with(**fields):
    return {"format_version": 1, "records": [{"name": "k", **fields}]}


# the error lines that a case pins exactly; {file} is the case's input file
_MALFORMED_INPUT_ERROR = {
    "import-empty-csv": "error: {file}: missing header row",
    "import-map-without-equals": "error: --map expects FIELD=COLUMN, got 'namename'",
    "invariants-record-without-matrix-or-delta":
        "error: record 'k' carries no Seifert matrix or Alexander polynomial",
    "cable-bounds-record-without-upsilon": "error: record 'k' stores no Upsilon function",
    "invariants-no-source": "error: give NAME or --matrix-file",
    "obstruct-no-source": "error: give NAME, --matrix-file or --all",
    "cable-bounds-no-source": "error: give --zero, --upsilon-file or --upsilon-of",
    "upsilon-file-end-one": "error: upsilon is defined on [0, 2], got [0, 1]",
}


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
    (["invariants", "--matrix-file", "{file}"], {**TREFOIL, "sigma": 5}),
    (["cable-bounds", "--p", "2", "--q", "1", "--upsilon-file", "{file}"],
     {"breakpoints": [[0, 0], [2, 0]], "tau": 0}),
    (["import", "--csv", "{file}", "--map", "name=knot"], ""),
    (["import", "--csv", "{file}", "--map", "namename"], "knot\nk\n"),
    (["invariants", "k", "--store", "{file}"], _store_with(sigma=0)),
    (["cable-bounds", "--p", "2", "--q", "3", "--upsilon-of", "k", "--store", "{file}"],
     _store_with(sigma=0)),
    (["invariants"], None),
    (["obstruct"], None),
    (["cable-bounds", "--p", "2", "--q", "3"], None),
    (["cable-bounds", "--p", "2", "--q", "3", "--upsilon-file", "{file}"],
     {"breakpoints": [[0, 0], [1, 0]]}),
], ids=["omega-zero-denominator", "cobordism-zero-denominator",
        "euler-range-zero-denominator", "upsilon-file-zero-denominator",
        "matrix-file-without-entries", "matrix-file-entries-not-rows",
        "omega-exponent", "from-upsilon-exponent", "to-upsilon-exponent",
        "euler-range-exponent", "upsilon-file-exponent", "matrix-file-float-entries",
        "matrix-file-string-entries", "matrix-file-bool-entries", "matrix-file-float-size",
        "upsilon-file-float-pair", "invariants-name-and-matrix-file",
        "obstruct-name-and-matrix-file", "obstruct-all-and-matrix-file", "obstruct-all-and-name",
        "cable-bounds-zero-and-upsilon-of", "cable-bounds-zero-and-upsilon-file",
        "cable-bounds-upsilon-of-and-upsilon-file", "upsilon-file-string-coordinate",
        "matrix-file-unknown-key", "upsilon-file-unknown-key", "import-empty-csv",
        "import-map-without-equals", "invariants-record-without-matrix-or-delta",
        "cable-bounds-record-without-upsilon", "invariants-no-source", "obstruct-no-source",
        "cable-bounds-no-source", "upsilon-file-end-one"])
def test_malformed_input_is_one_error_line_and_exit_2(tmp_path, argv, document, request):
    # a str document is the file's text as it is; any other is written as JSON
    path = tmp_path / "input.json"
    if document is not None:
        text = document if isinstance(document, str) else json.dumps(document)
        path.write_text(text, encoding="utf-8")
    proc = run_python("-m", "slicegate.cli", *[str(path) if a == "{file}" else a for a in argv])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    expected = _MALFORMED_INPUT_ERROR.get(request.node.callspec.id)
    assert expected is None or lines[0] == expected.format(file=path), proc.stderr


# the error lines that a case pins exactly
_MALFORMED_STORE_ERROR = {
    "genus-three-items": "error: record 'k': an interval is an integer or [lo, hi], "
                         "got [1, 2, 3]",
    "genus-empty-list": "error: record 'k': an interval is an integer or [lo, hi], got []",
    "genus-string": "error: record 'k': an interval is an integer or [lo, hi], got 'x'",
    "epsilon-two": "error: record 'k': epsilon must be in {-1, 0, 1}, got 2",
    "matrix-string-entries": "error: record 'k': entries must be rows of integers",
    "matrix-singular-skew-part": "error: record 'k': det(V - V^T) = 0, expected +/-1",
    "alexander-not-terms": "error: record 'k': terms are [[coeff, exponent], ...] "
                           "integer pairs, got 5",
    "provenance-integer-tag": "error: record 'k': provenance must map fields to strings",
    "record-empty-name": "error: record '': a store record's name must not be empty",
    "record-unknown-key": "error: record 'k': unknown key 'sigmaa' in the record",
    "invariants-unknown-key": "error: record 'k': unknown key 'taux' in invariants",
    "upsilon-unknown-key": "error: record 'k': unknown key 'break' in a PL function",
    "document-unknown-key": "error: unknown key 'record' in the store",
    "matrix-unknown-key": "error: record 'k': unknown key 'entriez' in a Seifert matrix",
    "sigma-odd": "error: record 'k': sigma: 3 is odd",
    "arf-two": "error: record 'k': arf: 2 is not in {0, 1}",
    "upsilon-end-half": "error: record 'k': upsilon is defined on [0, 2], got [0, 1/2]",
    "upsilon-end-one": "error: record 'k': upsilon is defined on [0, 2], got [0, 1]",
    "upsilon-end-three": "error: record 'k': upsilon is defined on [0, 2], got [0, 3]",
}


@pytest.mark.parametrize("document", [
    [],
    {"format_version": 1, "records": {"a": 1}},
    {"format_version": 1},
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
    _store_with(invariants={"g4": [1, 2, 3]}),
    _store_with(invariants={"g4": []}),
    _store_with(invariants={"g4": "x"}),
    _store_with(provenance={"sigma": 5}),
    {"format_version": 1, "records": [{"name": ""}]},
    _store_with(sigmaa=4, invariants={"taux": 3}),
    _store_with(invariants={"taux": 3}),
    _store_with(invariants={"upsilon": {"breakpoints": [[0, 0], [2, 0]], "break": []}}),
    {"format_version": 1, "records": [], "record": []},
    _store_with(seifert_matrix={"n": 2, "entries": [[-1, 1], [0, -1]], "entriez": [[1]]}),
    _store_with(sigma=3),
    _store_with(arf=2),
    *[_store_with(invariants={"tau": 1, "upsilon": {"breakpoints": [[0, 0], [end, -1]]}})
      for end in ([1, 2], 1, 3)],
    _store_with(invariants={"epsilon": 2}),
    _store_with(seifert_matrix={"n": 2, "entries": [[1, 0], [0, 1]]}),
], ids=["document-not-object", "records-not-list", "records-missing", "record-not-object",
        "record-without-name", "alexander-not-terms", "alexander-null-coefficient",
        "invariants-not-object", "sigma-not-integer", "upsilon-breakpoint-exponent",
        "matrix-string-entries", "alexander-bool-coefficient", "genus-string-bound",
        "format-version-bool", "matrix-false", "invariants-false", "provenance-zero",
        "upsilon-zero", "upsilon-empty-list", "epsilon-zero-tau-nonzero",
        "upsilon-string-coordinate", "genus-three-items", "genus-empty-list",
        "genus-string", "provenance-integer-tag", "record-empty-name", "record-unknown-key",
        "invariants-unknown-key", "upsilon-unknown-key", "document-unknown-key",
        "matrix-unknown-key", "sigma-odd", "arf-two", "upsilon-end-half", "upsilon-end-one",
        "upsilon-end-three", "epsilon-two", "matrix-singular-skew-part"])
def test_malformed_store_is_one_error_line_and_exit_2(tmp_path, document, request):
    path = tmp_path / "store.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    proc = run_python("-m", "slicegate.cli", "obstruct", "--all", "--store", str(path))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert lines[0] == _MALFORMED_STORE_ERROR.get(request.node.callspec.id, lines[0])


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
    through 1 or -1 costs no elimination.  SeifertMatrix checks det(V - V^T) = 1 with
    one _det_int call of size n.  Checking a stored Delta against an n x n matrix is
    one more _det_int call of size n and, on a match, memoizes Delta.
    """
    calls = []
    for name in ("_signature_int", "_charpoly_mod", "_det_int"):
        def counted(*args, _name=name, _kernel=getattr(_seifert, name)):
            calls.append((_name, len(args[0])))
            return _kernel(*args)
        monkeypatch.setattr(_seifert, name, counted)
    return calls


def test_a_stored_delta_is_checked_by_one_determinant(tmp_path, capsys, monkeypatch):
    # K # -K has an odd-square determinant, so Fox-Milnor reads Delta: the one that
    # loading checked and memoized, with no characteristic polynomial
    n = 6
    entries = make_valid_seifert(random.Random(26), n)
    mirror = [[-x for x in c] for c in zip(*entries)]
    both = [r + [0] * n for r in entries] + [[0] * n + r for r in mirror]
    delta = _seifert.alexander(_seifert.SeifertMatrix(both))
    path = tmp_path / "store.json"
    records = [{"name": "k", "seifert_matrix": {"n": 2 * n, "entries": both},
                "alexander": (laurent.LaurentPoly({3: -1}) * delta).to_terms()}]
    path.write_text(json.dumps({"format_version": 1, "records": records}), encoding="utf-8")
    calls = count_kernels(monkeypatch)
    knotdb.load(path)
    assert sorted(calls) == [("_det_int", 2 * n), ("_det_int", 2 * n)]
    calls.clear()
    code, out, _ = run(capsys, "obstruct", "--all", "--json", "--store", str(path))
    assert code == 0
    assert json.loads(out)["reports"][0]["verdict"]["topologically_slice"] == "unknown"
    assert sorted(calls) == [("_det_int", 2 * n), ("_det_int", 2 * n),
                             ("_signature_int", 2 * n)]


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
    checked = sorted([("_det_int", n), ("_signature_int", n)])
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
    assert sorted(calls) == sorted([("_det_int", 2 * n), ("_signature_int", 2 * n),
                                    ("_charpoly_mod", 2 * n)])

    # one prime modulus serves n = 32 with entries of size at most 5 too; both omega lie
    # past every root of its Delta, on the arc through -1, so they share the memoized
    # signature of V + V^T and need no Hermitian elimination
    calls.clear()
    big = _seifert.SeifertMatrix(make_valid_seifert(random.Random(32), 32))
    values = [_seifert.levine_tristram(big, w) for w in ("1/3", "2/5")]
    assert values == [_seifert.signature(big)] * 2
    assert sorted(calls) == [("_charpoly_mod", 32), ("_det_int", 32),
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
    assert sorted(calls) == sorted([("_det_int", 6), ("_signature_int", 6),
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

    # a named store must still exist, though these commands do not read it
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


# each subcommand with its arguments, and whether it reads a record from the store;
# {dir} is a directory holding m.json (a Seifert matrix), u.json (a PL function) and
# t.csv (a one-row table)
COMMANDS = {
    "invariants-name": (["invariants", "4_1"], True),
    "invariants-matrix-file": (["invariants", "--matrix-file", "{dir}/m.json"], False),
    "whitehead": (["whitehead", "--clasp", "+", "--twist", "3", "--companion", "unknot"], True),
    "obstruct-name": (["obstruct", "4_1"], True),
    "obstruct-all": (["obstruct", "--all"], True),
    "obstruct-matrix-file": (["obstruct", "--matrix-file", "{dir}/m.json"], False),
    "cable-bounds-zero": (["cable-bounds", "--p", "2", "--q", "1", "--zero"], False),
    "cable-bounds-upsilon-file": (["cable-bounds", "--p", "2", "--q", "3", "--upsilon-file",
                                   "{dir}/u.json"], False),
    "cable-bounds-upsilon-of": (["cable-bounds", "--p", "2", "--q", "3", "--upsilon-of", "3_1"],
                                True),
    "cobordism": (["cobordism", "--from-upsilon", "0", "--to-upsilon=-1/2", "--euler", "-2"],
                  False),
    "euler-range": (["euler-range", "--upsilon", "0", "--q", "1"], False),
    "import": (["import", "--csv", "{dir}/t.csv", "--map", "name=knot", "--map",
                "seifert=matrix"], True),
    "show": (["show", "3_1"], True),
}


def _command(tmp_path, label):
    (tmp_path / "m.json").write_text(json.dumps(TREFOIL), encoding="utf-8")
    (tmp_path / "u.json").write_text(json.dumps({"breakpoints": [[0, 0], [1, -1], [2, 0]]}),
                                     encoding="utf-8")
    (tmp_path / "t.csv").write_text('knot,matrix\nk2,"[[-1,1],[0,2]]"\n', encoding="utf-8")
    argv, reads_record = COMMANDS[label]
    return [a.format(dir=tmp_path) for a in argv], reads_record


@pytest.mark.parametrize("label", sorted(COMMANDS))
def test_store_is_read_only_by_a_command_that_reads_a_record(tmp_path, capsys, monkeypatch,
                                                             label):
    monkeypatch.delenv("SLICEGATE_STORE", raising=False)
    argv, reads_record = _command(tmp_path, label)
    missing = tmp_path / "missing.json"
    if label != "import":  # import creates a missing store
        assert run(capsys, *argv, "--store", str(missing)) == (
            2, "", f"error: store file {missing} does not exist\n")
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"format_version": 1, "records": [5]}), encoding="utf-8")
    code, out, err = run(capsys, *argv, "--store", str(malformed))
    if reads_record:
        assert (code, out, err) == (
            2, "", "error: a store record is a JSON object with a string 'name', got 5\n")
    else:  # the store is never parsed, so the command runs as with no store named
        assert (code, out, err) == run(capsys, *argv)
        assert code == 0


def _modules_loaded_by(*argv):
    """The slicegate modules a fresh process has loaded after one main(argv) call."""
    script = """if True:
        import json, sys
        from slicegate import cli
        assert cli.main(sys.argv[1:]) == 0
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("slicegate."))))
    """
    proc = run_python("-c", script, *argv)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("argv", [
    ["cobordism", "--from-upsilon", "0", "--to-upsilon=-1/2", "--euler", "-2"],
    ["euler-range", "--upsilon", "0", "--q", "1"],
    ["cable-bounds", "--p", "2", "--q", "1", "--zero"],
], ids=["cobordism", "euler-range", "cable-bounds-zero"])
@pytest.mark.parametrize("named_store", [False, True], ids=["seeds", "store"])
def test_pl_arithmetic_commands_load_no_seifert_alexander_or_rule_code(tmp_path, argv,
                                                                        named_store):
    if named_store:
        knotdb.save(knotdb.seed_table(), tmp_path / "store.json")
        argv = [*argv, "--store", str(tmp_path / "store.json")]
    assert _modules_loaded_by(*argv) == {"slicegate._record", "slicegate.cli",
                                         "slicegate.plfunc"}


@pytest.mark.parametrize("argv", [
    ["show", "3_1"],
    ["cable-bounds", "--p", "2", "--q", "3", "--upsilon-of", "3_1"],
], ids=["show", "cable-bounds-upsilon-of"])
def test_record_readers_that_run_no_rule_load_no_rule_engine(argv):
    loaded = _modules_loaded_by(*argv)
    assert "slicegate.knotdb" in loaded and "slicegate.obstruct" not in loaded


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
