"""Record storage: seeds, CSV ingestion, JSON persistence, the double pipeline."""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slicegate.bounds import Interval
from slicegate.knotdb import (DuplicateKnotError, InconsistentRecordError, KnotRecord,
                              KnotStore, UnknownKnotError, ingest_csv, load, save,
                              seed_table, whitehead_double_record)
from slicegate.laurent import LaurentPoly, fox_milnor
from slicegate.seifert import SeifertMatrix
from slicegate.whitehead import WhiteheadParams


def test_seed_lookups():
    store = seed_table()
    assert store.lookup("3_1").sigma == -2
    assert store.lookup("4_1").arf == 1
    unknot = store.lookup("unknot")
    assert unknot.invariants.g3 == Interval(0, 0)
    assert unknot.invariants.g4 == Interval(0, 0)
    assert store.lookup("6_1").alexander == LaurentPoly({1: 2, 0: -5, -1: 2})
    assert store.lookup("6_1").invariants.g4 == Interval(0, 0)
    assert fox_milnor(store.lookup("6_1").alexander).passes


def test_seed_tau_epsilon_table_data():
    store = seed_table()
    assert store.lookup("4_1").invariants.tau == 0
    assert store.lookup("4_1").invariants.epsilon == 0
    assert store.lookup("3_1").invariants.tau == 1
    assert store.lookup("3_1").invariants.epsilon == 1
    assert store.lookup("3_1").provenance["tau"] == "table"


def test_unknown_name():
    with pytest.raises(UnknownKnotError):
        seed_table().lookup("19_1")
    # a failed lookup is still a KeyError to library callers, and a ValueError, which the CLI
    # reports as an input error
    try:
        seed_table().lookup("19_1")
    except KeyError as exc:
        assert isinstance(exc, ValueError) and str(exc) == "unknown knot '19_1'"
    else:
        pytest.fail("lookup of an unknown name raised nothing")


def test_record_validation_catches_mismatches():
    with pytest.raises(InconsistentRecordError) as err:
        KnotRecord(name="4_1", seifert_matrix=SeifertMatrix([[1, 1], [0, -1]]),
                   sigma=2).validate()
    assert "sigma" in str(err.value)
    with pytest.raises(InconsistentRecordError) as err:
        KnotRecord(name="4_1", seifert_matrix=SeifertMatrix([[1, 1], [0, -1]]),
                   arf=0).validate()
    assert "arf" in str(err.value)
    with pytest.raises(InconsistentRecordError):
        KnotRecord(name="4_1", seifert_matrix=SeifertMatrix([[1, 1], [0, -1]]),
                   alexander=LaurentPoly.one()).validate()


def test_record_validation_checks_stored_alexander_and_arf():
    fig8 = LaurentPoly({1: -1, 0: 3, -1: -1})  # Delta(-1) = 5, so Arf = 1
    for delta in (LaurentPoly({0: 2}), LaurentPoly({1: -1, 0: 2}), LaurentPoly()):
        with pytest.raises(InconsistentRecordError) as err:
            KnotRecord(name="k", alexander=delta).validate()
        assert "alexander" in str(err.value)
    with pytest.raises(InconsistentRecordError) as err:
        KnotRecord(name="k", alexander=fig8, arf=0).validate()
    assert "arf: stored 0, computed 1" in str(err.value)
    KnotRecord(name="k", alexander=fig8, arf=1).validate()
    KnotRecord(name="k", alexander=-fig8 * LaurentPoly({3: 1}), arf=1).validate()


def test_a_wrong_stored_delta_names_both_polynomials():
    # the determinant check only decides; the message computes Delta as before.  The
    # second Delta is an Alexander polynomial that spans more than n = 2
    trefoil = [[-1, 1], [0, -1]]
    for stored, text in ((LaurentPoly({1: -1, 0: 3, -1: -1}), "-t + 3 - t^-1"),
                         (LaurentPoly({3: 1, 2: -1, 1: 1, 0: -1, -1: 1}),
                          "t^3 - t^2 + t - 1 + t^-1")):
        with pytest.raises(InconsistentRecordError) as err:
            KnotRecord(name="k", seifert_matrix=SeifertMatrix(trefoil),
                       alexander=stored).validate()
        assert str(err.value) == (f"record 'k': alexander: stored {text} differs from "
                                  f"det(V - tV^T) = t - 1 + t^-1 up to units")


def test_duplicate_names_rejected():
    store = KnotStore()
    store.add(KnotRecord(name="k"))
    with pytest.raises(DuplicateKnotError):
        store.add(KnotRecord(name="k"))


def test_ingest_csv_roundtrip(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(
        'knot,matrix,sig,arf\n'
        '4_1b,"[[1,1],[0,-1]]",0,1\n'
        '6_1b,,0,\n',
        encoding="utf-8")
    store = KnotStore()
    added, diagnostics = ingest_csv(
        store, path, {"name": "knot", "seifert": "matrix", "signature": "sig", "arf": "arf"})
    assert added == ["4_1b", "6_1b"]
    assert diagnostics == []  # empty optional cells are silently absent
    rec = store.lookup("4_1b")
    assert rec.seifert_matrix == seed_table().lookup("4_1").seifert_matrix
    assert rec.sigma == 0 and rec.arf == 1
    assert rec.provenance["seifert_matrix"] == "table"
    assert rec.provenance["sigma"] == "table"
    other = store.lookup("6_1b")
    assert other.seifert_matrix is None and other.arf is None and other.sigma == 0


def test_ingest_csv_consistency_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text('knot,matrix,sig\n4_1,"[[1,1],[0,-1]]",2\n', encoding="utf-8")
    with pytest.raises(InconsistentRecordError) as err:
        ingest_csv(KnotStore(), path, {"name": "knot", "seifert": "matrix",
                                       "signature": "sig"})
    assert "sigma" in str(err.value)


def test_ingest_csv_unparseable_cell_becomes_diagnostic(tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text('knot,tau\nk1,not-a-number\n', encoding="utf-8")
    store = KnotStore()
    added, diagnostics = ingest_csv(store, path, {"name": "knot", "tau": "tau"})
    assert added == ["k1"]
    assert len(diagnostics) == 1 and "tau" in diagnostics[0]
    assert store.lookup("k1").invariants.tau is None


def test_ingest_csv_matrix_cell_with_an_unknown_key_becomes_diagnostic(tmp_path):
    path = tmp_path / "extra.csv"
    cell = '{"n": 2, "entries": [[-1, 1], [0, -1]], "sigma": 5}'
    path.write_text('knot,matrix\nk1,"' + cell.replace('"', '""') + '"\n', encoding="utf-8")
    store = KnotStore()
    added, diagnostics = ingest_csv(store, path, {"name": "knot", "seifert": "matrix"})
    assert added == ["k1"] and store.lookup("k1").seifert_matrix is None
    assert diagnostics == [f"row 2: seifert: unparseable cell {cell!r} "
                           f"(unknown key 'sigma' in a Seifert matrix)"]


def test_ingest_csv_non_integer_cells_become_diagnostics(tmp_path):
    path = tmp_path / "floats.csv"
    path.write_text('knot,matrix,delta,g4\nk1,"[[-1.5,1],[0,2]]",,\nk2,,"[[1.7,0]]",\n'
                    'k3,,,"[0.5, 2]"\n', encoding="utf-8")
    store = KnotStore()
    added, diagnostics = ingest_csv(store, path, {"name": "knot", "seifert": "matrix",
                                                  "alexander": "delta", "g4": "g4"})
    assert added == ["k1", "k2", "k3"]
    assert [d.split(" (")[0] for d in diagnostics] == [
        "row 2: seifert: unparseable cell '[[-1.5,1],[0,2]]'",
        "row 3: alexander: unparseable cell '[[1.7,0]]'",
        "row 4: g4: unparseable cell '[0.5, 2]'",
    ]
    assert store.lookup("k1").seifert_matrix is None
    assert store.lookup("k2").alexander is None
    assert store.lookup("k3").invariants.g4 is None

    # integer cells follow JSON too: no digit separators, signs or non-ASCII digits
    path = tmp_path / "ints.csv"
    path.write_text('knot,sig,arf,tau,epsilon,nu,s\nk4,1_0,+1,\u0663,1.0,true,"""2"""\n'
                    'k5,-2,1,1,1,2,-2\n', encoding="utf-8")
    store = KnotStore()
    added, diagnostics = ingest_csv(store, path, {
        "name": "knot", "signature": "sig", "arf": "arf", "tau": "tau",
        "epsilon": "epsilon", "nu": "nu", "s": "s"})
    assert added == ["k4", "k5"]
    assert [d.split(" (")[0] for d in diagnostics] == [
        "row 2: signature: unparseable cell '1_0'",
        "row 2: arf: unparseable cell '+1'",
        "row 2: tau: unparseable cell '\u0663'",
        "row 2: epsilon: unparseable cell '1.0'",
        "row 2: nu: unparseable cell 'true'",
        "row 2: s: unparseable cell '\"2\"'",
    ]
    k4, k5 = store.lookup("k4"), store.lookup("k5")
    assert (k4.sigma, k4.arf, k4.invariants.tau, k4.invariants.s) == (None, None, None, None)
    assert (k5.sigma, k5.arf, k5.invariants.tau, k5.invariants.nu) == (-2, 1, 1, 2)


def test_ingest_csv_genus_cell_below_floor_becomes_diagnostic(tmp_path):
    path = tmp_path / "floor.csv"
    path.write_text('knot,g4,gamma4\nk1,"[-1, 2]",\nk2,,"[0, 2]"\n', encoding="utf-8")
    store = KnotStore()
    added, diagnostics = ingest_csv(store, path, {"name": "knot", "g4": "g4",
                                                  "gamma4": "gamma4"})
    assert added == ["k1", "k2"]
    assert diagnostics == [
        "row 2: g4: unparseable cell '[-1, 2]' (g4 lower bound below 0)",
        "row 3: gamma4: unparseable cell '[0, 2]' (gamma4 lower bound below 1)",
    ]
    assert store.lookup("k1").invariants.g4 is None
    assert store.lookup("k2").invariants.gamma4 is None


def test_ingest_csv_invariant_check_failures_become_diagnostics(tmp_path):
    path = tmp_path / "checks.csv"
    path.write_text('knot,tau,epsilon,nu,s\nk1,,2,,\nk2,,,,1\nk3,1,,3,\nk4,1,1,2,-2\n'
                    'k5,1,0,,\n', encoding="utf-8")
    store = KnotStore()
    added, diagnostics = ingest_csv(store, path, {f: f for f in ("tau", "epsilon", "nu", "s")}
                                    | {"name": "knot"})
    assert added == ["k1", "k2", "k4"]
    assert diagnostics == [
        "row 2: epsilon: unparseable cell '2' (epsilon must be in {-1, 0, 1}, got 2)",
        "row 3: s: unparseable cell '1' (the s invariant is even, got 1)",
        "row 4: nu: nu = 3 must be tau or tau + 1 (tau = 1); row skipped",
        # each check between two fields names its own field (Hom: epsilon = 0 forces tau = 0)
        "row 6: epsilon: epsilon = 0 forces tau = 0 (tau = 1); row skipped",
    ]
    assert store.lookup("k1").invariants.epsilon is None
    assert store.lookup("k2").invariants.s is None
    assert store.lookup("k4").invariants.nu == 2


def test_ingest_csv_checks_alexander_cells_and_arf(tmp_path):
    path = tmp_path / "delta.csv"
    path.write_text('knot,delta,arf\nk1,"[[2,0]]",\nk2,"[[-1,-1],[3,0],[-1,1]]",1\n',
                    encoding="utf-8")
    store = KnotStore()
    added, diagnostics = ingest_csv(store, path, {"name": "knot", "alexander": "delta",
                                                  "arf": "arf"})
    assert added == ["k1", "k2"]
    assert diagnostics == [
        "row 2: alexander: unparseable cell '[[2,0]]' (Delta(1) = 2, expected +/-1)"]
    assert store.lookup("k1").alexander is None
    path.write_text('knot,delta,arf\nk1,"[[-1,-1],[3,0],[-1,1]]",0\n', encoding="utf-8")
    with pytest.raises(InconsistentRecordError) as err:
        ingest_csv(KnotStore(), path, {"name": "knot", "alexander": "delta", "arf": "arf"})
    assert "arf: stored 0, computed 1" in str(err.value)


def test_ingest_csv_mapping_validated(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        ingest_csv(KnotStore(), path, {"name": "a", "wat": "b"})
    with pytest.raises(ValueError):
        ingest_csv(KnotStore(), path, {"tau": "b"})
    with pytest.raises(ValueError):
        ingest_csv(KnotStore(), path, {"name": "missing_column"})


def test_save_load_roundtrip(tmp_path):
    store = seed_table()
    path = tmp_path / "store.json"
    save(store, path)
    again = load(path)
    assert again == store
    # second save is byte-identical (idempotent persistence)
    path2 = tmp_path / "store2.json"
    save(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_save_failure_keeps_the_old_store(tmp_path, monkeypatch):
    path = tmp_path / "store.json"
    save(KnotStore(), path)
    before = path.read_bytes()
    encode = json.dumps

    def failing_dumps(obj, **kwargs):
        if obj["name"] == "4_1":  # the header and the record of 3_1 are already written
            raise OSError("no space left on device")
        return encode(obj, **kwargs)

    def failing_replace(src, dst):
        raise OSError("permission denied")

    for module, name, failing in ((json, "dumps", failing_dumps),
                                  (os, "replace", failing_replace)):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, failing)
            with pytest.raises(OSError):
                save(seed_table(), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["store.json"]


def test_save_writes_one_record_per_line(tmp_path):
    path = tmp_path / "store.json"
    save(KnotStore(), path)
    assert path.read_text(encoding="utf-8") == '{"format_version": 1, "records": []}\n'
    store = seed_table()
    save(store, path)
    head, *lines, tail, end = path.read_text(encoding="utf-8").split("\n")
    assert (head, tail, end) == ('{"format_version": 1, "records": [', "]}", "")
    assert [line.endswith(",") for line in lines] == [True] * (len(store) - 1) + [False]
    assert [json.loads(line.rstrip(",")) for line in lines] == [r.to_json()
                                                                for r in store.records()]


def test_an_indented_store_loads_and_is_resaved_one_record_per_line(tmp_path):
    # stores used to be written with json.dump(doc, fh, indent=2)
    store = seed_table()
    store.add(whitehead_double_record(WhiteheadParams("-", 2, 0, "3_1"), store.lookup("3_1")))
    indented, saved = tmp_path / "indented.json", tmp_path / "saved.json"
    with open(indented, "w", encoding="utf-8") as fh:
        json.dump({"format_version": 1, "records": [r.to_json() for r in store.records()]},
                  fh, indent=2)
        fh.write("\n")
    save(store, saved)
    assert load(indented) == load(saved) == store
    save(load(indented), indented)
    assert indented.read_bytes() == saved.read_bytes()


def test_every_saved_record_loads_back_from_both_layouts(tmp_path):
    # the golden corpus writes every record field, invariant and Upsilon key that save
    # writes, so the unknown-key checks must pass it, one record per line and indented
    from conftest import golden_corpus

    store = KnotStore()
    for record in golden_corpus():
        store.add(record)
    lines, indented = tmp_path / "lines.json", tmp_path / "indented.json"
    save(store, lines)
    indented.write_text(json.dumps({"format_version": 1, "records": [
        r.to_json() for r in store.records()]}, indent=2) + "\n", encoding="utf-8")
    assert load(lines) == load(indented) == store


def test_save_load_empty_store(tmp_path):
    path = tmp_path / "empty.json"
    save(KnotStore(), path)
    assert len(load(path)) == 0


def test_load_rejects_duplicates_and_bad_version(tmp_path):
    path = tmp_path / "dup.json"
    rec = KnotRecord(name="k").to_json()
    path.write_text(json.dumps({"format_version": 1, "records": [rec, rec]}))
    with pytest.raises(DuplicateKnotError):
        load(path)
    path.write_text(json.dumps({"format_version": 99, "records": []}))
    with pytest.raises(ValueError):
        load(path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers(-10**6, 10**6)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=8)
_TERMS = st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2), max_size=3)
_MATRIX = st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2), min_size=2,
                   max_size=2)
_INVARIANTS = st.fixed_dictionaries({}, optional={
    **{k: st.integers(-2, 2) | _JSON for k in ("tau", "epsilon", "nu", "s")},
    **{k: st.integers(-1, 3) | st.lists(st.integers(-1, 3) | st.none(), max_size=3) | _JSON
       for k in ("g4", "gamma4", "g3", "gamma3")},
    "upsilon": st.fixed_dictionaries({"breakpoints": _JSON}) | _JSON,
})
_RECORD = st.fixed_dictionaries({"name": st.text(max_size=3)}, optional={
    "seifert_matrix": _MATRIX | st.fixed_dictionaries({"entries": _MATRIX | _JSON}) | _JSON,
    "alexander": _TERMS | _JSON,
    "sigma": st.integers(-4, 4) | st.floats() | _JSON,
    "arf": st.integers(0, 1) | _JSON,
    "invariants": _INVARIANTS | _JSON,
    "provenance": st.dictionaries(st.text(max_size=3), st.text(max_size=3)) | _JSON,
})
# whole documents of any shape, stores of any records, and well-formed stores
# of records whose fields may have any shape
_STORE = st.one_of(
    _JSON,
    st.fixed_dictionaries({"format_version": st.just(1) | _JSON,
                           "records": st.lists(_RECORD | _JSON, max_size=3) | _JSON}),
    st.fixed_dictionaries({"format_version": st.just(1),
                           "records": st.lists(_RECORD, min_size=1, max_size=3)}))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_STORE)
def test_load_returns_a_store_or_raises_value_error(tmp_path, doc):
    path = tmp_path / "store.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        store = load(path)
    except ValueError:
        return
    assert isinstance(store, KnotStore)


def test_ingest_save_load_idempotent(tmp_path):
    csv_path = tmp_path / "in.csv"
    csv_path.write_text('knot,matrix\nk9,"[[-1,1],[0,3]]"\n', encoding="utf-8")
    store = KnotStore()
    ingest_csv(store, csv_path, {"name": "knot", "seifert": "matrix"})
    p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
    save(store, p1)
    save(load(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_whitehead_double_record_provenance():
    store = seed_table()
    rec = whitehead_double_record(WhiteheadParams("+", 3, 0, "unknot"),
                                  store.lookup("unknot"))
    # the record stores the pattern matrix and no sigma, Arf or Delta of its own
    assert rec.seifert_matrix == SeifertMatrix([[-1, 1], [0, 3]])
    assert (rec.sigma, rec.arf, rec.alexander) == (None, None, None)
    assert rec.provenance["seifert_matrix"] == "computed"
    assert "sigma" not in rec.provenance
    assert rec.provenance["tau"] == "computed"
    assert rec.provenance["gamma4"] == "paper"
    neg = whitehead_double_record(WhiteheadParams("-", -3, 0, "unknot"),
                                  store.lookup("unknot"))
    assert neg.provenance["tau"] == "reconstructed"  # mirror-derived rule
    assert neg.invariants.gamma4 == Interval(1, 2)   # upper bound only


def test_whitehead_double_record_half_twist_withholds_matrix_data():
    # a twist of the sign opposite to the clasp (once called the half-twist regime) no
    # longer withholds anything: the record carries its pattern matrix like any other
    # double, and the paper's genus bounds apply
    store = seed_table()
    rec = whitehead_double_record(WhiteheadParams("+", -2, 0, "unknot"),
                                  store.lookup("unknot"))
    assert rec.seifert_matrix == SeifertMatrix([[-1, 1], [0, -2]])
    assert (rec.sigma, rec.arf, rec.alexander) == (None, None, None)
    assert rec.provenance["seifert_matrix"] == "computed"
    assert rec.invariants.gamma4 == Interval(1, 2)
    assert (rec.invariants.tau, rec.invariants.epsilon) == (1, 1)
