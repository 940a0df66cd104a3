"""The obstruction aggregation engine: rules, verdicts, consistency."""

import itertools
import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import golden_corpus, make_valid_seifert
from slicegate.bounds import GENUS_FLOOR, GenusBounds, Interval
from slicegate.knotdb import KnotRecord, seed_table, whitehead_double_record
from slicegate.laurent import LaurentPoly, fox_milnor
from slicegate.obstruct import (AppliedRule, InconsistentBoundsError, ObstructionReport, Verdict,
                                aggregate, record_facts, yasuhara)
from slicegate.seifert import SeifertMatrix, alexander, determinant, signature
from slicegate.whitehead import CompanionInvariants, WhiteheadParams, gamma4_whitehead
from slicegate import laurent
from slicegate import obstruct as obstruct_mod


def test_yasuhara_examples():
    assert yasuhara(0, 1)
    assert not yasuhara(0, 0)
    assert yasuhara(-4, 0)


def test_yasuhara_validates_input():
    with pytest.raises(ValueError):
        yasuhara(3, 0)
    with pytest.raises(ValueError):
        yasuhara(0, 2)


def test_yasuhara_mod8_invariance():
    for sigma in range(-16, 17, 2):
        for a in (0, 1):
            assert yasuhara(sigma, a) == yasuhara(sigma + 8, a) == yasuhara(sigma - 8, a)


def test_aggregate_figure_eight():
    report = aggregate(seed_table().lookup("4_1"))
    assert report.verdict.topologically_slice == "no"
    assert report.verdict.smoothly_slice == "no"
    assert report.bounds.g4 == Interval(1, 1)
    rules = {r.rule for r in report.applied_rules}
    assert "fox-milnor" in rules and "yasuhara" in rules


def test_aggregate_untwisted_double_of_figure_eight():
    store = seed_table()
    params = WhiteheadParams("+", 0, 0, "4_1")
    record = whitehead_double_record(params, store.lookup("4_1"))
    report = aggregate(record)
    assert report.verdict.topologically_slice == "yes"
    assert report.verdict.smoothly_slice == "unknown"
    assert report.bounds.gamma4 == Interval(1, 2)
    assert {r.rule for r in report.applied_rules} >= {"freedman"}


@pytest.mark.parametrize("terms", [[[1, 0]], [[1, 1]], [[1, -3]], [[-1, 0]]],
                         ids=["1", "t", "t^-3", "-1"])
def test_freedman_trivial_alexander_up_to_units(terms):
    delta = LaurentPoly.from_terms(terms)
    report = aggregate(KnotRecord(name="unit", alexander=delta))
    assert report.verdict.topologically_slice == "yes"
    notes = [r.contribution for r in report.applied_rules if r.rule == "freedman"]
    assert notes == [f"Delta = {delta}, so the knot is topologically slice"]
    if delta == LaurentPoly.one():
        assert notes == ["Delta = 1, so the knot is topologically slice"]


def test_aggregate_odd_twisted_double_of_unknot():
    store = seed_table()
    record = whitehead_double_record(WhiteheadParams("+", 3, 0, "unknot"),
                                     store.lookup("unknot"))
    report = aggregate(record)
    assert report.bounds.gamma4 == Interval(2, 2)
    assert report.verdict.nonorientably_slice == "no"
    assert "yasuhara" in {r.rule for r in report.applied_rules}


def test_aggregate_requires_some_data():
    with pytest.raises(ValueError):
        aggregate(KnotRecord(name="empty"))


def test_aggregate_inconsistent_inputs_raise():
    record = KnotRecord(
        name="bogus",
        alexander=LaurentPoly({1: -1, 0: 3, -1: -1}),  # Fox-Milnor fails
        invariants=CompanionInvariants(g4=Interval(0, 0)),  # claimed slice
    )
    with pytest.raises(InconsistentBoundsError) as err:
        aggregate(record)
    msg = str(err.value)
    assert "fox-milnor" in msg and "stored-bounds" in msg


def test_matrix_bounds_lie_inside_the_genus_formula():
    # oracle: the bounds one n x n matrix gives by formula, g4 in [|sigma|/2, n/2],
    # gamma4 in [1, n + 1] (the surface plus a crosscap) and g3 in [0, n/2]; the rule
    # engine may only be tighter
    rng = random.Random(21)
    for n in range(2, 13, 2):
        for _ in range(10):
            v = SeifertMatrix(make_valid_seifert(rng, n))
            bounds = aggregate(KnotRecord(name="k", seifert_matrix=v).validate()).bounds
            formula = {"g4": (abs(signature(v)) // 2, n // 2), "gamma4": (1, n + 1),
                       "g3": (0, n // 2)}
            for q, (lo, hi) in formula.items():
                iv = getattr(bounds, q)
                assert lo <= iv.lo and iv.hi is not None and iv.hi <= hi, (n, q, iv)


def test_aggregate_monotone_under_added_information():
    base = KnotRecord(name="k", alexander=LaurentPoly({1: -1, 0: 3, -1: -1}))
    richer = KnotRecord(name="k", alexander=LaurentPoly({1: -1, 0: 3, -1: -1}),
                        invariants=CompanionInvariants(tau=1, g4=Interval(1, 2)))
    b0 = aggregate(base).bounds
    b1 = aggregate(richer).bounds
    assert b1.g4.lo >= b0.g4.lo
    assert b0.g4.hi is None or b1.g4.hi <= b0.g4.hi


def test_verdicts_neither_normalize_nor_factor(monkeypatch):
    # Fox-Milnor and Freedman decide on the coefficients in hand, so the golden corpus
    # and a K # -K matrix (whose Delta Fox-Milnor factors and pairs) build no polynomial
    # only to take it apart
    def refuse(*args):
        raise AssertionError("the verdict path called normalize or factor")

    monkeypatch.setattr(laurent, "normalize", refuse)
    monkeypatch.setattr(laurent, "factor", refuse)
    n = 4
    entries = make_valid_seifert(random.Random(7), n)
    mirror = [[-x for x in c] for c in zip(*entries)]
    k_mk = KnotRecord(name="k_mk", seifert_matrix=SeifertMatrix(
        [r + [0] * n for r in entries] + [[0] * n + r for r in mirror]))
    rules = set()
    for record in [*golden_corpus(), k_mk]:
        try:
            rules |= {r.rule for r in aggregate(record).applied_rules}
        except InconsistentBoundsError:
            continue
    assert {"freedman", "fox-milnor"} <= rules
    fm = record_facts(k_mk).fm
    assert fm.passes and fm.witness.max_exp >= 1


def test_aggregate_rule_order_independent(monkeypatch):
    # which clash a contradiction reports first may depend on rule order;
    # that it is refused, and every report that is produced, may not
    def outcomes():
        out = []
        for record in golden_corpus():
            try:
                out.append(json.dumps(aggregate(record).to_json()))
            except InconsistentBoundsError:
                out.append("inconsistent")
        return out

    baseline = outcomes()
    monkeypatch.setattr(obstruct_mod, "_RULES", tuple(reversed(obstruct_mod._RULES)))
    assert outcomes() == baseline


def test_aggregate_report_survives_rule_shuffles_and_keeps_lo_at_most_hi(monkeypatch):
    # the whole report, applied rules included, is a function of the record and not of
    # the order of _RULES: seeded shuffles leave every golden-corpus report
    # byte-identical, and every quantity it bounds has its floor <= lo <= hi
    from slicegate.bounds import GENUS_FLOOR

    def reports():
        out = []
        for record in golden_corpus():
            try:
                out.append(json.dumps(aggregate(record).to_json()))
            except InconsistentBoundsError:
                out.append(None)
        return out

    baseline = reports()
    assert baseline.count(None) == 2
    for text in filter(None, baseline):
        for quantity, bound in json.loads(text)["bounds"].items():
            if bound is not None:
                lo, hi = bound
                assert GENUS_FLOOR[quantity] <= lo and (hi is None or lo <= hi), text
    rng = random.Random(1211)
    for _ in range(4):
        rules = list(obstruct_mod._RULES)
        rng.shuffle(rules)
        monkeypatch.setattr(obstruct_mod, "_RULES", tuple(rules))
        assert reports() == baseline, [name for name, *_ in rules]


def test_aggregate_rederives_whitehead_gamma4_theorem():
    # the generic engine must agree with the theorem on the whole (clasp, twist,
    # framing) grid: records store only gamma4 <= 2, and the lower bound comes from
    # (sigma, Arf) of the pattern matrix alone, which pins gamma4 = 2 for odd b of
    # the clasp's sign; with the signs opposite sigma = -/+2 and gamma4 stays [1, 2]
    store = seed_table()
    unknot = store.lookup("unknot")
    for clasp in "+-":
        for t in range(-10, 11):
            for lam in range(-2, 3):
                params = WhiteheadParams(clasp, t, lam, "unknot")
                b = params.effective_twist
                opposite = b < 0 if clasp == "+" else b > 0
                record = whitehead_double_record(params, unknot)
                report = aggregate(record)
                facts = record_facts(record)
                assert facts.sigma == ((-2 if clasp == "+" else 2) if opposite else 0), params
                assert facts.arf == b % 2, params
                assert record.invariants.gamma4 == gamma4_whitehead(params).gamma4
                pinned = b % 2 == 1 and not opposite
                assert report.bounds.gamma4 == Interval(2 if pinned else 1, 2), params
                assert report.verdict.nonorientably_slice == ("no" if pinned else "unknown")


def test_report_json_shape():
    report = aggregate(seed_table().lookup("3_1"))
    doc = report.to_json()
    assert list(doc) == ["name", "bounds", "verdict", "applied_rules", "notes"]
    assert list(doc["verdict"]) == ["topologically_slice", "smoothly_slice",
                                    "nonorientably_slice"]
    for rule in doc["applied_rules"]:
        assert list(rule) == ["rule", "anchor", "contribution"]


def test_trefoil_report():
    report = aggregate(seed_table().lookup("3_1"))
    assert report.verdict.smoothly_slice == "no"
    assert report.bounds.g4 == Interval(1, 1)
    assert report.bounds.gamma4 == Interval(1, 1)  # bounds a Moebius band
    assert report.verdict.nonorientably_slice == "yes"


def test_slice_seed_has_moebius_band_verdict():
    report = aggregate(seed_table().lookup("6_1"))
    assert report.verdict.smoothly_slice == "yes"
    assert report.verdict.topologically_slice == "yes"
    assert report.bounds.gamma4 == Interval(1, 1)
    assert report.verdict.nonorientably_slice == "yes"


def test_record_facts_reads_each_fact_from_one_source():
    trefoil_delta = LaurentPoly({1: 1, 0: -1, -1: 1})
    # a matrix record: sigma, the determinant and Arf from one elimination of V + V^T;
    # det = 3 is not a square, so Fox-Milnor fails on it and no Delta is read, even
    # when validate() has computed one against the stored Delta
    matrix = KnotRecord(name="m", seifert_matrix=SeifertMatrix([[-1, 1], [0, -1]]),
                        alexander=LaurentPoly({3: 1, 2: -1, 1: 1})).validate()
    facts = record_facts(matrix)
    assert (facts.sigma, facts.arf, facts.delta) == (-2, 1, None)
    assert facts.surface_genus == 1 and not facts.fm.passes
    assert facts.fm == fox_milnor(trefoil_delta)
    # 3_1 # -3_1: det = 9 is an odd square, so Delta is read and Fox-Milnor factors it
    both = KnotRecord(name="k", seifert_matrix=SeifertMatrix(
        [[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, -1, 1]])).validate()
    facts = record_facts(both)
    assert (facts.sigma, facts.arf, facts.delta) == (0, 0, trefoil_delta * trefoil_delta)
    assert facts.fm.passes and facts.surface_genus == 2
    # a table record: the stored values, and no Arf read off a Delta that is only stored
    table = KnotRecord(name="t", alexander=trefoil_delta, sigma=-2,
                       invariants=CompanionInvariants(tau=1)).validate()
    facts = record_facts(table)
    assert (facts.sigma, facts.arf, facts.delta) == (-2, None, trefoil_delta)
    assert facts.surface_genus is None and facts.stored.tau == 1
    assert record_facts(KnotRecord(name="s", arf=1)).arf == 1


def test_aggregate_does_not_depend_on_a_memoized_alexander():
    # aggregate reads a matrix's Delta only when |det(V + V^T)| is an odd square; its
    # report is the same whether alexander(v) ran before or not, on K (seeded, det
    # mostly not a square) and on K # -K = V (+) -V^T (det(V + V^T)^2, an odd square)
    rng = random.Random(1966)
    squares = set()
    for n in (2, 4, 6, 8, 12, 20):
        for _ in range(3 if n <= 8 else 1):
            entries = make_valid_seifert(rng, n, bound=5 if n <= 12 else 3)
            mirror = [[-x for x in c] for c in zip(*entries)]
            both = [r + [0] * n for r in entries] + [[0] * n + r for r in mirror]
            for matrix in (entries, both):
                reports = []
                for memoized in (False, True):
                    v = SeifertMatrix(matrix)
                    if memoized:
                        alexander(v)
                    reports.append(aggregate(KnotRecord(name="k", seifert_matrix=v)).to_json())
                assert reports[0] == reports[1], matrix
                squares.add(math.isqrt(d := determinant(SeifertMatrix(matrix))) ** 2 == d)
    assert squares == {False, True}


def _indent_2_text(report, pad):
    """The oracle for json_text: the stdlib's indent=2 document, lines after the first padded."""
    return json.dumps(report.to_json(), indent=2).replace("\n", "\n" + pad)


@pytest.mark.parametrize("pad", ["", "    "])
def test_json_text_is_the_indent_2_text_of_every_golden_report(pad):
    # every corpus record aggregates but the two whose bounds clash
    reports = [aggregate(r) for r in golden_corpus() if not r.name.startswith("clash-")]
    for report in reports:
        assert report.json_text(pad) == _indent_2_text(report, pad), report.name


def _verdict_or_none(values):
    try:
        return Verdict(*values)
    except ValueError:
        return None


_VERDICTS = [v for values in itertools.product(("yes", "no", "unknown"), repeat=3)
             if (v := _verdict_or_none(values))]
# names and rule strings with quotes, backslashes, control characters and non-ASCII
_TEXT = st.text() | st.text(alphabet='"\\/\x00\x1f\x7f\xe9\u2028\ud800\U0001f600ab')


def _interval(floor):
    def interval(lo, width):
        return Interval(lo, None if width is None else lo + width)
    return st.none() | st.builds(interval, st.integers(floor, 10 ** 30),
                                 st.none() | st.integers(0, 10 ** 30))


_REPORTS = st.builds(
    ObstructionReport,
    name=_TEXT,
    bounds=st.builds(GenusBounds, **{q: _interval(floor) for q, floor in GENUS_FLOOR.items()}),
    verdict=st.sampled_from(_VERDICTS),
    applied_rules=st.lists(st.builds(AppliedRule, _TEXT, _TEXT, _TEXT), max_size=4).map(tuple),
)


@given(_REPORTS, st.sampled_from(["", "    "]))
def test_json_text_is_the_indent_2_text_of_any_report(report, pad):
    assert report.json_text(pad) == _indent_2_text(report, pad)
