"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is exact except the floating-point eigenvalue oracle
of criterion 9, which uses the pinned 1e-9 threshold.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from conftest import (alexander_formula, arf_gf2, float_signature, make_invalid_seifert,
                      make_valid_seifert)

from slicegate.bounds import Interval
from slicegate.knotdb import seed_table, whitehead_double_record
from slicegate.laurent import LaurentPoly, fox_milnor
from slicegate.obstruct import aggregate
from slicegate.plfunc import (PLFunction, cable_sandwich, two_q_upsilon_interval,
                              upsilon_little)
from slicegate.seifert import (NotASeifertMatrixError, SeifertMatrix, alexander, arf,
                               arf_murasugi, signature)
from slicegate.whitehead import (CompanionInvariants, WhiteheadParams, seifert_matrix,
                                 upsilon_whitehead)
from slicegate.plfunc import euler_number_range


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL - {description}")
        raise
    print(f"[criterion {number:02d}] PASS - {description}")


def test_criterion_01_stored_matrix_invariants():
    with criterion(1, "sigma(3_1) = -2, sigma(4_1) = 0, Arf(4_1) = 1 from stored matrices"):
        store = seed_table()
        v31 = store.lookup("3_1").seifert_matrix
        v41 = store.lookup("4_1").seifert_matrix
        assert signature(v31) == -2
        assert signature(v41) == 0
        assert arf(v41) == 1


def test_criterion_02_closed_form_vs_determinant():
    with criterion(2, "Alexander closed form equals det(V - tV^T) for 42 (clasp, twist) cases"):
        cases = 0
        for clasp in "+-":
            for b in range(-10, 11):
                params = WhiteheadParams(clasp, b)
                m = b if clasp == "+" else -b
                closed_form = LaurentPoly({1: -m, 0: 2 * m + 1, -1: -m})
                assert alexander_formula(params) == closed_form
                assert alexander(seifert_matrix(params)) == closed_form
                cases += 1
        assert cases == 42


def test_criterion_03_arf_triple_agreement():
    with criterion(3, "GF(2) brute force, Levine's determinant criterion, Murasugi mod 8, "
                      "and twist parity agree on all 42 cases"):
        cases = 0
        for clasp in "+-":
            for b in range(-10, 11):
                v = seifert_matrix(WhiteheadParams(clasp, b))
                brute = arf_gf2(v.entries)
                shortcut = arf_murasugi(alexander_formula(WhiteheadParams(clasp, b)))
                parity = b % 2
                assert brute == arf(v) == shortcut == parity
                cases += 1
        assert cases == 42


def test_criterion_04_gamma4_pipeline_for_twisted_doubles_of_unknot():
    with criterion(4, "aggregate gives gamma4 = [2,2] for odd t in [1,9], [1,2] for even t"):
        store = seed_table()
        unknot = store.lookup("unknot")
        for t in range(1, 10):
            record = whitehead_double_record(WhiteheadParams("+", t, 0, "unknot"), unknot)
            report = aggregate(record)
            if t % 2:
                assert report.bounds.gamma4 == Interval(2, 2), t
                assert "yasuhara" in {r.rule for r in report.applied_rules}
                assert report.verdict.nonorientably_slice == "no"
            else:
                assert report.bounds.gamma4 == Interval(1, 2), t


def test_criterion_05_fox_milnor():
    with criterion(5, "Fox-Milnor: Delta(4_1) fails, Delta(6_1) passes with witness, Delta = 1 passes"):
        assert not fox_milnor(LaurentPoly({1: -1, 0: 3, -1: -1}))
        delta61 = seed_table().lookup("6_1").alexander
        result = fox_milnor(delta61)
        assert result.passes
        wl = result.witness.to_laurent()
        assert result.unit.as_laurent() * wl * wl.involute() == delta61
        trivial = fox_milnor(LaurentPoly.one())
        assert trivial.passes and trivial.witness.coeffs == (1,)


def test_criterion_06_upsilon_case_formulas():
    with criterion(6, "Upsilon of doubles: zero function, and the +/-1 tents at the stated cases"):
        zero = upsilon_whitehead(WhiteheadParams("+", 0), CompanionInvariants(tau=0))
        assert zero == PLFunction.zero()
        assert upsilon_little(zero) == 0
        dip = upsilon_whitehead(WhiteheadParams("+", 0), CompanionInvariants(tau=1))
        assert dip.breakpoints == ((0, 0), (1, -1), (2, 0))
        assert upsilon_little(dip) == -1
        bump = upsilon_whitehead(WhiteheadParams("-", 1), CompanionInvariants(tau=0))
        assert bump.breakpoints == ((0, 0), (1, 1), (2, 0))
        assert upsilon_little(bump) == 1


def test_criterion_07_cobordism_arithmetic():
    with criterion(7, "euler_number_range(0, 1) = [-8, 4]; triangle inequality on 1000 instances"):
        assert euler_number_range(0, 1) == (-8, 4)
        rng = random.Random(2024)
        for _ in range(1000):
            q = rng.choice([-7, -5, -3, -1, 1, 3, 5, 7])
            # premise 1: |v1 + q/2| <= 1
            v1 = -Fraction(q, 2) + Fraction(rng.randint(-8, 8), 8)
            lo, hi = two_q_upsilon_interval(q)
            assert lo <= v1 <= hi
            # premise 2: |v0 - v1 + e/4| <= 1/2
            e = rng.randint(-12, 12)
            v0 = v1 - Fraction(e, 4) + Fraction(rng.randint(-4, 4), 8)
            assert abs(v0 - v1 + Fraction(e, 4)) <= Fraction(1, 2)
            # conclusion of the triangle inequality
            assert abs(v0 + Fraction(q, 2) + Fraction(e, 4)) <= Fraction(3, 2)


def test_criterion_08_cable_sandwich():
    with criterion(8, "cable envelopes for f = 0, p = 2, q = 1 are -s and 0 on [0, 1]"):
        lower, upper = cable_sandwich(PLFunction.zero(), 2, 1)
        assert lower == PLFunction([(0, 0), (1, -1)])
        assert upper == PLFunction([(0, 0), (1, 0)])
        lo, hi = two_q_upsilon_interval(1)
        for f in (lower, upper):
            assert lo <= upsilon_little(f) <= hi


def test_criterion_09_signature_oracle_equivalence():
    with criterion(9, "exact signature equals float eigenvalue counting on 500 random matrices"):
        rng = random.Random(99)
        disagreements = 0
        for _ in range(500):
            n = rng.choice([2, 4, 6])
            entries = make_valid_seifert(rng, n, bound=5)
            if signature(SeifertMatrix(entries)) != float_signature(entries):
                disagreements += 1
        assert disagreements == 0


def test_criterion_10_unimodularity_validation():
    with criterion(10, "validation rejects 100 non-unimodular matrices and accepts 100 valid ones"):
        rng = random.Random(123456)
        for _ in range(100):
            n = rng.choice([2, 4])
            with pytest.raises(NotASeifertMatrixError):
                SeifertMatrix(make_invalid_seifert(rng, n))
        for _ in range(100):
            n = rng.choice([2, 4, 6])
            SeifertMatrix(make_valid_seifert(rng, n))


def test_criterion_11_headline_case_stays_open():
    with criterion(11, "Wh+(4_1): topologically slice = yes, smoothly slice = unknown, gamma4 = [1,2]"):
        store = seed_table()
        record = whitehead_double_record(WhiteheadParams("+", 0, 0, "4_1"),
                                         store.lookup("4_1"))
        report = aggregate(record)
        assert report.verdict.topologically_slice == "yes"
        assert report.verdict.smoothly_slice == "unknown"
        assert report.bounds.gamma4 == Interval(1, 2)
