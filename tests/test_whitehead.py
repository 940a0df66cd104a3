"""The twisted Whitehead double formula engine."""

import pytest
from conftest import arf_gf2

from slicegate.bounds import Interval
from slicegate.laurent import LaurentPoly
from slicegate.obstruct import yasuhara
from slicegate.plfunc import PLFunction, upsilon_little
from slicegate.seifert import SeifertMatrix, alexander, arf, arf_murasugi, signature
from slicegate.whitehead import (CompanionInvariants, HalfTwistRegimeError,
                                 MissingInvariantError, WhiteheadParams,
                                 alexander_formula, arf_whitehead, cable_target,
                                 epsilon_whitehead, gamma4_whitehead,
                                 pattern_seifert_matrix, seifert_matrix,
                                 sigma_whitehead, tau_whitehead, upsilon_whitehead)

ZERO = PLFunction.zero()
TENT_DOWN = PLFunction([(0, 0), (1, -1), (2, 0)])
TENT_UP = PLFunction([(0, 0), (1, 1), (2, 0)])


def wh(clasp, twist, framing=0):
    return WhiteheadParams(clasp=clasp, twist=twist, framing=framing)


def test_params_validation():
    with pytest.raises(ValueError):
        WhiteheadParams(clasp="x", twist=0)
    assert wh("+", 3).effective_twist == 3
    assert wh("+", 3, framing=2).effective_twist == 5


def test_half_twist_regime_uses_effective_twist():
    assert wh("+", -1).half_twist_regime
    assert wh("-", 1).half_twist_regime
    assert not wh("+", 0).half_twist_regime
    assert not wh("-", 0).half_twist_regime
    # framing shifts the regime boundary
    assert wh("+", 0, framing=-1).half_twist_regime
    assert not wh("+", -1, framing=1).half_twist_regime
    assert wh("-", 0, framing=1).half_twist_regime


def test_seifert_matrix_examples():
    assert seifert_matrix(wh("+", 3)) == SeifertMatrix([[-1, 1], [0, 3]])
    assert seifert_matrix(wh("-", -2)) == SeifertMatrix([[1, 1], [0, -2]])
    v0 = seifert_matrix(wh("+", 0))
    assert v0 == SeifertMatrix([[-1, 1], [0, 0]])
    assert alexander(v0) == LaurentPoly.one()


def test_seifert_matrix_half_twist_error():
    with pytest.raises(HalfTwistRegimeError):
        seifert_matrix(wh("+", -3))
    with pytest.raises(HalfTwistRegimeError):
        sigma_whitehead(wh("-", 2))
    with pytest.raises(HalfTwistRegimeError):
        arf_whitehead(wh("+", -1))


def test_alexander_formula_examples():
    assert alexander_formula(wh("+", 0)) == LaurentPoly.one()
    assert alexander_formula(wh("+", 1)) == LaurentPoly({1: -1, 0: 3, -1: -1})
    assert alexander_formula(wh("+", -2)) == LaurentPoly({1: 2, 0: -3, -1: 2})
    # the negative clasp sees the mirrored parameter: Wh-_{-1}(U) is the
    # figure-eight, whose matrix [[1,1],[0,-1]] the pattern reproduces
    assert alexander_formula(wh("-", -1)) == LaurentPoly({1: -1, 0: 3, -1: -1})


def test_closed_form_matches_determinant():
    for clasp in "+-":
        for b in range(-10, 11):
            assert alexander(pattern_seifert_matrix(clasp, b)) == \
                alexander_formula(wh(clasp, b))


def test_sigma_and_arf_formulas():
    assert sigma_whitehead(wh("+", 5)) == 0
    assert sigma_whitehead(wh("-", -1)) == 0
    assert sigma_whitehead(wh("+", 0)) == 0
    assert arf_whitehead(wh("+", 2)) == 0
    assert arf_whitehead(wh("+", 3)) == 1
    assert arf_whitehead(wh("+", 3, framing=1)) == 0
    assert arf_whitehead(wh("+", 3, framing=1)) == arf(seifert_matrix(wh("+", 3, framing=1)))


def test_signature_vanishes_outside_half_twist_regime():
    for clasp in "+-":
        for b in range(-10, 11):
            if (clasp == "+" and b < 0) or (clasp == "-" and b > 0):
                continue
            assert signature(pattern_seifert_matrix(clasp, b)) == 0


def test_arf_triple_agreement():
    for clasp in "+-":
        for b in range(-10, 11):
            v = pattern_seifert_matrix(clasp, b)
            shortcut = arf_murasugi(alexander_formula(wh(clasp, b)))
            assert arf_gf2(v.entries) == arf(v) == shortcut == b % 2


def test_tau_whitehead():
    assert tau_whitehead(wh("+", 0), CompanionInvariants(tau=0)) == 0
    assert tau_whitehead(wh("+", 0), CompanionInvariants(tau=1)) == 1
    assert tau_whitehead(wh("+", 2), CompanionInvariants(tau=1)) == 0
    # negative clasp through the mirror identity
    assert tau_whitehead(wh("-", 0), CompanionInvariants(tau=0)) == 0
    assert tau_whitehead(wh("-", 1), CompanionInvariants(tau=0)) == -1
    with pytest.raises(MissingInvariantError):
        tau_whitehead(wh("+", 0), CompanionInvariants())


def test_epsilon_whitehead():
    assert epsilon_whitehead(wh("+", 0), CompanionInvariants(tau=0, epsilon=0)) == 0
    assert epsilon_whitehead(wh("+", 0), CompanionInvariants(tau=1, epsilon=1)) == 1
    assert epsilon_whitehead(wh("+", 0), CompanionInvariants(tau=0, epsilon=-1)) == 1
    # negative clasp through the mirror identity: nonzero value is -1
    assert epsilon_whitehead(wh("-", 0), CompanionInvariants(tau=-1, epsilon=-1)) == -1
    assert epsilon_whitehead(wh("-", 0), CompanionInvariants(tau=0, epsilon=0)) == 0
    with pytest.raises(MissingInvariantError):
        epsilon_whitehead(wh("+", 0), CompanionInvariants(tau=0))


def test_upsilon_whitehead_cases():
    assert upsilon_whitehead(wh("+", 0), CompanionInvariants(tau=0)) == ZERO
    assert upsilon_whitehead(wh("+", 0), CompanionInvariants(tau=1)) == TENT_DOWN
    assert upsilon_whitehead(wh("-", 1), CompanionInvariants(tau=0)) == TENT_UP
    with pytest.raises(MissingInvariantError):
        upsilon_whitehead(wh("+", 0), CompanionInvariants())


def test_upsilon_whitehead_properties():
    for clasp in "+-":
        for b in range(-6, 7):
            for tau in (-2, -1, 0, 1, 2):
                f = upsilon_whitehead(wh(clasp, b), CompanionInvariants(tau=tau))
                assert f(0) == 0
                assert upsilon_little(f) in (-1, 0, 1)
                # the tent through (1, -tau) of the double
                tau_d = tau_whitehead(wh(clasp, b), CompanionInvariants(tau=tau))
                assert f == {0: ZERO, 1: TENT_DOWN, -1: TENT_UP}[tau_d]


def test_gamma4_whitehead():
    assert gamma4_whitehead(wh("+", 3)).gamma4 == Interval(2, 2)
    assert gamma4_whitehead(wh("+", 2)).gamma4 == Interval(1, 2)
    assert gamma4_whitehead(wh("-", -5)).gamma4 == Interval(2, 2)
    assert gamma4_whitehead(wh("+", 3)).gamma3 == Interval(1, 2)
    half = gamma4_whitehead(wh("+", -3))
    assert half.gamma4 == Interval(1, None)
    assert half.gamma3 == Interval(1, None)


def test_gamma4_whitehead_matches_yasuhara_predicate():
    for clasp in "+-":
        for b in range(-10, 11):
            p = wh(clasp, b)
            if p.half_twist_regime:
                continue
            pinned = gamma4_whitehead(p).gamma4 == Interval(2, 2)
            sign_compatible = (clasp == "+" and b > 0) or (clasp == "-" and b < 0)
            assert pinned == (yasuhara(0, b % 2) and sign_compatible)


def test_cable_target():
    assert cable_target(wh("+", 0)) == 1
    assert cable_target(wh("+", 2)) == 5
    assert cable_target(wh("-", 0)) == -1
    for clasp in "+-":
        for b in range(-8, 9):
            assert cable_target(wh(clasp, b)) % 2 == 1


def test_companion_invariants_validation():
    with pytest.raises(ValueError):
        CompanionInvariants(tau=1, nu=3)  # nu must be tau or tau + 1
    with pytest.raises(ValueError):
        CompanionInvariants(epsilon=2)
    with pytest.raises(ValueError):
        CompanionInvariants(s=1)  # s is even
    CompanionInvariants(tau=1, nu=2)


def test_companion_invariants_genus_floors():
    # every stored genus bound respects the floor of its quantity
    for name, floor in (("g4", 0), ("gamma4", 1), ("g3", 0), ("gamma3", 1)):
        with pytest.raises(ValueError, match=f"^{name} lower bound below {floor}$"):
            CompanionInvariants(**{name: Interval(floor - 1, floor + 1)})
        CompanionInvariants(**{name: Interval(floor, floor + 1)})
    with pytest.raises(ValueError, match="^gamma4 lower bound below 1$"):
        CompanionInvariants(gamma4=Interval(0, 2))
