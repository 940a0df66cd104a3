"""The twisted Whitehead double formula engine."""

import pytest
from conftest import alexander_formula, arf_gf2, arf_whitehead, sigma_whitehead

from slicegate.bounds import Interval
from slicegate.laurent import LaurentPoly
from slicegate.obstruct import yasuhara
from slicegate.plfunc import PLFunction, upsilon_little
from slicegate.seifert import SeifertMatrix, alexander, arf, arf_murasugi, signature
from slicegate.whitehead import (CompanionInvariants, InvariantClashError,
                                 MissingInvariantError, WhiteheadParams, cable_target,
                                 epsilon_whitehead, gamma4_whitehead, seifert_matrix,
                                 tau_whitehead, upsilon_whitehead)

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


def test_seifert_matrix_examples():
    assert seifert_matrix(wh("+", 3)) == SeifertMatrix([[-1, 1], [0, 3]])
    assert seifert_matrix(wh("-", -2)) == SeifertMatrix([[1, 1], [0, -2]])
    v0 = seifert_matrix(wh("+", 0))
    assert v0 == SeifertMatrix([[-1, 1], [0, 0]])
    assert alexander(v0) == LaurentPoly.one()
    # the matrix sees only the effective twist b = t + lambda
    assert seifert_matrix(wh("+", 0, framing=-1)) == SeifertMatrix([[-1, 1], [0, -1]])
    assert seifert_matrix(wh("-", 2, framing=-3)) == seifert_matrix(wh("-", -1))
    # Wh+_-1 of the unknot has the trefoil's matrix
    assert seifert_matrix(wh("+", -1)) == SeifertMatrix([[-1, 1], [0, -1]])


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
            assert alexander(seifert_matrix(wh(clasp, b))) == alexander_formula(wh(clasp, b))


def test_sigma_and_arf_formulas():
    assert sigma_whitehead(wh("+", 5)) == 0
    assert sigma_whitehead(wh("-", -1)) == 0
    assert sigma_whitehead(wh("+", 0)) == 0
    assert sigma_whitehead(wh("+", -1)) == -2
    assert sigma_whitehead(wh("-", 2)) == 2
    assert sigma_whitehead(wh("+", 0, framing=-1)) == -2
    assert arf_whitehead(wh("+", 2)) == 0
    assert arf_whitehead(wh("+", 3)) == 1
    assert arf_whitehead(wh("+", 3, framing=1)) == 0
    assert arf_whitehead(wh("+", 3, framing=1)) == arf(seifert_matrix(wh("+", 3, framing=1)))


def test_signature_of_pattern_matrix():
    # 0 when b has the clasp's sign or is 0; -2 (+ clasp) or +2 (- clasp) otherwise
    for clasp in "+-":
        for b in range(-10, 11):
            v = seifert_matrix(wh(clasp, b))
            opposite = b < 0 if clasp == "+" else b > 0
            expected = (-2 if clasp == "+" else 2) if opposite else 0
            assert signature(v) == sigma_whitehead(wh(clasp, b)) == expected, (clasp, b)


def test_arf_triple_agreement():
    for clasp in "+-":
        for b in range(-10, 11):
            v = seifert_matrix(wh(clasp, b))
            shortcut = arf_murasugi(alexander_formula(wh(clasp, b)))
            assert arf_gf2(v.entries) == arf(v) == shortcut == arf_whitehead(wh(clasp, b))


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
    # tau(D) = +/-1 = g3(D) forces epsilon(D) = sgn tau(D) (Hom), even when the companion
    # has tau = epsilon = 0: Wh+_-1 of the unknot is the trefoil
    assert epsilon_whitehead(wh("+", -1), CompanionInvariants(tau=0, epsilon=0)) == 1
    assert epsilon_whitehead(wh("-", 1), CompanionInvariants(tau=0, epsilon=0)) == -1
    assert epsilon_whitehead(wh("+", 3), CompanionInvariants(tau=2, epsilon=1)) == 1
    with pytest.raises(MissingInvariantError):
        epsilon_whitehead(wh("+", 0), CompanionInvariants(tau=0))


def test_epsilon_agrees_with_tau_on_the_grid():
    for clasp in "+-":
        for b in range(-6, 7):
            for tau, eps in ((0, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (2, 1), (-2, -1)):
                c = CompanionInvariants(tau=tau, epsilon=eps)
                tau_d, eps_d = tau_whitehead(wh(clasp, b), c), epsilon_whitehead(wh(clasp, b), c)
                split = 0 if tau == eps == 0 else (1 if clasp == "+" else -1)
                assert eps_d == (tau_d or split), (clasp, b, tau, eps)
                CompanionInvariants(tau=tau_d, epsilon=eps_d)  # passes the epsilon/tau check


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
    # upper bounds only, for every clasp and twist
    for clasp in "+-":
        for b in range(-10, 11):
            bounds = gamma4_whitehead(wh(clasp, b))
            assert bounds.gamma4 == Interval(1, 2)
            assert bounds.gamma3 == Interval(1, 2)
            assert bounds.g4 is None and bounds.g3 is None


def test_gamma4_whitehead_matches_yasuhara_predicate():
    # Yasuhara on the pattern matrix's (sigma, Arf) pins gamma4 = 2 exactly for odd b of
    # the clasp's sign; with the signs opposite sigma = -/+2 and it does not fire
    for clasp in "+-":
        for b in range(-10, 11):
            v = seifert_matrix(wh(clasp, b))
            sign_compatible = (clasp == "+" and b > 0) or (clasp == "-" and b < 0)
            assert yasuhara(signature(v), arf(v)) == (b % 2 == 1 and sign_compatible)


def test_cable_target():
    assert cable_target(wh("+", 0)) == 1
    assert cable_target(wh("+", 2)) == 5
    assert cable_target(wh("-", 0)) == -1
    for clasp in "+-":
        for b in range(-8, 9):
            assert cable_target(wh(clasp, b)) % 2 == 1


def test_companion_invariants_validation():
    with pytest.raises(InvariantClashError) as exc:
        CompanionInvariants(tau=1, nu=3)  # nu must be tau or tau + 1
    assert exc.value.field == "nu"
    with pytest.raises(InvariantClashError, match=r"^epsilon = 0 forces tau = 0 \(tau = 1\)$") as exc:
        CompanionInvariants(tau=1, epsilon=0)  # Hom: epsilon = 0 forces tau = 0
    assert exc.value.field == "epsilon"
    CompanionInvariants(tau=0, epsilon=1)
    CompanionInvariants(epsilon=0)
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
