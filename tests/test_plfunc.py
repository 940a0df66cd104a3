"""Piecewise-linear Upsilon arithmetic and the cobordism inequalities."""

import random
from fractions import Fraction

import pytest

from slicegate.plfunc import (CobordismCheck, PLFunction, cable_sandwich,
                              cobordism_inequality, euler_number_range, g4_lower_bound,
                              oss_gamma4_lower_bound, two_q_upsilon_interval,
                              upsilon_little)

TENT_DOWN = PLFunction([(0, 0), (1, -1), (2, 0)])
TENT_UP = PLFunction([(0, 0), (1, 1), (2, 0)])


def test_evaluate():
    assert PLFunction.zero()(1) == 0
    assert TENT_DOWN(Fraction(1, 2)) == Fraction(-1, 2)
    assert TENT_DOWN(1) == -1


def test_evaluate_domain_checked():
    with pytest.raises(ValueError):
        TENT_DOWN(Fraction(5, 2))
    with pytest.raises(ValueError):
        TENT_DOWN(-1)


def test_breakpoint_pairs_take_only_integers():
    f = PLFunction([(0, 0), ([1, 2], [-1, 2]), (2, 0)])
    assert f(Fraction(1, 2)) == Fraction(-1, 2)
    for bad in ([1.5, 2], ["1", 2], [True, 2]):
        with pytest.raises(ValueError):
            PLFunction([(0, 0), (bad, 0), (2, 0)])


def test_construction_canonicalizes_collinear_points():
    assert PLFunction([(0, 0), (1, 0), (2, 0)]) == PLFunction.zero()
    f = PLFunction([(0, 0), (Fraction(1, 2), Fraction(-1, 2)), (1, -1), (2, 0)])
    assert f == TENT_DOWN
    assert len(f.breakpoints) == 3


def test_construction_validates():
    with pytest.raises(ValueError):
        PLFunction([(0, 1), (2, 0)])  # must start at (0, 0)
    with pytest.raises(ValueError):
        PLFunction([(0, 0), (1, 1), (1, 2)])  # strictly increasing s
    with pytest.raises(ValueError):
        PLFunction([(0, 0)])


def test_upsilon_little():
    assert upsilon_little(PLFunction.zero()) == 0
    assert upsilon_little(TENT_DOWN) == -1
    assert upsilon_little(TENT_UP) == 1


def test_g4_lower_bound():
    assert g4_lower_bound(PLFunction.zero()) == 0
    assert g4_lower_bound(TENT_DOWN) == 1
    assert g4_lower_bound(PLFunction([(0, 0), (Fraction(1, 2), -1), (2, 0)])) == 2


def test_oss_gamma4_lower_bound():
    assert oss_gamma4_lower_bound(0, 0) == 0
    # right-handed trefoil sanity: upsilon = -1, sigma = -2, gamma4 = 1
    assert oss_gamma4_lower_bound(-1, -2) == 0
    assert oss_gamma4_lower_bound(-1, 0) == 1


def test_cable_sandwich_p1_is_identity():
    for q in (-3, 1, 5):
        lower, upper = cable_sandwich(TENT_DOWN, 1, q)
        assert lower == TENT_DOWN and upper == TENT_DOWN


def test_cable_sandwich_two_one():
    lower, upper = cable_sandwich(PLFunction.zero(), 2, 1)
    assert lower == PLFunction([(0, 0), (1, -1)])
    assert upper == PLFunction([(0, 0), (1, 0)])
    assert lower.end == upper.end == 1


def test_cable_sandwich_two_three():
    lower, upper = cable_sandwich(PLFunction.zero(), 2, 3)
    assert lower == PLFunction([(0, 0), (1, -2)])
    assert upper == PLFunction([(0, 0), (1, -1)])


def test_cable_sandwich_rejects_bad_input():
    with pytest.raises(ValueError):
        cable_sandwich(PLFunction.zero(), 2, 4)
    with pytest.raises(ValueError):
        cable_sandwich(PLFunction.zero(), 0, 1)


def _random_upsilon(rng):
    count = rng.randint(0, 3)
    cuts = sorted(rng.sample(range(1, 8), count))
    pts = [(0, Fraction(0))]
    for c in cuts:
        pts.append((Fraction(c, 4), Fraction(rng.randint(-8, 8), 4)))
    pts.append((2, Fraction(rng.randint(-8, 8), 4)))
    return PLFunction(pts)


def test_cable_sandwich_order_property():
    rng = random.Random(3)
    for _ in range(100):
        f = _random_upsilon(rng)
        p = rng.randint(1, 4)
        q = rng.choice([k for k in range(-7, 8) if __import__("math").gcd(p, k) == 1])
        lower, upper = cable_sandwich(f, p, q)
        samples = {s for s, _ in lower.breakpoints} | {s for s, _ in upper.breakpoints}
        assert all(lower(s) <= upper(s) for s in samples)
        if p == 1:
            assert lower == upper
        else:
            assert any(lower(s) < upper(s) for s in samples if s > 0)


def test_two_q_corollary_check():
    # the corollary |v(K_{2,q}) + q/2| <= 1 is membership in two_q_upsilon_interval(q)
    lo, hi = two_q_upsilon_interval(1)
    assert lo <= Fraction(-1, 2) <= hi
    assert not lo <= 1 <= hi
    lo, hi = two_q_upsilon_interval(-1)
    assert lo <= Fraction(-1, 2) <= hi
    with pytest.raises(ValueError):
        two_q_upsilon_interval(2)


def test_two_q_upsilon_interval():
    lo, hi = two_q_upsilon_interval(1)
    assert (lo, hi) == (Fraction(-3, 2), Fraction(1, 2))


def test_cobordism_inequality():
    assert cobordism_inequality(CobordismCheck(0, 0, euler=0, betti=1))
    assert cobordism_inequality(CobordismCheck(0, Fraction(-1, 2), euler=-2, betti=1))
    assert not cobordism_inequality(CobordismCheck(1, 0, euler=0, betti=1))


def test_cobordism_check_validates_betti():
    with pytest.raises(ValueError):
        CobordismCheck(0, 0, euler=0, betti=0)


def test_euler_number_range():
    assert euler_number_range(0, 1) == (-8, 4)
    assert euler_number_range(-1, 1) == (-4, 8)
    assert euler_number_range(1, 1) == (-12, 0)
    with pytest.raises(ValueError):
        euler_number_range(0, 2)


def test_euler_number_range_has_width_twelve():
    # quarter-integer upsilon keeps the rational endpoints integral
    rng = random.Random(5)
    for _ in range(200):
        u = Fraction(rng.randint(-8, 8), 4)
        q = rng.choice([-5, -3, -1, 1, 3, 5, 7])
        lo, hi = euler_number_range(u, q)
        assert hi - lo == 12
