"""Laurent polynomial arithmetic, factorization, and the Fox-Milnor test."""

import math
import operator
import random
from fractions import Fraction
from functools import reduce

import pytest
from conftest import factor_kronecker

from slicegate.laurent import (InvalidAlexanderError, LaurentPoly, _poly_mul, factor, fox_milnor,
                               normalize)

T = LaurentPoly  # shorthand for literals


def D(cs):
    """The polynomial with coefficients cs of t^0, t^1, ..."""
    return T(dict(enumerate(cs)))


def test_add_cancellation():
    assert T({1: 1, 0: 1}) + T({1: -1, 0: 2}) == T({0: 3})


def test_add_identity():
    p = T({3: 2, -1: -4})
    assert p + T.zero() == p


def test_add_hand_arithmetic():
    # (-t + 3 - t^-1) + (t + t^-1) = 3
    assert T({1: -1, 0: 3, -1: -1}) + T({1: 1, -1: 1}) == T({0: 3})


def test_mul_hand_expansion():
    # (2t - 1)(2t^-1 - 1) = 5 - 2t - 2t^-1
    assert T({1: 2, 0: -1}) * T({-1: 2, 0: -1}) == T({0: 5, 1: -2, -1: -2})


def test_mul_identities():
    p = T({2: 3, 0: -1, -5: 7})
    assert p * T.one() == p
    assert p * T.zero() == T.zero()


def test_involute():
    sym = T({1: -1, 0: 3, -1: -1})
    assert sym.involute() == sym
    assert T({1: 2, 0: -1}).involute() == T({-1: 2, 0: -1})
    assert T({3: 1}).involute() == T({-3: 1})


def test_involute_is_an_involution_and_multiplicative():
    rng = random.Random(11)
    for _ in range(200):
        p = T({rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(rng.randint(0, 4))})
        q = T({rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(rng.randint(0, 4))})
        assert p.involute().involute() == p
        assert (p * q).involute() == p.involute() * q.involute()


def test_evaluate():
    p = T({1: -1, 0: 3, -1: -1})
    assert p.evaluate(-1) == 5
    assert T.one().evaluate(17) == 1
    b = 3
    assert T({1: -b, 0: 2 * b + 1, -1: -b}).evaluate(-1) == 4 * b + 1
    assert T({-2: 1}).evaluate(2) == Fraction(1, 4)


def test_evaluate_at_zero_rejected():
    with pytest.raises(ValueError):
        T({1: 1}).evaluate(0)


def test_from_terms_takes_only_integers():
    import numpy as np

    assert LaurentPoly.from_terms([[np.int64(2), 0], [1, 1]]) == T({0: 2, 1: 1})
    for terms in ([[1.7, 0], [True, 1]], [[1, 0], [True, 1]], [["1", 0]], [[1, 0.0]]):
        with pytest.raises(ValueError):
            LaurentPoly.from_terms(terms)


def test_constructor_takes_only_integers():
    for coeffs in ({0: 1.5}, {0.7: 1}, {"1": "2"}):
        with pytest.raises(TypeError):
            T(coeffs)


def test_dense():
    assert T({-1: 2, 1: -3}).dense() == (2, 0, -3)
    assert T({4: 7}).dense() == (7,)


def test_factor_rejects_a_negative_exponent():
    with pytest.raises(ValueError):
        factor(T({-1: 1, 0: 1}))


def test_normalize():
    q, unit = normalize(T({1: -1, 0: 3, -1: -1}))
    assert q == D([1, -3, 1])
    assert unit == T({-1: -1})
    assert unit * q == T({1: -1, 0: 3, -1: -1})

    assert normalize(T.one()) == (D([1]), T({0: 1}))
    assert normalize(T({5: 1})) == (D([1]), T({5: 1}))


def test_normalize_zero_rejected():
    with pytest.raises(ValueError):
        normalize(T.zero())


def test_factor_quadratic():
    factors, content = factor(D([2, -5, 2]))
    assert content == 1
    assert factors == [D([-2, 1]), D([-1, 2])]
    product = D([content])
    for f in factors:
        product = product * f
    assert product == D([2, -5, 2])


def test_factor_irreducible_quadratic():
    # discriminant 5 is not a square
    factors, content = factor(D([1, -3, 1]))
    assert (factors, content) == ([D([1, -3, 1])], 1)


def test_factor_constant():
    assert factor(D([6])) == ([], 6)


def test_factor_negative_leading_and_zero_root():
    factors, content = factor(D([0, -2, -2]))  # -2t(t + 1)
    assert content == -2
    assert factors == [D([0, 1]), D([1, 1])]


def test_factor_at_the_degree_scope_boundary():
    # two irreducible self-reciprocal quartics: degree-8 product splits back
    q1 = D([1, 1, 1, 1, 1])
    q2 = D([1, 2, -7, 2, 1])
    factors, content = factor(q1 * q2)
    assert content == 1
    assert sorted(factors, key=lambda f: f.dense()) == sorted([q1, q2],
                                                              key=lambda f: f.dense())
    # degree-10 irreducible (the 11th cyclotomic polynomial) survives the
    # whole divisor search untouched
    phi11 = D([1] * 11)
    assert factor(phi11) == ([phi11], 1)


def test_factor_random_products_reexpand_exactly():
    rng = random.Random(20260810)
    for _ in range(1000):
        polys = []
        for _ in range(2):
            deg = rng.randint(0, 3)
            cs = [rng.randint(-5, 5) for _ in range(deg)] + [rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])]
            polys.append(D(cs))
        product = polys[0] * polys[1]
        factors, content = factor(product)
        out = D([content])
        for f in factors:
            assert f.dense()[-1] > 0
            out = out * f
        assert out == product


def test_fox_milnor_trivial_polynomial_passes():
    result = fox_milnor(T.one())
    assert result.passes
    assert result.witness == D([1])


def test_fox_milnor_figure_eight_fails_on_determinant():
    result = fox_milnor(T({1: -1, 0: 3, -1: -1}))
    assert not result
    assert "5" in result.reason


def test_fox_milnor_6_1_passes_with_witness():
    delta = T({1: 2, 0: -5, -1: 2})
    result = fox_milnor(delta)
    assert result.passes
    w = result.witness
    assert result.unit * w * w.involute() == delta


def test_fox_milnor_rejects_non_alexander_input():
    with pytest.raises(InvalidAlexanderError):
        fox_milnor(T({1: 1, 0: 1}))  # p(1) = 2
    with pytest.raises(InvalidAlexanderError):
        fox_milnor(T.zero())


def test_fox_milnor_square_of_self_reciprocal_passes():
    q = D([1, -3, 1])
    assert fox_milnor(q * q.involute()).passes


def test_fox_milnor_determinant_square_but_pairing_fails():
    # (2t-1)^3 (t-2): p(1) = -1 and |p(-1)| = 81 survives the determinant
    # pre-check, but the factor (2t-1) appears thrice against one reciprocal
    g = D([-1, 2])
    gstar = D([-2, 1])
    p = g * g * g * gstar
    assert abs(int(p.evaluate(-1))) == 81
    result = fox_milnor(p)
    assert not result.passes
    assert "pair" in result.reason

    # irreducible self-reciprocal quartic with odd multiplicity: |p(-1)| = 9
    quartic = D([1, 2, -7, 2, 1])
    result = fox_milnor(quartic)
    assert not result.passes
    assert "multiplicity" in result.reason


def test_fox_milnor_passes_imply_odd_square_determinant():
    rng = random.Random(7)
    for _ in range(100):
        deg = rng.randint(0, 3)
        cs = [rng.randint(-4, 4) for _ in range(deg)] + [rng.choice([-3, -2, -1, 1, 2, 3])]
        f = D(cs)
        if f.at_pm1(1) not in (1, -1):
            continue
        p = f * f.involute()
        result = fox_milnor(p)
        assert result.passes
        det = abs(int(p.evaluate(-1)))
        root = math.isqrt(det)
        assert det % 2 == 1 and root * root == det


# -- the modular factorization against the Kronecker oracle -----------------

PHI8 = D([1, 0, 0, 0, 1])
PHI12 = D([1, 0, -1, 0, 1])
SQRT2_PLUS_SQRT3 = D([1, 0, -10, 0, 1])  # x^4 - 10x^2 + 1


def _with_f_one(rng, deg, bound=2):
    """A random integer polynomial of degree deg with f(1) = 1."""
    while True:
        cs = [rng.randint(-bound, bound) for _ in range(deg + 1)]
        cs[0] = 1 - sum(cs[1:])
        if cs[0] and cs[-1]:
            return D(cs)


def _f_fstar(f):
    """t^deg(f) * f(t) * f(1/t), the Delta of K # -K when f(1) = +/-1."""
    return D(_poly_mul(list(f.dense()), list(f.dense())[::-1]))


def _symmetric_odd_square(rng, g, bound=2):
    """t^g * (a0 + sum a_k (t^k + t^-k)) with Delta(1) = 1 and Delta(-1) in {1, 9}.

    Shaped like perfbench/gen.py's symmetric_odd_square.
    """
    odd = [k for k in range(1, g + 1) if k % 2]
    while True:
        a = {k: rng.randint(-bound, bound) for k in range(1, g + 1)}
        a[odd[-1]] = rng.choice([0, -2]) - sum(a[k] for k in odd[:-1])
        if a[g]:
            half = [a[k] for k in range(g, 0, -1)]
            return D(half + [1 - 2 * sum(a.values())] + half[::-1])


def _random_poly(rng, deg, lead=5, bound=5):
    lc = rng.choice([c for c in range(-lead, lead + 1) if c])
    return D([rng.randint(-bound, bound) for _ in range(deg)] + [lc])


def test_factor_matches_the_oracle_on_alexander_shaped_polynomials():
    rng = random.Random(401)
    for g in range(1, 7):
        for _ in range(4):
            for q in (_f_fstar(_with_f_one(rng, g)), _symmetric_odd_square(rng, g)):
                assert factor(q) == factor_kronecker(q), q


def test_factor_matches_the_oracle_on_products_with_repeated_factors():
    rng = random.Random(402)
    for _ in range(150):
        parts = [_random_poly(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        parts += [rng.choice(parts)] * rng.randint(1, 2)
        parts.append(D([0] * rng.randint(0, 2) + [rng.choice([-3, -2, -1, 1, 2, 3])]))
        q = reduce(operator.mul, parts)
        if q.max_exp <= 12:
            assert factor(q) == factor_kronecker(q), q


def test_factor_leading_coefficients_zero_roots_and_negative_content():
    rng = random.Random(403)
    for _ in range(150):
        q = _random_poly(rng, rng.randint(1, 8)) * D([0] * rng.randint(0, 3) + [1])
        q = q * D([rng.choice([-6, -4, -2, -1, 1, 3])])
        factors, content = factor(q)
        assert (factors, content) == factor_kronecker(q), q
        assert reduce(operator.mul, factors, D([content])) == q


def test_factor_polynomials_that_split_modulo_every_prime():
    # irreducible over Z, reducible mod every prime: every recombination
    # candidate must fail the exact division
    for q in (PHI8, PHI12, SQRT2_PLUS_SQRT3):
        assert factor(q) == ([q], 1)
    q = PHI8 * PHI12 * SQRT2_PLUS_SQRT3
    assert factor(q) == factor_kronecker(q)
    assert factor(q)[0] == sorted([PHI8, PHI12, SQRT2_PLUS_SQRT3], key=lambda f: f.dense())


def test_factor_is_deterministic_and_leaves_the_global_random_state_alone():
    q = _f_fstar(_with_f_one(random.Random(404), 12)) * PHI8
    random.seed(1)
    state = random.getstate()
    first = factor(q)
    assert random.getstate() == state
    random.seed(2)
    assert factor(q) == first


# -- Fox-Milnor at high degree -----------------------------------------------


@pytest.mark.parametrize("deg", [10, 20])
def test_fox_milnor_passes_k_sum_minus_k_at_high_degree(deg):
    f = _with_f_one(random.Random(405 + deg), deg)
    delta = f * f.involute()  # Delta of K # -K, degree 2 * deg
    result = fox_milnor(delta)
    assert result.passes
    w = result.witness
    assert result.unit * w * w.involute() == delta


@pytest.mark.parametrize("odd,k,g_deg", [
    (D([1, -2, 1, 0, 1, 0, 1, -2, 1]), 1, 4),  # irreducible, |odd(-1)| = 9
    (D([1, 2, -7, 2, 1]), 3, 2),               # irreducible, |odd(-1)| = 9
])
def test_fox_milnor_fails_on_an_odd_power_of_a_self_reciprocal_factor(odd, k, g_deg):
    assert factor(odd) == ([odd], 1)
    g = _with_f_one(random.Random(406 + g_deg), g_deg)
    delta = reduce(operator.mul, [odd] * k, _f_fstar(g))
    assert delta.max_exp >= 16
    det = abs(delta.at_pm1(-1))
    assert det % 2 == 1 and math.isqrt(det) ** 2 == det  # the determinant pre-check passes
    result = fox_milnor(delta)
    assert not result.passes
    assert result.reason == f"self-reciprocal factor {odd} has odd multiplicity {k}"
