"""Seifert matrix invariants: signature, Alexander, Arf, Levine-Tristram."""

import copy
import json
import math
import pickle
import random
from fractions import Fraction

import pytest
from conftest import (_poly_eval, alexander_full, arf_gf2, float_levine_tristram,
                      float_signature, make_invalid_seifert, make_valid_seifert)

from slicegate.cli import main
from slicegate.laurent import InvalidAlexanderError, LaurentPoly, normalize
from slicegate import seifert as _seifert
from slicegate.seifert import (NotASeifertMatrixError, SeifertMatrix, alexander, arf,
                               arf_murasugi, determinant, levine_tristram,
                               signature)

V_TREFOIL = SeifertMatrix([[-1, 1], [0, -1]])
V_FIG8 = SeifertMatrix([[1, 1], [0, -1]])
UNKNOT = SeifertMatrix([])


def test_validation_rejects():
    with pytest.raises(NotASeifertMatrixError):
        SeifertMatrix([[1, 0], [0, 1]])  # symmetric: V - V^T = 0
    with pytest.raises(NotASeifertMatrixError):
        SeifertMatrix([[0]])  # odd size
    with pytest.raises(NotASeifertMatrixError):
        SeifertMatrix([[0, 1], [0, 0], [0, 0]])  # not square
    with pytest.raises(NotASeifertMatrixError):
        SeifertMatrix([[0, 2], [0, 0]])  # det(V - V^T) = 4


def test_entries_must_be_integers():
    import numpy as np

    for entries in ([[-1.9, 1], [0, 1.2]], [["-1", 1], [0, -1]], [[True, 1], [0, -1]]):
        with pytest.raises(NotASeifertMatrixError):
            SeifertMatrix(entries)
    with pytest.raises(NotASeifertMatrixError):
        SeifertMatrix.from_json({"n": 2.0, "entries": [[-1, 1], [0, -1]]})
    with pytest.raises(NotASeifertMatrixError):
        SeifertMatrix.from_json({"n": True, "entries": [[-1, 1], [0, -1]]})
    assert SeifertMatrix(np.array([[-1, 1], [0, -1]])) == V_TREFOIL


def test_validation_random_matrices():
    rng = random.Random(42)
    for _ in range(50):
        n = rng.choice([2, 4])
        SeifertMatrix(make_valid_seifert(rng, n))
        with pytest.raises(NotASeifertMatrixError):
            SeifertMatrix(make_invalid_seifert(rng, n))


def test_validation_reports_det_of_the_skew_part_unsigned():
    # a skew matrix of even size has det(V - V^T) = Pf(V - V^T)^2 >= 0; the message names it
    for entries, det in (([[0, 2], [0, 0]], 4), ([[0, 0], [0, 0]], 0),
                         ([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 3], [0, 0, 0, 0]], 9)):
        with pytest.raises(NotASeifertMatrixError) as err:
            SeifertMatrix(entries)
        assert str(err.value) == f"det(V - V^T) = {det}, expected +/-1"


def test_det_int_of_skew_matrices_is_the_bareiss_square():
    # det A = Pf(A)^2 on seeded skew matrices: sparse ones, whose zero pivots need a swap
    # past the next row, singular ones whose zero row shows only after some steps, low-rank
    # and dense ones; det(P J P^T) = det(P)^2 for the standard symplectic form J
    from conftest import det_bareiss
    from slicegate.seifert import _det_int

    def skew(n, draw):
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = draw(i, j)
                a[j][i] = -a[i][j]
        return a

    rng = random.Random(1994)
    kinds = {"swap": 0, "singular": 0, "low rank": 0, "dense": 0}
    for _ in range(400):
        n = rng.choice([0, 2, 4, 6, 8, 10, 12])
        if rng.random() < 0.2:  # sum of fewer than n/2 rank-2 terms x y^T - y x^T
            terms = [[[rng.randint(-2, 2) for _ in range(n)] for _ in range(2)]
                     for _ in range(rng.randint(0, max(0, n // 2 - 1)))]
            a = skew(n, lambda i, j: sum(x[i] * y[j] - y[i] * x[j] for x, y in terms))
            kinds["low rank"] += n > 0 and any(map(any, a))
        else:
            density = rng.choice([0.2, 0.5, 1.0])
            a = skew(n, lambda i, j: rng.randint(-3, 3) if rng.random() < density else 0)
            kinds["dense"] += n > 0 and density == 1.0
        d = _det_int([list(r) for r in a])
        assert d == det_bareiss(a) and math.isqrt(d) ** 2 == d, a
        kinds["swap"] += n > 0 and not a[1][0] and d != 0
        kinds["singular"] += d == 0
    assert min(kinds.values()) >= 30, kinds  # 35 swaps, 181 singular, 45 low rank, 102 dense
    jmat = skew(8, lambda i, j: int(j == i + 1 and i % 2 == 0))
    for _ in range(40):
        p = [[rng.randint(-2, 2) for _ in range(8)] for _ in range(8)]
        pj = [[sum(p[i][k] * jmat[k][j] for k in range(8)) for j in range(8)] for i in range(8)]
        a = [[sum(pj[i][k] * p[j][k] for k in range(8)) for j in range(8)] for i in range(8)]
        assert _det_int(a) == det_bareiss(p) ** 2, p
    # a zero below the pivot rescales its row by p/prev: J(2) (+) J(3) does so at steps 1
    # and 2, where p != prev != 1, and J (+) J leaves rows 2 and 3 at step 1, where p = prev
    for a, det in ((skew(4, lambda i, j: {(0, 1): 2, (2, 3): 3}.get((i, j), 0)), 36),
                   (skew(4, lambda i, j: int((i, j) in ((0, 1), (2, 3)))), 1)):
        assert det_bareiss(a) == det == _det_int(a), a


def test_make_valid_seifert_gives_up_at_small_bounds(monkeypatch):
    import conftest

    monkeypatch.setattr(conftest, "MAX_REJECTED_DRAWS", 3)
    with pytest.raises(RuntimeError, match="n = 40, bound = 1"):
        conftest.make_valid_seifert(random.Random(1), 40, bound=1)


def test_signature_examples():
    assert signature(V_TREFOIL) == -2
    assert signature(V_FIG8) == 0
    assert signature(UNKNOT) == 0


def test_signature_even_and_bounded():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.choice([2, 4, 6])
        v = SeifertMatrix(make_valid_seifert(rng, n))
        s = signature(v)
        assert s % 2 == 0
        assert abs(s) <= n


def test_signature_matches_float_oracle():
    rng = random.Random(123)
    for _ in range(150):
        n = rng.choice([2, 4, 6])
        entries = make_valid_seifert(rng, n)
        assert signature(SeifertMatrix(entries)) == float_signature(entries)


def test_signature_hyperbolic_branch():
    # zero diagonal forces the 2x2 hyperbolic split; signature must be 0
    assert signature(SeifertMatrix([[0, 1], [0, 0]])) == 0
    v = SeifertMatrix([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    assert signature(v) == 0


def test_congruence_reduction_against_numpy_on_arbitrary_symmetric_input():
    # the integer kernel handles any symmetric matrix, including singular
    # ones and zero diagonals; check it against eigenvalue counting, and its
    # last pivot against the Bareiss determinant
    import numpy as np
    from conftest import det_bareiss
    from slicegate.seifert import _signature_int

    rng = random.Random(2718)
    for _ in range(300):
        n = rng.randint(1, 6)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                x = rng.randint(-4, 4)
                if rng.random() < 0.3:
                    x = 0
                a[i][j] = a[j][i] = x
        eigs = np.linalg.eigvalsh(np.array(a, dtype=float))
        approx = int((eigs > 1e-9).sum()) - int((eigs < -1e-9).sum())
        assert _signature_int(a) == (approx, det_bareiss(a)), a


def random_hermitian(rng, n):
    """Parts (a, b) of an integer Hermitian matrix a + i*b: a symmetric, b skew.

    Some are singular (a signed sum of fewer than n rank-one terms x x^*), and
    some have a zero diagonal with purely real or purely imaginary entries
    off it, so the elimination must cure a zero diagonal with c = 1 or c = i.
    """
    a = [[0] * n for _ in range(n)]
    b = [[0] * n for _ in range(n)]
    kind = rng.choice(["dense", "low rank", "zero diagonal, real", "zero diagonal, imaginary"])
    if kind == "low rank":
        for _ in range(rng.randint(0, n - 1)):
            x = [complex(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
            sign = rng.choice([-1, 1])
            for i in range(n):
                for j in range(n):
                    z = sign * x[i] * x[j].conjugate()
                    a[i][j] += int(z.real)
                    b[i][j] += int(z.imag)
        return a, b
    for i in range(n):
        for j in range(i, n):
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            if i == j:
                a[i][i] = 0 if kind != "dense" or rng.random() < 0.3 else x
            elif kind.endswith("real") or kind == "dense" and rng.random() < 0.3:
                a[i][j] = a[j][i] = x
            elif kind.endswith("imaginary"):
                b[i][j], b[j][i] = y, -y
            else:
                a[i][j] = a[j][i] = x
                b[i][j], b[j][i] = y, -y
    return a, b


def test_hermitian_kernel_against_numpy():
    # the Gaussian-integer elimination against eigenvalue counting, and its last
    # pivot against the determinant, on singular matrices and on zero diagonals
    # that need each congruence cure
    import numpy as np
    from slicegate.seifert import _signature_int

    assert _signature_int([[0, 0], [0, 0]], [[0, 1], [-1, 0]]) == (0, -1)  # c = i
    assert _signature_int([[0, 1, 0], [1, 0, 0], [0, 0, 0]], [[0] * 3] * 3) == (0, 0)  # c = 1
    assert _signature_int([[0, 0, 1], [0, 0, 0], [1, 0, 0]],
                          [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]) == (1, -2)  # eigenvalues -2, 1, 1
    assert _signature_int([[1, 0], [0, 1]], [[0, 1], [-1, 0]]) == (1, 0)  # eigenvalues 0, 2
    rng = random.Random(3141)
    kinds = set()
    for _ in range(300):
        n = rng.randint(1, 7)
        a, b = random_hermitian(rng, n)
        h = np.array(a, dtype=complex) + 1j * np.array(b, dtype=float)
        eigs = np.linalg.eigvalsh(h)
        approx = int((eigs > 1e-9).sum()) - int((eigs < -1e-9).sum())
        det = round(np.linalg.det(h).real)  # |det| < 2^25 (Hadamard), so it rounds exactly
        assert _signature_int(a, b) == (approx, det), (a, b)
        kinds.add((any(map(any, a)), any(map(any, b)), any(a[i][i] for i in range(n))))
    assert {(True, False, False), (False, True, False)} <= kinds


def test_sign_changes_on_integers_match_the_fraction_values():
    # den^deg * p(num/den) has the sign of p(x); and E = chain[0] has no root at 0 or
    # at a rational square, which _arc_point relies on
    from slicegate.laurent import _sturm_chain

    rng = random.Random(31)
    for n in (2, 4, 8, 12, 20):
        delta = alexander(SeifertMatrix(make_valid_seifert(rng, n)))
        chain = _sturm_chain(_seifert._trace_poly(delta))
        points = [Fraction(rng.randint(0, 400), rng.randint(1, 60)) for _ in range(40)]
        for x in [Fraction(0), Fraction(1), Fraction(1, 4)] + [u * u for u in points] + points:
            signs = [s for s in (_poly_eval(p, x) for p in chain) if s]
            want = sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))
            assert _seifert._sign_changes(chain, x) == want, (n, x)
        assert all(_poly_eval(chain[0], u * u) for u in [Fraction(0)] + points)


@pytest.mark.parametrize("k, bits", [(20, 128), (40, 256)])
def test_compare_tan_doubles_its_precision_near_tan_pi_over_3(monkeypatch, k, bits):
    # u = floor(sqrt(3) * 10^k) / 10^k lies within 10^-k below tan(pi/3) = sqrt(3), so 64
    # bits of arctan cannot separate them; u > 1 also takes the reflection to 1/u and 1/6
    seen = []

    def bounded(a, b, precision, _kernel=_seifert._atan_bounds):
        seen.append(precision)
        return _kernel(a, b, precision)

    monkeypatch.setattr(_seifert, "_atan_bounds", bounded)
    u = Fraction(math.isqrt(3 * 10 ** (2 * k)), 10 ** k)
    side = (u * u > 3) - (u * u < 3)
    assert side == -1
    assert _seifert._compare_tan(u, Fraction(1, 3)) == side
    assert max(seen) == bits
    assert _seifert._compare_tan(1 / u, Fraction(1, 6)) == -side


def test_levine_tristram_matches_realified_oracle(monkeypatch):
    # the n x n Hermitian form against half the signature of the 2n x 2n real one.
    # Sturm counts at s = 0 and +infinity settle an omega when Delta has no root on the
    # upper semicircle, in two chain evaluations and no elimination.  Otherwise the arc
    # point's bisection keeps the count of the end that stays, so s steps take s + 3
    # evaluations (0, +infinity, q^2, then one a step), not the two-ended 2s + 2, and
    # reach the two-ended bisection's point; only an interior arc then pays the
    # Hermitian elimination.  The random matrices' Delta has few roots on the circle,
    # so the (2, q) torus knots, with roots all around it, keep that kernel under test
    from conftest import arc_point_two_ended, realified_levine_tristram, torus_2q_seifert

    calls, hermitian = [], []

    def counted(chain, x, _kernel=_seifert._sign_changes):
        calls.append(x)
        return _kernel(chain, x)

    def eliminated(a, b=None, _kernel=_seifert._signature_int):
        hermitian.append(b is not None)
        return _kernel(a, b)

    monkeypatch.setattr(_seifert, "_sign_changes", counted)
    monkeypatch.setattr(_seifert, "_signature_int", eliminated)
    rng = random.Random(1968)
    angles = [Fraction(1, 3), Fraction(2, 5), Fraction(1, 7), Fraction(3, 7), Fraction(5, 12)]
    cases = [make_valid_seifert(rng, n) for n in (2, 4, 6, 8, 10, 12) for _ in range(4)]
    cases += [make_valid_seifert(rng, n, bound=3) for n in (16, 20, 32, 40)]
    cases += [torus_2q_seifert(q, rng) for q in (7, 9, 11, 13)]
    paths = {"free": 0, "bisected": 0, "end arc": 0, "eliminated": 0}
    for entries in cases:
        v = SeifertMatrix(entries)
        for w in angles if len(entries) <= 12 else angles[:4]:
            calls.clear()
            hermitian.clear()
            sigma = levine_tristram(v, w)
            evaluations, eliminations = len(calls), sum(hermitian)
            assert sigma == realified_levine_tristram(entries, w), (entries, w)
            if sigma is None:
                continue
            if evaluations == 2:  # at 0 and +infinity, which agree
                assert calls == [0, None] and sigma == 0 and not eliminations, (entries, w)
                paths["free"] += 1
                continue
            u, steps = arc_point_two_ended(v._chain, w)
            assert evaluations == steps + 3, (entries, w)
            at_0 = _seifert._sign_changes(v._chain, Fraction(0))
            assert _seifert._arc_point(v._chain, w, at_0)[0] == u
            assert eliminations <= 1, (entries, w)
            paths["bisected"] += steps > 0
            paths["end arc" if not eliminations else "eliminated"] += 1
    # 73, 72 and 11 of the 156 nonsingular calls, 83 of them bisected
    assert paths["free"] >= 70 and paths["end arc"] >= 70 and paths["eliminated"] >= 11
    assert paths["bisected"] >= 80


def test_levine_tristram_metamorphic_relations():
    from conftest import random_unimodular

    # sigma_omega is unchanged by congruence and V -> V^T, changes sign under
    # V -> -V^T and adds under block sums; K # -K, which is slice, has
    # sigma_omega = 0 wherever Delta(omega) != 0, and there only
    rng = random.Random(4004)
    angles = [Fraction(1, 3), Fraction(2, 5), Fraction(1, 7), Fraction(3, 7), Fraction(1, 6)]
    for n in (2, 4, 6, 8, 12, 20, 40):
        for _ in range(3 if n <= 12 else 1):
            entries = make_valid_seifert(rng, n, bound=5 if n <= 20 else 3)
            transpose = [list(c) for c in zip(*entries)]
            mirror = [[-x for x in r] for r in transpose]
            p = random_unimodular(rng, n, ops=rng.randint(1, 6))
            other = make_valid_seifert(rng, rng.choice([2, 4, 6]))
            v, w = SeifertMatrix(entries), SeifertMatrix(other)
            same = [SeifertMatrix(transpose), SeifertMatrix(congruent(entries, p))]
            both = SeifertMatrix(direct_sum(entries, other))
            slice_ = SeifertMatrix(direct_sum(entries, mirror))
            for omega in angles if n <= 12 else angles[:2]:
                sigma = levine_tristram(v, omega)
                assert all(levine_tristram(x, omega) == sigma for x in same), (entries, omega)
                flipped = levine_tristram(SeifertMatrix(mirror), omega)
                assert flipped == (None if sigma is None else -sigma)
                tau = levine_tristram(w, omega)
                added = None if sigma is None or tau is None else sigma + tau
                assert levine_tristram(both, omega) == added, (entries, other, omega)
                assert levine_tristram(slice_, omega) == (None if sigma is None else 0)


def test_signature_congruence_invariance():
    from conftest import random_unimodular

    rng = random.Random(77)
    base = [SeifertMatrix(make_valid_seifert(rng, n)) for n in (2, 4, 4, 6)]
    for _ in range(100):
        v = rng.choice(base)
        n = v.n
        p = random_unimodular(rng, n, ops=rng.randint(1, 4))
        rows = v.entries
        pv = [[sum(p[k][i] * rows[k][l] for k in range(n)) for l in range(n)]
              for i in range(n)]
        pvp = [[sum(pv[i][k] * p[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]
        w = SeifertMatrix(pvp)
        assert signature(w) == signature(v)
        assert arf(w) == arf(v) == arf_gf2(pvp)


def test_alexander_examples():
    assert alexander(V_FIG8) == LaurentPoly({1: -1, 0: 3, -1: -1})
    assert alexander(UNKNOT) == LaurentPoly.one()
    for b in (-3, 0, 1, 4):
        vb = SeifertMatrix([[-1, 1], [0, b]])
        assert alexander(vb) == LaurentPoly({1: -b, 0: 2 * b + 1, -1: -b})


def direct_sum(a, b):
    """Block-diagonal matrix a (+) b of two square integer matrices."""
    na, nb = len(a), len(b)
    return ([list(r) + [0] * nb for r in a] + [[0] * na + list(r) for r in b])


def congruent(v, p):
    """P V P^T for square integer matrices V and P."""
    n = len(v)
    pv = [[sum(p[i][k] * v[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(pv[i][k] * p[j][k] for k in range(n)) for j in range(n)] for i in range(n)]


def reversed_pairing(rng, n):
    """A Seifert matrix whose V - V^T pairs basis vector i with n - 1 - i.

    The first column of V - V^T is zero except in the last row, so eliminating
    it modulo a prime needs a row swap across the whole matrix.
    """
    v = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v[i][j] = v[j][i] = rng.randint(-3, 3)
    for i in range(n // 2):
        v[i][n - 1 - i] += 1
    return v


def hadamard_log2(entries):
    """log2 of prod_i (|row_i V| + |col_i V|), which bounds every coefficient of det(V - tV^T)."""
    return sum(math.log2(math.hypot(*r) + math.hypot(*c)) for r, c in zip(entries, zip(*entries)))


def test_alexander_matches_full_interpolation_oracle():
    # one characteristic polynomial modulo one prime against all n + 1 values and Lagrange
    rng = random.Random(2024)
    cases = [make_valid_seifert(rng, n) for n in range(2, 26, 2) for _ in range(17)]
    cases += [make_valid_seifert(rng, n) for n in (32, 40)]
    assert len(cases) >= 200
    knot = make_valid_seifert(rng, 4)
    # det V = 0, so D(t) has no constant and no top term
    cases += [direct_sum([[0, 1], [0, 0]], knot), direct_sum(knot, [[0, 1], [0, 0]])]
    # block sums leave columns with no entry below the subdiagonal in the Hessenberg step
    cases += [direct_sum(make_valid_seifert(rng, a), make_valid_seifert(rng, b))
              for a, b in ((2, 2), (2, 6), (6, 4), (10, 10))]
    cases += [direct_sum(direct_sum(V_TREFOIL.entries, V_FIG8.entries), V_TREFOIL.entries)]
    # the first pivot of the solve modulo p is in the last row
    cases += [reversed_pairing(rng, n) for n in (2, 4, 8, 12)]
    # block sums with interleaved bases force a row swap in the Hessenberg step
    for a, b in ((4, 4), (6, 8)):
        perm = list(range(a + b))
        perm[1], perm[a] = a, 1
        p = [[int(j == perm[i]) for j in range(a + b)] for i in range(a + b)]
        cases.append(congruent(direct_sum(make_valid_seifert(rng, a), make_valid_seifert(rng, b)),
                               p))
    cases.append([])
    for entries in cases:
        v = SeifertMatrix(entries)
        delta = alexander(v)
        assert delta == alexander_full(entries), entries
        assert delta.at_pm1(-1) in (determinant(v), -determinant(v))


def hadamard_bound(entries):
    """prod_i (isqrt(|row_i V|^2) + isqrt(|col_i V|^2) + 2), the bound B alexander sizes by."""
    return math.prod(math.isqrt(sum(x * x for x in r)) + math.isqrt(sum(x * x for x in c)) + 2
                     for r, c in zip(entries, zip(*entries)))


def admissible(m):
    """Whether alexander may read Delta modulo m: m odd, at least 1009, coprime to 999!."""
    return m % 2 == 1 and m >= 1009 and math.gcd(m, math.factorial(999)) == 1


# (n, bound, e) with 2^e' <= 2B < 2^e, e' the e of the case before (127 for the first), so
# 2B lands in each window between the widths 127 < e <= 2281 of primes 2^e - k, k small,
# from 166 to 2,208 bits; at n = 8 entries of up to 2^j set its width.  Ids name e
WINDOW_CASES = [(32, 5, 192), (40, 5, 224), (40, 7, 255), (32, 50, 384)] + [
    (8, 2**j, e) for j, e in ((47, 521), (64, 607), (75, 640), (79, 768), (95, 896), (111, 1024),
                              (127, 1152), (143, 1279), (158, 1408), (175, 1536), (191, 1664),
                              (207, 1792), (223, 1920), (239, 2048), (255, 2203), (274, 2281))]


@pytest.mark.parametrize("n, bound, e", WINDOW_CASES, ids=["p192", "p224", "p25519"] + [
    f"p{e}" for _, _, e in WINDOW_CASES[3:]])
def test_alexander_one_modulus_in_each_prime_window(monkeypatch, n, bound, e):
    # one residue pass, modulo the first odd m > 2B that is at least 1009 and coprime to 999!
    entries = make_valid_seifert(random.Random(n * 100 + bound), n, bound=bound)
    two_b = 2 * hadamard_bound(entries)
    below = dict(zip([e for _, _, e in WINDOW_CASES], [127] + [e for _, _, e in WINDOW_CASES]))
    assert below[e] < two_b.bit_length() <= e
    moduli = []

    def counted(h, m, _kernel=_seifert._charpoly_mod):
        moduli.append(m)
        return _kernel(h, m)

    monkeypatch.setattr(_seifert, "_charpoly_mod", counted)
    assert alexander(SeifertMatrix(entries)) == alexander_full(entries)
    [m] = moduli
    assert admissible(m) and m > two_b
    assert not any(admissible(c) for c in range(two_b + 1, m, 2))


def test_alexander_has_no_size_cap(tmp_path, capsys):
    # K, 4 x 4 with entries up to 100, and K # -K: the oracle's Delta, exit 0 from invariants
    # and obstruct on a matrix file, and a store record with a stored Delta that loads when
    # it is right and fails with the mismatch line, as any record does, when it is wrong
    entries = make_valid_seifert(random.Random(4), 4, bound=100)
    mirror = [[-x for x in c] for c in zip(*entries)]
    assert math.isqrt(det := determinant(SeifertMatrix(entries))) ** 2 != det
    # K's determinant is not a square, so Fox-Milnor fails; K # -K's is, and it passes
    for name, matrix, slice_ in (("m4", entries, "no"),
                                 ("m8", direct_sum(entries, mirror), "unknown")):
        delta = alexander_full(matrix)
        assert alexander(SeifertMatrix(matrix)) == delta
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"n": len(matrix), "entries": matrix}), encoding="utf-8")
        assert main(["invariants", "--matrix-file", str(path), "--json"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and json.loads(out)["alexander"] == delta.to_terms()
        assert main(["obstruct", "--matrix-file", str(path), "--json"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and json.loads(out)["verdict"]["topologically_slice"] == slice_
    path = tmp_path / "store.json"
    for stored in (alexander_full(entries), LaurentPoly.one()):
        record = {"name": "k", "seifert_matrix": {"n": 4, "entries": entries},
                  "alexander": stored.to_terms()}
        path.write_text(json.dumps({"format_version": 1, "records": [record]}), encoding="utf-8")
        code = main(["obstruct", "--all", "--store", str(path)])
        out, err = capsys.readouterr()
        if stored == alexander_full(entries):
            assert code == 0 and err == "" and "k" in out
        else:
            assert code == 2 and out == "" and err == (
                f"error: record 'k': alexander: stored 1 differs from det(V - tV^T) = "
                f"{alexander_full(entries)} up to units\n")


# V - V^T has -1009 as the first pivot of the solve for W, so 1009^3 fails there
SOLVE_FAILS = [[1, 1009, 1, 0], [0, 1, 0, -1], [0, 0, 1, 0], [0, 0, 0, 1]]


@pytest.mark.parametrize("entries, first, kernel_runs", [
    (SOLVE_FAILS, 1009**3, False),
    # a residual of the Hessenberg step is a nonzero multiple of 1009 or 1013
    (make_valid_seifert(random.Random(186), 4, bound=3), 1009 * 1013, True),
], ids=["solve", "hessenberg"])
def test_alexander_moves_to_the_next_modulus_past_a_pivot_that_is_no_unit(
        monkeypatch, entries, first, kernel_runs):
    # a bound raised to (first - 1) / 2 makes the composite `first` the first candidate
    passes, kernel = [], []
    real_pass, real_kernel = _seifert._delta_mod, _seifert._charpoly_mod

    def counted(v, m):
        passes.append((m, d := real_pass(v, m)))
        return d

    monkeypatch.setattr(_seifert, "_hadamard_bound", lambda v: (first - 1) // 2)
    monkeypatch.setattr(_seifert, "_delta_mod", counted)
    monkeypatch.setattr(_seifert, "_charpoly_mod", lambda w, m: kernel.append(m) or
                        real_kernel(w, m))
    assert 2 * hadamard_bound(entries) < first and admissible(first)
    assert alexander(SeifertMatrix(entries)) == alexander_full(entries)
    after = next(m for m in range(first + 2, 2 * first, 2) if admissible(m))
    assert [(m, d is not None) for m, d in passes] == [(first, False), (after, True)]
    assert kernel == ([first, after] if kernel_runs else [after])


def unit_multiples(rng, delta):
    """+/-t^k delta for a few seeded k and both signs."""
    return [LaurentPoly({k: sign}) * delta
            for sign in (1, -1) for k in rng.sample(range(-5, 6), 3)]


@pytest.mark.parametrize("n", range(2, 17, 2))
def test_is_alexander_of_agrees_with_unit_equality(n, monkeypatch):
    # the oracle is equality up to units of the computed Delta; the check evaluates one
    # determinant at a point past the root bound
    points, pencil = [], SeifertMatrix.pencil
    monkeypatch.setattr(SeifertMatrix, "pencil", lambda v, t: points.append(t) or pencil(v, t))
    rng = random.Random(2600 + n)
    for _ in range(3):
        entries = make_valid_seifert(rng, n)
        delta, h = alexander(SeifertMatrix(entries)), n // 2
        candidates = unit_multiples(rng, delta)
        for _ in range(4):  # symmetric perturbations keep Delta(1) and the symmetry
            c, j = rng.choice([-2, -1, 1, 2, 10**6]), rng.randint(1, h)
            candidates.append(delta + LaurentPoly({j: c, 0: -2 * c, -j: c}))
        wide = delta + LaurentPoly({h + 1: 1, 0: -2, -h - 1: 1})  # spans n + 2
        # spans n + 4 and equals Delta on the exponents -h..h
        wider = delta + LaurentPoly({h + 2: 1, h + 1: -1, -h - 1: -1, -h - 2: 1})
        candidates += [wide, -wide, wider, LaurentPoly.one(), LaurentPoly({3: -1})]
        # Delta - t^-2 (t - r)(rt - 1)(t - 1)^2 agrees with Delta at t = r and at 1: the
        # check needs t0 past r, and r = B + 2 is past B but not past B + C
        for r in (2, 3, hadamard_bound(entries) + 2) if h >= 2 else ():
            diff = LaurentPoly({-1: r, 0: -r * r - 1, 1: r}) * LaurentPoly({-1: 1, 0: -2, 1: 1})
            candidates.append(delta - diff)
        for cand in candidates:
            v = SeifertMatrix(entries)
            expected = normalize(cand)[0] == normalize(delta)[0]
            points.clear()
            assert _seifert.is_alexander_of(v, cand) == expected, (entries, cand)
            # t0 is past every root of D - t^h Delta_c, whose coefficients are at most
            # the largest of Delta's plus the largest of cand's
            bound = 1 + sum(max(map(abs, p.coeffs.values())) for p in (delta, cand))
            assert all(t0 > bound for t0 in points if t0 not in (1, -1))
            # a match leaves exactly alexander(v) on v, and a mismatch nothing
            assert v._delta == (delta if expected else None)
            assert _seifert.is_alexander_of(v, cand) == expected  # again, with Delta memoized
    assert _seifert.is_alexander_of(SeifertMatrix([]), LaurentPoly({2: -1}))
    assert not _seifert.is_alexander_of(SeifertMatrix([]), LaurentPoly({1: 1, 0: -1, -1: 1}))


def test_det_int_matches_the_bareiss_oracle_and_delta_at_t0():
    from conftest import det_bareiss

    rng = random.Random(1968)
    for n in range(0, 9):  # sparse matrices make zero pivots, swaps and singular cases
        for _ in range(10):
            m = [[rng.choice([0, 0, 0, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(n)]
            assert _seifert._det_int([list(r) for r in m]) == det_bareiss(m), m
    for n in range(2, 13, 2):
        entries = make_valid_seifert(rng, n)
        delta, h = alexander_full(entries), n // 2
        t0 = hadamard_bound(entries) + max(abs(c) for c in delta.coeffs.values()) + 2
        pencil = SeifertMatrix(entries).pencil(t0)
        assert _seifert._det_int(pencil) == sum(c * t0 ** (e + h)
                                                for e, c in delta.coeffs.items())


P224 = 2**224 - 2**96 + 1


def symmetric_range(w, p):
    """The residues of an integer matrix mod p, taken in (-p/2, p/2]."""
    return [[x % p - p if 2 * (x % p) > p else x % p for x in r] for r in w]


def test_charpoly_mod_matches_right_looking_oracle():
    # the left-looking W L = L H against the right-looking reduction.  Small primes
    # make zero residuals (h_(k+1,k) = 0, l_(k+1) = e_(k+1)) and residuals that
    # need a pivot swap common; block sums break down at every prime, and
    # permuting them interleaves the blocks, so a swap is needed there too
    from conftest import charpoly_mod_right_looking

    rng = random.Random(1965)

    def residues(n, p, density=1.0):
        return [[rng.randrange(p) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(n)]

    def permuted(w):
        perm = rng.sample(range(len(w)), len(w))
        return congruent(w, [[int(j == perm[i]) for j in range(len(w))] for i in range(len(w))])

    cases = []
    for p in (2, 3, 5, 7, 2**61 - 1, P224):
        for n in range(13):
            cases += [(residues(n, p, density), p) for density in (0.15, 0.5, 1.0)]
            a = rng.randint(0, n)
            block = direct_sum(residues(a, p), residues(n - a, p))
            cases += [(block, p), (permuted(block), p)]
    small = [[rng.randint(-8, 8) for _ in range(40)] for _ in range(40)]
    cases += [(small, P224), (residues(40, P224), P224)]
    block = direct_sum(residues(17, P224), direct_sum(small[:9], residues(14, P224)))
    cases += [(block, P224), (permuted(block), P224)]
    for w, p in cases:
        want = charpoly_mod_right_looking([[x % p for x in r] for r in w], p)
        assert len(want) == len(w) + 1 and want[-1] == 1
        for given in ([[x % p for x in r] for r in w], symmetric_range(w, p)):
            assert _seifert._charpoly_mod(given, p) == want, (w, p)


def test_alexander_hands_the_kernel_w_in_the_symmetric_range(monkeypatch):
    # W = (V - V^T)^-1 V is integral with small entries; alexander passes its
    # residues in (-p/2, p/2], which are W itself: (V - V^T) W = V over Z
    from conftest import charpoly_mod_right_looking

    seen, kernel = [], _seifert._charpoly_mod

    def counted(w, p):
        seen.append(([list(r) for r in w], p))
        return kernel(w, p)

    monkeypatch.setattr(_seifert, "_charpoly_mod", counted)
    for n, bound in ((2, 5), (8, 5), (20, 50), (40, 5)):
        entries = make_valid_seifert(random.Random(n), n, bound=bound)
        v = SeifertMatrix(entries)
        alexander(v)
        w, p = seen[-1]
        assert all(-p < 2 * x <= p for r in w for x in r)
        assert max(abs(x) for r in w for x in r) < 2**8, n
        a = v.pencil(1)
        assert [[sum(a[i][k] * w[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)] == [list(r) for r in entries]
        assert kernel([list(r) for r in w], p) == charpoly_mod_right_looking(
            [[x % p for x in r] for r in w], p)
    assert len(seen) == 4


def test_alexander_coefficients_within_the_hadamard_bound():
    rng = random.Random(19)
    for n in (2, 4, 8, 12, 16, 20, 24, 32, 40):
        for bound in (3, 5, 50):
            entries = make_valid_seifert(rng, n, bound=bound)
            top = max(abs(c) for c in alexander(SeifertMatrix(entries)).coeffs.values())
            assert math.log2(top) <= hadamard_log2(entries) + 1e-9, (n, bound)


def test_alexander_metamorphic_relations():
    from conftest import random_unimodular

    # Delta is a congruence invariant, unchanged by V -> V^T and V -> -V^T, and
    # multiplicative under block sums
    rng = random.Random(404)
    for n in (2, 4, 6, 8, 12, 20, 40):
        for _ in range(3 if n <= 12 else 1):
            entries = make_valid_seifert(rng, n)
            delta = alexander(SeifertMatrix(entries))
            transpose = [list(c) for c in zip(*entries)]
            assert alexander(SeifertMatrix(transpose)) == delta
            assert alexander(SeifertMatrix([[-x for x in r] for r in transpose])) == delta
            p = random_unimodular(rng, n, ops=rng.randint(1, 6))
            assert alexander(SeifertMatrix(congruent(entries, p))) == delta
            other = make_valid_seifert(rng, rng.choice([2, 4, 6]))
            both = SeifertMatrix(direct_sum(entries, other))
            assert alexander(both) == delta * alexander(SeifertMatrix(other))


def test_alexander_2x2_expansion_oracle():
    # independent oracle: cofactor expansion of V - tV^T in Laurent arithmetic
    t = LaurentPoly({1: 1})
    for v in (V_TREFOIL, V_FIG8, SeifertMatrix([[-1, 1], [0, 3]])):
        (a, b), (c, d) = v.entries
        m00 = LaurentPoly({0: a}) - t * a
        m01 = LaurentPoly({0: b}) - t * c
        m10 = LaurentPoly({0: c}) - t * b
        m11 = LaurentPoly({0: d}) - t * d
        det_poly = m00 * m11 - m01 * m10
        computed = alexander(v)
        # same polynomial up to the centering unit: compare symmetric forms
        centered = LaurentPoly({e - 1: c_ for e, c_ in det_poly.coeffs.items()})
        assert computed in (centered, -centered)


def test_alexander_symmetry_and_unimodularity():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.choice([2, 4])
        v = SeifertMatrix(make_valid_seifert(rng, n))
        delta = alexander(v)
        assert delta.involute() == delta
        assert delta.evaluate(1) == 1


def test_determinant():
    assert determinant(V_FIG8) == 5
    assert determinant(V_TREFOIL) == 3
    assert determinant(UNKNOT) == 1


def test_determinant_equals_alexander_at_minus_one():
    rng = random.Random(8)
    for _ in range(40):
        v = SeifertMatrix(make_valid_seifert(rng, rng.choice([2, 4])))
        assert determinant(v) == abs(int(alexander(v).evaluate(-1)))


def test_determinant_and_arf_are_the_signature_elimination_last_pivot():
    # determinant(v) and arf(v) read det(V + V^T) off the signature's elimination;
    # check them against the Bareiss determinant and Murasugi's Arf of Delta.  A
    # zeroed diagonal keeps V - V^T, and makes V + V^T's diagonal zero, so the
    # elimination starts with a c = 1 cure; the hyperbolic sums need one at every
    # other step (the c = i cure is a Hermitian one: test_hermitian_kernel_against_numpy)
    from conftest import det_bareiss

    rng = random.Random(1966)
    cases = [make_valid_seifert(rng, n) for n in (2, 4, 6, 8, 12, 16) for _ in range(3)]
    cases += [make_valid_seifert(rng, n, bound=3) for n in (20, 32, 40)]
    cases += [[[0 if i == j else x for j, x in enumerate(r)] for i, r in enumerate(entries)]
              for entries in cases[::2]]
    for n in (2, 8, 26):
        cases.append([[int(j == i + 1 and i % 2 == 0) for j in range(n)] for i in range(n)])
    for entries in cases:
        v = SeifertMatrix(entries)
        want = det_bareiss(v.pencil(-1))
        assert determinant(v) == abs(want) and v._det == want, entries
        assert arf(v) == arf_murasugi(alexander(v)), entries


def test_signature_arf_determinant_metamorphic_relations():
    from conftest import random_unimodular

    # congruence and V -> V^T change none of sigma, Arf and the determinant; the
    # mirror V -> -V^T negates sigma; a block sum adds sigma and Arf (mod 2) and
    # multiplies the determinant
    rng = random.Random(4005)
    for n in (2, 4, 6, 8, 12, 20, 40):
        for _ in range(3 if n <= 12 else 1):
            entries = make_valid_seifert(rng, n, bound=5 if n <= 20 else 3)
            v = SeifertMatrix(entries)
            facts = (signature(v), arf(v), determinant(v))
            transpose = [list(c) for c in zip(*entries)]
            p = random_unimodular(rng, n, ops=rng.randint(1, 6))
            for same in (transpose, congruent(entries, p)):
                w = SeifertMatrix(same)
                assert (signature(w), arf(w), determinant(w)) == facts, (entries, same)
            mirror = SeifertMatrix([[-x for x in r] for r in transpose])
            assert (signature(mirror), arf(mirror), determinant(mirror)) == (
                -facts[0], facts[1], facts[2])
            other = SeifertMatrix(make_valid_seifert(rng, rng.choice([2, 4, 6])))
            both = SeifertMatrix(direct_sum(entries, other.entries))
            assert (signature(both), arf(both), determinant(both)) == (
                facts[0] + signature(other), (facts[1] + arf(other)) % 2,
                facts[2] * determinant(other)), (entries, other)


def test_arf_examples():
    assert arf(V_FIG8) == arf_gf2(V_FIG8.entries) == 1
    assert arf(UNKNOT) == arf_gf2(UNKNOT.entries) == 0
    for b in range(-4, 5):
        v = SeifertMatrix([[-1, 1], [0, b]])
        assert arf(v) == arf_gf2(v.entries) == b % 2


def test_arf_large_matrices(tmp_path, capsys):
    # beyond the reach of the 2^n brute force: Levine's criterion against Murasugi
    n = 26
    hyperbolic = [[0] * n for _ in range(n)]
    for k in range(0, n, 2):
        hyperbolic[k][k + 1] = 1
    v = SeifertMatrix(hyperbolic)
    assert arf(v) == arf_murasugi(alexander(v)) == 0
    rng = random.Random(26)
    for n in (26, 32, 40):
        entries = make_valid_seifert(rng, n)
        v = SeifertMatrix(entries)
        assert arf(v) == arf_murasugi(alexander(v))
        if n == 26:
            path = tmp_path / "m26.json"
            path.write_text(json.dumps(v.to_json()), encoding="utf-8")
            code = main(["invariants", "--matrix-file", str(path), "--json"])
            assert code == 0
            assert json.loads(capsys.readouterr().out)["arf"] == arf(v)


def test_arf_matches_murasugi_shortcut():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.choice([2, 4, 6, 8, 10])
        entries = make_valid_seifert(rng, n)
        v = SeifertMatrix(entries)
        assert arf(v) == arf_murasugi(alexander(v)) == arf_gf2(entries)


def test_arf_murasugi_examples():
    assert arf_murasugi(LaurentPoly({1: -1, 0: 3, -1: -1})) == 1  # Delta(-1) = 5
    assert arf_murasugi(LaurentPoly.one()) == 0
    assert arf_murasugi(LaurentPoly({1: -3, 0: 7, -1: -3})) == 1  # Delta(-1) = 13
    with pytest.raises(InvalidAlexanderError):
        arf_murasugi(LaurentPoly({0: 2}))


def test_levine_tristram_at_minus_one_is_signature():
    rng = random.Random(14)
    for _ in range(25):
        v = SeifertMatrix(make_valid_seifert(rng, rng.choice([2, 4])))
        value = levine_tristram(v, Fraction(1, 2))
        if value is not None:  # omega = -1 singular iff determinant vanishes: never
            assert value == signature(v)


def test_levine_tristram_examples():
    # Delta(3_1) = t - 1 + t^-1 vanishes exactly at the primitive 6th roots,
    # so 1/6 is singular while 1/3 is regular with the full trefoil signature
    assert levine_tristram(V_TREFOIL, "1/6") is None
    assert levine_tristram(V_TREFOIL, "1/3") == -2
    assert levine_tristram(V_FIG8, "1/4") == 0
    # the 0 x 0 matrix takes the general path: Delta = 1, whose end arcs are the whole circle
    for w in ("1/3", "2/5", "1/4", "1/7", "3/7"):
        assert levine_tristram(UNKNOT, w) == 0


def test_levine_tristram_jump_at_the_alexander_root():
    # the trefoil signature function is 0 before the root at angle 1/6 and
    # -2 after it, all the way to -1
    assert levine_tristram(V_TREFOIL, "1/8") == 0
    assert levine_tristram(V_TREFOIL, "1/12") == 0
    assert levine_tristram(V_TREFOIL, "2/5") == -2
    assert levine_tristram(V_TREFOIL, "1/2") == -2


def test_levine_tristram_matches_float_oracle_at_small_denominators():
    rng = random.Random(1729)
    angles = sorted({Fraction(p, q) for q in range(2, 13) for p in range(1, q)})
    for _ in range(30):
        entries = make_valid_seifert(rng, rng.choice([2, 4, 6, 8]))
        v = SeifertMatrix(entries)
        exact = {w: levine_tristram(v, w) for w in angles}
        for w in angles:
            assert exact[w] == float_levine_tristram(entries, w), (entries, w)
            assert exact[w] == exact[1 - w]


def _root_angles(v):
    """Angles in (0, 1/2) of the unit-circle roots of Delta, in floating point."""
    import numpy as np

    q, _ = normalize(alexander(v))
    roots = np.roots(q.dense()[::-1]) if q.max_exp else []
    return [math.atan2(r.imag, r.real) / (2 * math.pi)
            for r in roots if abs(abs(r) - 1) < 1e-9 and r.imag > 0]


def test_levine_tristram_beside_roots_of_delta():
    # 1/10^4 either side of a root the signature function may jump; the exact
    # value must follow the float count on both sides, and at the conjugate angle
    step = Fraction(1, 10**4)
    assert levine_tristram(V_TREFOIL, Fraction(1, 6) - step) == 0
    assert levine_tristram(V_TREFOIL, Fraction(1, 6) + step) == -2
    cases = [(V_TREFOIL.entries, Fraction(1, 6))]
    rng = random.Random(606)
    while len(cases) < 4:
        entries = make_valid_seifert(rng, rng.choice([4, 6, 8]))
        for theta in _root_angles(SeifertMatrix(entries)):
            cases.append((entries, Fraction(round(theta * 10**6), 10**6)))
    for entries, root in cases:
        v = SeifertMatrix(entries)
        for w in (root - step, root + step):
            exact = levine_tristram(v, w)
            assert exact == float_levine_tristram(entries, w), (entries, w)
            assert exact == levine_tristram(v, 1 - w) == float_levine_tristram(entries, 1 - w)


def test_levine_tristram_rejects_omega_one():
    with pytest.raises(ValueError):
        levine_tristram(V_FIG8, Fraction(0))
    with pytest.raises(ValueError):
        levine_tristram(V_FIG8, "2/2")


def test_levine_tristram_builds_one_sturm_chain_per_matrix(monkeypatch):
    chains = []

    def counted(f, _kernel=_seifert._sturm_chain):
        chains.append(f)
        return _kernel(f)

    monkeypatch.setattr(_seifert, "_sturm_chain", counted)
    v = SeifertMatrix(make_valid_seifert(random.Random(81), 8))
    values = [levine_tristram(v, w) for w in ("1/3", "2/5", "1/7", "3/7", "1/2")]
    assert len(chains) == 1, values
    fresh = SeifertMatrix(v.entries)
    assert [levine_tristram(fresh, w) for w in ("1/3", "2/5")] == values[:2]
    assert len(chains) == 2


def test_memo_keeps_equality_hash_pickle_and_deepcopy():
    entries = make_valid_seifert(random.Random(8), 6)
    v, fresh = SeifertMatrix(entries), SeifertMatrix(entries)
    sigma, delta, lt = signature(v), alexander(v), levine_tristram(v, "1/3")
    assert v == fresh and hash(v) == hash(fresh) and repr(v) == repr(fresh)
    assert v.to_json() == fresh.to_json()
    copies = [pickle.loads(pickle.dumps(v, protocol))
              for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)] + [copy.deepcopy(v)]
    for other in copies:
        assert other == v == fresh and hash(other) == hash(v)
        assert signature(other) == sigma and alexander(other) == delta
        assert determinant(other) == determinant(v)
        assert levine_tristram(other, "1/3") == lt
    assert signature(fresh) == sigma and alexander(fresh) == delta
