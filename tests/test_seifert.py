"""Seifert matrix invariants: signature, Alexander, Arf, Levine-Tristram, bounds."""

import copy
import json
import math
import pickle
import random
from fractions import Fraction

import pytest
from conftest import (alexander_full, arf_gf2, float_levine_tristram, float_signature,
                      make_invalid_seifert, make_valid_seifert)

from slicegate.bounds import Interval
from slicegate.cli import main
from slicegate.laurent import InvalidAlexanderError, LaurentPoly, normalize
from slicegate import seifert as _seifert
from slicegate.seifert import (NotASeifertMatrixError, SeifertMatrix, alexander, arf,
                               arf_murasugi, determinant, genus_bounds_from_matrix,
                               levine_tristram, signature)

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


def test_validation_reports_det_as_the_pfaffian_square():
    # det(V - V^T) is read as Pf(V - V^T)^2; the message names the determinant
    for entries, det in (([[0, 2], [0, 0]], 4), ([[0, 0], [0, 0]], 0),
                         ([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 3], [0, 0, 0, 0]], 9)):
        with pytest.raises(NotASeifertMatrixError) as err:
            SeifertMatrix(entries)
        assert str(err.value) == f"det(V - V^T) = {det}, expected +/-1"


def test_pfaffian_squares_to_the_bareiss_determinant():
    # Pf(A)^2 = det A on seeded skew matrices: sparse ones, whose zero pivots need a
    # swap, singular ones (Pf = 0) whose zero row shows only after some steps, and dense
    # ones; the sign from Pf(P J P^T) = det P for the standard symplectic form J
    from conftest import det_bareiss
    from slicegate.seifert import _pfaffian

    def skew(n, draw):
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = draw(i, j)
                a[j][i] = -a[i][j]
        return a

    rng = random.Random(1994)
    kinds = {"swap": 0, "singular": 0, "low rank": 0}
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
        copy_of_a = [list(r) for r in a]
        pf = _pfaffian(a)
        assert a == copy_of_a and pf * pf == det_bareiss(a), a
        kinds["swap"] += n > 0 and not a[0][1] and pf != 0
        kinds["singular"] += pf == 0
    assert min(kinds.values()) >= 30, kinds  # 35 swaps, 181 singular, 45 low rank
    jmat = skew(8, lambda i, j: int(j == i + 1 and i % 2 == 0))
    for _ in range(40):
        p = [[rng.randint(-2, 2) for _ in range(8)] for _ in range(8)]
        pj = [[sum(p[i][k] * jmat[k][j] for k in range(8)) for j in range(8)] for i in range(8)]
        a = [[sum(pj[i][k] * p[j][k] for k in range(8)) for j in range(8)] for i in range(8)]
        assert _pfaffian(a) == det_bareiss(p), p


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
    from slicegate.laurent import _poly_eval, _sturm_chain

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


def miller_rabin(p, bases):
    """True when the odd p > bases[-1] is a strong probable prime to every base."""
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def test_alexander_moduli_are_primes():
    # the table ascends; Lucas-Lehmer on every Mersenne modulus up to 2^4423 - 1
    # (the larger exponents are further terms of the known list, OEIS A000043, too
    # slow to check here); Miller-Rabin to the first 20 prime bases on the others,
    # each 2^e - k from 2^255 on, and up to 2^1024 k is the least odd that passes it
    single = _seifert._PRIMES
    assert list(single) == sorted(single) and single[-1] < 2 ** _seifert._MERSENNE_WIDE[0] - 1
    assert list(_seifert._MERSENNE_WIDE) == sorted(_seifert._MERSENNE_WIDE)
    exponents = {p.bit_length() for p in single if p & (p + 1) == 0}
    exponents |= set(_seifert._MERSENNE_WIDE)
    assert {13, 61, 127, 521, 607, 1279, 2203, 2281} <= exponents
    for e in sorted(e for e in exponents if e <= 4423):
        s, p = 4, (1 << e) - 1
        for _ in range(e - 2):
            s = (s * s - 2) % p
        assert s == 0, e
    bases = [q for q in range(2, 72) if all(q % d for d in range(2, q))]
    assert len(bases) == 20
    others = {p.bit_length(): p for p in single if p & (p + 1)}
    # 2^512 and 2^1280 are left out, next to 2^521 - 1 and 2^1279 - 1
    assert set(others) == {192, 224, 255} | set(range(384, 2049, 128)) - {512, 1280}
    assert others[192] == 2**192 - 2**64 - 1 and others[224] == 2**224 - 2**96 + 1
    small = math.prod(q for q in range(3, 1000, 2) if all(q % d for d in range(3, q, 2)))
    for e, p in others.items():
        assert miller_rabin(p, bases), p
        if 255 <= e <= 1024:  # no 2^e - j with j odd, j < k passes (wider takes seconds)
            assert not any(math.gcd(c, small) == 1 and miller_rabin(c, bases)
                           for c in range((1 << e) - 1, p, -2)), e
    assert others[255] == 2**255 - 19
    assert not miller_rabin(2**192 - 2**64 + 1, bases)  # the test rejects a composite


def hadamard_bound(entries):
    """prod_i (isqrt(|row_i V|^2) + isqrt(|col_i V|^2) + 2), the bound B alexander sizes by."""
    return math.prod(math.isqrt(sum(x * x for x in r)) + math.isqrt(sum(x * x for x in c)) + 2
                     for r, c in zip(entries, zip(*entries)))


# (n, bound, prime) with 2B in the window of prime; at n = 8 entries of up to 2^j
# reach each prime past 2^384 - 317, and 2^2281 - 1 is the first wide Mersenne prime
WINDOW_CASES = [(32, 5, 2**192 - 2**64 - 1), (40, 5, 2**224 - 2**96 + 1), (40, 7, 2**255 - 19),
                (32, 50, 2**384 - 317)] + [(8, 2**j, (1 << e) - k) for j, e, k in (
                    (47, 521, 1), (64, 607, 1), (75, 640, 305), (79, 768, 825), (95, 896, 213),
                    (111, 1024, 105), (127, 1152, 927), (143, 1279, 1), (158, 1408, 413),
                    (175, 1536, 3453), (191, 1664, 1233), (207, 1792, 963), (223, 1920, 1503),
                    (239, 2048, 1557), (255, 2203, 1), (274, 2281, 1))]


@pytest.mark.parametrize("n, bound, prime", WINDOW_CASES, ids=["p192", "p224", "p25519"] + [
    f"p{p.bit_length()}" for _, _, p in WINDOW_CASES[3:]])
def test_alexander_one_modulus_in_each_prime_window(monkeypatch, n, bound, prime):
    # 2B lies above every narrower prime and below this one, so one residue pass serves
    entries = make_valid_seifert(random.Random(n * 100 + bound), n, bound=bound)
    narrower = [p for p in _seifert._PRIMES if p < prime]
    assert max(narrower) <= 2 * hadamard_bound(entries) < prime
    moduli = []

    def counted(h, p, _kernel=_seifert._charpoly_mod):
        moduli.append(p)
        return _kernel(h, p)

    monkeypatch.setattr(_seifert, "_charpoly_mod", counted)
    assert alexander(SeifertMatrix(entries)) == alexander_full(entries)
    assert moduli == [prime]


def test_alexander_past_the_widest_prime_raises_value_error(monkeypatch, tmp_path, capsys):
    # a short table that a 4 x 4 matrix with entries up to 100 overflows: the error
    # names n, and the CLI prints one error line and exits 2, with no traceback.
    # Entries up to 4 still fit, modulo the wide 2^17 - 1
    monkeypatch.setattr(_seifert, "_PRIMES", (2**13 - 1,))
    monkeypatch.setattr(_seifert, "_MERSENNE_WIDE", (17, 19))
    fits = make_valid_seifert(random.Random(4), 4, bound=4)
    assert 2**13 - 1 < 2 * hadamard_bound(fits) < 2**17 - 1
    assert alexander(SeifertMatrix(fits)) == alexander_full(fits)
    entries = make_valid_seifert(random.Random(4), 4, bound=100)
    assert 2 * hadamard_bound(entries) > 2**19 - 1
    with pytest.raises(ValueError, match="n = 4"):
        alexander(SeifertMatrix(entries))
    # K # -K has an odd-square determinant, so obstruct reads its Delta and exits 2;
    # K's determinant is not a square, so obstruct reads no Delta and reports
    mirror = [[-x for x in c] for c in zip(*entries)]
    assert math.isqrt(det := determinant(SeifertMatrix(entries))) ** 2 != det
    for name, matrix, obstruct_code in (("m4", entries, 0),
                                        ("m8", direct_sum(entries, mirror), 2)):
        n = len(matrix)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"n": n, "entries": matrix}), encoding="utf-8")
        for argv, code in ((["invariants", "--matrix-file", str(path)], 2),
                           (["obstruct", "--matrix-file", str(path), "--json"], obstruct_code)):
            assert main(argv) == code, argv
            out, err = capsys.readouterr()
            if code == 2:
                assert out == "" and err.count("\n") == 1, (argv, err)
                assert err.startswith("error: ") and f"n = {n}" in err and "Traceback" not in err
            else:
                report = json.loads(out)
                assert err == "" and report["verdict"]["topologically_slice"] == "no", report


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
    assert levine_tristram(UNKNOT, "1/3") == 0


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


def test_genus_bounds_from_matrix():
    gb = genus_bounds_from_matrix(V_TREFOIL)
    assert gb.g4 == Interval(1, 1)
    assert gb.gamma4 == Interval(1, 3)
    assert genus_bounds_from_matrix(UNKNOT).g4 == Interval(0, 0)
    assert genus_bounds_from_matrix(V_FIG8).g4 == Interval(0, 1)


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
