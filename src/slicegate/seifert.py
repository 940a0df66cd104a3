"""Invariants computed from Seifert matrices: signature, Arf, Alexander
polynomial, determinant and Levine-Tristram signatures.

Everything is exact integer arithmetic.  One fraction-free symmetric
elimination gives the signature of V + V^T and, as its last pivot, the
determinant det(V + V^T), whence the Arf invariant by Levine's criterion;
over the Gaussian integers on the n x n Hermitian form taken on the same arc
of the unit circle it gives each Levine-Tristram signature of an interior arc.
det(V - t V^T) comes from the characteristic polynomial of the small integer matrix
W = (V - V^T)^-1 V, reduced left-looking to Hessenberg form modulo the one
tabled prime that a Hadamard bound sizes.  Every other determinant is one Bareiss
elimination: det(V - V^T) = 1 checks the Seifert form, and that of V - t0 V^T, t0 past
a root bound, a given Delta.  sigma with det(V + V^T), Delta and the Sturm
chain that Levine-Tristram signatures share are each computed at most once per matrix.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from ._record import reject_unknown_keys
from .laurent import (LaurentPoly, _cyclotomic, _poly_div_exact, _poly_mul, _sturm_chain,
                      _wire_int, check_alexander)
from .plfunc import _frac


class NotASeifertMatrixError(ValueError):
    """The given matrix fails the Seifert-form test (V - V^T unimodular, even size)."""


class SeifertMatrix:
    """Square integer matrix V of even size with V - V^T unimodular.

    The 0x0 matrix is the Seifert matrix of the unknot.  Instances are
    immutable; all invariant computations are pure functions of them.
    signature() keeps sigma and det(V + V^T) in _sigma and _det, alexander() keeps
    Delta in _delta, and levine_tristram() the Sturm chain of Delta's trace
    polynomial in _chain.
    """

    __slots__ = ("_rows", "_sigma", "_det", "_delta", "_chain")

    def __init__(self, entries):
        try:
            rows = tuple(tuple(map(_wire_int, row)) for row in entries)
        except TypeError:
            raise NotASeifertMatrixError("entries must be rows of integers") from None
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise NotASeifertMatrixError("matrix is not square")
        if n % 2:
            raise NotASeifertMatrixError(f"size {n} is odd; Seifert matrices have even size")
        self._rows = rows
        self._sigma = self._det = self._delta = self._chain = None
        if (d := _det_int(self.pencil(1))) != 1:  # skew of even size: det = Pf^2 >= 0
            raise NotASeifertMatrixError(f"det(V - V^T) = {d}, expected +/-1")

    @property
    def n(self) -> int:
        return len(self._rows)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def pencil(self, t: int) -> list[list[int]]:
        """V - t V^T as integer rows: V + V^T at t = -1 and V - V^T at t = 1."""
        rows, n = self._rows, self.n
        return [[rows[i][j] - t * rows[j][i] for j in range(n)] for i in range(n)]

    def __eq__(self, other):
        if isinstance(other, SeifertMatrix):
            return self._rows == other._rows
        return NotImplemented

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        return f"SeifertMatrix({[list(r) for r in self._rows]!r})"

    def to_json(self):
        return {"n": self.n, "entries": [list(r) for r in self._rows]}

    @classmethod
    def from_json(cls, obj) -> "SeifertMatrix":
        if not isinstance(obj, dict):
            return cls(obj)
        reject_unknown_keys(obj, ("n", "entries"), "a Seifert matrix")
        if "entries" not in obj:
            raise NotASeifertMatrixError("Seifert matrix document has no 'entries'")
        v = cls(obj["entries"])
        if type(obj.get("n", v.n)) is not int or obj.get("n", v.n) != v.n:
            raise NotASeifertMatrixError("declared size is not the size of the entry rows")
        return v


def _signature_int(a, b=None) -> tuple[int, int]:
    """(signature, determinant) of the Hermitian matrix a + i*b (b skew, or None for a real a).

    Fraction-free (Bareiss) steps with symmetric pivoting keep every entry a
    minor in Z[i] of a matrix congruent to the input, so each division is
    exact.  The k-th pivot is the leading principal minor d_k of that matrix,
    real as it is Hermitian, and the diagonal of its LDL^* form is d_k / d_(k-1),
    so every step adds the sign of d_k * d_(k-1).  When the remaining diagonal
    is all zero but some m_ij is not, the congruence row_i += c row_j, col_i +=
    conj(c) col_j puts 2 Re m_ij (c = 1) or 2 Im m_ij (c = i) on the diagonal;
    it acts linearly on the minors, so the invariant survives.  The swaps and
    cures are congruences by matrices of determinant +/-1 and 1, so the last
    pivot d_n is the input's determinant, and 0 when the rest of the form is zero.
    """
    m, mi = [list(r) for r in a], b and [list(r) for r in b]
    parts = (m, mi) if mi else (m,)
    n = len(m)
    sig = 0
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                         if any(x[i][j] for x in parts)), None)
            if pair is None:
                return sig, 0  # the rest of the form is zero
            piv, j = pair
            if m[piv][j]:  # c = 1
                for x in parts:
                    for c in range(k, n):
                        x[piv][c] += x[j][c]
                    for r in range(k, n):
                        x[r][piv] += x[r][j]
            else:  # c = i
                for c in range(k, n):
                    m[piv][c], mi[piv][c] = m[piv][c] - mi[j][c], mi[piv][c] + m[j][c]
                for r in range(k, n):
                    m[r][piv], mi[r][piv] = m[r][piv] + mi[r][j], mi[r][piv] - m[r][j]
        if piv != k:
            for x in parts:
                x[k], x[piv] = x[piv], x[k]
                for row in x:
                    row[k], row[piv] = row[piv], row[k]
        p = m[k][k]
        sig += 1 if (p > 0) == (prev > 0) else -1
        rk = m[k]
        if not mi:  # real-only update
            for i in range(k + 1, n):
                ri = m[i]
                mik = ri[k]
                for j in range(i, n):
                    ri[j] = m[j][i] = (ri[j] * p - mik * rk[j]) // prev
        else:  # m_ij p - m_ik m_kj with m_ik = conj(m_ki), on both parts
            ik = mi[k]
            for i in range(k + 1, n):
                ri, ii, ar, ai = m[i], mi[i], m[i][k], mi[i][k]
                for j in range(i, n):
                    ri[j] = m[j][i] = (ri[j] * p - ar * rk[j] + ai * ik[j]) // prev
                    y = ii[j] = (ii[j] * p - ar * ik[j] - ai * rk[j]) // prev
                    mi[j][i] = -y
        prev = p
    return sig, prev


def signature(v: SeifertMatrix) -> int:
    """Signature of V + V^T, computed exactly once per matrix with det(V + V^T); always even."""
    if v._sigma is None:
        v._sigma, v._det = _signature_int(v.pencil(-1))
    return v._sigma


def determinant(v: SeifertMatrix) -> int:
    """The knot determinant |det(V + V^T)| = |Delta(-1)|, the signature's last pivot."""
    signature(v)
    return abs(v._det)


# alexander reads Delta modulo the narrowest prime above 2B, in this order.  Past 2^255 - 19:
# the Mersenne primes, and 2^e - k, k least odd, for e = 128j <= 2048 but 512 and 1280
_PRIMES = (*((1 << e) - 1 for e in (13, 17, 19, 31, 61, 89, 107, 127)), 2**192 - 2**64 - 1,
           2**224 - 2**96 + 1, *((1 << e) - k for e, k in (
               (255, 19), (384, 317), (521, 1), (607, 1), (640, 305), (768, 825), (896, 213),
               (1024, 105), (1152, 927), (1279, 1), (1408, 413), (1536, 3453), (1664, 1233),
               (1792, 963), (1920, 1503), (2048, 1557), (2203, 1))))
_MERSENNE_WIDE = (2281, 3217, 4253, 4423, 9689, 9941, 11213, 19937, 21701, 23209, 44497, 86243,
                  110503, 132049, 216091, 756839, 859433)


def _charpoly_mod(w, p: int) -> list[int]:
    """det(xI - W) mod the prime p, ascending, for a square integer matrix W (permuted in place).

    Builds W L = L H a column at a time, L unit lower triangular and H upper Hessenberg
    (left-looking Gaussian similarity).  Column k of H is W l_k forward-substituted
    against L's rows 0..k; the residual below row k gives h_(k+1,k), its pivot row
    (swapped into row k + 1 of W, L and the residual) and l_(k+1), or l_(k+1) = e_(k+1)
    and h_(k+1,k) = 0 when it is zero.  Every entry is one dot product reduced once, and
    the n^3/2 products in the W l_k take W's entries as given.  Cohen's Alg. 2.2.9
    reads det(xI - H) off each new column.
    """
    n = len(w)
    lrows, sub, lk, polys = [[]] + [[0] for _ in range(1, n)], [], [1], [[1]]
    for k in range(n):
        wl, h = [sum(map(operator.mul, row[k:], lk)) for row in w], []
        for a in range(k + 1):  # lrows[i] holds l_0[i], l_1[i], ... below L's diagonal
            h.append((wl[a] - sum(map(operator.mul, h, lrows[a]))) % p)
        res = [(wl[j] - sum(map(operator.mul, h, lrows[j]))) % p for j in range(k + 1, n)]
        acc, t = [a - h[k] * b for a, b in zip([0] + polys[k], polys[k] + [0])], 1
        for i in range(k - 1, -1, -1):
            t = t * sub[i] % p
            f = t * h[i] % p
            acc[:i + 1] = [a - f * b for a, b in zip(acc, polys[i])]
        polys.append([a % p for a in acc])
        if res:
            j = k + 1
            if not res[0] and any(res):
                i = next(i for i, x in enumerate(res) if x)
                w[j], w[j + i], lrows[j], lrows[j + i] = w[j + i], w[j], lrows[j + i], lrows[j]
                for row in w:
                    row[j], row[j + i] = row[j + i], row[j]
                res[0], res[i] = res[i], res[0]
            inv = pow(res[0], -1, p) if res[0] else 0  # a zero residual: l_(k+1) = e_(k+1)
            sub.append(res[0])  # h_(k+1,k)
            lk = [1] + [x * inv % p for x in res[1:]]
            for row, x in zip(lrows[j + 1:], lk[1:]):
                row.append(x)
    return polys[n]


def _hadamard_prime(v: SeifertMatrix) -> tuple[int, int]:
    """(B, p): B = prod_i (|row_i V| + |col_i V|) bounds each coefficient of det(V - tV^T)
    (Hadamard on |t| = 1, then Cauchy); p > 2B is the narrowest tabled prime, else ValueError."""
    rows = v.entries
    bound = math.prod(math.isqrt(sum(x * x for x in r)) + math.isqrt(sum(x * x for x in c)) + 2
                      for r, c in zip(rows, zip(*rows)))
    primes = itertools.chain(_PRIMES, ((1 << e) - 1 for e in _MERSENNE_WIDE))  # lazily
    if (p := next((p for p in primes if p > 2 * bound), None)) is None:
        raise ValueError(f"Delta at n = {v.n} needs a prime above 2^{(2 * bound).bit_length()}")
    return bound, p


def alexander(v: SeifertMatrix) -> LaurentPoly:
    """Alexander polynomial det(V - t V^T) in centered symmetric form, computed once per matrix.

    A = V - V^T is skew and unimodular, so det A = 1 and A^-1 is integral.  With W = A^-1 V,
    D(t) = det(V - tV^T) = det((1 - t)W + tI) = sum c_k t^k (t - 1)^(n-k) for det(xI - W) =
    sum c_k x^k, read in one residue pass modulo _hadamard_prime's p > 2B.  W's residues go
    to the kernel in (-p/2, p/2], where they are W's own small entries, so its matrix-vector
    products multiply small integers by residues.
    """
    if v._delta is None:
        rows, n, p = v.entries, v.n, _hadamard_prime(v)[1]
        aug = [[x % p for x in (*a, *r)] for a, r in zip(v.pencil(1), rows)]
        for k in range(n):  # Gauss-Jordan on [A | V], dropping each used pivot column
            piv = next(i for i in range(k, n) if aug[i][0])
            aug[k], aug[piv] = aug[piv], aug[k]
            inv = pow(aug[k][0], -1, p)
            rk = [x * inv % p for x in aug[k][1:]]
            aug = [rk if i == k else [(x - r[0] * y) % p for x, y in zip(r[1:], rk)]
                   if r[0] else r[1:] for i, r in enumerate(aug)]
        d, aug = [], [[x - p if 2 * x > p else x for x in r] for r in aug]  # W's small entries
        for ck in _charpoly_mod(aug, p):  # S_k = (t - 1) S_(k-1) + c_k t^k
            d = [(a - b) % p for a, b in zip([0] + d, d + [-ck])]
        v._delta = LaurentPoly({k - n // 2: x - p if 2 * x > p else x for k, x in enumerate(d)})
        assert v._delta.at_pm1(1) == 1, "Delta(1) = det(V - V^T) must be 1"
    return v._delta


def _det_int(m) -> int:
    """Determinant of a square integer matrix by Bareiss's exact fraction-free steps, in place."""
    sign, prev, n = 1, 1, len(m)
    for k in range(n - 1):
        if not m[k][k]:  # swap in a row below, which flips the sign; with none det = 0
            if (piv := next((i for i in range(k + 1, n) if m[i][k]), None)) is None:
                return 0
            m[k], m[piv], sign = m[piv], m[k], -sign
        p, rk = m[k][k], m[k][k + 1:]
        for ri in m[k + 1:]:
            if a := ri[k]:
                ri[k + 1:] = [(x * p - a * y) // prev for x, y in zip(ri[k + 1:], rk)]
            elif p != prev:  # a zero below the pivot only rescales the row
                ri[k + 1:] = [x * p // prev for x in ri[k + 1:]]
        prev = p
    return sign * m[-1][-1] if n else 1


def is_alexander_of(v: SeifertMatrix, delta: LaurentPoly) -> bool:
    """Whether the nonzero delta is det(V - tV^T) = D(t) up to a unit +/-t^k, decided exactly.

    Delta_c (delta centered, Delta_c(1) = 1) must span at most n = 2h; then D - t^h Delta_c has
    coefficients below t0 - 1 = B + C + 1 (B of _hadamard_prime, C of delta), so by Cauchy's root
    bound it is 0 iff it vanishes at t0.  A match memoizes Delta_c as alexander(v).
    """
    cs, h = delta.coeffs, v.n // 2
    if max(cs) - min(cs) > v.n:
        return False
    mid, sign = (min(cs) + max(cs)) // 2, 1 if delta.at_pm1(1) > 0 else -1
    centered = LaurentPoly({e - mid: sign * c for e, c in cs.items()})
    t0 = _hadamard_prime(v)[0] + max(map(abs, cs.values())) + 2  # raises as alexander does
    if same := _det_int(v.pencil(t0)) == sum(c * t0 ** (e + h) for e, c in centered.coeffs.items()):
        v._delta = centered
    return same


def arf(v: SeifertMatrix) -> int:
    """Arf invariant of the quadratic form q(x) = x V x^T mod 2.

    Levine's criterion: Arf is 0 exactly when det(V + V^T) = Delta(-1) is
    +/-1 mod 8, so the signature's last pivot decides it.
    """
    return 0 if determinant(v) % 8 in (1, 7) else 1


def arf_murasugi(delta: LaurentPoly) -> int:
    """Arf invariant from the Alexander polynomial: 0 iff Delta(-1) = +/-1 mod 8.

    Raises InvalidAlexanderError when delta cannot be an Alexander polynomial.
    """
    return 0 if check_alexander(delta).at_pm1(-1) % 8 in (1, 7) else 1


# -- Levine-Tristram ---------------------------------------------------------


def _trace_poly(delta: LaurentPoly) -> list[int]:
    """E(s) = (1 + s)^m * Delta(e^(i*psi)) with s = tan(psi/2)^2, m = max exponent of Delta.

    For symmetric Delta, t^k + t^-k = 2 Re((1 + iu)^(2k)) / (1 + u^2)^k at
    t = e^(i*psi), u = tan(psi/2), so E is an integer polynomial whose
    positive roots are the unit-circle roots of Delta with 0 < psi < pi.  Its
    top coefficient is Delta(-1), odd for a knot, so its degree is exactly m.
    """
    cs, m = delta.dense(), delta.max_exp  # cs[m + k] is the coefficient of t^k
    out = [0] * (m + 1)
    for k in range(m + 1):
        c = cs[m + k] * (2 if k else 1)
        if not c:
            continue
        re_part = [(-1) ** j * math.comb(2 * k, 2 * j) for j in range(k + 1)]
        for j, r in enumerate(_poly_mul(re_part, [math.comb(m - k, i) for i in range(m - k + 1)])):
            out[j] += c * r
    return out


def _sign_changes(chain, x: Fraction | None) -> int:
    """Sign changes along the Sturm chain at x >= 0 on integers, or at +infinity for None."""
    if x is None:
        return sum((p[-1] > 0) != (q[-1] > 0) for p, q in zip(chain, chain[1:]))
    a, b, signs = x.numerator, x.denominator, []
    for p in chain:
        value = 0
        for i, c in enumerate(reversed(p)):  # homogeneous Horner: den^deg * p(num/den)
            value = value * a + c * b ** i
        signs += [value > 0] if value else []
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _atan_bounds(a: int, b: int, bits: int) -> tuple[int, int]:
    """(lo, err) with lo <= 2^bits * arctan(a/b) < lo + err, for integers 0 < a <= b.

    Euler's series arctan(x) = sum c_n, c_0 = x/(1+x^2), c_(n+1) = c_n *
    (2n+2)/(2n+3) * x^2/(1+x^2): for x <= 1 each term is at most half the one
    before.  Each floored term is short of the exact one by less than 2 units,
    and the tail after the first zero term is below 4 units.
    """
    d = a * a + b * b
    term = (a * b << bits) // d
    total = n = 0
    while term:
        total += term
        term = term * (2 * n + 2) * a * a // ((2 * n + 3) * d)
        n += 1
    return total, 2 * n + 4


def _compare_tan(u: Fraction, w: Fraction) -> int:
    """Sign of u - tan(pi * w) for rationals u > 0 and 0 < w < 1/2, decided exactly.

    Compares q * arctan(u) with p * pi = 4p * arctan(1) (w = p/q) on integer
    enclosures, doubling the precision until they separate.  They do: by
    Niven's theorem arctan(u) / pi is irrational unless u = 1, which is
    settled first.  For u > 1, arctan(u) = pi/2 - arctan(1/u).
    """
    a, b = u.numerator, u.denominator
    if a > b:
        return -_compare_tan(1 / u, Fraction(1, 2) - w)
    if a == b:
        return (w < Fraction(1, 4)) - (w > Fraction(1, 4))
    p, q = w.numerator, w.denominator
    bits = 64
    while True:
        x, ex = _atan_bounds(a, b, bits)
        y, ey = _atan_bounds(1, 1, bits)
        if q * x > 4 * p * (y + ey):
            return 1
        if q * (x + ex) < 4 * p * y:
            return -1
        bits *= 2


def _arc_point(chain, w: Fraction, at_0: int) -> tuple[Fraction, int]:
    """(u', its Sturm count) for a rational u' on the arc of tan(pi * w) between roots of Delta.

    Bisects [0, q], which holds tan(pi * p/q) < cot(pi / 2q) < q, keeping the
    target inside by exact comparison, until equal Sturm counts at both ends
    certify that the trace polynomial, whose Sturm chain is given, has no root
    on the interval, mapped to s = u^2.  at_0 is the count at 0.  The end that
    stays keeps its count, so each step evaluates the chain once.  It ends
    because Delta does not vanish at omega.
    """
    lo, hi = Fraction(0), Fraction(w.denominator)
    # E = chain[0] is nonzero here: E(0) = Delta(1) = 1, and by Gauss's lemma a root (a/b)^2,
    # a != 0, gives Delta a factor worth 4a^2/g >= 2 (g <= 2) at t = 1, which Delta(1) = 1 bars
    at_lo, at_hi = at_0, _sign_changes(chain, hi * hi)
    while at_lo != at_hi:
        mid = (lo + hi) / 2
        side = _compare_tan(mid, w)
        if side == 0:
            return mid, _sign_changes(chain, mid * mid)
        if side < 0:
            lo, at_lo = mid, _sign_changes(chain, mid * mid)
        else:
            hi, at_hi = mid, _sign_changes(chain, mid * mid)
    return hi, at_hi


def levine_tristram(v: SeifertMatrix, omega) -> int | None:
    """Levine-Tristram signature at omega = e^(2*pi*i*p/q), or None when singular.

    Singularity of the Hermitian matrix (1-w)V + (1-conj(w))V^T happens
    exactly when the Alexander polynomial vanishes at w, which is decided by
    divisibility by the cyclotomic polynomial of the order of w.  Otherwise,
    for 0 < p/q < 1/2 the matrix is sin(2*pi*p/q) * (uS - iA) with S = V + V^T,
    A = V - V^T, u = tan(pi*p/q); its signature is constant on the arc
    between roots of Delta, so a rational u' = a/b on the same arc gives it
    as the signature of the n x n Gaussian-integer Hermitian form aS - i*bA.
    On the arc through 1 it is 0 (the form tends to -ibA, A skew and nondegenerate)
    and on the arc through -1 it is sigma; Sturm counts at s = 0, u'^2 and +inf
    tell these apart, so only an interior arc pays the elimination.  Conjugate
    angles have equal signatures, and p/q = 1/2 is the signature.
    """
    w = _frac(omega) % 1
    if w == 0:
        raise ValueError(f"omega = e^(2*pi*i*{omega}) = 1 is excluded from Levine-Tristram")
    w = min(w, 1 - w)
    if w == Fraction(1, 2):  # never singular: Delta(-1) = +/-det(V + V^T) is odd
        return signature(v)
    delta = alexander(v)
    cs = delta.dense()
    # Phi_q has degree phi(q) >= sqrt(q/2), so it cannot divide Delta when q > 2 deg^2
    if (w.denominator <= 2 * (len(cs) - 1) ** 2
            and _poly_div_exact(cs, _cyclotomic(w.denominator)) is not None):
        return None
    if v._chain is None:
        v._chain = _sturm_chain(_trace_poly(delta))
    at_0, at_inf = _sign_changes(v._chain, Fraction(0)), _sign_changes(v._chain, None)
    if at_0 == at_inf:  # no root of Delta on the upper semicircle
        return 0
    u, at_u = _arc_point(v._chain, w, at_0)
    if at_u in (at_0, at_inf):
        return 0 if at_u == at_0 else signature(v)
    a, b = u.numerator, u.denominator
    return _signature_int([[a * x for x in row] for row in v.pencil(-1)],
                          [[-b * x for x in row] for row in v.pencil(1)])[0]

