"""Shared helpers: random Seifert-matrix generators, the Bareiss determinant
oracle, the float signature and Levine-Tristram oracles, the realified
Levine-Tristram oracle with its two-ended arc-point bisection, the GF(2) Arf
oracle, the full-interpolation Alexander oracle, the right-looking
characteristic-polynomial oracle, the Kronecker factorization oracle and the
closed forms of sigma, Arf and Delta of a twisted Whitehead double."""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from functools import reduce

import numpy as np

from slicegate.laurent import LaurentPoly, _poly_div_exact, _poly_mul


def _poly_eval(cs, x):
    """The dense coefficient list cs (constant term first) evaluated at x, by Horner."""
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def random_unimodular(rng, n, ops=4):
    """Integer matrix of determinant +/-1: elementary row operations on the identity."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-1, 1])
        for k in range(n):
            m[i][k] += c * m[j][k]
    if rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        m[i], m[j] = m[j], m[i]
    return m


def random_skew_unimodular(rng, n, ops=3):
    """P J P^T for the standard symplectic block form J; skew with determinant 1."""
    jmat = [[0] * n for _ in range(n)]
    for k in range(0, n, 2):
        jmat[k][k + 1] = 1
        jmat[k + 1][k] = -1
    p = random_unimodular(rng, n, ops)
    pj = [[sum(p[i][k] * jmat[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(pj[i][k] * p[j][k] for k in range(n)) for j in range(n)] for i in range(n)]


def det_bareiss(rows) -> int:
    """Oracle: exact determinant of an integer matrix (fraction-free Bareiss).

    The plain entry-by-entry loop, with no shortcut for a zero below the pivot, that
    checks seifert._det_int behind the det(V - V^T) and stored-Delta checks.
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    prev = 1
    sign = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


MAX_REJECTED_DRAWS = 1000


def make_valid_seifert(rng, n, bound=5):
    """Entries of a valid Seifert matrix (V - V^T unimodular) within |entry| <= bound.

    A draw whose skew part pushes an entry past the bound is rejected whole, so
    acceptance falls fast with n at small bounds (at n = 40 and bound 3, a
    seeded sample rejected 36 draws per matrix on average); after
    MAX_REJECTED_DRAWS rejections it raises RuntimeError instead of looping
    for minutes.
    """
    for _ in range(MAX_REJECTED_DRAWS + 1):
        skew = random_skew_unimodular(rng, n, ops=rng.randint(0, 3))
        sym = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                sym[i][j] = sym[j][i]
        v = [[sym[i][j] + (skew[i][j] if i < j else 0) for j in range(n)] for i in range(n)]
        if all(abs(x) <= bound for row in v for x in row):
            return v
    raise RuntimeError(f"make_valid_seifert: {MAX_REJECTED_DRAWS} draws rejected at n = {n}, "
                       f"bound = {bound}; use a larger bound")


def torus_2q_seifert(q, rng=None):
    """Seifert matrix of the (2, q) torus knot, q odd: (q - 1) square, -1 on the diagonal
    and 1 above it, under the congruence P V P^T by random_unimodular(rng) when rng is given.

    Delta has a root at every e^(i pi k/q), k odd, so for q >= 7 most angles lie on an
    interior arc, where a Levine-Tristram signature needs its Hermitian elimination.
    """
    n = q - 1
    v = [[-1 if i == j else int(j == i + 1) for j in range(n)] for i in range(n)]
    if rng is None:
        return v
    p = random_unimodular(rng, n)
    pv = [[sum(p[i][k] * v[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(pv[i][k] * p[j][k] for k in range(n)) for j in range(n)] for i in range(n)]


def make_invalid_seifert(rng, n, bound=5):
    """Random even-size integer matrix with det(V - V^T) != +/-1."""
    while True:
        v = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        skew = [[v[i][j] - v[j][i] for j in range(n)] for i in range(n)]
        if det_bareiss(skew) not in (1, -1):
            return v


def float_signature(entries, tol=1e-9):
    """Independent oracle: eigenvalue sign count of V + V^T in floating point."""
    n = len(entries)
    if n == 0:
        return 0
    sym = np.array([[entries[i][j] + entries[j][i] for j in range(n)] for i in range(n)],
                   dtype=float)
    eigs = np.linalg.eigvalsh(sym)
    return int((eigs > tol).sum()) - int((eigs < -tol).sum())


def float_levine_tristram(entries, omega, tol=1e-9):
    """Independent oracle: eigenvalue sign count of (1-w)V + (1-conj(w))V^T in floating point.

    omega is the angle fraction of w = e^(2*pi*i*omega); None when an
    eigenvalue is within tol of zero.
    """
    n = len(entries)
    if n == 0:
        return 0
    z = cmath.exp(2j * math.pi * float(omega))
    h = np.array([[(1 - z) * entries[i][j] + (1 - z.conjugate()) * entries[j][i]
                   for j in range(n)] for i in range(n)], dtype=complex)
    eigs = np.linalg.eigvalsh(h)
    if (abs(eigs) <= tol).any():
        return None
    return int((eigs > tol).sum()) - int((eigs < -tol).sum())


def arc_point_two_ended(chain, w):
    """(u, steps): the arc point of seifert._arc_point and its number of bisection steps.

    The bisection before one end's Sturm count carried over: every step
    evaluates the whole chain at both ends of [lo^2, hi^2], so it takes the
    same steps to the same point with two chain evaluations per step.
    """
    from slicegate.seifert import _compare_tan

    def sign_changes(x):
        signs = [s for s in (_poly_eval(p, x) for p in chain) if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))

    def root_free(lo, hi):
        return (_poly_eval(chain[0], lo) != 0 and _poly_eval(chain[0], hi) != 0
                and sign_changes(lo) == sign_changes(hi))

    lo, hi, steps = Fraction(0), Fraction(w.denominator), 0
    while not root_free(lo * lo, hi * hi):
        mid, steps = (lo + hi) / 2, steps + 1
        side = _compare_tan(mid, w)
        if side == 0:
            return mid, steps
        if side < 0:
            lo = mid
        else:
            hi = mid
    return hi, steps


def realified_levine_tristram(entries, omega):
    """Oracle: Levine-Tristram signature as half the signature of the 2n x 2n real form.

    The exact path before the Hermitian kernel: the same singularity test and
    rational arc point u = a/b as levine_tristram, found by the two-ended
    bisection, then the integer symmetric form [[aS, bA], [-bA, aS]]
    (S = V + V^T, A = V - V^T), the realification of aS - i*bA, whose
    signature is twice the Hermitian one.  None when singular.
    """
    from slicegate.laurent import _cyclotomic, _sturm_chain
    from slicegate.seifert import SeifertMatrix, _signature_int, _trace_poly, alexander, signature

    v = SeifertMatrix(entries)
    w = Fraction(omega) % 1
    w = min(w, 1 - w)
    if w == Fraction(1, 2):
        return signature(v)
    if v.n == 0:
        return 0
    delta = alexander(v)
    poly = [delta.coeffs.get(k, 0) for k in range(-delta.max_exp, delta.max_exp + 1)]
    if _poly_div_exact(poly, _cyclotomic(w.denominator)) is not None:
        return None
    u, _ = arc_point_two_ended(_sturm_chain(_trace_poly(delta)), w)
    a, b = u.numerator, u.denominator
    s = [[a * x for x in row] for row in v.pencil(-1)]
    t = [[b * x for x in row] for row in v.pencil(1)]
    form = [sr + tr for sr, tr in zip(s, t)] + [[-x for x in tr] + sr for sr, tr in zip(s, t)]
    return _signature_int(form)[0] // 2


def alexander_full(entries):
    """Independent oracle: det(V - tV^T) interpolated from all n + 1 values, centered.

    Lagrange interpolation on t = 0, +/-1, ..., +/-n/2, with no use of the
    palindromic symmetry; the result must come out integral and palindromic,
    and its sign is chosen so the value at t = 1 is 1.
    """
    n = len(entries)
    xs = [0] + [sign * k for k in range(1, n // 2 + 1) for sign in (1, -1)]
    dets = [det_bareiss([[entries[i][j] - x * entries[j][i] for j in range(n)] for i in range(n)])
            for x in xs]
    cs = _interpolate(*_lagrange_basis(xs), dets)
    assert cs is not None and cs == cs[::-1], "det(V - tV^T) must be palindromic on [0, n]"
    poly = LaurentPoly({e - n // 2: c for e, c in enumerate(cs)})
    return poly if poly.at_pm1(1) == 1 else -poly


def charpoly_mod_right_looking(h, p):
    """Oracle: det(xI - H) mod the prime p, ascending, for a square residue matrix H.

    The kernel before the left-looking one.  Similarities reduce H in place to
    upper Hessenberg form one column at a time, eliminating below the
    subdiagonal with every row update reduced mod p (a column's row steps share
    one pivot row, so their inverses commute into one column update); then
    Cohen's Alg. 2.2.9 reads the characteristic polynomial off H.
    """
    n = len(h)
    for k in range(n - 2):
        j = k + 1
        piv = next((i for i in range(j, n) if h[i][k]), None)
        if piv is None:
            continue
        h[j], h[piv] = h[piv], h[j]
        for row in h:
            row[j], row[piv] = row[piv], row[j]
        rj, inv = h[j][k:], pow(h[j][k], -1, p)
        us = [h[i][k] * inv % p for i in range(j + 1, n)]
        for i, u in enumerate(us, j + 1):
            if u:  # columns left of k are zero in rows j and below
                h[i][k:] = [(x - u * y) % p for x, y in zip(h[i][k:], rj)]
        for row in h:
            row[j] = (row[j] + sum(map(operator.mul, us, row[j + 1:]))) % p
    polys = [[1]]
    for m in range(n):
        acc, t = [a - h[m][m] * b for a, b in zip([0] + polys[m], polys[m] + [0])], 1
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] % p
            f = t * h[i][m]
            acc[:i + 1] = [a - f * b for a, b in zip(acc, polys[i])]
        polys.append([a % p for a in acc])
    return polys[n]


# -- Kronecker factorization, the oracle for laurent.factor ------------------


def _divisors(n: int) -> list[int]:
    """Positive divisors of |n| in increasing order (n must be nonzero)."""
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _find_rational_root(cs):
    """A rational root a/b of the primitive polynomial cs, as (a, b) with b > 0, or None."""
    deg = len(cs) - 1
    const, lead = cs[0], cs[-1]
    if const == 0:
        return 0, 1
    for b in _divisors(lead):
        for a in _divisors(const):
            if math.gcd(a, b) != 1:
                continue
            for sa in (a, -a):
                # b^deg * cs(sa/b), an integer
                acc = sum(c * sa ** k * b ** (deg - k) for k, c in enumerate(cs))
                if acc == 0:
                    return sa, b
    return None


def _expand_points(points):
    """Monic polynomial prod (t - x_j) as a coefficient list."""
    out = [1]
    for x in points:
        out = _poly_mul(out, [-x, 1])
    return out


def _lagrange_basis(pts):
    """Integer-scaled Lagrange basis on distinct integer points.

    Returns (scale, basis) with basis[i] = scale * L_i as integer
    coefficient lists, where L_i is 1 at pts[i] and 0 at the other points.
    """
    denoms = []
    numers = []
    for i, xi in enumerate(pts):
        d = 1
        for j, xj in enumerate(pts):
            if j != i:
                d *= xi - xj
        denoms.append(d)
        numers.append(_expand_points([x for j, x in enumerate(pts) if j != i]))
    scale = reduce(math.lcm, (abs(d) for d in denoms))
    return scale, [[c * (scale // d) for c in numer] for d, numer in zip(denoms, numers)]


def _interpolate(scale, basis, vals):
    """Coefficients of the interpolant taking vals on the basis points, or None if not integral."""
    scaled = [sum(v * b[c] for v, b in zip(vals, basis)) for c in range(len(basis))]
    if any(c % scale for c in scaled):
        return None
    return [c // scale for c in scaled]


def _kronecker_find_factor(cs, m):
    """Search for a degree-m integer divisor of cs; returns its coefficients or None.

    Classic Kronecker interpolation: a degree-m factor g satisfies
    g(x) | cs(x) at every integer x, so enumerate divisor tuples over m+1
    sample points and interpolate.  Points are chosen to minimize divisor
    counts and candidates are pruned with g(x) = g(y) mod (x - y).
    """
    pool = [0]
    k = 1
    while len(pool) < max(11, m + 3):
        pool.extend((k, -k))
        k += 1
    divs = {x: _divisors(_poly_eval(cs, x)) for x in pool}
    scored = sorted(pool, key=lambda x: (len(divs[x]), abs(x)))
    pts = sorted(scored[: m + 1])
    scale, basis = _lagrange_basis(pts)

    mods = [[(j, abs(pts[i] - pts[j])) for j in range(i) if abs(pts[i] - pts[j]) > 1]
            for i in range(m + 1)]
    lead_cs = cs[-1]

    def candidates(i, chosen):
        opts = divs[pts[i]]
        if i == 0:
            # a factor and its negation divide equally; fix g(x0) > 0
            signed = opts
        else:
            signed = [d for d in opts] + [-d for d in opts]
        for d in signed:
            if all((d - chosen[j]) % q == 0 for j, q in mods[i]):
                yield d

    chosen = [0] * (m + 1)

    def search(i):
        if i == m + 1:
            g = _interpolate(scale, basis, chosen)
            if g is None or g[-1] == 0 or lead_cs % g[-1]:
                return None
            if _poly_div_exact(cs, g) is None:
                return None
            return g if g[-1] > 0 else [-c for c in g]
        for d in candidates(i, chosen):
            chosen[i] = d
            hit = search(i + 1)
            if hit is not None:
                return hit
        return None

    return search(0)


def _kronecker_factor_primitive(cs):
    """Irreducible factors (positive leading coefficient) of a primitive polynomial."""
    factors = []
    while len(cs) - 1 >= 1:
        root = _find_rational_root(cs)
        if root is None:
            break
        a, b = root
        lin = [-a, b]
        cs = _poly_div_exact(cs, lin)
        assert cs is not None
        factors.append(tuple(lin))
    # no rational roots remain: degrees 2 and 3 are now irreducible, and any
    # smallest-degree divisor found below is irreducible as well
    m = 2
    while (d := len(cs) - 1) >= 4 and m <= d // 2:
        g = _kronecker_find_factor(cs, m)
        if g is None:
            m += 1
            continue
        factors.append(tuple(g))
        cs = _poly_div_exact(cs, g)
        assert cs is not None
    if len(cs) - 1 >= 1:
        factors.append(tuple(cs))
    else:
        assert cs == [1], "primitive input should reduce to the unit constant"
    return factors


def factor_kronecker(q):
    """Independent oracle for laurent.factor: rational roots, then Kronecker's search.

    Same contract as factor (sorted primitive irreducible factors with
    positive leading coefficient, signed content), exponential in the degree;
    fine up to degree 12.
    """
    cs = [0] * q.min_exp + list(q.dense())
    g = reduce(math.gcd, (abs(c) for c in cs))
    content = g if cs[-1] > 0 else -g
    prim = [c // content for c in cs]
    if len(prim) == 1:
        return [], content
    raw = _kronecker_factor_primitive(prim)
    out = sorted(raw, key=lambda f: (len(f), f))
    return [LaurentPoly(dict(enumerate(f))) for f in out], content


def arf_gf2(entries):
    """Independent oracle: Arf of q(x) = x V x^T mod 2 by the democratic Gauss sum.

    S = sum over all x in GF(2)^n of (-1)^q(x) equals +/- 2^(n/2) (the form
    is nondegenerate because V - V^T is unimodular); Arf is 0 exactly when
    S > 0.  Enumeration is Gray-coded: 2^n steps of O(1) bit work.
    """
    n = len(entries)
    if n == 0:
        return 0
    diag = [entries[i][i] & 1 for i in range(n)]
    sym_mask = []
    for i in range(n):
        mask = 0
        for j in range(n):
            if j != i and (entries[i][j] + entries[j][i]) & 1:
                mask |= 1 << j
        sym_mask.append(mask)
    total = 1  # x = 0 contributes (-1)^0
    q = 0
    x = 0
    for k in range(1, 1 << n):
        i = (k & -k).bit_length() - 1
        q ^= diag[i] ^ ((x & sym_mask[i]).bit_count() & 1)
        x ^= 1 << i
        total += 1 - 2 * q
    assert abs(total) == 1 << (n // 2), "quadratic form unexpectedly degenerate"
    return 0 if total > 0 else 1


def alexander_formula(p) -> LaurentPoly:
    """Closed form -m*t + (2m+1) - m*t^-1 of a double, m the clasp-signed effective twist.

    The classical formula is normalized for the positive clasp (m = b); the
    negative-clasp double is the mirror of the positive double with twist -b
    and the Alexander polynomial is mirror-invariant, so m = -b there.
    """
    b = p.effective_twist
    m = b if p.clasp == "+" else -b
    return LaurentPoly({1: -m, 0: 2 * m + 1, -1: -m})


def sigma_whitehead(p) -> int:
    """Signature of a double: -2 for a positive clasp with b < 0, +2 for a negative
    clasp with b > 0, else 0.

    V + V^T = [[-/+2, 1], [1, 2b]] has determinant -/+4b - 1, negative when b
    has the clasp's sign or is 0, and otherwise definite with the sign of -/+2.
    """
    b = p.effective_twist
    if p.clasp == "+":
        return -2 if b < 0 else 0
    return 2 if b > 0 else 0


def arf_whitehead(p) -> int:
    """Arf invariant of a double: the parity of the effective twist."""
    return p.effective_twist % 2


def golden_corpus():
    """The records behind the golden report file.

    The seed knots, a grid of Whitehead doubles (every seed companion, both
    clasps, twists -4..4, framings -1/0/1) and thirteen records of stored
    bounds: the eleventh and twelfth are contradictory, and the last makes
    oss-gamma4 bind gamma4.
    """
    from slicegate.bounds import Interval
    from slicegate.knotdb import KnotRecord, seed_table, whitehead_double_record
    from slicegate.plfunc import PLFunction
    from slicegate.seifert import SeifertMatrix
    from slicegate.whitehead import CompanionInvariants, WhiteheadParams

    store = seed_table()
    corpus = [store.lookup(name) for name in store.names()]
    for companion in store.names():
        for clasp in "+-":
            for twist in range(-4, 5):
                for framing in (-1, 0, 1):
                    params = WhiteheadParams(clasp, twist, framing, companion)
                    corpus.append(whitehead_double_record(params, store.lookup(companion)))

    def stored(name, **fields):
        top = {k: fields.pop(k) for k in ("seifert_matrix", "alexander", "sigma", "arf")
               if k in fields}
        return KnotRecord(name=name, invariants=CompanionInvariants(**fields), **top)

    trefoil_upsilon = PLFunction([(0, 0), (1, -1), (2, 0)])
    corpus += [stored(*args, **fields) for args, fields in [
        (("stored-g4-point",), dict(g4=Interval(2, 2), g3=Interval(2, 3))),
        (("stored-gamma4-only",), dict(gamma4=Interval(3, 5))),
        (("stored-g3-sigma",), dict(g3=Interval(0, 1), sigma=-2, arf=1)),
        (("stored-tau-nu",), dict(tau=2, nu=3, g4=Interval(1, 4))),
        (("stored-upsilon",), dict(upsilon=trefoil_upsilon, sigma=0, arf=0,
                                   gamma3=Interval(1, 4))),
        (("stored-yasuhara",), dict(sigma=4, arf=0, gamma4=Interval(1, 2), g4=Interval(2, 5))),
        (("stored-fox-milnor-fails",), dict(alexander=LaurentPoly({1: -1, 0: 3, -1: -1}),
                                            g4=Interval(1, 2), g3=Interval(1, 1))),
        (("stored-slice",), dict(alexander=LaurentPoly({1: 2, 0: -5, -1: 2}),
                                 g4=Interval(0, 0), gamma4=Interval(1, 1))),
        (("stored-unit-delta",), dict(alexander=LaurentPoly({2: 1}), gamma3=Interval(1, 2))),
        (("stored-matrix",), dict(seifert_matrix=SeifertMatrix([[-1, 1], [0, -1]]),
                                  g4=Interval(1, 1), gamma3=Interval(2, 3))),
        (("clash-tau-g4",), dict(tau=3, g4=Interval(0, 2))),
        (("clash-yasuhara-gamma4",), dict(sigma=0, arf=1, gamma4=Interval(1, 1))),
        (("stored-oss-gamma4",), dict(upsilon=trefoil_upsilon, sigma=2, arf=0)),
    ]]
    return corpus
