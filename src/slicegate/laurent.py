"""Exact arithmetic for integer Laurent polynomials and the Fox-Milnor slice test.

Alexander polynomials live in Z[t, t^-1] and are only defined up to a unit
+/- t^k, so everything here revolves around a canonical sparse form plus an
explicit unit-normalization step.  Factorization over Z is modular (factor
mod a prime, Hensel-lift, recombine by exact division) because the
Fox-Milnor condition needs exact irreducible factors, not numerical roots.
"""

from __future__ import annotations

import math
import operator
import random
from collections import Counter
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, count, zip_longest

from ._record import value_class


class InvalidAlexanderError(ValueError):
    """Not an Alexander polynomial, which needs p(1) = +/-1 and p(1/t) = +/-t^k p(t)."""


def _wire_int(x) -> int:
    """x as an int for decoders: a bool, float or string is a TypeError, not rounded or parsed."""
    if type(x) is int:
        return x
    return operator.index(None if isinstance(x, bool) else x)


def _fmt_terms(pairs):
    # pairs: iterable of (exponent, coefficient), printed in descending exponent
    pieces = []
    for e, c in sorted(pairs, reverse=True):
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "t" if e == 1 else f"t^{e}"
            body = var if mag == 1 else f"{mag}{var}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces) if pieces else "0"


class LaurentPoly:
    """Integer Laurent polynomial in canonical sparse form.

    Stored as a map exponent -> coefficient with every stored coefficient
    nonzero; the zero polynomial is the empty map.  Instances are immutable
    and hashable, and two polynomials are equal iff their maps are equal.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        cleaned = {}
        if coeffs:
            for e, c in dict(coeffs).items():
                if c := _wire_int(c):
                    cleaned[_wire_int(e)] = c
        self._coeffs = cleaned

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def from_terms(cls, terms: Iterable[Iterable[int]]) -> "LaurentPoly":
        """Build from the wire format [[coeff, exponent], ...], exponents strictly increasing."""
        coeffs = {}
        last = None
        try:
            for item in terms:
                c, e = map(_wire_int, item)
                if last is not None and e <= last:
                    raise ValueError("term exponents must be strictly increasing")
                last = e
                if c == 0:
                    raise ValueError("zero coefficients are not allowed in the term list")
                coeffs[e] = c
        except TypeError:
            raise ValueError(f"terms are [[coeff, exponent], ...] integer pairs, got {terms!r}"
                             ) from None
        poly = cls.__new__(cls)  # coeffs is already canonical, so skip __init__'s second check
        poly._coeffs = coeffs
        return poly

    def to_terms(self) -> list[list[int]]:
        """Sparse term list [[coeff, exponent], ...] with exponents increasing."""
        return [[c, e] for e, c in sorted(self._coeffs.items())]

    @property
    def coeffs(self) -> dict[int, int]:
        return dict(self._coeffs)

    def dense(self) -> tuple[int, ...]:
        """The coefficients of t^min_exp, t^(min_exp + 1), ..., t^max_exp."""
        cs = self._coeffs
        return tuple(cs.get(e, 0) for e in range(self.min_exp, self.max_exp + 1))

    @property
    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self._coeffs)

    @property
    def max_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self._coeffs)

    def __bool__(self):
        return bool(self._coeffs)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self._coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def involute(self) -> "LaurentPoly":
        """Substitute t -> t^-1 (exponent negation)."""
        return LaurentPoly({-e: c for e, c in self._coeffs.items()})

    def evaluate(self, x) -> Fraction:
        """Exact value at a nonzero rational point."""
        xf = Fraction(x)
        if xf == 0:
            raise ValueError("cannot evaluate a Laurent polynomial at 0")
        return sum((c * xf ** e for e, c in self._coeffs.items()), Fraction(0))

    def at_pm1(self, x: int) -> int:
        """Exact value at t = x for x = 1 or -1, a signed sum of the coefficients."""
        assert x in (1, -1), f"at_pm1 takes 1 or -1, got {x}"
        return sum(c * x ** (e % 2) for e, c in self._coeffs.items())

    def __repr__(self):
        return f"LaurentPoly({_fmt_terms((e, c) for e, c in self._coeffs.items())!r})"

    def __str__(self):
        return _fmt_terms((e, c) for e, c in self._coeffs.items())


# ---------------------------------------------------------------------------
# module-level operations


def normalize(p: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """(q, u) with p = u * q, u = +/-t^k, q(0) != 0 and q's leading coefficient positive."""
    if not p:
        raise ValueError("cannot normalize the zero polynomial")
    m, sign = p.min_exp, 1 if p._coeffs[p.max_exp] > 0 else -1
    return LaurentPoly({e - m: sign * c for e, c in p._coeffs.items()}), LaurentPoly({m: sign})


def check_alexander(p: LaurentPoly) -> LaurentPoly:
    """p itself if p(1) = +/-1 and p(1/t) = +/-t^k p(t), else InvalidAlexanderError."""
    at_one = p.at_pm1(1)
    if at_one not in (1, -1):
        raise InvalidAlexanderError(f"Delta(1) = {at_one}, expected +/-1")
    cs = p.coeffs
    top = min(cs) + max(cs)  # the sign is +: p(1) != 0 rules out p(1/t) = -t^k p(t)
    if any(cs.get(top - e) != c for e, c in cs.items()):
        raise InvalidAlexanderError(f"{p} is not symmetric under t -> 1/t up to +/-t^k")
    return p


# -- dense helpers on raw coefficient lists ---------------------------------


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return out


def _poly_div_exact(num, den):
    """Quotient of num by den over Z, or None when den does not divide num."""
    num = list(num)
    dd = len(den) - 1
    if len(num) - 1 < dd:
        return None
    q = [0] * (len(num) - dd)
    for k in range(len(q) - 1, -1, -1):
        lead = num[k + dd]
        if lead % den[-1]:
            return None
        f = lead // den[-1]
        q[k] = f
        if f:
            for j, c in enumerate(den):
                num[k + j] -= f * c
    if any(num):
        return None
    return q


@lru_cache(maxsize=None)
def _cyclotomic(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_div_exact(poly, _cyclotomic(d))
    return tuple(poly)


def _primitive(cs):
    """cs divided by its content, with a positive leading coefficient."""
    g = math.gcd(*cs)
    return [c // g for c in cs] if cs[-1] > 0 else [-c // g for c in cs]


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """Sturm sequence p, p', -rem(p, p'), ... of an integer polynomial (ascending).

    Each remainder is scaled by a positive rational to a primitive integer
    polynomial, which keeps the signs and keeps the coefficients small.  The
    last polynomial is gcd(p, p') up to its sign.
    """
    chain = [p]
    nxt = [k * c for k, c in enumerate(p)][1:]
    while nxt:
        chain.append(nxt)
        r = chain[-2]
        while len(r) >= len(nxt):
            f, scale = (r[-1], nxt[-1]) if nxt[-1] > 0 else (-r[-1], -nxt[-1])
            shift = len(r) - len(nxt)
            r = [scale * c for c in r]
            for j, c in enumerate(nxt):
                r[shift + j] -= f * c
            r.pop()
        while r and not r[-1]:
            r.pop()
        g = math.gcd(*r)
        nxt = [-c // g for c in r]
    return chain


# -- arithmetic in (Z/m)[t]: lists reduced mod m, the zero polynomial is [] --


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _mmul(a, b, m):
    return _trim([c % m for c in _poly_mul(a, b)]) if a and b else []


def _msum(m, *polys):
    return _trim([sum(cs) % m for cs in zip_longest(*polys, fillvalue=0)])


def _msub(m, a, *polys):
    return _trim([(x - sum(ys)) % m for x, *ys in zip_longest(a, *polys, fillvalue=0)])


def _mdivmod(a, b, m):
    """Quotient and remainder of a by b mod m; lc(b) must be a unit mod m."""
    a, low, inv, q = list(a), b[:-1], pow(b[-1], -1, m), []
    while len(a) > len(low):
        c = a.pop() * inv % m
        q.append(c)
        if c:
            for j, y in enumerate(low, len(a) - len(low)):
                a[j] -= c * y
    return _trim(q[::-1]), _trim([c % m for c in a])


def _mpow(a, e, f, m):
    """a^e mod (f, m) for e >= 1 (a itself when e = 1)."""
    out = a
    for bit in bin(e)[3:]:
        out = _mdivmod(_poly_mul(out, out), f, m)[1]
        if bit == "1":
            out = _mdivmod(_poly_mul(out, a), f, m)[1]
    return out


def _mgcd(a, b, p):
    """Monic gcd of a (nonzero, lc(a) a unit) and b (reduced) mod the prime p."""
    while b:
        a, b = b, _mdivmod(a, b, p)[1]
    return _mdivmod(a, [a[-1]], p)[0]


def _mxgcd(a, b, p):
    """(s, t) with s*a + t*b = 1 mod the prime p, deg s < deg b and deg t < deg a."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _mdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _msub(p, s0, _mmul(q, s1, p))
        t0, t1 = t1, _msub(p, t0, _mmul(q, t1, p))
    return _mdivmod(s0, r0, p)[0], _mdivmod(t0, r0, p)[0]  # r0 is a unit


def _ddf(f, p):
    """Distinct-degree factorization of a monic square-free f mod p: (product, degree) pairs."""
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) < len(f):
        d += 1
        h = _mpow(h, p, f, p)  # t^(p^d) mod f
        g = _mgcd(f, _msub(p, h, [0, 1]), p)
        if len(g) > 1:
            out.append((g, d))
            f = _mdivmod(f, g, p)[0]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _edf(g, d, p, rng=None):
    """The monic degree-d factors of g mod the odd prime p, by Cantor-Zassenhaus splitting."""
    if len(g) - 1 == d:
        return [g]
    rng = rng or random.Random(0)
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
        u = _mgcd(g, _msub(p, _mpow(a, (p ** d - 1) // 2, g, p), [1]), p)
        if 1 < len(u) < len(g):
            return _edf(u, d, p, rng) + _edf(_mdivmod(g, u, p)[0], d, p, rng)


def _hensel(f, us, p, mod):
    """Lift f = lc(f) * prod(us) mod p, each u monic, to monic factors mod `mod` = p^(2^j).

    Lifts f = g * h, g and h the products of the two halves of us, by quadratic
    Hensel steps (von zur Gathen-Gerhard, Algorithm 15.10), then each half.
    """
    if len(us) == 1:
        return [_mdivmod(f, [f[-1]], mod)[0]]
    k = len(us) // 2
    g = reduce(lambda a, b: _mmul(a, b, p), us[:k], [f[-1] % p])
    h = reduce(lambda a, b: _mmul(a, b, p), us[k:], [1])
    s, t = _mxgcd(g, h, p)
    m = p
    while m < mod:
        m *= m
        e = _msub(m, f, _mmul(g, h, m))
        q, r = _mdivmod(_mmul(s, e, m), h, m)
        g = _msum(m, g, _mmul(t, e, m), _mmul(q, g, m))
        h = _msum(m, h, r)
        if m >= mod:
            break
        b = _msum(m, _mmul(s, g, m), _mmul(t, h, m), [-1])
        c, d = _mdivmod(_mmul(s, b, m), h, m)
        s = _msub(m, s, d)
        t = _msub(m, t, _mmul(t, b, m), _mmul(c, g, m))
    return _hensel(g, us[:k], p, mod) + _hensel(h, us[k:], p, mod)


def _recombine(f, lifted, mod, most):
    """Factors lc(f) * (a product of at most `most` lifted factors) mod `mod` that divide f over Z.

    Returns them, the cofactor left of f, and the lifted factors left.
    """
    factors, size = [], 1
    while size <= min(most, len(lifted) // 2):
        for subset in combinations(range(len(lifted)), size):
            c0 = reduce(lambda a, i: a * lifted[i][0] % mod, subset, f[-1])
            c0 = c0 - mod if 2 * c0 > mod else c0
            if c0 == 0 or f[-1] * f[0] % c0:  # the constant term must divide
                continue
            g = reduce(lambda a, i: _mmul(a, lifted[i], mod), subset, [f[-1]])
            g = _primitive([c - mod if 2 * c > mod else c for c in g[:-1]] + [f[-1]])
            q = _poly_div_exact(f, g)
            if q is not None:
                factors.append(g)
                f = q
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return factors, f, lifted


def _zassenhaus(f, p):
    """Irreducible factors of a primitive f that is square-free mod the odd prime p ∤ lc(f).

    Zassenhaus 1969: factors f mod p (Cantor-Zassenhaus 1981), lifts the
    factors past twice |lc(f)| times Mignotte's coefficient bound, and
    recombines them.  A factor of f that is a single factor mod p is
    irreducible, so single factors are first tried mod p itself, which needs
    no lifting when the factor's coefficients are small.
    """
    us = [u for g, d in _ddf(_mdivmod(f, [f[-1]], p)[0], p) for u in _edf(g, d, p)]
    factors, f, us = _recombine(f, us, p, 1)
    if len(us) == 1:
        return factors + [f]
    # a candidate multiplies at most len(us) // 2 factors, so its degree is at most d
    d = sum(sorted(len(u) - 1 for u in us)[(len(us) + 1) // 2:])
    bound = 2 * f[-1] * math.comb(d, d // 2) * (math.isqrt(sum(c * c for c in f)) + 1)
    mod = p
    while mod <= bound:
        mod *= mod
    more, f, _ = _recombine(f, _hensel(f, us, p, mod), mod, len(us))
    return factors + more + [f]


def _factor_primitive(f):
    """Irreducible factors (positive leading coefficient) of a primitive f with f(0) != 0.

    A quadratic splits exactly when its discriminant is a square.  Above
    degree 2, f is square-free when it is square-free mod some prime; only
    when gcd(f, f') != 1 is the square-free part f / gcd(f, f') factored and
    each multiplicity read off by exact division.
    """
    if len(f) <= 3:
        if len(f) < 3:
            return [f] if len(f) == 2 else []
        c, b, a = f
        disc = b * b - 4 * a * c
        r = math.isqrt(max(disc, 0))
        return [f] if r * r != disc else [_primitive([b - r, 2 * a]), _primitive([b + r, 2 * a])]
    df, g = [k * c for k, c in enumerate(f)][1:], None
    for p in (p for p in count(3, 2) if all(p % d for d in range(3, math.isqrt(p) + 1, 2))):
        if f[-1] % p:
            if len(_mgcd(f, _trim([c % p for c in df]), p)) == 1:
                return _zassenhaus(f, p)
            if g is None and len(g := _primitive(_sturm_chain(f)[-1])) > 1:  # gcd(f, f')
                break
    out = []
    for u in _factor_primitive(_poly_div_exact(f, g)):
        while (q := _poly_div_exact(f, u)) is not None:
            out.append(u)
            f = q
    return out


def _from_dense(cs) -> LaurentPoly:
    return LaurentPoly(dict(enumerate(cs)))


def factor(q: LaurentPoly) -> tuple[list[LaurentPoly], int]:
    """Factor q, with no negative exponent, over Z into irreducible primitive factors and a content.

    The product of the returned factors times the content reproduces q
    exactly; the factors, sorted by degree and then coefficients, have
    positive leading coefficients, and a root at 0 is the factor t.
    """
    if q.min_exp < 0:
        raise ValueError(f"factor takes a polynomial in t, got {q}")
    cs = q.dense()
    prim = _primitive(cs)
    content = cs[-1] // prim[-1]
    raw = [[0, 1]] * q.min_exp + _factor_primitive(prim)
    return [_from_dense(f) for f in sorted(raw, key=lambda f: (len(f), f))], content


# -- Fox-Milnor --------------------------------------------------------------


@value_class
class FoxMilnorResult:
    """Outcome of the Fox-Milnor factorization test.

    When it passes, p = unit * witness(t) * witness(t^-1) exactly.
    """

    passes: bool
    witness: LaurentPoly | None = None
    unit: LaurentPoly | None = None
    reason: str = ""

    def __bool__(self):
        return self.passes


def _reciprocal(cs: tuple[int, ...]) -> tuple[int, ...]:
    rev = cs[::-1]
    if rev[-1] < 0:
        rev = tuple(-c for c in rev)
    return rev


def fox_milnor_det_check(det: int) -> FoxMilnorResult | None:
    """Fox-Milnor's failure when det = |p(-1)| is not an odd perfect square, else None."""
    if det % 2 == 0 or math.isqrt(det) ** 2 != det:
        return FoxMilnorResult(False, reason=f"|p(-1)| = {det} is not an odd perfect square")
    return None


def fox_milnor(p: LaurentPoly) -> FoxMilnorResult:
    """Decide whether p factors as f(t) * f(t^-1) up to a unit +/- t^k.

    Slice knots satisfy this for their Alexander polynomial.  p must be one
    (check_alexander), else InvalidAlexanderError.  Runs the cheap necessary
    check first: |p(-1)| must be an odd perfect square.  Otherwise factors
    the unit-normalized polynomial; self-reciprocal factors must occur with
    even multiplicity.  Any other irreducible factor g pairs with its
    reciprocal t^deg(g) * g(t^-1): p is symmetric, so by unique factorization
    both occur equally often.  The content divides p(1) = +/-1, so it is 1.
    """
    if (fails := fox_milnor_det_check(abs(check_alexander(p).at_pm1(-1)))) is not None:
        return fails

    dense = p.dense()
    counts = Counter(map(tuple, _factor_primitive(_primitive(dense))))
    half: list[tuple[int, ...]] = []
    for cs, k in sorted(counts.items()):
        star = _reciprocal(cs)
        if star == cs and k % 2:
            return FoxMilnorResult(
                False, reason=f"self-reciprocal factor {_from_dense(cs)} has odd multiplicity {k}")
        if cs <= star:
            half.extend([cs] * (k // 2 if star == cs else k))

    w = reduce(_poly_mul, half, [1])
    witness = _from_dense(w)
    # +/-p / t^min_exp, signed to a positive lc, is w * w*, w* = sign(w(0)) t^deg(w) w(1/t)
    unit = LaurentPoly({p.min_exp + len(w) - 1: 1 if (dense[-1] > 0) == (w[0] > 0) else -1})
    assert unit * witness * witness.involute() == p, "pairing accepted but the product differs"
    return FoxMilnorResult(True, witness=witness, unit=unit)
