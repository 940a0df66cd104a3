"""Exact arithmetic for integer Laurent polynomials and the Fox-Milnor slice test.

Alexander polynomials live in Z[t, t^-1] and are only defined up to a unit
+/- t^k, so everything here revolves around a canonical sparse form plus an
explicit unit-normalization step.  Factorization is done over Z with
Kronecker's interpolation method (after rational-root stripping) because the
Fox-Milnor condition needs exact irreducible factors, not numerical roots.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Mapping, NamedTuple


class InvalidAlexanderError(ValueError):
    """The polynomial cannot be an Alexander polynomial (requires p(1) = +/-1)."""


def _wire_int(x) -> int:
    """x as an int for decoders: a bool, float or string is a TypeError, not rounded or parsed."""
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
                c = int(c)
                if c:
                    cleaned[int(e)] = c
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
                c, e = (_wire_int(x) for x in item)
                if last is not None and e <= last:
                    raise ValueError("term exponents must be strictly increasing")
                last = e
                if c == 0:
                    raise ValueError("zero coefficients are not allowed in the term list")
                coeffs[e] = c
        except TypeError:
            raise ValueError(f"terms are [[coeff, exponent], ...] integer pairs, got {terms!r}"
                             ) from None
        return cls(coeffs)

    def to_terms(self) -> list[list[int]]:
        """Sparse term list [[coeff, exponent], ...] with exponents increasing."""
        return [[c, e] for e, c in sorted(self._coeffs.items())]

    @property
    def coeffs(self) -> dict[int, int]:
        return dict(self._coeffs)

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


class IntPoly:
    """Dense integer polynomial with nonzero leading coefficient.

    coeffs[k] is the coefficient of t^k; the zero polynomial is not
    representable (normalization and factoring reject it upstream).
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            raise ValueError("IntPoly cannot represent the zero polynomial")
        self._coeffs = tuple(cs)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def leading(self) -> int:
        return self._coeffs[-1]

    def __call__(self, x: int) -> int:
        return _poly_eval(self._coeffs, x)

    def __eq__(self, other):
        if isinstance(other, IntPoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self._coeffs)

    def __mul__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        return IntPoly(_poly_mul(self._coeffs, other._coeffs))

    def to_laurent(self) -> LaurentPoly:
        return LaurentPoly({e: c for e, c in enumerate(self._coeffs)})

    def __repr__(self):
        return f"IntPoly({_fmt_terms((e, c) for e, c in enumerate(self._coeffs) if c)!r})"

    def __str__(self):
        return _fmt_terms((e, c) for e, c in enumerate(self._coeffs) if c)


class Unit(NamedTuple):
    """A Laurent unit +/- t^k."""

    sign: int
    power: int

    def as_laurent(self) -> LaurentPoly:
        return LaurentPoly({self.power: self.sign})

    def __str__(self):
        s = "+" if self.sign > 0 else "-"
        return f"{s}1" if self.power == 0 else f"{s}t^{self.power}"


# ---------------------------------------------------------------------------
# module-level operations


def normalize(p: LaurentPoly) -> tuple[IntPoly, Unit]:
    """Write p = unit * q with q an integer polynomial, q(0) != 0, positive leading coefficient."""
    if not p:
        raise ValueError("cannot normalize the zero polynomial")
    m = p.min_exp
    shifted = {e - m: c for e, c in p.coeffs.items()}
    cs = [shifted.get(k, 0) for k in range(max(shifted) + 1)]
    sign = 1
    if cs[-1] < 0:
        sign = -1
        cs = [-c for c in cs]
    return IntPoly(cs), Unit(sign, m)


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
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _poly_eval(cs, x):
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


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


def _factor_primitive(cs):
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


def factor(q: IntPoly) -> tuple[list[IntPoly], int]:
    """Factor q over Z into irreducible primitive factors and an integer content.

    The product of the returned factors times the content reproduces q
    exactly; every factor has positive leading coefficient.
    """
    cs = list(q.coeffs)
    g = reduce(math.gcd, (abs(c) for c in cs))
    content = g if cs[-1] > 0 else -g
    prim = [c // content for c in cs]
    if len(prim) == 1:
        return [], content
    raw = _factor_primitive(prim)
    out = sorted((IntPoly(f) for f in raw), key=lambda f: (f.degree, f.coeffs))
    return out, content


# -- Fox-Milnor --------------------------------------------------------------


@dataclass(frozen=True)
class FoxMilnorResult:
    """Outcome of the Fox-Milnor factorization test.

    When it passes, p = unit * witness(t) * witness(t^-1) exactly.
    """

    passes: bool
    witness: IntPoly | None = None
    unit: Unit | None = None
    reason: str = ""

    def __bool__(self):
        return self.passes


def _reciprocal(cs: tuple[int, ...]) -> tuple[int, ...]:
    rev = cs[::-1]
    if rev[-1] < 0:
        rev = tuple(-c for c in rev)
    return rev


def fox_milnor(p: LaurentPoly) -> FoxMilnorResult:
    """Decide whether p factors as f(t) * f(t^-1) up to a unit +/- t^k.

    Slice knots satisfy this for their Alexander polynomial.  Rejects inputs
    with p(1) != +/-1 (not an Alexander polynomial).  Runs the cheap
    necessary check first: |p(-1)| must be an odd perfect square.  Otherwise
    factors the unit-normalized polynomial and pairs each irreducible factor
    g with its reciprocal t^deg(g) * g(t^-1); self-reciprocal factors must
    occur with even multiplicity.  The content divides p(1) = +/-1, so it is 1.
    """
    if not p:
        raise InvalidAlexanderError("the zero polynomial is not an Alexander polynomial")
    v1 = p.at_pm1(1)
    if v1 not in (1, -1):
        raise InvalidAlexanderError(f"p(1) = {v1}, expected +/-1")
    det = abs(p.at_pm1(-1))
    r = math.isqrt(det)
    if det % 2 == 0 or r * r != det:
        return FoxMilnorResult(False, reason=f"|p(-1)| = {det} is not an odd perfect square")

    q, unit = normalize(p)
    factors, content = factor(q)
    assert content == 1

    counts = Counter(f.coeffs for f in factors)
    half: list[tuple[int, ...]] = []
    for cs in sorted(counts):
        k = counts[cs]
        if k == 0:
            continue
        star = _reciprocal(cs)
        if star == cs:
            if k % 2:
                return FoxMilnorResult(
                    False, reason=f"self-reciprocal factor {IntPoly(cs)} has odd multiplicity {k}")
            half.extend([cs] * (k // 2))
            counts[cs] = 0
        else:
            if counts.get(star, 0) != k:
                return FoxMilnorResult(
                    False,
                    reason=f"factor {IntPoly(cs)} does not pair with its reciprocal {IntPoly(star)}")
            half.extend([min(cs, star)] * k)
            counts[cs] = 0
            counts[star] = 0

    f_cs = [1]
    for cs in half:
        f_cs = _poly_mul(f_cs, list(cs))
    witness = IntPoly(f_cs)
    wl = witness.to_laurent()
    product = wl * wl.involute()
    q_prod, u_prod = normalize(product)
    assert q_prod == q, "pairing accepted but re-multiplication disagrees"
    out_unit = Unit(unit.sign * u_prod.sign, unit.power - u_prod.power)
    assert out_unit.as_laurent() * product == p
    return FoxMilnorResult(True, witness=witness, unit=out_unit)
