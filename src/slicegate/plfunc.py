"""Piecewise-linear concordance functions with exact rational arithmetic.

Upsilon-style invariants are piecewise-linear functions on [0, 2] vanishing
at 0; everything here keeps breakpoints as exact Fractions so equality of
functions is decidable.  Cable envelope functions live on the compressed
domain [0, 2/p] and reuse the same representation.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import reject_unknown_keys, value_class


def _frac(x) -> Fraction:
    """Coerce ints, Fractions, 'p/q' strings and [num, den] pairs to Fraction.

    Anything else, including a zero denominator, is a ValueError.  So is a string
    with any character but ASCII digits, '-', '/' and '.' that Fraction would take: an
    exponent ('1e-9999999' builds 10^9999999), '_', '+', a blank or a non-ASCII digit.
    """
    try:
        if isinstance(x, (tuple, list)) and len(x) == 2 and bool not in map(type, x):
            return Fraction(*x)  # a float or string in the pair is a TypeError
        refused = isinstance(x, str) and not set(x) <= set("0123456789-/.")
        if isinstance(x, (Fraction, int, str)) and not isinstance(x, bool) and not refused:
            return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"cannot interpret {x!r} as a rational")


def _json_rat(x: Fraction):
    return int(x) if x.denominator == 1 else [x.numerator, x.denominator]


class PLFunction:
    """Piecewise-linear function on [0, end] with rational breakpoints.

    The first breakpoint is pinned at (0, 0) and the s-coordinates are
    strictly increasing; collinear interior breakpoints are merged so that
    equal functions compare equal.  Upsilon functions use end = 2.
    """

    __slots__ = ("_bps",)

    def __init__(self, breakpoints):
        pts = [(_frac(s), _frac(v)) for s, v in breakpoints]
        if len(pts) < 2:
            raise ValueError("need at least the two endpoint breakpoints")
        if pts[0] != (0, 0):
            raise ValueError("the function must start at (0, 0)")
        for (s0, _), (s1, _) in zip(pts, pts[1:]):
            if s1 <= s0:
                raise ValueError("breakpoint positions must be strictly increasing")
        merged = [pts[0]]
        for k in range(1, len(pts) - 1):
            (sa, va), (sb, vb), (sc, vc) = merged[-1], pts[k], pts[k + 1]
            if (vb - va) * (sc - sb) == (vc - vb) * (sb - sa):
                continue
            merged.append(pts[k])
        merged.append(pts[-1])
        self._bps = tuple(merged)

    @classmethod
    def zero(cls, end=2) -> "PLFunction":
        return cls([(0, 0), (end, 0)])

    @property
    def breakpoints(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return self._bps

    @property
    def end(self) -> Fraction:
        return self._bps[-1][0]

    def __call__(self, s) -> Fraction:
        s = _frac(s)
        if s < 0 or s > self.end:
            raise ValueError(f"argument {s} outside the domain [0, {self.end}]")
        for (s0, v0), (s1, v1) in zip(self._bps, self._bps[1:]):
            if s <= s1:
                return v0 + (v1 - v0) * (s - s0) / (s1 - s0)
        raise AssertionError("unreachable")

    def __eq__(self, other):
        if isinstance(other, PLFunction):
            return self._bps == other._bps
        return NotImplemented

    def __hash__(self):
        return hash(self._bps)

    def __repr__(self):
        pts = ", ".join(f"({s}, {v})" for s, v in self._bps)
        return f"PLFunction([{pts}])"

    def to_json(self):
        return {"breakpoints": [[_json_rat(s), _json_rat(v)] for s, v in self._bps]}

    @classmethod
    def from_json(cls, obj) -> "PLFunction":
        reject_unknown_keys(obj, ("breakpoints",), "a PL function")
        try:
            bps = obj["breakpoints"]
            if any(isinstance(x, str) for bp in bps for x in bp):  # _frac would parse "1/2"
                raise ValueError(f"PL-function coordinates are integers or [num, den] pairs, "
                                 f"got {bps!r}")
            return cls(bps)
        except (KeyError, TypeError):
            raise ValueError('a PL function is {"breakpoints": [[s, v], ...]}') from None


def upsilon_little(f: PLFunction) -> Fraction:
    """The value at s = 1 (the lower-case upsilon of an Upsilon function)."""
    return f(1)


def g4_lower_bound(f: PLFunction) -> int:
    """Smallest integer g with |f(s)| <= s * g on (0, 1].

    |f(s)|/s restricted to a linear piece is monotone, so its maximum over
    (0, 1] is attained at a breakpoint or at s = 1.
    """
    top = min(Fraction(1), f.end)
    candidates = {s for s, _ in f.breakpoints if 0 < s <= top}
    candidates.add(top)
    best = max(abs(f(s)) / s for s in candidates)
    return math.ceil(best)


def oss_gamma4_lower_bound(upsilon, sigma: int) -> Fraction:
    """Lower bound |v(K) - sigma(K)/2| for the non-orientable 4-genus.

    With sigma(3_1) = -2 this sign is the one consistent with the trefoil
    bounding a Moebius band (upsilon = -1, so the bound is 0).
    """
    return abs(_frac(upsilon) - Fraction(sigma, 2))


def cable_sandwich(f: PLFunction, p: int, q: int) -> tuple[PLFunction, PLFunction]:
    """Envelope functions squeezing the Upsilon of the (p, q)-cable.

    For coprime p > 0, q and companion Upsilon f on [0, 2]:

        f(p*s) - (p-1)(q+1)s/2  <=  Upsilon_cable(s)  <=  f(p*s) - (p-1)(q-1)s/2

    on [0, 2/p].  Both envelopes are returned with exact breakpoints.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if math.gcd(p, q) != 1:
        raise ValueError(f"p = {p} and q = {q} are not coprime")
    if f.end != 2:
        raise ValueError(f"upsilon is defined on [0, 2], got [0, {f.end}]")
    c_low = Fraction((p - 1) * (q + 1), 2)
    c_up = Fraction((p - 1) * (q - 1), 2)
    lower = PLFunction([(s / p, v - c_low * s / p) for s, v in f.breakpoints])
    upper = PLFunction([(s / p, v - c_up * s / p) for s, v in f.breakpoints])
    return lower, upper


def two_q_upsilon_interval(q: int) -> tuple[Fraction, Fraction]:
    """The interval [-q/2 - 1, -q/2 + 1] that v(K_{2,q}) must lie in."""
    if q % 2 == 0:
        raise ValueError("q must be odd for a (2, q)-cable")
    mid = -Fraction(q, 2)
    return mid - 1, mid + 1


@value_class
class CobordismCheck:
    """Data of a non-orientable cobordism between two knots.

    upsilon_start/upsilon_end are the little-upsilon values of the two ends,
    euler is the normal Euler number e(F) of the surface, betti its first
    Betti number (>= 1).
    """

    upsilon_start: Fraction
    upsilon_end: Fraction
    euler: int
    betti: int = 1

    def __post_init__(self):
        object.__setattr__(self, "upsilon_start", _frac(self.upsilon_start))
        object.__setattr__(self, "upsilon_end", _frac(self.upsilon_end))
        if self.betti < 1:
            raise ValueError("a non-orientable surface has first Betti number >= 1")

    @property
    def lhs(self) -> Fraction:
        """|v(K0) - v(K1) + e(F)/4|, the left side of the cobordism inequality."""
        return abs(self.upsilon_start - self.upsilon_end + Fraction(self.euler, 4))

    @property
    def bound(self) -> Fraction:
        """b1(F)/2, its right side."""
        return Fraction(self.betti, 2)


def cobordism_inequality(c: CobordismCheck) -> bool:
    """Whether |v(K0) - v(K1) + e(F)/4| <= b1(F)/2 holds for the cobordism data."""
    return c.lhs <= c.bound


def euler_number_range(upsilon_wh, q: int) -> tuple[int, int]:
    """Integers e compatible with |v + q/2 + e/4| <= 3/2, as [lo, hi].

    The constraint carves a rational interval of length exactly 12 in e;
    the returned endpoints are its integer rounding.
    """
    if q % 2 == 0:
        raise ValueError("q must be odd for a (2, q)-cable")
    u = _frac(upsilon_wh)
    lo = 4 * (Fraction(-3, 2) - u - Fraction(q, 2))
    hi = 4 * (Fraction(3, 2) - u - Fraction(q, 2))
    return math.ceil(lo), math.floor(hi)
