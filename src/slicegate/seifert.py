"""Invariants computed from Seifert matrices: signature, Arf, Alexander
polynomial, determinant, Levine-Tristram signatures, and genus bounds.

Everything except the Levine-Tristram eigenvalue counts is exact: the
signature uses congruence diagonalization over the rationals, the Arf
invariant follows from the determinant by Levine's criterion, and the
Alexander polynomial is recovered by integer determinant interpolation.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .bounds import GenusBounds, Interval
from .laurent import (InvalidAlexanderError, LaurentPoly, _interpolate, _lagrange_basis,
                      _poly_div_exact, normalize)

LT_EIGEN_TOL = 1e-9


class NotASeifertMatrixError(ValueError):
    """The given matrix fails the Seifert-form test (V - V^T unimodular, even size)."""


class SeifertMatrix:
    """Square integer matrix V of even size with V - V^T unimodular.

    The 0x0 matrix is the Seifert matrix of the unknot.  Instances are
    immutable; all invariant computations are pure functions of them.
    """

    __slots__ = ("_rows",)

    def __init__(self, entries):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise NotASeifertMatrixError("matrix is not square")
        if n % 2:
            raise NotASeifertMatrixError(f"size {n} is odd; Seifert matrices have even size")
        if n:
            skew = [[rows[i][j] - rows[j][i] for j in range(n)] for i in range(n)]
            d = _det_int(skew)
            if d not in (1, -1):
                raise NotASeifertMatrixError(f"det(V - V^T) = {d}, expected +/-1")
        self._rows = rows

    @property
    def n(self) -> int:
        return len(self._rows)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def symmetrized(self) -> list[list[int]]:
        n = self.n
        return [[self._rows[i][j] + self._rows[j][i] for j in range(n)] for i in range(n)]

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
        if isinstance(obj, dict):
            entries = obj["entries"]
            if "n" in obj and int(obj["n"]) != len(entries):
                raise NotASeifertMatrixError("declared size disagrees with the entry rows")
            return cls(entries)
        return cls(obj)


def _det_int(rows) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
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


def _signature_sym(a) -> int:
    """Signature of a symmetric matrix of Fractions via congruence reduction.

    Nonzero diagonal entries are used as pivots (Lagrange reduction); when
    the whole diagonal is zero but some off-diagonal entry a_ij is not, the
    2x2 block [[0, a],[a, 0]] is hyperbolic and split off with signature
    contribution 0.
    """
    a = [row[:] for row in a]
    sig = 0
    while a:
        n = len(a)
        pivot = next((k for k in range(n) if a[k][k] != 0), None)
        if pivot is not None:
            if pivot != 0:
                a[0], a[pivot] = a[pivot], a[0]
                for row in a:
                    row[0], row[pivot] = row[pivot], row[0]
            d = a[0][0]
            sig += 1 if d > 0 else -1
            a = [[a[i][j] - a[0][i] * a[0][j] / d for j in range(1, n)]
                 for i in range(1, n)]
            continue
        pair = next(((i, j) for i in range(n) for j in range(i + 1, n) if a[i][j] != 0), None)
        if pair is None:
            return sig
        i, j = pair
        for k, target in ((i, 0), (j, 1)):
            if k != target:
                a[target], a[k] = a[k], a[target]
                for row in a:
                    row[target], row[k] = row[k], row[target]
        d = a[0][1]
        a = [[a[u][v] - (a[0][u] * a[1][v] + a[1][u] * a[0][v]) / d
              for v in range(2, n)] for u in range(2, n)]
    return sig


def signature(v: SeifertMatrix) -> int:
    """Signature of V + V^T, computed exactly; always even."""
    sym = [[Fraction(x) for x in row] for row in v.symmetrized()]
    return _signature_sym(sym)


def determinant(v: SeifertMatrix) -> int:
    """The knot determinant |det(V + V^T)| = |Delta(-1)|."""
    return abs(_det_int(v.symmetrized()))


def alexander(v: SeifertMatrix) -> LaurentPoly:
    """Alexander polynomial det(V - t V^T) in centered symmetric form.

    det(V - t V^T) is palindromic over the full exponent range [0, n] for
    any even-size integer matrix, so dividing by t^(n/2) yields a Laurent
    polynomial fixed by t -> t^-1; the sign is chosen so the value at 1 is 1.
    """
    n = v.n
    if n == 0:
        return LaurentPoly.one()
    rows = v.entries
    xs = [0] + [sign * k for k in range(1, n // 2 + 1) for sign in (1, -1)]
    dets = [_det_int([[rows[i][j] - x * rows[j][i] for j in range(n)] for i in range(n)])
            for x in xs]
    cs = _interpolate(*_lagrange_basis(xs), dets)
    assert cs is not None and cs == cs[::-1], "det(V - tV^T) must be palindromic on [0, n]"
    half = n // 2
    poly = LaurentPoly({e - half: c for e, c in enumerate(cs)})
    at_one = int(poly.evaluate(1))
    assert at_one in (1, -1)
    return poly if at_one == 1 else -poly


def arf(v: SeifertMatrix) -> int:
    """Arf invariant of the quadratic form q(x) = x V x^T mod 2.

    Levine's criterion: Arf is 0 exactly when det(V + V^T) = Delta(-1) is
    +/-1 mod 8, so one exact determinant decides it.
    """
    return 0 if _det_int(v.symmetrized()) % 8 in (1, 7) else 1


def arf_murasugi(delta: LaurentPoly) -> int:
    """Arf invariant from the Alexander polynomial: 0 iff Delta(-1) = +/-1 mod 8."""
    at_one = delta.evaluate(1)
    if at_one != 1 and at_one != -1:
        raise InvalidAlexanderError(f"Delta(1) = {at_one}, expected +/-1")
    residue = int(delta.evaluate(-1)) % 8
    return 0 if residue in (1, 7) else 1


# -- Levine-Tristram ---------------------------------------------------------


@lru_cache(maxsize=None)
def _cyclotomic(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_div_exact(poly, _cyclotomic(d))
    return tuple(poly)


def _omega_fraction(omega) -> Fraction:
    if isinstance(omega, Fraction):
        w = omega
    elif isinstance(omega, str):
        w = Fraction(omega)
    elif isinstance(omega, (tuple, list)) and len(omega) == 2:
        w = Fraction(int(omega[0]), int(omega[1]))
    elif isinstance(omega, int):
        w = Fraction(omega)
    else:
        raise TypeError("omega must be an exact angle fraction p/q meaning e^(2*pi*i*p/q)")
    w %= 1
    if w == 0:
        raise ValueError("omega = 1 is excluded from the Levine-Tristram signature")
    return w


def levine_tristram(v: SeifertMatrix, omega) -> int | None:
    """Levine-Tristram signature at omega = e^(2*pi*i*a/b), or None when singular.

    Singularity of the Hermitian matrix (1-w)V + (1-conj(w))V^T happens
    exactly when the Alexander polynomial vanishes at w, which is decided
    exactly through divisibility by the cyclotomic polynomial of the order
    of w.  The signature itself is a 64-bit eigenvalue count (tolerance
    1e-9), run only after non-singularity is certified.
    """
    w = _omega_fraction(omega)
    n = v.n
    if n == 0:
        return 0
    order = w.denominator
    delta_poly, _ = normalize(alexander(v))
    if _poly_div_exact(delta_poly.coeffs, _cyclotomic(order)) is not None:
        return None
    z = cmath.exp(2j * math.pi * float(w))
    rows = v.entries
    h = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            h[i, j] = (1 - z) * rows[i][j] + (1 - z.conjugate()) * rows[j][i]
    eigs = np.linalg.eigvalsh(h)
    pos = int((eigs > LT_EIGEN_TOL).sum())
    neg = int((eigs < -LT_EIGEN_TOL).sum())
    if pos + neg != n:
        raise ArithmeticError(
            "eigenvalue below tolerance despite exact non-singularity certificate")
    return pos - neg


def genus_bounds_from_matrix(v: SeifertMatrix) -> GenusBounds:
    """Genus bounds visible from one Seifert matrix.

    The surface behind an n x n matrix has genus n/2, so g3 and g4 are at
    most n/2 and gamma4 at most 2(n/2) + 1 (orientable surface plus one
    crosscap); |signature|/2 bounds g4 from below.
    """
    g = v.n // 2
    lo = abs(signature(v)) // 2
    return GenusBounds(
        g4=Interval(lo, g),
        gamma4=Interval(1, 2 * g + 1),
        g3=Interval(0, g),
    )
