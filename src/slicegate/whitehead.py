"""Formula engine for t-twisted Whitehead doubles.

A double is described by its clasp sign, twist t, and the framing offset
lambda of the companion embedding (0 = Seifert framing).  All case formulas
are driven by the effective twist b = t + lambda: the Seifert matrix of the
pattern sees only b, and the half-twist regime (positive clasp with b < 0,
negative clasp with b > 0) is where the matrix-based conclusions break down
and are therefore withheld.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import GenusBounds, Interval
from .laurent import LaurentPoly
from .plfunc import PLFunction
from .seifert import SeifertMatrix

CLASPS = ("+", "-")

HALF_TWIST_NOTE = (
    "half-twist regime: the clasp sign and effective twist have opposite signs, so the "
    "genus-one pattern surface degenerates and signature/Arf/gamma4 conclusions are withheld"
)


class HalfTwistRegimeError(ValueError):
    """Requested a matrix-based conclusion in the half-twist regime."""


class MissingInvariantError(ValueError):
    """The companion record lacks an invariant needed by a case formula."""


@dataclass(frozen=True)
class WhiteheadParams:
    """Parameters of a t-twisted Whitehead double: clasp, twist, framing, companion name."""

    clasp: str
    twist: int
    framing: int = 0
    companion: str = "unknot"

    def __post_init__(self):
        if self.clasp not in CLASPS:
            raise ValueError(f"clasp must be '+' or '-', got {self.clasp!r}")

    @property
    def effective_twist(self) -> int:
        return self.twist + self.framing

    @property
    def half_twist_regime(self) -> bool:
        b = self.effective_twist
        return (self.clasp == "+" and b < 0) or (self.clasp == "-" and b > 0)

    @property
    def label(self) -> str:
        base = f"Wh{self.clasp}_{self.twist}"
        if self.framing:
            base += f"(lam={self.framing})"
        return f"{base}({self.companion})"


@dataclass(frozen=True)
class CompanionInvariants(GenusBounds):
    """Stored concordance invariants of a knot, all optional.

    tau, epsilon, nu and s come from the knot Floer / Khovanov packages and
    are consumed as table data; upsilon is the full piecewise-linear function;
    the genus interval bounds are the inherited GenusBounds fields.
    """

    tau: int | None = None
    epsilon: int | None = None
    nu: int | None = None
    s: int | None = None
    upsilon: PLFunction | None = None

    def __post_init__(self):
        for name in ("tau", "epsilon", "nu", "s"):
            value = getattr(self, name)
            if value is not None and type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.epsilon is not None and self.epsilon not in (-1, 0, 1):
            raise ValueError(f"epsilon must be in {{-1, 0, 1}}, got {self.epsilon}")
        if self.s is not None and self.s % 2:
            raise ValueError(f"the s invariant is even, got {self.s}")
        if self.tau is not None and self.nu is not None:
            if self.nu not in (self.tau, self.tau + 1):
                raise ValueError(
                    f"nu = {self.nu} must be tau or tau + 1 (tau = {self.tau})")
        super().__post_init__()

    def to_json(self):
        return {
            "tau": self.tau,
            "epsilon": self.epsilon,
            "nu": self.nu,
            "s": self.s,
            **super().to_json(),
            "upsilon": self.upsilon.to_json() if self.upsilon else None,
        }

    @classmethod
    def from_json(cls, obj) -> "CompanionInvariants":
        if not isinstance(obj, dict):
            raise ValueError(f"stored invariants must be a JSON object, got {obj!r}")
        ups = obj.get("upsilon")
        return super().from_json(
            obj, tau=obj.get("tau"), epsilon=obj.get("epsilon"), nu=obj.get("nu"),
            s=obj.get("s"), upsilon=None if ups is None else PLFunction.from_json(ups))


def pattern_seifert_matrix(clasp: str, b: int) -> SeifertMatrix:
    """The genus-one pattern matrix [[-/+1, 1], [0, b]] for effective twist b.

    This is the raw algebraic form; it is not gated on the half-twist
    regime, where its signature/Arf readings stop describing the double.
    """
    if clasp not in CLASPS:
        raise ValueError(f"clasp must be '+' or '-', got {clasp!r}")
    diag = -1 if clasp == "+" else 1
    return SeifertMatrix([[diag, 1], [0, b]])


def seifert_matrix(p: WhiteheadParams) -> SeifertMatrix:
    """Seifert matrix of the double; rejects the half-twist regime."""
    if p.half_twist_regime:
        raise HalfTwistRegimeError(HALF_TWIST_NOTE)
    return pattern_seifert_matrix(p.clasp, p.effective_twist)


def alexander_formula(p: WhiteheadParams) -> LaurentPoly:
    """Closed form -m*t + (2m+1) - m*t^-1 with m the clasp-signed effective twist.

    The classical formula is normalized for the positive clasp (m = b); the
    negative-clasp double is the mirror of the positive double with twist -b
    and the Alexander polynomial is mirror-invariant, so m = -b there.  This
    matches det(V - tV^T) of the pattern matrix for every clasp and twist.
    """
    b = p.effective_twist
    m = b if p.clasp == "+" else -b
    return LaurentPoly({1: -m, 0: 2 * m + 1, -1: -m})


def sigma_whitehead(p: WhiteheadParams) -> int:
    """Signature of the double: 0 outside the half-twist regime."""
    if p.half_twist_regime:
        raise HalfTwistRegimeError(HALF_TWIST_NOTE)
    return 0


def arf_whitehead(p: WhiteheadParams) -> int:
    """Arf invariant of the double: the parity of the effective twist."""
    if p.half_twist_regime:
        raise HalfTwistRegimeError(HALF_TWIST_NOTE)
    return p.effective_twist % 2


def tau_whitehead(p: WhiteheadParams, c: CompanionInvariants) -> int:
    """tau of the double from Hedden's two cases.

    Positive clasp: 0 when b >= 2*tau(K), else 1.  The negative clasp is
    obtained from the mirror identity (Wh-_b(K) is the mirror of
    Wh+_{-b}(mirror K) and tau negates under mirroring), giving 0 when
    b <= 2*tau(K) and -1 otherwise; that branch is a derived rule, not a
    stated one.
    """
    if c.tau is None:
        raise MissingInvariantError("tau of the companion is required")
    b = p.effective_twist
    if p.clasp == "+":
        return 0 if b >= 2 * c.tau else 1
    return 0 if b <= 2 * c.tau else -1


def epsilon_whitehead(p: WhiteheadParams, c: CompanionInvariants) -> int:
    """epsilon of the double: 0 iff tau(K) = epsilon(K) = 0, else +/-1.

    The positive-clasp value is the stated two-case formula; the negative
    clasp goes through the mirror identity (epsilon negates), so the
    nonzero value is -1 there.
    """
    if c.tau is None or c.epsilon is None:
        raise MissingInvariantError("tau and epsilon of the companion are required")
    if c.tau == 0 and c.epsilon == 0:
        return 0
    return 1 if p.clasp == "+" else -1


def upsilon_whitehead(p: WhiteheadParams, c: CompanionInvariants) -> PLFunction:
    """Upsilon of the double on [0, 2]: the tent through (1, -tau) of the double.

    The double's tau is 0 or +/-1 (tau_whitehead holds Hedden's case split),
    so Upsilon is zero when tau is 0 and otherwise the tent s -> -1 + |1 - s|
    (tau = 1, positive clasp) or its negative (tau = -1, negative clasp).
    """
    return PLFunction([(0, 0), (1, -tau_whitehead(p, c)), (2, 0)])


def gamma4_whitehead(p: WhiteheadParams) -> GenusBounds:
    """Non-orientable genus bounds of the double.

    Outside the half-twist regime: gamma4 <= 2 (one band move at the clasp
    reaches a (2, q) torus-pattern cable, which bounds a Moebius band) and
    gamma3 <= 2 (checkerboard surface of the pattern is a punctured Klein
    bottle); when the effective twist is odd, sigma = 0 and Arf = 1 feed
    Yasuhara's obstruction (0 + 4*1 = 4 mod 8) and pin gamma4 = 2.  In the
    half-twist regime no conclusion is drawn.
    """
    if p.half_twist_regime:
        return GenusBounds(gamma4=Interval(1, None), gamma3=Interval(1, None))
    gamma4_lo = 2 if p.effective_twist % 2 else 1
    return GenusBounds(gamma4=Interval(gamma4_lo, 2), gamma3=Interval(1, 2))


def cable_target(p: WhiteheadParams) -> int:
    """Odd q such that one band move at the clasp lands on the (2, q)-cable.

    The linear dependence q = 2b +/- 1 on the effective twist is a
    reconstruction of the clasp resolution, anchored at the untwisted
    positive double going to the (2, 1)-cable; treat it as provenance
    "reconstructed".
    """
    b = p.effective_twist
    q = 2 * b + 1 if p.clasp == "+" else 2 * b - 1
    assert q % 2
    return q
