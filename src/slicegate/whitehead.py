"""Formula engine for t-twisted Whitehead doubles.

A double is described by its clasp sign, twist t, and the framing offset
lambda of the companion embedding (0 = Seifert framing).  All case formulas
are driven by the effective twist b = t + lambda: the genus-one pattern
matrix sees only b, and it is a Seifert matrix of the double for every b, so
sigma, Arf and Delta are read off it by the seifert kernels.
"""

from __future__ import annotations

from ._record import reject_unknown_keys, value_class
from .bounds import GenusBounds, Interval
from .plfunc import PLFunction
from .seifert import SeifertMatrix

CLASPS = ("+", "-")


class MissingInvariantError(ValueError):
    """The companion record lacks an invariant needed by a case formula."""


class InvariantClashError(ValueError):
    """Two stored invariants contradict each other; field names the one the check rejects."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@value_class
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
    def label(self) -> str:
        base = f"Wh{self.clasp}_{self.twist}"
        if self.framing:
            base += f"(lam={self.framing})"
        return f"{base}({self.companion})"


@value_class
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
        if self.upsilon is not None and self.upsilon.end != 2:
            raise ValueError(f"upsilon is defined on [0, 2], got [0, {self.upsilon.end}]")
        if self.tau is not None and self.nu is not None:
            if self.nu not in (self.tau, self.tau + 1):
                raise InvariantClashError(
                    "nu", f"nu = {self.nu} must be tau or tau + 1 (tau = {self.tau})")
        if self.epsilon == 0 and self.tau:  # Hom: epsilon = 0 forces tau = 0
            raise InvariantClashError(
                "epsilon", f"epsilon = 0 forces tau = 0 (tau = {self.tau})")
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
        reject_unknown_keys(obj, cls._fields, "invariants")
        ups = obj.get("upsilon")
        return super().from_json(
            obj, tau=obj.get("tau"), epsilon=obj.get("epsilon"), nu=obj.get("nu"),
            s=obj.get("s"), upsilon=None if ups is None else PLFunction.from_json(ups))


def seifert_matrix(p: WhiteheadParams) -> SeifertMatrix:
    """The genus-one pattern matrix [[-/+1, 1], [0, b]] of the double, b the effective twist."""
    return SeifertMatrix([[-1 if p.clasp == "+" else 1, 1], [0, p.effective_twist]])


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
    """epsilon of the double: sgn tau(D) when tau(D) != 0, else 0 iff tau(K) = epsilon(K) = 0.

    The double bounds a genus-one Seifert surface, so tau(D) = +/-1 means
    |tau(D)| = g3(D), and then epsilon(D) = sgn tau(D) (Hom).  When tau(D) = 0
    a nonzero value is +1 for the positive clasp, the stated two-case
    formula, and -1 for the negative clasp through the mirror identity
    (epsilon negates).
    """
    if c.tau is None or c.epsilon is None:
        raise MissingInvariantError("tau and epsilon of the companion are required")
    if tau_d := tau_whitehead(p, c):
        return tau_d
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
    """Upper bounds gamma4 <= 2 and gamma3 <= 2 on the double, for every clasp and twist.

    The double bounds a punctured Klein bottle in S^3: a Moebius band along
    the companion, whose boundary is the (2, q)-cable of cable_target,
    plumbed with a full-twisted annulus at the clasp.  Cutting that annulus
    is the one band move from the double to the cable, and gamma4 <= gamma3.
    Neither step uses the sign of b.  The lower bounds are left to the
    obstruction engine, which reads them off sigma and Arf of the pattern
    matrix: Yasuhara pins gamma4 = 2 only for odd b of the clasp's sign,
    since sigma = -/+2 when the signs differ (Wh+_-1 of the unknot is the
    trefoil, which bounds a Moebius band).
    """
    return GenusBounds(gamma4=Interval(1, 2), gamma3=Interval(1, 2))


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
