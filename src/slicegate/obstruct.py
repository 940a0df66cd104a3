"""Aggregates slice obstructions and genus bounds into auditable verdict reports.

The engine runs a fixed registry of monotone interval-tightening rules to a
fixed point, so the resulting bounds are independent of rule order, then
re-evaluates every rule against the final state to decide which ones justify
an endpoint.  Contradictory inputs raise an error naming the clashing rules
instead of silently clamping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

from . import seifert as _seifert
from .bounds import GenusBounds, Interval
from .laurent import FoxMilnorResult, LaurentPoly, fox_milnor, normalize
from .plfunc import PLFunction, g4_lower_bound, oss_gamma4_lower_bound, upsilon_little

if TYPE_CHECKING:
    from .knotdb import KnotRecord

_QUANTS = ("g4", "gamma4", "g3", "gamma3")
_FLOOR = {"g4": 0, "g3": 0, "gamma4": 1, "gamma3": 1}


class InconsistentBoundsError(ValueError):
    """Two rules force an empty genus interval; the message names both."""


def yasuhara(sigma: int, arf: int) -> bool:
    """Moebius-band obstruction: sigma + 4*Arf = 4 (mod 8) forces gamma4 >= 2."""
    if sigma % 2:
        raise ValueError(f"knot signatures are even, got {sigma}")
    if arf not in (0, 1):
        raise ValueError(f"Arf must be 0 or 1, got {arf}")
    return (sigma + 4 * arf) % 8 == 4


def band_move_bound(target: GenusBounds, source_gamma4_hi: int) -> GenusBounds:
    """Propagate gamma4 across one non-orientable band move.

    A band move changes gamma4 by at most one, so the target inherits
    gamma4 <= source + 1.  Pass 0 for a smoothly slice source: by the
    slice clause of the band-move rule, the target then bounds a Moebius
    band and gamma4 is exactly [1, 1].
    """
    if source_gamma4_hi < 0:
        raise ValueError("source bound must be a nonnegative integer")
    incoming = Interval(1, source_gamma4_hi + 1)
    current = target.gamma4 if target.gamma4 is not None else Interval(1, None)
    try:
        merged = current.meet(incoming)
    except ValueError:
        raise InconsistentBoundsError(
            f"band move gives gamma4 <= {source_gamma4_hi + 1}, but the target already "
            f"has gamma4 >= {current.lo}") from None
    return GenusBounds(g4=target.g4, gamma4=merged, g3=target.g3, gamma3=target.gamma3)


# ---------------------------------------------------------------------------
# fact extraction


@dataclass
class _Facts:
    name: str
    sigma: int | None
    arf: int | None
    delta: LaurentPoly | None
    fm: FoxMilnorResult | None
    tau: int | None
    nu: int | None
    upsilon: PLFunction | None
    upsilon_value: Fraction | None
    surface_genus: int | None
    stored: GenusBounds
    oss_convention: str


def _facts_from_record(record: "KnotRecord", oss_convention: str) -> _Facts:
    v = record.seifert_matrix
    sigma = record.sigma
    arf_val = record.arf
    delta = record.alexander
    if v is not None:
        if sigma is None:
            sigma = _seifert.signature(v)
        if arf_val is None:
            arf_val = _seifert.arf(v)
        if delta is None:
            delta = _seifert.alexander(v)
    fm = fox_milnor(delta) if delta is not None else None
    inv = record.invariants
    ups = inv.upsilon
    return _Facts(
        name=record.name,
        sigma=sigma,
        arf=arf_val,
        delta=delta,
        fm=fm,
        tau=inv.tau,
        nu=inv.nu,
        upsilon=ups,
        upsilon_value=upsilon_little(ups) if ups is not None else None,
        surface_genus=v.n // 2 if v is not None else None,
        stored=GenusBounds(g4=inv.g4, gamma4=inv.gamma4, g3=inv.g3, gamma3=inv.gamma3),
        oss_convention=oss_convention,
    )


# ---------------------------------------------------------------------------
# the rule registry

# A rule maps (facts, lo, hi) to constraints (quantity, side, value, note);
# lo/hi are the current bound maps, read-only.  Constraints must be monotone
# in the state so the fixed point is unique and order-independent.


def _rule_stored(f, lo, hi):
    out = []
    for q in _QUANTS:
        iv = getattr(f.stored, q)
        if iv is None:
            continue
        if iv.lo > _FLOOR[q]:
            out.append((q, "lo", iv.lo, f"declared {q} >= {iv.lo}"))
        if iv.hi is not None:
            out.append((q, "hi", iv.hi, f"declared {q} <= {iv.hi}"))
    return out


def _rule_surface(f, lo, hi):
    if f.surface_genus is None:
        return []
    g = f.surface_genus
    return [
        ("g4", "hi", g, f"genus-{g} Seifert surface pushed into the 4-ball"),
        ("g3", "hi", g, f"genus-{g} Seifert surface"),
    ]


def _rule_signature(f, lo, hi):
    if f.sigma is None or f.sigma == 0:
        return []
    v = abs(f.sigma) // 2
    return [("g4", "lo", v, f"|sigma|/2 = {v} <= g4")]


def _rule_arf(f, lo, hi):
    if f.arf != 1:
        return []
    return [("g4", "lo", 1, "Arf = 1, so the knot is not smoothly slice")]


def _rule_fox_milnor(f, lo, hi):
    if f.fm is None or f.fm.passes:
        return []
    return [("g4", "lo", 1, f"Fox-Milnor fails ({f.fm.reason})")]


def _rule_tau(f, lo, hi):
    if not f.tau:
        return []
    v = abs(f.tau)
    return [("g4", "lo", v, f"|tau| = {v} <= g4")]


def _rule_nu(f, lo, hi):
    if f.nu is None or f.nu <= 0:
        return []
    return [("g4", "lo", f.nu, f"nu = {f.nu} <= g4")]


def _rule_upsilon(f, lo, hi):
    if f.upsilon is None:
        return []
    v = g4_lower_bound(f.upsilon)
    if v <= 0:
        return []
    return [("g4", "lo", v, f"max |Upsilon(s)|/s gives g4 >= {v}")]


def _rule_yasuhara(f, lo, hi):
    if f.sigma is None or f.arf is None or not yasuhara(f.sigma, f.arf):
        return []
    return [("gamma4", "lo", 2,
             f"sigma + 4*Arf = {f.sigma + 4 * f.arf} = 4 (mod 8), no Moebius band")]


def _rule_oss(f, lo, hi):
    if f.upsilon_value is None or f.sigma is None:
        return []
    v = math.ceil(oss_gamma4_lower_bound(f.upsilon_value, f.sigma, f.oss_convention))
    if v <= 1:
        return []
    sign = "+" if f.oss_convention == "plus" else "-"
    return [("gamma4", "lo", v, f"|upsilon {sign} sigma/2| = {v} <= gamma4")]


def _rule_crosscap_upper(f, lo, hi):
    out = []
    if hi["g4"] is not None:
        v = 2 * hi["g4"] + 1
        out.append(("gamma4", "hi", v, f"gamma4 <= 2*g4 + 1 = {v}"))
    if lo["gamma4"] >= 2:
        v = math.ceil(Fraction(lo["gamma4"] - 1, 2))
        out.append(("g4", "lo", v, f"gamma4 >= {lo['gamma4']} forces g4 >= {v}"))
    return out


def _rule_dimension(f, lo, hi):
    out = []
    if hi["g3"] is not None:
        out.append(("g4", "hi", hi["g3"], f"g4 <= g3 <= {hi['g3']}"))
    if lo["g4"] > 0:
        out.append(("g3", "lo", lo["g4"], f"g3 >= g4 >= {lo['g4']}"))
    if hi["gamma3"] is not None:
        out.append(("gamma4", "hi", hi["gamma3"], f"gamma4 <= gamma3 <= {hi['gamma3']}"))
    if lo["gamma4"] > 1:
        out.append(("gamma3", "lo", lo["gamma4"], f"gamma3 >= gamma4 >= {lo['gamma4']}"))
    return out


@dataclass(frozen=True)
class _Rule:
    name: str
    anchor: str
    fn: Callable


_RULES: tuple[_Rule, ...] = (
    _Rule("stored-bounds", "input invariant table", _rule_stored),
    _Rule("seifert-surface", "genus of the given Seifert surface", _rule_surface),
    _Rule("signature-bound", "Murasugi: |sigma(K)|/2 <= g4(K)", _rule_signature),
    _Rule("arf-obstruction", "Robertello: Arf vanishes for slice knots", _rule_arf),
    _Rule("fox-milnor", "Fox-Milnor: Delta_K(t) = f(t)f(1/t) up to units for slice K",
          _rule_fox_milnor),
    _Rule("tau-bound", "Ozsvath-Szabo: |tau(K)| <= g4(K)", _rule_tau),
    _Rule("nu-bound", "Rasmussen: nu(K) <= g4(K)", _rule_nu),
    _Rule("upsilon-bound", "Ozsvath-Stipsicz-Szabo: |Upsilon_K(s)| <= s * g4(K)",
          _rule_upsilon),
    _Rule("yasuhara", "Yasuhara Prop 5.1: sigma + 4*Arf = 4 (mod 8) => gamma4 >= 2",
          _rule_yasuhara),
    _Rule("oss-gamma4", "Ozsvath-Stipsicz-Szabo: |upsilon(K) -/+ sigma(K)/2| <= gamma4(K)",
          _rule_oss),
    _Rule("crosscap-upper", "gamma4(K) <= 2*g4(K) + 1 (orientable surface plus a crosscap)",
          _rule_crosscap_upper),
    _Rule("genus-ordering", "surfaces in S^3 push into the 4-ball: g4 <= g3, gamma4 <= gamma3",
          _rule_dimension),
)


class _Tracker:
    def __init__(self):
        self.lo = dict(_FLOOR)
        self.hi = {q: None for q in _QUANTS}
        self.lo_rule = {q: "definition" for q in _QUANTS}
        self.hi_rule = {q: None for q in _QUANTS}

    def tighten(self, quantity, side, value, rule_name) -> bool:
        if side == "lo":
            if value <= self.lo[quantity]:
                return False
            cap = self.hi[quantity]
            if cap is not None and value > cap:
                raise InconsistentBoundsError(
                    f"{quantity}: lower bound {value} from rule '{rule_name}' exceeds upper "
                    f"bound {cap} from rule '{self.hi_rule[quantity]}'")
            self.lo[quantity] = value
            self.lo_rule[quantity] = rule_name
            return True
        cur = self.hi[quantity]
        if cur is not None and value >= cur:
            return False
        if value < self.lo[quantity]:
            raise InconsistentBoundsError(
                f"{quantity}: upper bound {value} from rule '{rule_name}' is below lower "
                f"bound {self.lo[quantity]} from rule '{self.lo_rule[quantity]}'")
        self.hi[quantity] = value
        self.hi_rule[quantity] = rule_name
        return True


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class AppliedRule:
    rule: str
    anchor: str
    contribution: str

    def to_json(self):
        return {"rule": self.rule, "anchor": self.anchor, "contribution": self.contribution}


@dataclass(frozen=True)
class Verdict:
    """Three-valued sliceness verdicts; 'nonorientably slice' means gamma4 = 1."""

    topologically_slice: str = "unknown"
    smoothly_slice: str = "unknown"
    nonorientably_slice: str = "unknown"

    def __post_init__(self):
        for v in (self.topologically_slice, self.smoothly_slice, self.nonorientably_slice):
            if v not in ("yes", "no", "unknown"):
                raise ValueError(f"verdict values are yes/no/unknown, got {v!r}")
        if self.smoothly_slice == "yes" and self.topologically_slice != "yes":
            raise ValueError("smoothly slice forces topologically slice")
        if self.topologically_slice == "no" and self.smoothly_slice != "no":
            raise ValueError("not topologically slice forces not smoothly slice")

    def to_json(self):
        return {
            "topologically_slice": self.topologically_slice,
            "smoothly_slice": self.smoothly_slice,
            "nonorientably_slice": self.nonorientably_slice,
        }


@dataclass(frozen=True)
class ObstructionReport:
    name: str
    bounds: GenusBounds
    verdict: Verdict
    applied_rules: tuple[AppliedRule, ...]
    notes: tuple[str, ...] = ()

    def to_json(self):
        return {
            "name": self.name,
            "bounds": self.bounds.to_json(),
            "verdict": self.verdict.to_json(),
            "applied_rules": [r.to_json() for r in self.applied_rules],
            "notes": list(self.notes),
        }


def aggregate(record: "KnotRecord", *, oss_convention: str = "minus",
              notes: tuple[str, ...] = ()) -> ObstructionReport:
    """Run every obstruction rule on a knot record and report the tightest bounds.

    Raises InconsistentBoundsError when the declared data contradicts a rule
    (the message names the clashing rules).
    """
    facts = _facts_from_record(record, oss_convention)
    if (facts.sigma is None and facts.arf is None and facts.delta is None
            and facts.tau is None and facts.nu is None and facts.upsilon is None
            and all(getattr(facts.stored, q) is None for q in _QUANTS)):
        raise ValueError(f"record {facts.name!r} carries no matrix, polynomial, "
                         "or stored invariants to aggregate")
    tracker = _Tracker()
    changed = True
    while changed:
        changed = False
        for rule in _RULES:
            for quantity, side, value, _ in rule.fn(facts, tracker.lo, tracker.hi):
                changed |= tracker.tighten(quantity, side, value, rule.name)

    lo, hi = tracker.lo, tracker.hi
    fm = facts.fm

    applied: list[AppliedRule] = []
    for rule in _RULES:
        for quantity, side, value, note in rule.fn(facts, lo, hi):
            binding = (value == lo[quantity]) if side == "lo" else (value == hi[quantity])
            if side == "lo" and value <= _FLOOR[quantity]:
                binding = False
            if binding:
                applied.append(AppliedRule(rule.name, rule.anchor, note))

    # verdicts
    topological = "unknown"
    smooth = "unknown"
    smooth_triggers = []
    if fm is not None and not fm.passes:
        topological = "no"
        smooth_triggers.append(AppliedRule(
            "fox-milnor", _anchor("fox-milnor"),
            f"Fox-Milnor fails ({fm.reason}): not topologically slice"))
    elif facts.delta is not None and normalize(facts.delta)[0].coeffs == (1,):
        # Delta is a unit +/-t^k, the trivial Alexander polynomial up to units
        topological = "yes"
        applied.append(AppliedRule(
            "freedman", "Freedman: trivial Alexander polynomial => topologically slice",
            f"Delta = {facts.delta}, so the knot is topologically slice"))

    if facts.sigma:
        smooth_triggers.append(AppliedRule(
            "signature-bound", _anchor("signature-bound"),
            f"sigma = {facts.sigma} != 0 obstructs smooth sliceness"))
    if facts.arf == 1:
        smooth_triggers.append(AppliedRule(
            "arf-obstruction", _anchor("arf-obstruction"),
            "Arf = 1 obstructs smooth sliceness"))
    if facts.tau:
        smooth_triggers.append(AppliedRule(
            "tau-bound", _anchor("tau-bound"),
            f"tau = {facts.tau} != 0 obstructs smooth sliceness"))
    if facts.upsilon_value:
        smooth_triggers.append(AppliedRule(
            "upsilon-bound", _anchor("upsilon-bound"),
            f"upsilon = {facts.upsilon_value} != 0 obstructs smooth sliceness"))

    if smooth_triggers or lo["g4"] >= 1:
        smooth = "no"
        applied.extend(smooth_triggers)
    if hi["g4"] == 0:
        assert smooth != "no", "tracker should have caught slice-vs-obstruction conflicts"
        smooth = "yes"
        topological = "yes"
        applied.append(AppliedRule(
            "stored-bounds", _anchor("stored-bounds"),
            "g4 = 0 declared: smoothly (hence topologically) slice"))

    nonorientable = "unknown"
    if hi["gamma4"] == 1:
        nonorientable = "yes"
    elif lo["gamma4"] >= 2:
        nonorientable = "no"

    verdict = Verdict(topologically_slice=topological, smoothly_slice=smooth,
                      nonorientably_slice=nonorientable)

    def interval_or_none(q):
        if lo[q] > _FLOOR[q] or hi[q] is not None:
            return Interval(lo[q], hi[q])
        return None

    bounds = GenusBounds(
        g4=interval_or_none("g4"),
        gamma4=interval_or_none("gamma4"),
        g3=interval_or_none("g3"),
        gamma3=interval_or_none("gamma3"),
    )
    unique = sorted(set(applied), key=lambda r: (r.rule, r.contribution))
    return ObstructionReport(name=facts.name, bounds=bounds, verdict=verdict,
                             applied_rules=tuple(unique), notes=tuple(notes))


def _anchor(rule_name: str) -> str:
    for rule in _RULES:
        if rule.name == rule_name:
            return rule.anchor
    raise KeyError(rule_name)
