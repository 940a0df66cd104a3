"""Aggregates slice obstructions and genus bounds into auditable verdict reports.

The engine runs a fixed registry of monotone interval-tightening rules to a
fixed point, so the resulting bounds are independent of rule order.  The
last sweep tightens nothing, so it saw the final state, and the constraints
it emitted decide which rules justify an endpoint.  Contradictory inputs
raise an error naming the clashing rules instead of silently clamping.
"""

from __future__ import annotations

import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from . import seifert as _seifert
from ._record import value_class
from .bounds import GENUS_FLOOR, GenusBounds, Interval
from .knotdb import KnotRecord
from .laurent import FoxMilnorResult, LaurentPoly, fox_milnor, fox_milnor_det_check
from .plfunc import g4_lower_bound, oss_gamma4_lower_bound, upsilon_little
from .whitehead import CompanionInvariants

_STORED_ANCHOR = "input invariant table"


class InconsistentBoundsError(ValueError):
    """Two rules force an empty genus interval; the message names both."""


def yasuhara(sigma: int, arf: int) -> bool:
    """Moebius-band obstruction: sigma + 4*Arf = 4 (mod 8) forces gamma4 >= 2."""
    if sigma % 2:
        raise ValueError(f"knot signatures are even, got {sigma}")
    if arf not in (0, 1):
        raise ValueError(f"Arf must be 0 or 1, got {arf}")
    return (sigma + 4 * arf) % 8 == 4


# ---------------------------------------------------------------------------
# the fact builder


@value_class
class Facts:
    """The classical facts of one record; tau, nu and Upsilon are read from stored."""

    name: str
    sigma: int | None
    arf: int | None
    delta: LaurentPoly | None
    fm: FoxMilnorResult | None
    upsilon_value: Fraction | None
    surface_genus: int | None
    stored: CompanionInvariants


def record_facts(record: KnotRecord) -> Facts:
    """The classical facts of a record, each from the one source chosen here.

    sigma and Delta come from the Seifert matrix when the record has one
    (memo hits once validate() has checked any stored value against it), and
    from the table otherwise.  Arf is the stored value, else Levine's reading
    of the matrix's det(V + V^T), never of a Delta that is only stored.
    Fox-Milnor runs on Delta.  A matrix's Delta is computed only when
    |det(V + V^T)| = |Delta(-1)| is an odd square: otherwise Fox-Milnor fails
    on that check, Freedman's unit Delta is ruled out, and delta is None.
    """
    v, arf_val, fm = record.seifert_matrix, record.arf, None
    if v is None:
        sigma, delta = record.sigma, record.alexander
    else:
        sigma, fm = _seifert.signature(v), fox_milnor_det_check(_seifert.determinant(v))
        delta = _seifert.alexander(v) if fm is None else None
        if arf_val is None:
            arf_val = _seifert.arf(v)
    ups = record.invariants.upsilon
    return Facts(
        name=record.name,
        sigma=sigma,
        arf=arf_val,
        delta=delta,
        fm=fox_milnor(delta) if delta is not None else fm,
        upsilon_value=upsilon_little(ups) if ups is not None else None,
        surface_genus=v.n // 2 if v is not None else None,
        stored=record.invariants,
    )


# ---------------------------------------------------------------------------
# the rule registry

# A bound function maps (facts, lo, hi) to constraints (quantity, side,
# value, note); lo/hi are the current bound maps, read-only.  Constraints must
# be monotone in the state so the fixed point is unique and order-independent.
# A smooth note maps the facts to the line that explains smooth sliceness
# "no", or None; each note accompanies a g4 >= 1 constraint of its rule.


def _rule_stored(f, lo, hi):
    out = []
    for q, floor in GENUS_FLOOR.items():
        iv = getattr(f.stored, q)
        if iv is None:
            continue
        if iv.lo > floor:
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
    v = abs(f.sigma or 0) // 2
    return [("g4", "lo", v, f"|sigma|/2 = {v} <= g4")] if v else []


def _rule_arf(f, lo, hi):
    return [("g4", "lo", 1, "Arf = 1, so the knot is not smoothly slice")] if f.arf == 1 else []


def _rule_fox_milnor(f, lo, hi):
    fails = f.fm is not None and not f.fm.passes
    return [("g4", "lo", 1, f"Fox-Milnor fails ({f.fm.reason})")] if fails else []


def _rule_tau(f, lo, hi):
    v = abs(f.stored.tau or 0)
    return [("g4", "lo", v, f"|tau| = {v} <= g4")] if v else []


def _rule_nu(f, lo, hi):
    nu = f.stored.nu or 0
    return [("g4", "lo", nu, f"nu = {nu} <= g4")] if nu > 0 else []


def _rule_upsilon(f, lo, hi):
    v = g4_lower_bound(f.stored.upsilon) if f.stored.upsilon is not None else 0
    return [("g4", "lo", v, f"max |Upsilon(s)|/s gives g4 >= {v}")] if v > 0 else []


def _rule_yasuhara(f, lo, hi):
    if f.sigma is None or f.arf is None or not yasuhara(f.sigma, f.arf):
        return []
    return [("gamma4", "lo", 2,
             f"sigma + 4*Arf = {f.sigma + 4 * f.arf} = 4 (mod 8), no Moebius band")]


def _rule_oss(f, lo, hi):
    if f.upsilon_value is None or f.sigma is None:
        return []
    v = math.ceil(oss_gamma4_lower_bound(f.upsilon_value, f.sigma))
    if v <= 1:
        return []
    return [("gamma4", "lo", v, f"|upsilon - sigma/2| = {v} <= gamma4")]


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


# (name, anchor, bound function, smooth note)
_RULES = (
    ("stored-bounds", _STORED_ANCHOR, _rule_stored, None),
    ("seifert-surface", "genus of the given Seifert surface", _rule_surface, None),
    ("signature-bound", "Murasugi: |sigma(K)|/2 <= g4(K)", _rule_signature,
     lambda f: f"sigma = {f.sigma} != 0 obstructs smooth sliceness" if f.sigma else None),
    ("arf-obstruction", "Robertello: Arf vanishes for slice knots", _rule_arf,
     lambda f: "Arf = 1 obstructs smooth sliceness" if f.arf == 1 else None),
    ("fox-milnor", "Fox-Milnor: Delta_K(t) = f(t)f(1/t) up to units for slice K",
     _rule_fox_milnor,
     lambda f: (f"Fox-Milnor fails ({f.fm.reason}): not topologically slice"
                if f.fm is not None and not f.fm.passes else None)),
    ("tau-bound", "Ozsvath-Szabo: |tau(K)| <= g4(K)", _rule_tau,
     lambda f: (f"tau = {f.stored.tau} != 0 obstructs smooth sliceness"
                if f.stored.tau else None)),
    ("nu-bound", "Rasmussen: nu(K) <= g4(K)", _rule_nu, None),
    ("upsilon-bound", "Ozsvath-Stipsicz-Szabo: |Upsilon_K(s)| <= s * g4(K)", _rule_upsilon,
     lambda f: (f"upsilon = {f.upsilon_value} != 0 obstructs smooth sliceness"
                if f.upsilon_value else None)),
    ("yasuhara", "Yasuhara Prop 5.1: sigma + 4*Arf = 4 (mod 8) => gamma4 >= 2",
     _rule_yasuhara, None),
    ("oss-gamma4", "Ozsvath-Stipsicz-Szabo: |upsilon(K) - sigma(K)/2| <= gamma4(K)",
     _rule_oss, None),
    ("crosscap-upper", "gamma4(K) <= 2*g4(K) + 1 (orientable surface plus a crosscap)",
     _rule_crosscap_upper, None),
    ("genus-ordering", "surfaces in S^3 push into the 4-ball: g4 <= g3, gamma4 <= gamma3",
     _rule_dimension, None),
)


class _Tracker:
    def __init__(self):
        self.lo = dict(GENUS_FLOOR)
        self.hi = dict.fromkeys(GENUS_FLOOR)
        self.lo_rule = dict.fromkeys(GENUS_FLOOR, "definition")
        self.hi_rule = dict.fromkeys(GENUS_FLOOR)

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


@value_class
class AppliedRule:
    rule: str
    anchor: str
    contribution: str

    def to_json(self):
        return {"rule": self.rule, "anchor": self.anchor, "contribution": self.contribution}


@value_class
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


@value_class
class ObstructionReport:
    name: str
    bounds: GenusBounds
    verdict: Verdict
    applied_rules: tuple[AppliedRule, ...]

    def to_json(self):
        return {
            "name": self.name,
            "bounds": self.bounds.to_json(),
            "verdict": self.verdict.to_json(),
            "applied_rules": [r.to_json() for r in self.applied_rules],
            "notes": [],  # kept for the wire format; no rule writes a note
        }

    def json_text(self, pad: str = "") -> str:
        """json.dumps(self.to_json(), indent=2), each line after the first prefixed by pad.

        It writes the schema in to_json's key order and passes each string leaf to the
        C function json.dumps itself calls, since its indent=2 path is pure Python.
        """
        n1, n2, n3 = (f"\n{pad}" + " " * k for k in (2, 4, 6))

        def strings(obj, keys, close):  # an object of string leaves, keys in field order
            return "{" + ",".join(f'{keys}"{k}": {_json_str(getattr(obj, k))}'
                                  for k in obj._fields) + close + "}"

        def interval(iv):
            if iv is None:
                return "null"
            return f"[{n3}{iv.lo},{n3}{'null' if iv.hi is None else iv.hi}{n2}]"

        bounds = ",".join(f'{n2}"{q}": {interval(getattr(self.bounds, q))}' for q in GENUS_FLOOR)
        rules = ",".join(n2 + strings(r, n3, n2) for r in self.applied_rules)
        rules = f"[{rules}{n1}]" if rules else "[]"
        return (f'{{{n1}"name": {_json_str(self.name)},{n1}"bounds": {{{bounds}{n1}}},'
                f'{n1}"verdict": {strings(self.verdict, n2, n1)},'
                f'{n1}"applied_rules": {rules},{n1}"notes": []\n{pad}}}')


def aggregate(record: KnotRecord) -> ObstructionReport:
    """Run every obstruction rule on a knot record and report the tightest bounds.

    Raises InconsistentBoundsError when the declared data contradicts a rule
    (the message names the clashing rules).
    """
    return _aggregate_facts(record_facts(record))


def _aggregate_facts(facts: Facts) -> ObstructionReport:
    """aggregate() on facts already built, so a caller that holds them builds them once."""
    if (facts.sigma is None and facts.arf is None and facts.delta is None
            and all(getattr(facts.stored, q) is None for q in facts.stored._fields)):
        raise ValueError(f"record {facts.name!r} carries no matrix, polynomial, "
                         "or stored invariants to aggregate")
    tracker = _Tracker()
    lo, hi = tracker.lo, tracker.hi
    changed = True
    while changed:
        changed = False
        last_sweep = []
        for name, anchor, bound_fn, _ in _RULES:
            for quantity, side, value, note in bound_fn(facts, lo, hi):
                changed |= tracker.tighten(quantity, side, value, name)
                last_sweep.append((name, anchor, quantity, side, value, note))

    # the last sweep tightened nothing, so it ran against the final bounds
    applied = [AppliedRule(name, anchor, note)
               for name, anchor, quantity, side, value, note in last_sweep
               if (value == hi[quantity] if side == "hi"
                   else value == lo[quantity] and value > GENUS_FLOOR[quantity])]

    topological = smooth = "unknown"
    if facts.fm is not None and not facts.fm.passes:
        topological = "no"
    elif facts.delta is not None and facts.delta.min_exp == facts.delta.max_exp:
        # one term with Delta(1) = +/-1: a unit +/-t^k, the trivial Alexander polynomial
        topological = "yes"
        applied.append(AppliedRule(
            "freedman", "Freedman: trivial Alexander polynomial => topologically slice",
            f"Delta = {facts.delta}, so the knot is topologically slice"))
    if lo["g4"] >= 1:  # the smooth notes read only the facts, so they are built here once
        smooth = "no"
        applied += [AppliedRule(name, anchor, note) for name, anchor, _, smooth_note in _RULES
                    if smooth_note and (note := smooth_note(facts))]
    elif hi["g4"] == 0:
        smooth = topological = "yes"
        if facts.stored.g4 is not None and facts.stored.g4.hi == 0:
            applied.append(AppliedRule("stored-bounds", _STORED_ANCHOR,
                                       "g4 = 0 declared: smoothly (hence topologically) slice"))

    nonorientable = "unknown"
    if hi["gamma4"] == 1:
        nonorientable = "yes"
    elif lo["gamma4"] >= 2:
        nonorientable = "no"

    verdict = Verdict(topologically_slice=topological, smoothly_slice=smooth,
                      nonorientably_slice=nonorientable)
    bounds = GenusBounds(**{q: Interval(lo[q], hi[q])
                            for q, floor in GENUS_FLOOR.items()
                            if lo[q] > floor or hi[q] is not None})
    unique = sorted(set(applied), key=lambda r: (r.rule, r.contribution))
    return ObstructionReport(name=facts.name, bounds=bounds, verdict=verdict,
                             applied_rules=tuple(unique))
