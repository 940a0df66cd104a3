"""Integer intervals and genus-bound fragments shared by the invariant engines."""

from __future__ import annotations

from ._record import value_class
from .laurent import _wire_int


@value_class
class Interval:
    """Closed integer interval [lo, hi]; hi = None means no finite upper bound."""

    lo: int
    hi: int | None = None

    def __post_init__(self):
        if self.hi is not None and self.hi < self.lo:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def to_json(self):
        return [self.lo, self.hi]

    @classmethod
    def from_json(cls, obj) -> "Interval":
        if isinstance(obj, int) and not isinstance(obj, bool):
            return cls(obj, obj)
        try:
            lo, hi = obj
            lo, hi = _wire_int(lo), None if hi is None else _wire_int(hi)
        except (TypeError, ValueError):  # ValueError: obj does not unpack into two items
            raise ValueError(f"an interval is an integer or [lo, hi], got {obj!r}") from None
        return cls(lo, hi)

    def __str__(self):
        return f"[{self.lo}, {self.hi}]" if self.hi is not None else f"[{self.lo}, inf)"


# the genus quantities in wire order, each with the least value it can take
GENUS_FLOOR = {"g4": 0, "gamma4": 1, "g3": 0, "gamma3": 1}


@value_class
class GenusBounds:
    """Interval bounds for the orientable/non-orientable 3- and 4-genus.

    Any field may be None (no information).  Non-orientable genera start at
    1: every knot bounds some non-orientable surface with b_1 >= 1, and
    sliceness is tracked separately in the verdict rather than as gamma4 = 0.
    """

    g4: Interval | None = None
    gamma4: Interval | None = None
    g3: Interval | None = None
    gamma3: Interval | None = None

    def __post_init__(self):
        for field, floor in GENUS_FLOOR.items():
            iv = getattr(self, field)
            if iv is not None and iv.lo < floor:
                raise ValueError(f"{field} lower bound below {floor}")

    def to_json(self):
        return {q: iv.to_json() if (iv := getattr(self, q)) else None for q in GENUS_FLOOR}

    @classmethod
    def from_json(cls, obj: dict, **fields) -> "GenusBounds":
        """Read the genus fields of a JSON object; subclasses pass their other fields."""
        return cls(**{q: Interval.from_json(obj[q]) for q in GENUS_FLOOR
                      if obj.get(q) is not None}, **fields)
