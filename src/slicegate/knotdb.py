"""Knot record storage: built-in seed knots, CSV ingestion, JSON persistence.

A record mirrors one row of an invariant table.  Every field that is both
stored and computable from the record's Seifert matrix is cross-checked when
the record enters a store, and so are the stored Alexander polynomial (it
must be one) and the stored Arf against it (Murasugi), so transcription
errors surface immediately instead of corrupting downstream reports.
"""

from __future__ import annotations

import json
import os

from . import seifert as _seifert
from . import whitehead as _wh
from ._record import default_factory, reject_unknown_keys, value_class
from .bounds import GENUS_FLOOR, Interval
from .laurent import InvalidAlexanderError, LaurentPoly, _wire_int, check_alexander
from .plfunc import PLFunction
from .seifert import SeifertMatrix
from .whitehead import CompanionInvariants, InvariantClashError, WhiteheadParams

FORMAT_VERSION = 1


class UnknownKnotError(KeyError, ValueError):
    """Lookup of a name not present in the store: a KeyError, and a ValueError for the CLI."""

    def __str__(self):
        return self.args[0] if self.args else "unknown knot"


class DuplicateKnotError(ValueError):
    """Two records with the same name."""


class InconsistentRecordError(ValueError):
    """A stored field disagrees with the value computed from the Seifert matrix."""


@value_class
class KnotRecord:
    """One knot: name, optional Seifert matrix, optional invariants, provenance tags."""

    name: str
    seifert_matrix: SeifertMatrix | None = None
    alexander: LaurentPoly | None = None
    invariants: CompanionInvariants = default_factory(CompanionInvariants)
    sigma: int | None = None
    arf: int | None = None
    provenance: dict = default_factory(dict)

    def validate(self) -> "KnotRecord":
        """Cross-check stored values against each other and anything computable.

        A stored Alexander polynomial must be one (Delta(1) = +/-1, symmetric
        up to +/-t^k), a stored Arf must agree with Murasugi's reading of it
        (Arf = 0 iff Delta(-1) = +/-1 mod 8), and stored sigma, Arf and Delta
        must agree with the Seifert matrix (Delta by seifert.is_alexander_of's
        one determinant); a mismatch raises InconsistentRecordError.
        """
        for label, value in (("sigma", self.sigma), ("arf", self.arf)):
            if value is not None and type(value) is not int:
                raise ValueError(f"record {self.name!r}: {label} must be an integer, "
                                 f"got {value!r}")
        bad = []
        delta, v = self.alexander, self.seifert_matrix
        if delta is not None:
            try:
                check_alexander(delta)
            except InvalidAlexanderError as exc:
                bad.append(f"alexander: {exc}")
                delta = None
        if v is not None and self.sigma is not None:
            computed = _seifert.signature(v)
            if self.sigma != computed:
                bad.append(f"sigma: stored {self.sigma}, computed {computed}")
        if self.arf is not None and (delta is not None or v is not None):
            computed = _seifert.arf_murasugi(delta) if delta is not None else _seifert.arf(v)
            if self.arf != computed:
                bad.append(f"arf: stored {self.arf}, computed {computed}")
        if v is not None and delta is not None and not _seifert.is_alexander_of(v, delta):
            bad.append(f"alexander: stored {delta} differs from "
                       f"det(V - tV^T) = {_seifert.alexander(v)} up to units")
        if self.arf is not None and self.arf not in (0, 1):
            bad.append(f"arf: {self.arf} is not in {{0, 1}}")
        if self.sigma is not None and self.sigma % 2:
            bad.append(f"sigma: {self.sigma} is odd")
        if bad:
            raise InconsistentRecordError(f"record {self.name!r}: " + "; ".join(bad))
        return self

    def to_json(self):
        return {
            "name": self.name,
            "seifert_matrix": self.seifert_matrix.to_json() if self.seifert_matrix else None,
            "alexander": self.alexander.to_terms() if self.alexander is not None else None,
            "sigma": self.sigma,
            "arf": self.arf,
            "invariants": self.invariants.to_json(),
            "provenance": dict(sorted(self.provenance.items())),
        }

    @classmethod
    def from_json(cls, obj) -> "KnotRecord":
        if not isinstance(obj, dict) or not isinstance(obj.get("name"), str):
            raise ValueError(f"a store record is a JSON object with a string 'name', "
                             f"got {obj!r}")
        try:
            if not obj["name"]:
                raise ValueError("a store record's name must not be empty")
            provenance = {} if obj.get("provenance") is None else obj["provenance"]
            if not isinstance(provenance, dict) or not all(
                    type(t) is str for t in provenance.values()):
                raise ValueError("provenance must map fields to strings")
            reject_unknown_keys(obj, cls._fields, "the record")
            return cls(
                name=obj["name"],
                seifert_matrix=(SeifertMatrix.from_json(obj["seifert_matrix"])
                                if obj.get("seifert_matrix") is not None else None),
                alexander=(LaurentPoly.from_terms(obj["alexander"])
                           if obj.get("alexander") is not None else None),
                invariants=CompanionInvariants.from_json(
                    {} if obj.get("invariants") is None else obj["invariants"]),
                sigma=obj.get("sigma"),
                arf=obj.get("arf"),
                provenance=dict(provenance),
            )
        except ValueError as exc:  # name the record: a store holds many
            raise ValueError(f"record {obj['name']!r}: {exc}") from None


class KnotStore:
    """Name-keyed collection of validated knot records."""

    def __init__(self):
        self._records: dict[str, KnotRecord] = {}

    def add(self, record: KnotRecord) -> KnotRecord:
        if record.name in self._records:
            raise DuplicateKnotError(f"duplicate knot name {record.name!r}")
        record.validate()
        self._records[record.name] = record
        return record

    def lookup(self, name: str) -> KnotRecord:
        try:
            return self._records[name]
        except KeyError:
            raise UnknownKnotError(f"unknown knot {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._records

    def __len__(self):
        return len(self._records)

    def names(self) -> list[str]:
        return sorted(self._records)

    def records(self) -> list[KnotRecord]:
        return [self._records[n] for n in self.names()]

    def __eq__(self, other):
        if isinstance(other, KnotStore):
            return self._records == other._records
        return NotImplemented


def seed_table() -> KnotStore:
    """Built-in records: unknot, the trefoil 3_1, the figure-eight 4_1, and 6_1.

    Matrix conventions follow sigma(3_1) = -2 (the right-handed trefoil in
    the convention where the positive torus knot has negative signature, so
    tau(3_1) = 1 and Rasmussen's s(3_1) = 2 tau = 2).  Stored values are
    re-validated against the matrices at construction.
    """
    store = KnotStore()
    zero_ups = PLFunction.zero()
    store.add(KnotRecord(
        name="unknot",
        seifert_matrix=SeifertMatrix([]),
        invariants=CompanionInvariants(
            tau=0, epsilon=0, nu=0, s=0,
            g4=Interval(0, 0), g3=Interval(0, 0),
            gamma4=Interval(1, 1), upsilon=zero_ups),
        provenance={"seifert_matrix": "table", "tau": "table", "epsilon": "table",
                    "nu": "table", "s": "table", "g4": "table", "g3": "table",
                    "gamma4": "table", "upsilon": "table"},
    ))
    store.add(KnotRecord(
        name="3_1",
        seifert_matrix=SeifertMatrix([[-1, 1], [0, -1]]),
        sigma=-2,
        arf=1,
        invariants=CompanionInvariants(
            tau=1, epsilon=1, nu=1, s=2,
            g4=Interval(1, 1), g3=Interval(1, 1), gamma4=Interval(1, 1),
            upsilon=PLFunction([(0, 0), (1, -1), (2, 0)])),
        provenance={"seifert_matrix": "table", "sigma": "computed", "arf": "computed",
                    "tau": "table", "epsilon": "table", "nu": "table", "s": "table",
                    "g4": "table", "g3": "table", "gamma4": "table", "upsilon": "table"},
    ))
    store.add(KnotRecord(
        name="4_1",
        seifert_matrix=SeifertMatrix([[1, 1], [0, -1]]),
        sigma=0,
        arf=1,
        invariants=CompanionInvariants(
            tau=0, epsilon=0, nu=0, s=0,
            g4=Interval(1, 1), g3=Interval(1, 1), gamma4=Interval(2, 2),
            upsilon=zero_ups),
        provenance={"seifert_matrix": "table", "sigma": "computed", "arf": "computed",
                    "tau": "table", "epsilon": "table", "nu": "table", "s": "table",
                    "g4": "table", "g3": "table", "gamma4": "table", "upsilon": "table"},
    ))
    store.add(KnotRecord(
        name="6_1",
        alexander=LaurentPoly({1: 2, 0: -5, -1: 2}),
        sigma=0,
        arf=0,
        invariants=CompanionInvariants(
            tau=0, epsilon=0, nu=0, s=0,
            g4=Interval(0, 0), g3=Interval(1, 1), upsilon=zero_ups),
        provenance={"alexander": "table", "sigma": "table", "arf": "table",
                    "tau": "table", "epsilon": "table", "nu": "table", "s": "table",
                    "g4": "table", "g3": "table", "upsilon": "table"},
    ))
    return store


# ---------------------------------------------------------------------------
# the Whitehead double pipeline


def whitehead_double_record(params: WhiteheadParams, companion: KnotRecord) -> KnotRecord:
    """Assemble the knot record of a twisted Whitehead double of a companion.

    The record carries the pattern Seifert matrix, so sigma, Arf and Delta
    are read off it where they are needed; tau/epsilon/Upsilon are filled in
    when the companion carries tau (and epsilon).  Only the theorem's upper
    genus bounds are stored, so the obstruction engine re-derives the lower
    bounds from (sigma, Arf) on its own.
    """
    inv = companion.invariants
    tau_d = epsilon_d = ups = None
    tag = "computed" if params.clasp == "+" else "reconstructed"
    provenance = {"seifert_matrix": "computed", "gamma4": "paper", "gamma3": "paper"}
    if inv.tau is not None:
        tau_d = _wh.tau_whitehead(params, inv)
        ups = _wh.upsilon_whitehead(params, inv)
        provenance.update(tau=tag, upsilon="computed")
        if inv.epsilon is not None:
            epsilon_d = _wh.epsilon_whitehead(params, inv)
            provenance["epsilon"] = tag
    theorem = _wh.gamma4_whitehead(params)
    return KnotRecord(
        name=params.label,
        seifert_matrix=_wh.seifert_matrix(params),
        invariants=CompanionInvariants(tau=tau_d, epsilon=epsilon_d, upsilon=ups,
                                       gamma4=theorem.gamma4, gamma3=theorem.gamma3),
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# CSV ingestion

def _checked_cell(quantity: str, parse):
    """Parser of an invariant cell that applies CompanionInvariants' check of that field."""
    def cell(text: str):
        return getattr(CompanionInvariants(**{quantity: parse(text)}), quantity)
    return cell


def _int_cell(text: str) -> int:
    """A JSON integer: int() would also read 1_0, +2 and non-ASCII digits."""
    return _wire_int(json.loads(text))


_INTEGER_INVARIANTS = ("tau", "epsilon", "nu", "s")
_CELL_PARSERS = {
    "seifert": lambda s: SeifertMatrix.from_json(json.loads(s)),
    "alexander": lambda s: check_alexander(LaurentPoly.from_terms(json.loads(s))),
    "signature": _int_cell,
    "arf": _int_cell,
    **{q: _checked_cell(q, _int_cell) for q in _INTEGER_INVARIANTS},
    **{q: _checked_cell(q, lambda s: Interval.from_json(json.loads(s))) for q in GENUS_FLOOR},
}

# CSV fields named differently from the record field they fill
_RECORD_FIELD = {"seifert": "seifert_matrix", "signature": "sigma"}


def ingest_csv(store: KnotStore, path, column_mapping: dict[str, str]):
    """Read an invariant table into the store.

    column_mapping maps record fields (name, seifert, alexander, signature,
    arf, tau, epsilon, nu, s, g4, gamma4, g3, gamma3) to CSV header names;
    nothing is inferred.  A cell that does not parse, breaks its field's
    CompanionInvariants check or is not an Alexander polynomial becomes an
    absent field and a diagnostic; a row whose nu or epsilon clashes with
    its tau is skipped with a diagnostic that names the field.  A stored
    value contradicting a computed one raises InconsistentRecordError.
    Returns (added record names, diagnostics).
    """
    import csv
    unknown = set(column_mapping) - {"name", *_CELL_PARSERS}
    if unknown:
        raise ValueError(f"unknown fields in column mapping: {sorted(unknown)}")
    if "name" not in column_mapping:
        raise ValueError("column mapping must include the 'name' field")

    added: list[str] = []
    diagnostics: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: missing header row")
        missing = [col for col in column_mapping.values() if col not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}: mapped columns not in header: {missing}")
        for row_num, row in enumerate(reader, start=2):
            values = {}
            provenance = {}
            for fieldname, column in column_mapping.items():
                cell = (row.get(column) or "").strip()
                if not cell:
                    continue
                if fieldname == "name":
                    values["name"] = cell
                    continue
                try:
                    values[fieldname] = _CELL_PARSERS[fieldname](cell)
                    provenance[_RECORD_FIELD.get(fieldname, fieldname)] = "table"
                except (ValueError, TypeError, KeyError) as exc:
                    diagnostics.append(
                        f"row {row_num}: {fieldname}: unparseable cell {cell!r} ({exc})")
            name = values.get("name")
            if not name:
                diagnostics.append(f"row {row_num}: skipped, no name")
                continue
            try:  # every single-field check has passed, so only a pair of fields can clash
                invariants = CompanionInvariants(
                    **{q: values.get(q) for q in (*_INTEGER_INVARIANTS, *GENUS_FLOOR)})
            except InvariantClashError as exc:
                diagnostics.append(f"row {row_num}: {exc.field}: {exc}; row skipped")
                continue
            record = KnotRecord(
                name=name,
                seifert_matrix=values.get("seifert"),
                alexander=values.get("alexander"),
                sigma=values.get("signature"),
                arf=values.get("arf"),
                invariants=invariants,
                provenance=provenance,
            )
            store.add(record)
            added.append(name)
    return added, diagnostics


# ---------------------------------------------------------------------------
# persistence


def save(store: KnotStore, path) -> None:
    """Write the store as one JSON document, one record per line (deterministic byte output).

    Each record is one json.dumps call with the default separators, which
    runs the stdlib's C encoder (json.dump and indent= do not), and records
    are written one at a time, so the whole document is never one string.
    The document goes to a temporary file beside the target, which then
    replaces the target in one step, so a failed write leaves the old store.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(f'{{"format_version": {FORMAT_VERSION}, "records": [')
            sep = "\n"
            for record in store.records():
                fh.write(sep + json.dumps(record.to_json()))
                sep = ",\n"
            fh.write("]}\n" if sep == "\n" else "\n]}\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _no_float(text):
    raise ValueError(f"store files hold no floating-point numbers, got {text}")


def load(path) -> KnotStore:
    """Read a store written by save().

    Malformed documents, keys that save() does not write, duplicate names and
    inconsistent records all raise ValueError.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh, parse_float=_no_float, parse_constant=_no_float)
    if not isinstance(doc, dict):
        raise ValueError("a store is a JSON object with 'format_version' and 'records'")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"unsupported store format_version {version!r}")
    reject_unknown_keys(doc, ("format_version", "records"), "the store")
    records = doc.get("records")
    if not isinstance(records, list):
        raise ValueError("store 'records' must be a JSON list")
    store = KnotStore()
    for obj in records:
        store.add(KnotRecord.from_json(obj))
    return store
