"""Command-line interface: invariants, Whitehead double reports, obstruction
aggregation, cable/cobordism arithmetic, and table import.

Exit codes: 0 success, 1 obstruction found (only with --fail-on-obstruction),
2 input error, including every malformed number, matrix or PL-function file.
All numeric output is exact, rationals as p/q.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import knotdb, plfunc
from . import seifert as _seifert
from . import whitehead as _wh
from .knotdb import KnotRecord, KnotStore, UnknownKnotError
from .obstruct import ObstructionReport, aggregate, record_facts
from .plfunc import CobordismCheck, PLFunction
from .seifert import SeifertMatrix
from .whitehead import WhiteheadParams

STORE_ENV = "SLICEGATE_STORE"


# the options that each choose what a command reads: at most one may be given
_SELECTORS = {
    "invariants": ("name", "matrix_file"),
    "obstruct": ("name", "matrix_file", "all"),
    "cable-bounds": ("zero", "upsilon_file", "upsilon_of"),
}


def _check_selectors(args) -> None:
    given = ["NAME" if d == "name" else "--" + d.replace("_", "-")
             for d in _SELECTORS.get(args.command, ()) if getattr(args, d)]
    if len(given) > 1:
        raise ValueError(f"{', '.join(given[:-1])} and {given[-1]} conflict; give only one")


def _load_store(args) -> KnotStore | None:
    """The named store file, or the seed knots when none is named.

    A named file that does not exist is an input error, except for
    `import`, which creates it.  A command that reads only --matrix-file
    gets None when no store is named: it looks nothing up.
    """
    path = args.store or os.environ.get(STORE_ENV)
    if path and os.path.exists(path):
        return knotdb.load(path)
    if path and args.fn is not _cmd_import:
        raise ValueError(f"store file {path} does not exist")
    if getattr(args, "matrix_file", None):
        return None
    return knotdb.seed_table()


def _matrix_from_file(path) -> SeifertMatrix:
    with open(path, encoding="utf-8") as fh:
        return SeifertMatrix.from_json(json.load(fh))


def _record_for(args, store: KnotStore) -> KnotRecord:
    if getattr(args, "matrix_file", None):
        name = os.path.splitext(os.path.basename(args.matrix_file))[0]
        rec = KnotRecord(name=name, seifert_matrix=_matrix_from_file(args.matrix_file),
                         provenance={"seifert_matrix": "table"})
        return rec.validate()
    if not args.name:
        raise ValueError("give a knot name or --matrix-file")
    return store.lookup(args.name)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    try:
        print(json.dumps(payload, indent=2) if args.json else "\n".join(text_lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (`| head`): drop the rest, and let the flush at exit go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _interval_str(iv) -> str:
    if iv is None:
        return "unknown"
    return str(iv)


def _bounds_lines(bounds) -> list[str]:
    return [
        f"g4: {_interval_str(bounds.g4)}   g3: {_interval_str(bounds.g3)}",
        f"gamma4: {_interval_str(bounds.gamma4)}   gamma3: {_interval_str(bounds.gamma3)}",
    ]


def _report_lines(report: ObstructionReport) -> list[str]:
    lines = [f"knot: {report.name}"]
    lines += _bounds_lines(report.bounds)
    v = report.verdict
    lines.append(f"topologically slice: {v.topologically_slice}; "
                 f"smoothly slice: {v.smoothly_slice}; "
                 f"non-orientably slice (gamma4 = 1): {v.nonorientably_slice}")
    if report.applied_rules:
        lines.append("applied rules:")
        for r in report.applied_rules:
            lines.append(f"  - {r.rule}: {r.contribution}  [{r.anchor}]")
    return lines


def _verdict_obstructed(report: ObstructionReport) -> bool:
    v = report.verdict
    return "no" in (v.topologically_slice, v.smoothly_slice, v.nonorientably_slice)


def _exit_for(args, obstructed: bool) -> int:
    return 1 if (obstructed and args.fail_on_obstruction) else 0


# ---------------------------------------------------------------------------
# subcommands


def _cmd_invariants(args, store) -> int:
    record = _record_for(args, store)
    facts = record_facts(record)
    v, sigma, fm = record.seifert_matrix, facts.sigma, facts.fm
    delta = facts.delta if v is None else _seifert.alexander(v)  # facts skip a Delta no rule reads
    if delta is None:
        raise ValueError(f"record {record.name!r} carries no Seifert matrix "
                         "or Alexander polynomial")
    if v is None and args.omega:
        raise ValueError(f"record {record.name!r} has no Seifert matrix; "
                         "Levine-Tristram signatures need one")
    arf_val = _seifert.arf_murasugi(delta)  # aggregate reads no Arf off a stored-only Delta
    det = abs(delta.at_pm1(-1))
    gb = _seifert.genus_bounds_from_matrix(v) if v is not None else None
    lt = []
    for angle in args.omega or []:
        val = _seifert.levine_tristram(v, angle)
        lt.append((angle, "singular" if val is None else val))
    payload = {
        "name": record.name,
        "sigma": sigma,
        "arf": arf_val,
        "determinant": det,
        "alexander": delta.to_terms(),
        "fox_milnor": {"passes": fm.passes,
                       "witness": list(fm.witness.dense()) if fm.witness else None,
                       "reason": fm.reason},
        "bounds": gb.to_json() if gb is not None else None,
        "levine_tristram": [{"omega": w, "signature": s} for w, s in lt],
    }
    lines = [
        f"knot: {record.name}",
        f"sigma: {sigma if sigma is not None else 'unknown'}",
        f"arf: {arf_val}",
        f"determinant: {det}",
        f"alexander: {delta}",
        f"fox-milnor: {'passes' if fm.passes else 'fails'}"
        + (f" (witness f = {fm.witness})" if fm.passes else f" ({fm.reason})"),
    ]
    if gb is not None:
        lines += _bounds_lines(gb)
    for w, s in lt:
        lines.append(f"levine-tristram @ {w}: {s}")
    _emit(args, payload, lines)
    return 0


def _cmd_whitehead(args, store) -> int:
    params = WhiteheadParams(clasp=args.clasp, twist=args.twist,
                             framing=args.framing, companion=args.companion)
    companion = store.lookup(args.companion)
    record = knotdb.whitehead_double_record(params, companion)
    report = aggregate(record)
    q = _wh.cable_target(params)
    inv, v = record.invariants, record.seifert_matrix
    delta, sigma, arf_val = _seifert.alexander(v), _seifert.signature(v), _seifert.arf(v)
    payload = {
        "name": record.name,
        "effective_twist": params.effective_twist,
        "alexander": delta.to_terms(),
        "sigma": sigma,
        "arf": arf_val,
        "tau": inv.tau,
        "epsilon": inv.epsilon,
        "upsilon": inv.upsilon.to_json() if inv.upsilon else None,
        "upsilon_at_1": str(plfunc.upsilon_little(inv.upsilon)) if inv.upsilon else None,
        "cable_target_q": q,
        "cable_target_provenance": "reconstructed",
        "report": report.to_json(),
    }
    lines = [
        f"knot: {record.name}",
        f"effective twist (t + lambda): {params.effective_twist}",
        f"alexander: {delta}",
        f"sigma: {sigma}   arf: {arf_val}",
    ]
    if inv.tau is not None:
        ups = inv.upsilon
        bp = ", ".join(f"({s}, {v})" for s, v in ups.breakpoints)
        lines.append(f"tau: {inv.tau}   epsilon: "
                     f"{inv.epsilon if inv.epsilon is not None else 'unknown'}   "
                     f"upsilon(1): {plfunc.upsilon_little(ups)}")
        lines.append(f"Upsilon breakpoints: {bp}")
    lines.append(f"cable target: one band move at the clasp reaches the (2, {q})-cable "
                 f"of the companion  [reconstructed]")
    lines += _report_lines(report)[1:]
    _emit(args, payload, lines)
    return _exit_for(args, _verdict_obstructed(report))


def _cmd_obstruct(args, store) -> int:
    if args.all:
        reports = [aggregate(store.lookup(n)) for n in store.names()]
        payload = {"reports": [r.to_json() for r in reports]}
        lines = []
        for r in reports:
            lines += _report_lines(r)
            lines.append("")
        _emit(args, payload, lines[:-1] if lines else [])
        return _exit_for(args, any(_verdict_obstructed(r) for r in reports))
    record = _record_for(args, store)
    report = aggregate(record)
    _emit(args, report.to_json(), _report_lines(report))
    return _exit_for(args, _verdict_obstructed(report))


def _upsilon_source(args, store) -> PLFunction:
    if args.zero:
        return PLFunction.zero()
    if args.upsilon_file:
        with open(args.upsilon_file, encoding="utf-8") as fh:
            return PLFunction.from_json(json.load(fh))
    if args.upsilon_of:
        rec = store.lookup(args.upsilon_of)
        if rec.invariants.upsilon is None:
            raise ValueError(f"record {args.upsilon_of!r} stores no Upsilon function")
        return rec.invariants.upsilon
    raise ValueError("give --upsilon-of NAME, --upsilon-file FILE, or --zero")


def _cmd_cable_bounds(args, store) -> int:
    f = _upsilon_source(args, store)
    lower, upper = plfunc.cable_sandwich(f, args.p, args.q)
    payload = {
        "p": args.p,
        "q": args.q,
        "lower": lower.to_json(),
        "upper": upper.to_json(),
    }
    lines = [
        f"Upsilon envelopes for the ({args.p}, {args.q})-cable on [0, {lower.end}]:",
        f"lower breakpoints: {', '.join(f'({s}, {v})' for s, v in lower.breakpoints)}",
        f"upper breakpoints: {', '.join(f'({s}, {v})' for s, v in upper.breakpoints)}",
    ]
    if args.p == 2:
        lo, hi = plfunc.two_q_upsilon_interval(args.q)
        payload["upsilon_cable_interval"] = [str(lo), str(hi)]
        lines.append(f"two-cable corollary: upsilon(K_2,{args.q}) must lie in [{lo}, {hi}]")
    _emit(args, payload, lines)
    return 0


def _cmd_cobordism(args, store) -> int:
    check = CobordismCheck(
        upsilon_start=args.from_upsilon,
        upsilon_end=args.to_upsilon,
        euler=args.euler,
        betti=args.betti,
    )
    ok = plfunc.cobordism_inequality(check)
    lhs = abs(check.upsilon_start - check.upsilon_end + Fraction(check.euler, 4))
    payload = {
        "upsilon_start": str(check.upsilon_start),
        "upsilon_end": str(check.upsilon_end),
        "euler": check.euler,
        "betti": check.betti,
        "lhs": str(lhs),
        "bound": str(Fraction(check.betti, 2)),
        "consistent": ok,
    }
    lines = [
        f"|v(K0) - v(K1) + e/4| = {lhs} vs b1/2 = {Fraction(check.betti, 2)}",
        f"cobordism data {'consistent' if ok else 'OBSTRUCTED: no such surface'}",
    ]
    _emit(args, payload, lines)
    return _exit_for(args, not ok)


def _cmd_euler_range(args, store) -> int:
    lo, hi = plfunc.euler_number_range(args.upsilon, args.q)
    payload = {"upsilon": args.upsilon, "q": args.q, "euler_range": [lo, hi]}
    lines = [f"normal Euler numbers e(F) compatible with upsilon = {args.upsilon}, "
             f"q = {args.q}: [{lo}, {hi}]"]
    _emit(args, payload, lines)
    return 0


def _cmd_import(args, store) -> int:
    mapping = {}
    for item in args.map:
        if "=" not in item:
            raise ValueError(f"--map expects FIELD=COLUMN, got {item!r}")
        fieldname, column = item.split("=", 1)
        mapping[fieldname.strip()] = column.strip()
    added, diagnostics = knotdb.ingest_csv(store, args.csv, mapping)
    out_path = args.save or args.store or os.environ.get(STORE_ENV)
    if out_path:
        knotdb.save(store, out_path)
    payload = {"added": added, "diagnostics": diagnostics,
               "saved_to": out_path}
    lines = [f"imported {len(added)} record(s): {', '.join(added)}"]
    lines += [f"diagnostic: {d}" for d in diagnostics]
    if out_path:
        lines.append(f"store written to {out_path}")
    _emit(args, payload, lines)
    return 0


def _cmd_show(args, store) -> int:
    record = store.lookup(args.name)
    payload = record.to_json()
    inv = record.invariants
    lines = [f"knot: {record.name}"]
    if record.seifert_matrix is not None:
        lines.append(f"seifert matrix: {[list(r) for r in record.seifert_matrix.entries]}")
    if record.alexander is not None:
        lines.append(f"alexander: {record.alexander}")
    if record.sigma is not None:
        lines.append(f"sigma: {record.sigma}")
    if record.arf is not None:
        lines.append(f"arf: {record.arf}")
    for label, val in (("tau", inv.tau), ("epsilon", inv.epsilon), ("nu", inv.nu),
                       ("s", inv.s)):
        if val is not None:
            lines.append(f"{label}: {val}")
    for label, val in (("g4", inv.g4), ("gamma4", inv.gamma4), ("g3", inv.g3),
                       ("gamma3", inv.gamma3)):
        if val is not None:
            lines.append(f"{label}: {val}")
    if inv.upsilon is not None:
        bp = ", ".join(f"({s}, {v})" for s, v in inv.upsilon.breakpoints)
        lines.append(f"Upsilon breakpoints: {bp}")
    if record.provenance:
        prov = ", ".join(f"{k}={v}" for k, v in sorted(record.provenance.items()))
        lines.append(f"provenance: {prov}")
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once and shared by every main() call in a process.

    parse_args does not change a parser (`append` copies its default, and
    defaults go into each call's fresh Namespace); do not add to this one.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    common.add_argument("--store", help=f"store file (default: ${STORE_ENV} or built-in seeds)")
    common.add_argument("--fail-on-obstruction", action="store_true",
                        help="exit 1 when a sliceness obstruction fires")

    parser = argparse.ArgumentParser(
        prog="slicegate",
        description="Exact knot concordance invariants and 4-genus obstruction reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", parents=[common],
                       help="classical invariants of one knot or matrix file")
    p.add_argument("name", nargs="?", help="knot name in the store")
    p.add_argument("--matrix-file", help="JSON Seifert matrix file instead of a name")
    p.add_argument("--omega", action="append",
                   help="Levine-Tristram angle fraction a/b (repeatable)")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("whitehead", parents=[common],
                       help="full report for a twisted Whitehead double")
    p.add_argument("--clasp", required=True, choices=["+", "-"])
    p.add_argument("--twist", required=True, type=int)
    p.add_argument("--framing", type=int, default=0)
    p.add_argument("--companion", required=True)
    p.set_defaults(fn=_cmd_whitehead)

    p = sub.add_parser("obstruct", parents=[common],
                       help="aggregate every obstruction into a verdict report")
    p.add_argument("name", nargs="?")
    p.add_argument("--matrix-file")
    p.add_argument("--all", action="store_true", help="report every record in the store")
    p.set_defaults(fn=_cmd_obstruct)

    p = sub.add_parser("cable-bounds", parents=[common],
                       help="Upsilon envelopes for a (p, q)-cable")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--upsilon-of", help="knot name whose stored Upsilon to use")
    p.add_argument("--upsilon-file", help="JSON PL-function file")
    p.add_argument("--zero", action="store_true", help="use the zero Upsilon function")
    p.set_defaults(fn=_cmd_cable_bounds)

    p = sub.add_parser("cobordism", parents=[common],
                       help="check the upsilon/Euler-number cobordism inequality")
    p.add_argument("--from-upsilon", required=True, help="v(K0) as p/q")
    p.add_argument("--to-upsilon", required=True, help="v(K1) as p/q")
    p.add_argument("--euler", required=True, type=int, help="normal Euler number e(F)")
    p.add_argument("--betti", type=int, default=1, help="b1 of the cobordism surface")
    p.set_defaults(fn=_cmd_cobordism)

    p = sub.add_parser("euler-range", parents=[common],
                       help="allowed normal Euler numbers for a double-to-cable cobordism")
    p.add_argument("--upsilon", required=True, help="v of the double as p/q")
    p.add_argument("--q", required=True, type=int, help="odd cable parameter")
    p.set_defaults(fn=_cmd_euler_range)

    p = sub.add_parser("import", parents=[common], help="ingest a CSV invariant table")
    p.add_argument("--csv", required=True)
    p.add_argument("--map", action="append", required=True,
                   help="FIELD=COLUMN (repeatable); FIELD in name, seifert, alexander, "
                        "signature, arf, tau, epsilon, nu, s, g4, gamma4, g3, gamma3")
    p.add_argument("--save", help="write the merged store to this path")
    p.set_defaults(fn=_cmd_import)

    p = sub.add_parser("show", parents=[common], help="dump one stored record")
    p.add_argument("name")
    p.set_defaults(fn=_cmd_show)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_selectors(args)
        store = _load_store(args)
        return args.fn(args, store)
    except (ValueError, UnknownKnotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
