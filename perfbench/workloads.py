"""The three workloads: their inputs, their ops and the checks on each op's output.

Every workload is a closed loop with one client: a list of ops (one CLI
command each) is run pass after pass, and the next op starts only when the
previous one has ended.  The program sees only the files generated here.

After each op the workload times a fixed reference probe that does not touch
slicegate.  The shared machine this benchmark was built on changed speed by
30-75% over minutes, and the probe changed with it, so the gated latency
metric is pass time over probe time.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import gen
from spans import merge

HERE = os.path.dirname(os.path.abspath(__file__))

# Workload sizes.  "tiny" exists for the smoke test only.
SIZES = {
    "full": {
        "store": {"matrices_per_n": 10, "sizes": (2, 4, 6, 8, 10, 12), "doubles": 40,
                  "alex_rows": 40},
        "hg_invariants": (8, 16, 20),
        "hg_obstruct": (16, 20, 32, 40),
        "hg_polys": {"genera": (2, 3, 4, 5, 6), "per_family": 2},
        "setup_reps": 3,
        "ladder_reps": 5,
    },
    "tiny": {
        "store": {"matrices_per_n": 2, "sizes": (2, 4), "doubles": 4, "alex_rows": 4},
        "hg_invariants": (4,),
        "hg_obstruct": (4, 6),
        "hg_polys": {"genera": (2, 3), "per_family": 1},
        "setup_reps": 1,
        "ladder_reps": 1,
    },
}

OMEGAS = ("1/3", "2/5")
SIGMA_NOTE = re.compile(r"^sigma = (-?\d+) != 0 obstructs smooth sliceness$")


@functools.cache
def probe_inputs():
    """Fixed inputs of the in-process reference probe (independent of the run seed)."""
    rng = random.Random("reference-probe")
    matrix = gen.make_valid_seifert(rng, 12)
    doc = [{"name": f"k{i}", "seifert": gen.make_valid_seifert(rng, 8),
            "alexander": gen.alexander_only(rng, 3)} for i in range(150)]
    return matrix, doc


@dataclass
class Op:
    label: str   # unique within a pass; outputs of equal labels must be identical
    path: str    # which path of the workload the op exercises
    argv: list


@dataclass
class Result:
    code: object
    out: str
    err: str
    secs: float


@dataclass
class Context:
    root: str
    work: str
    seed: int
    size: dict
    env: dict = field(default_factory=dict)

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SLICEGATE_STORE"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_inprocess(argv) -> Result:
    """Call slicegate.cli.main(argv) with stdout and stderr captured."""
    from slicegate import cli
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # the op failed; record the traceback and keep measuring
        code = None
        err.write(traceback.format_exc())
    return Result(code, out.getvalue(), err.getvalue(), time.perf_counter() - t0)


def run_subprocess(ctx: Context, cmd) -> Result:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *cmd], cwd=ctx.root, env=ctx.env,
                          capture_output=True, text=True, timeout=120)
    return Result(proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0)


def basic_failure(argv, res: Result) -> str | None:
    if res.code != 0:
        return f"exit code {res.code}"
    if "Traceback" in res.err:
        return "traceback on stderr"
    if "--json" in argv:
        try:
            json.loads(res.out)
        except ValueError:
            return "output is not JSON"
    return None


def seed_store_argv(ctx: Context, path: str) -> list:
    """CLI arguments that write the built-in seed knots to `path` (import of an empty table)."""
    empty = ctx.path("empty.csv")
    with open(empty, "w", encoding="utf-8") as fh:
        fh.write("name\n")
    if os.path.exists(path):
        os.remove(path)
    return ["import", "--csv", empty, "--map", "name=name", "--save", path]


def store_size(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return len(json.load(fh)["records"])


def reported_sigma(report) -> int:
    for rule in report["applied_rules"]:
        m = SIGMA_NOTE.match(rule["contribution"])
        if m:
            return int(m.group(1))
    return 0


def check_reports(doc, rows, seeds=("unknot", "3_1", "4_1", "6_1")) -> list[str]:
    """Problems in an `obstruct --all --json` document against the expected rows."""
    reports = {r["name"]: r for r in doc["reports"]}
    if len(doc["reports"]) != len(rows) + len(seeds) or set(reports) != (
            {r["name"] for r in rows} | set(seeds)):
        return [f"{len(doc['reports'])} reports for {len(rows) + len(seeds)} records"]
    bad = []
    for row in rows:
        rep, exp = reports[row["name"]], row["expect"]
        if exp["sigma"] is not None and reported_sigma(rep) != exp["sigma"]:
            bad.append(f"{row['name']}: sigma {reported_sigma(rep)} != {exp['sigma']}")
        arf_one = any(r["contribution"] == "Arf = 1 obstructs smooth sliceness"
                      for r in rep["applied_rules"])
        if exp["arf"] is not None and arf_one != (exp["arf"] == 1):
            bad.append(f"{row['name']}: Arf disagrees with Murasugi")
        fm_fails = rep["verdict"]["topologically_slice"] == "no"
        if exp["fox_milnor"] is not None and fm_fails == exp["fox_milnor"]:
            bad.append(f"{row['name']}: Fox-Milnor verdict, expected passes="
                       f"{exp['fox_milnor']}")
    return bad


def check_invariants(doc, entries, omegas=len(OMEGAS)) -> list[str]:
    """Problems in an `invariants --json` document for the matrix `entries`."""
    n = len(entries)
    terms = doc["alexander"]
    det = gen.det_int([[entries[i][j] + entries[j][i] for j in range(n)] for i in range(n)])
    bad = []
    if doc["determinant"] != abs(int(gen.eval_terms(terms, -1))) or doc["determinant"] != abs(det):
        bad.append("determinant differs from |Delta(-1)|")
    if doc["arf"] != gen.arf_from_det(det):
        bad.append("Arf disagrees with Murasugi")
    if n <= 20 and terms != gen.alexander_terms(entries):
        bad.append("Alexander polynomial differs from det(V - tV^T)")
    if len(doc["levine_tristram"]) != omegas:
        bad.append("missing Levine-Tristram values")
    return bad


class Workload:
    """Base: subclasses define setup(), ops() and check_reference()."""

    inprocess = True

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.sigma_checks: list[dict] = []  # handed to the float oracle

    def run(self, op: Op) -> Result:
        return run_inprocess(op.argv)

    def probe(self) -> float:
        """Seconds for fixed pure-Python work like the program's: exact arithmetic and JSON."""
        matrix, doc = probe_inputs()
        t0 = time.perf_counter()
        gen.alexander_terms(matrix)
        for _ in range(3):
            json.loads(json.dumps(doc))
        return time.perf_counter() - t0

    def run_traced(self, op: Op, tracer) -> Result:
        """Run with the tracer, already installed in this process, tagging spans by op."""
        tracer.op = op.label
        return self.run(op)

    def before(self, op: Op, rnd: int) -> None:
        """Per-op preparation outside the timed region (fresh paths, assertions)."""

    def after(self, op: Op, rnd: int) -> None:
        """Per-op cleanup outside the timed region."""

    def records_processed(self) -> dict:
        return {}


class CliTour(Workload):
    """README CLI tour, one `python -m slicegate.cli` subprocess per op."""

    inprocess = False
    TOUR = (
        ("invariants", ["invariants", "4_1", "--omega", "1/4"]),
        ("whitehead+3", ["whitehead", "--clasp", "+", "--twist", "3", "--companion", "unknot"]),
        ("whitehead+0", ["whitehead", "--clasp", "+", "--twist", "0", "--companion", "4_1"]),
        ("obstruct", ["obstruct", "4_1", "--json"]),
        ("obstruct-all", ["obstruct", "--all"]),
        ("cable-bounds-zero", ["cable-bounds", "--p", "2", "--q", "1", "--zero"]),
        ("cable-bounds-3_1", ["cable-bounds", "--p", "2", "--q", "3", "--upsilon-of", "3_1"]),
        ("cobordism", ["cobordism", "--from-upsilon", "0", "--to-upsilon=-1/2", "--euler",
                       "-2", "--betti", "1"]),
        ("euler-range", ["euler-range", "--upsilon", "0", "--q", "1"]),
        ("show", ["show", "3_1"]),
    )

    def setup(self) -> None:
        self.store = self.ctx.path("seed_store.json")
        res = run_subprocess(self.ctx, ["-m", "slicegate.cli",
                                        *seed_store_argv(self.ctx, self.store)])
        if res.code != 0 or not os.path.exists(self.store) or store_size(self.store) != 4:
            raise RuntimeError(f"could not write the seed store: {res.err.strip()}")

    def ops(self) -> list[Op]:
        return [Op(label, "tour", [*argv, "--store", self.store]) for label, argv in self.TOUR]

    def run(self, op: Op) -> Result:
        return run_subprocess(self.ctx, ["-m", "slicegate.cli", *op.argv])

    def probe(self) -> float:
        """Seconds for `python -c pass`: process creation plus interpreter start."""
        return run_subprocess(self.ctx, ["-c", "pass"]).secs

    def run_traced(self, op: Op, tracer) -> Result:
        """Run the op in a child that installs the tracer; adopt the child's spans."""
        spans_file = self.ctx.path("child-spans.json")
        res = run_subprocess(self.ctx, [os.path.join(HERE, "traced_cli.py"), spans_file,
                                        "--", *op.argv])
        if os.path.exists(spans_file):
            with open(spans_file, encoding="utf-8") as fh:
                child = [[*span[:5], op.label] for span in json.load(fh)]
            os.remove(spans_file)
            tracer.spans[:] = merge([tracer.spans, child])
        return res

    def check_reference(self, refs: dict) -> dict:
        """Check the JSON twin of every tour op; returns label -> problem."""
        bad = {}
        twins = {}
        for op in self.ops():
            argv = op.argv if "--json" in op.argv else [*op.argv, "--json"]
            res = self.run(Op(op.label, op.path, argv))
            problem = basic_failure(argv, res)
            if problem:
                bad[op.label] = problem
            else:
                twins[op.label] = json.loads(res.out)
        inv = twins.get("invariants")
        if inv is not None:
            entries = stored_matrix(self.ctx, "4_1", self.store)
            problems = check_invariants(inv, entries, omegas=1)
            if problems:
                bad["invariants"] = "; ".join(problems)
            self.sigma_checks.append({"key": "invariants", "entries": entries,
                                      "sigma": inv["sigma"]})
        if "obstruct-all" in twins and len(twins["obstruct-all"]["reports"]) != 4:
            bad["obstruct-all"] = "report count differs from the record count"
        return bad


def stored_matrix(ctx: Context, name: str, store: str):
    """Seifert matrix entries of a stored knot, read through `show --json`."""
    res = run_subprocess(ctx, ["-m", "slicegate.cli", "show", name, "--json", "--store", store])
    return json.loads(res.out)["seifert_matrix"]["entries"]


class StoreRoundtrip(Workload):
    """CSV import into a fresh store (write path), then `obstruct --all` on it (read path)."""

    def setup(self) -> None:
        rng = random.Random(self.ctx.seed)
        self.rows = gen.store_rows(rng, **self.ctx.size["store"])
        self.csv = self.ctx.path("gen.csv")
        gen.write_csv(self.csv, self.rows)
        self.expected = len(self.rows) + 4

    def _store(self, rnd: int) -> str:
        return self.ctx.path(f"roundtrip-{rnd}.json")

    def ops(self) -> list[Op]:
        maps = [a for m in gen.CSV_MAP for a in ("--map", m)]
        return [Op("import", "import", ["import", "--csv", self.csv, *maps, "--save",
                                        "{store}", "--json"]),
                Op("obstruct-all", "obstruct_all", ["obstruct", "--all", "--json", "--store",
                                                    "{store}"])]

    def run(self, op: Op) -> Result:
        res = run_inprocess([self._current if a == "{store}" else a for a in op.argv])
        res.out = res.out.replace(self._current, "{store}")  # every round saves elsewhere
        return res

    def before(self, op: Op, rnd: int) -> None:
        self._current = self._store(rnd)
        if op.label == "import":
            if os.path.exists(self._current):
                os.remove(self._current)
        elif not os.path.exists(self._current) or store_size(self._current) != self.expected:
            raise RuntimeError(f"store {self._current} is missing or has the wrong size")

    def after(self, op: Op, rnd: int) -> None:
        if op.label == "obstruct-all" and os.path.exists(self._current):
            os.remove(self._current)

    def check_reference(self, refs: dict) -> dict:
        bad = {}
        doc = json.loads(refs["import"].out)
        if sorted(doc["added"]) != sorted(r["name"] for r in self.rows) or doc["diagnostics"]:
            bad["import"] = "imported names or diagnostics differ from the generated table"
        problems = check_reports(json.loads(refs["obstruct-all"].out), self.rows)
        if problems:
            bad["obstruct-all"] = "; ".join(problems[:3])
        reports = {r["name"]: r for r in json.loads(refs["obstruct-all"].out)["reports"]}
        for row in self.rows:
            if "seifert" in row and row["name"] in reports:
                self.sigma_checks.append({"key": "obstruct-all",
                                          "entries": row["seifert"]["entries"],
                                          "sigma": reported_sigma(reports[row["name"]])})
        return bad

    def records_processed(self) -> dict:
        return {"import": len(self.rows), "obstruct_all": self.expected}


class HighGenus(Workload):
    """Large Seifert matrices (part a) and high-genus Alexander polynomials (part b)."""

    def setup(self) -> None:
        rng = random.Random(self.ctx.seed)
        size = self.ctx.size
        self.matrices = {}
        sizes = set(size["hg_invariants"]) | set(size["hg_obstruct"])
        for n, entries in gen.high_genus_matrices(rng, sizes).items():
            path = self.ctx.path(f"mat{n}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"n": n, "entries": entries}, fh)
            self.matrices[n] = (path, entries)
        self.polys = gen.high_genus_polys(rng, **size["hg_polys"])
        csv_path = self.ctx.path("polys.csv")
        gen.write_csv(csv_path, self.polys)
        self.store = self.ctx.path("hg_store.json")
        if os.path.exists(self.store):
            os.remove(self.store)
        res = run_inprocess(["import", "--csv", csv_path, "--map", "name=name", "--map",
                             "alexander=alexander", "--save", self.store])
        if res.code != 0 or store_size(self.store) != len(self.polys) + 4:
            raise RuntimeError(f"could not write the polynomial store: {res.err.strip()}")

    def ops(self) -> list[Op]:
        size = self.ctx.size
        omegas = [a for w in OMEGAS for a in ("--omega", w)]
        ops = [Op(f"invariants-n{n}", "matrix",
                  ["invariants", "--matrix-file", self.matrices[n][0], *omegas, "--json"])
               for n in size["hg_invariants"]]
        ops += [Op(f"obstruct-n{n}", "matrix",
                   ["obstruct", "--matrix-file", self.matrices[n][0], "--json"])
                for n in size["hg_obstruct"]]
        ops.append(Op("obstruct-all", "alexander",
                      ["obstruct", "--all", "--json", "--store", self.store]))
        return ops

    def check_reference(self, refs: dict) -> dict:
        bad = {}
        for op in self.ops():
            doc = json.loads(refs[op.label].out)
            if op.path == "alexander":
                problems = check_reports(doc, self.polys)
                if problems:
                    bad[op.label] = "; ".join(problems[:3])
                continue
            n = int(op.label.rsplit("-n", 1)[1])
            entries = self.matrices[n][1]
            if op.label.startswith("invariants"):
                problems = check_invariants(doc, entries)
                if problems:
                    bad[op.label] = "; ".join(problems)
                sigma = doc["sigma"]
            else:
                sigma = reported_sigma(doc)
            self.sigma_checks.append({"key": op.label, "entries": entries, "sigma": sigma})
        return bad


WORKLOADS = {"cli-tour": CliTour, "store-roundtrip": StoreRoundtrip, "high-genus": HighGenus}
