"""slicegate benchmark: seeded closed-loop workloads with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload cli-tour --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists): cli-tour, store-roundtrip,
high-genus.  With --trace 0 the run measures the end-to-end metrics with no
tracer installed; latency is gated as a ratio to a reference probe timed
after every op (see workloads.py), and the raw times are printed beside it.  With --trace 1 it alternates untraced and traced passes
of the same workload, derives per-layer numbers from the spans, times each
layer on a seeded ladder, and writes the spans to perfbench/_out/.  Earlier
stdout lines are a readable report; the last line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from workloads import Context, basic_failure

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "pass_per_ref": "ratio"}
TRACED_MODULES = ("cli", "knotdb", "seifert", "laurent", "obstruct", "whitehead", "plfunc")
SELF_TIME_METRICS = ("cli", "knotdb", "seifert", "laurent", "obstruct")
SEIFERT_KERNELS = ("seifert.signature", "seifert.arf", "seifert.alexander",
                   "seifert.determinant", "seifert.levine_tristram")


def layer_unit(name: str) -> str:
    if name.endswith(("_ratio", "_share")) or ".parallel_speedup." in name:
        return "ratio"
    return "count" if name.endswith("_per_record") else "ms"


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def commit_id() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


class Runner:
    """Runs passes of a workload and checks every op's output."""

    def __init__(self, workload):
        self.w = workload
        self.refs = {}                       # op label -> first good result
        self.failures: dict[str, str] = {}   # op label -> first problem
        self.ops_by_label: dict[str, int] = {}
        self.failed_by_label: dict[str, int] = {}

    @property
    def attempted(self) -> int:
        return sum(self.ops_by_label.values())

    @property
    def failed(self) -> int:
        return sum(self.failed_by_label.values())

    def fail(self, label: str, problem: str, count: int = 1) -> None:
        self.failures.setdefault(label, problem)
        self.failed_by_label[label] = min(self.ops_by_label[label],
                                          self.failed_by_label.get(label, 0) + count)

    def one_pass(self, rnd: int, tracer=None, probes: list | None = None):
        """Run every op once, each followed by a reference probe when `probes` is given.

        Returns [(op, seconds)].
        """
        times = []
        for op in self.w.ops():
            self.w.before(op, rnd)
            res = self.w.run(op) if tracer is None else self.w.run_traced(op, tracer)
            self.w.after(op, rnd)
            if probes is not None:
                probes.append(self.w.probe())
            self.ops_by_label[op.label] = self.ops_by_label.get(op.label, 0) + 1
            problem = basic_failure(op.argv, res)
            ref = self.refs.get(op.label)
            if problem is None and ref is not None and res.out != ref.out:
                problem = "output differs from the checked reference output"
            if problem is None and ref is None:
                self.refs[op.label] = res
            if problem:
                self.fail(op.label, problem)
            times.append((op, res.secs))
        return times


def measure_setup(w, reps: int) -> float:
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        w.setup()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_oracle(ctx, checks) -> list[str]:
    if not checks:
        return []
    path = ctx.path("oracle.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(checks, fh)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "oracle.py"), path],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"oracle failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def finish_checks(runner: Runner, w, ctx) -> None:
    """Check the reference outputs; an op whose reference is wrong failed every time."""
    bad = w.check_reference(runner.refs) if len(runner.refs) == len(w.ops()) else {}
    for key in run_oracle(ctx, w.sigma_checks):
        bad.setdefault(key, "sigma differs from the float eigenvalue count of V + V^T")
    for label, problem in bad.items():
        runner.fail(label, problem, count=runner.ops_by_label.get(label, 0))


def end_to_end(runner: Runner, w, ctx, seconds: float, setup_s: float):
    passes, probes = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(passes) < 2:
        passes.append(runner.one_pass(len(passes), probes=probes))
    if w.inprocess:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    finish_checks(runner, w, ctx)
    calls = [s * 1e3 for p in passes for _, s in p]
    call_p50 = statistics.median(calls)
    pass_s = statistics.median(sum(s for _, s in p) for p in passes)
    probe_ms = statistics.median(probes) * 1e3
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024,
        "pass_per_ref": pass_s * 1e3 / probe_ms,
    }
    # Per-call percentiles are printed, not gated: store-roundtrip mixes two ops
    # of unlike cost, so its p50 falls between them and its p90 in the slower
    # op's tail; across seeds they spread 16% and 34% (IQR/median).
    extra = {"cli_call_ms_p50": (call_p50, "ms"), "cli_call_ms_p90": (p90(calls), "ms"),
             "pass_s": (pass_s, "s"), "ref_probe_ms": (probe_ms, "ms"),
             "cli_call_samples": (len(calls), "count"), "passes": (len(passes), "count")}
    by_path: dict[str, list] = {}
    for p in passes:
        per = {}
        for op, s in p:
            per[op.path] = per.get(op.path, 0.0) + s
        for path, s in per.items():
            by_path.setdefault(path, []).append(s)
    records = w.records_processed()
    for path, vals in by_path.items():
        med = statistics.median(vals)
        if path in records:
            extra[f"{path}_records_per_s"] = (records[path] / med, "1/s")
        elif len(by_path) > 1:
            extra[f"{path}_pass_s"] = (med, "s")
    return metrics, extra


def per_layer(runner: Runner, w, ctx, seconds: float, seed_store: str, out_file: str):
    # imported here so that untraced runs keep the tracer and the pools out of the
    # process whose peak RSS they report
    import ladder
    from spans import Tracer, merge, self_times

    untraced, traced, span_log = [], [], []
    deadline = time.perf_counter() + seconds
    rnd = 0
    while time.perf_counter() < deadline or not traced:
        untraced.append(sum(s for _, s in runner.one_pass(rnd)))
        tracer = Tracer()
        if w.inprocess:
            tracer.install()
        try:
            traced.append(sum(s for _, s in runner.one_pass(rnd + 1, tracer)))
        finally:
            tracer.uninstall()
        span_log.append(tracer.spans)
        rnd += 2
    finish_checks(runner, w, ctx)

    all_spans = merge(span_log)
    agg = [i for i, s in enumerate(all_spans) if s[0] == "obstruct.aggregate"]
    agg_ms = [(all_spans[i][3] - all_spans[i][2]) * 1e3 for i in agg]
    agg_self = self_times(all_spans, subtract={"seifert", "laurent"})
    kernel_calls = sum(1 for s in all_spans if s[0] in SEIFERT_KERNELS)
    fm = sum(1 for s in all_spans if s[0] == "laurent.fox_milnor")
    factor = sum(1 for s in all_spans if s[0] == "laurent.factor")
    module_self: dict[str, list] = {m: [] for m in TRACED_MODULES}
    for spans in span_log:
        st = self_times(spans)
        for m in TRACED_MODULES:
            module_self[m].append(sum(t for t, s in zip(st, spans) if s[1] == m) * 1e3)
    metrics = {
        "obstruct.aggregate_ms_p50": statistics.median(agg_ms),
        "obstruct.aggregate_ms_p90": p90(agg_ms),
        "obstruct.aggregate_self_ms": statistics.median(agg_self[i] for i in agg) * 1e3,
        "seifert.calls_per_record": kernel_calls / len(agg),
        "laurent.factor_share": factor / fm,
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced),
    }
    for m in SELF_TIME_METRICS:
        metrics[f"self_ms.{m}"] = statistics.median(module_self[m])
    metrics.update(ladder.run_all(ctx, seed_store))

    os.makedirs(os.path.dirname(out_file), exist_ok=True)
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "module", "start", "end", "parent", "op"],
                   "self_ms_per_pass": {m: statistics.median(v)
                                        for m, v in module_self.items()},
                   "passes": span_log}, fh)
    extra = {f"self_ms.{m}": (statistics.median(module_self[m]), "ms")
             for m in TRACED_MODULES if m not in SELF_TIME_METRICS}
    extra["spans_recorded"] = (len(all_spans), "count")
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli-tour", "store-roundtrip", "high-genus"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "slicegate", "cli.py")):
        print("error: run from the repository root (src/slicegate/ not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.environ.pop("SLICEGATE_STORE", None)

    work = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    ctx = Context(root=ROOT, work=work, seed=args.seed, size=workloads.SIZES[args.size],
                  env=workloads.child_env(ROOT))
    w = workloads.WORKLOADS[args.workload](ctx)
    if w.inprocess:
        import slicegate.cli  # noqa: F401  (warm import, outside the setup timing)
    try:
        setup_s = measure_setup(w, ctx.size["setup_reps"])
        runner = Runner(w)
        if args.trace:
            seed_store = ctx.path("ladder-seed-store.json")
            res = workloads.run_inprocess(workloads.seed_store_argv(ctx, seed_store))
            if res.code != 0 or workloads.store_size(seed_store) != 4:
                raise RuntimeError(f"could not write the seed store: {res.err.strip()}")
            out_file = os.path.join(HERE, "_out", f"{args.workload}-seed{args.seed}.json")
            metrics, extra = per_layer(runner, w, ctx, args.seconds, seed_store, out_file)
            units = {k: layer_unit(k) for k in metrics}
        else:
            metrics, extra = end_to_end(runner, w, ctx, args.seconds, setup_s)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}  "
          f"size: {args.size}")
    print(f"python: {platform.python_version()}  nproc: {os.cpu_count()}  "
          f"commit: {commit_id()}")
    for label, problem in sorted(runner.failures.items()):
        print(f"FAILED op {label}: {problem}")
    print(f"ops_failed_ratio = {runner.failed / runner.attempted} ratio "
          f"({runner.failed} of {runner.attempted} ops)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
