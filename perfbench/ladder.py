"""Per-layer timings on fixed, seeded inputs, taken from outside the package.

Each entry times calls into one module's public functions directly (no CLI
parsing, no tracer), so a layer's number moves only when that layer does.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from multiprocessing import get_context, resource_tracker

import gen
from workloads import CliTour, Context, run_inprocess, run_subprocess

LADDER_N = (8, 16, 20, 32, 40)
ARF_MAX_N = 20
LADDER_GENERA = (2, 3, 4, 5, 6)
STARTUP = (("python", ["-c", "pass"]),
           ("import_numpy", ["-c", "import numpy"]),
           ("import_slicegate", ["-c", "import slicegate"]))


def timed_ms(fn, reps: int) -> float:
    """Median wall time of `reps` calls, in milliseconds."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def startup(ctx: Context, reps: int) -> dict:
    samples = {name: [] for name, _ in STARTUP}
    for _ in range(reps):  # interleaved, so drift in machine load hits all three alike
        for name, cmd in STARTUP:
            samples[name].append(run_subprocess(ctx, cmd).secs)
    return {f"startup.{name}_ms": statistics.median(v) * 1e3 for name, v in samples.items()}


def cli_main(store: str, reps: int) -> dict:
    samples: dict[str, list] = {}
    for _ in range(reps):
        for _, argv in CliTour.TOUR:
            res = run_inprocess([*argv, "--store", store])
            if res.code != 0:
                raise RuntimeError(f"in-process {argv} failed: {res.err.strip()}")
            samples.setdefault(argv[0], []).append(res.secs)
    return {f"cli.main_ms.{sub}": statistics.median(v) * 1e3 for sub, v in samples.items()}


def knotdb_layer(ctx: Context, reps: int) -> tuple[dict, list]:
    from slicegate import knotdb
    rows = gen.store_rows(random.Random(ctx.seed), **ctx.size["store"])
    csv_path, saved = ctx.path("ladder.csv"), ctx.path("ladder-store.json")
    gen.write_csv(csv_path, rows)
    mapping = {f: f for f in gen.CSV_FIELDS}
    out = {"knotdb.seed_table_ms": timed_ms(knotdb.seed_table, reps)}
    out["knotdb.ingest_csv_ms"] = timed_ms(
        lambda: knotdb.ingest_csv(knotdb.seed_table(), csv_path, mapping), reps
    ) - out["knotdb.seed_table_ms"]
    store = knotdb.seed_table()
    knotdb.ingest_csv(store, csv_path, mapping)
    out["knotdb.save_ms"] = timed_ms(lambda: knotdb.save(store, saved), reps)
    out["knotdb.load_ms"] = timed_ms(lambda: knotdb.load(saved), reps)
    records = knotdb.load(saved).records()
    out["knotdb.validate_ms_p50"] = statistics.median(
        timed_ms(r.validate, 1) for r in records)
    return out, records


def stop_resource_tracker() -> None:
    """Stop the helper process that spawn pools start, and wait for it to end.

    Left alone it outlives this process by a moment; the standard library has
    no public call that stops it, so this uses the one its own tests use.
    """
    resource_tracker._resource_tracker._stop()


def parallel(records: list, reps: int) -> dict:
    """Sequential versus thread-pool versus spawn-process-pool `aggregate` over records."""
    from slicegate.obstruct import aggregate
    workers = os.cpu_count() or 1

    def seq():
        return [aggregate(r) for r in records]

    expected = seq()
    out = {}
    with ThreadPoolExecutor(workers) as pool:
        if list(pool.map(aggregate, records)) != expected:
            raise RuntimeError("thread-pool aggregate differs from sequential")
        thread_ms = timed_ms(lambda: list(pool.map(aggregate, records)), reps)
    try:
        with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
            chunk = max(1, len(records) // (4 * workers))
            t0 = time.perf_counter()
            if list(pool.map(aggregate, records, chunksize=chunk)) != expected:
                raise RuntimeError("process-pool aggregate differs from sequential")
            out["obstruct.process_pool_first_map_ms"] = (time.perf_counter() - t0) * 1e3
            process_ms = timed_ms(lambda: list(pool.map(aggregate, records, chunksize=chunk)),
                                  reps)
    finally:
        stop_resource_tracker()
    seq_ms = timed_ms(seq, reps)
    out["obstruct.parallel_speedup.thread"] = seq_ms / thread_ms
    out["obstruct.parallel_speedup.process"] = seq_ms / process_ms
    return out


def seifert_layer(seed: int) -> dict:
    from slicegate import seifert
    out = {}
    for n, entries in gen.high_genus_matrices(random.Random(seed), LADDER_N).items():
        v = seifert.SeifertMatrix(entries)
        reps = 3 if n <= ARF_MAX_N else 1
        kernels = {"SeifertMatrix": lambda: seifert.SeifertMatrix(entries),
                   "signature": lambda: seifert.signature(v),
                   "determinant": lambda: seifert.determinant(v),
                   "alexander": lambda: seifert.alexander(v),
                   "levine_tristram": lambda: seifert.levine_tristram(v, "1/3")}
        if n <= ARF_MAX_N:
            kernels["arf"] = lambda: seifert.arf(v)
        for name, fn in kernels.items():
            out[f"seifert.{name}.n{n}_ms"] = timed_ms(fn, reps)
    return out


def laurent_layer(seed: int) -> dict:
    """fox_milnor per genus (median over the two families) and factor alone."""
    from slicegate import laurent
    rows = gen.high_genus_polys(random.Random(seed), LADDER_GENERA, per_family=1)
    by_genus: dict[int, list] = {}
    factor_ms = []
    for row in rows:
        p = laurent.LaurentPoly.from_terms(row["alexander"])
        by_genus.setdefault(p.max_exp - p.min_exp, []).append(
            timed_ms(lambda: laurent.fox_milnor(p), 1))
        q, _ = laurent.normalize(p)
        factor_ms.append(timed_ms(lambda: laurent.factor(q), 1))
    out = {f"laurent.fox_milnor.g{deg // 2}_ms": statistics.median(v)
           for deg, v in sorted(by_genus.items())}
    out["laurent.factor_ms"] = statistics.median(factor_ms)
    return out


def controls(reps: int) -> dict:
    from slicegate import knotdb, plfunc
    from slicegate.whitehead import WhiteheadParams
    seeds = knotdb.seed_table()
    unknot, ups = seeds.lookup("unknot"), seeds.lookup("3_1").invariants.upsilon
    params = WhiteheadParams("+", 3, 0, "unknot")
    return {
        "whitehead.double_record_ms": timed_ms(
            lambda: knotdb.whitehead_double_record(params, unknot), reps * 20),
        "plfunc.cable_sandwich_ms": timed_ms(lambda: plfunc.cable_sandwich(ups, 2, 3),
                                             reps * 20),
    }


def run_all(ctx: Context, seed_store: str) -> dict:
    reps = ctx.size["ladder_reps"]
    out = startup(ctx, reps)
    out.update(cli_main(seed_store, reps))
    knot, records = knotdb_layer(ctx, reps)
    out.update(knot)
    out.update(parallel(records, max(1, reps // 2)))
    out.update(seifert_layer(ctx.seed))
    out.update(laurent_layer(ctx.seed))
    out.update(controls(reps))
    return out
