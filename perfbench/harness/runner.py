"""One benchmark run: set-up, warm-up, the measured loop and, with
tracing on, the per-layer figures.

Untraced runs report the end-to-end metrics; traced runs report the
per-layer metrics, and measure untraced/traced pairs of units so the
tracing overhead is measured in the same run.
"""
from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass, field
from statistics import median

from harness import layers, procfs
from harness import spark as S
from harness import workloads as W
from harness.spans import NullTracer, Tracer
from harness.stats import percentile

NULL = NullTracer()

#: end-to-end metrics (tracing off): name -> unit
END_TO_END = {
    "setup_s": "s",
    "ingest_s": "s",
    "bsi_bytes_ratio": "ratio",
    "bsi_batch_s": "s",
    "normal_batch_s": "s",
    "bsi_cpu_s": "CPU-s",
    "normal_cpu_s": "CPU-s",
    "peak_rss_mb": "MB",
}

#: per-layer timings read from probe spans: name -> (span, unit, scale)
SPAN_METRICS = {
    "containers.c_and.us": ("containers.c_and", "us", 1e6),
    "containers.c_or.us": ("containers.c_or", "us", 1e6),
    "containers.popcount_rows.us": ("containers.popcount_rows", "us", 1e6),
    "bitmap.and.us": ("bitmap.and", "us", 1e6),
    "bitmap.or.us": ("bitmap.or", "us", 1e6),
    "bitmap.cardinality.us": ("bitmap.cardinality", "us", 1e6),
    "bitmap.deserialize.us": ("bitmap.deserialize", "us", 1e6),
    "bitmap.contains_array.us": ("bitmap.contains_array", "us", 1e6),
    "bsi.deserialize.ms": ("bsi.deserialize", "ms", 1e3),
    "bsi.densify.ms": ("bsi.densify", "ms", 1e3),
    "bsi.le_const.ms": ("bsi.le_const", "ms", 1e3),
    "bsi.eq_const.ms": ("bsi.eq_const", "ms", 1e3),
    "bsi.sum_filtered.ms": ("bsi.sum_filtered", "ms", 1e3),
    "bsi.add.ms": ("bsi.add", "ms", 1e3),
    "bsi.from_arrays.ms": ("bsi.from_arrays", "ms", 1e3),
    "bsi.serialize.ms": ("bsi.serialize", "ms", 1e3),
    "scorecard.cogroup.ms_per_segment": ("scorecard.cogroup", "ms", 1e3),
    "scorecard.cogroup.deserialize_ms": ("scorecard.cogroup.deserialize", "ms", 1e3),
    "scorecard.cogroup.predicate_ms": ("scorecard.cogroup.predicate", "ms", 1e3),
    "scorecard.cogroup.aggregate_ms": ("scorecard.cogroup.aggregate", "ms", 1e3),
    "scorecard.bucketed.ms_per_row": ("scorecard.bucketed", "ms", 1e3),
    "preexperiment.preperiod_sum.ms_per_segment": ("preexperiment.preperiod_sum", "ms", 1e3),
    "deepdive.dim_filter.ms_per_segment": ("deepdive.dim_filter", "ms", 1e3),
}

#: per-layer counts returned by the probes: name -> unit
PROBE_COUNTS = {
    "bsi.slices.mean": "count",
    "bsi.containers.array": "count",
    "bsi.containers.bitset": "count",
    "bsi.containers.run": "count",
    "bsi.bytes": "bytes",
    "scorecard.bucketed.useful_frac": "fraction",
}

#: Spark stage metrics of one BSI operation: name -> unit
SPARK_METRICS = {
    "spark.jobs": "count",
    "spark.stages": "count",
    "spark.tasks": "count",
    "spark.executor_run_s": "s",
    "spark.executor_cpu_s": "CPU-s",
    "spark.jvm_gc_s": "s",
    "spark.python_cpu_s": "CPU-s",
    "spark.shuffle_read_bytes": "bytes",
    "spark.shuffle_write_bytes": "bytes",
    "spark.peak_execution_memory_bytes": "bytes",
    "spark.shuffle_bytes_per_bsi_byte": "ratio",
}

OTHER_LAYER = {
    "adhoc.bsi.cells_per_s": "1/s",
    "adhoc.normal.cells_per_s": "1/s",
    "encode.metric_log_to_bsi.s": "s",
    "encode.expose_log_to_bsi.s": "s",
    "encode.dimension_log_to_bsi.s": "s",
    "encode.rows_per_s": "1/s",
    "storage.bsi_bytes": "bytes",
    "storage.normal_bytes": "bytes",
    "storage.bsi_lz4_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

PER_LAYER = {
    **{k: v[1] for k, v in SPAN_METRICS.items()},
    **PROBE_COUNTS, **SPARK_METRICS, **OTHER_LAYER,
}


@dataclass
class Run:
    """What one run measured, before it becomes metrics."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)
    tracer: Tracer | None = None


class Units(list):
    """Measured units (lists of OpResults) and their wall times."""

    def __init__(self) -> None:
        super().__init__()
        self.walls: list[float] = []

    def run(self, unit, *args) -> None:
        t = time.perf_counter()
        self.append(unit(*args))
        self.walls.append(time.perf_counter() - t)


def _loop(warm_unit, unit, seconds: float, traced: bool, min_units: int = W.MIN_UNITS):
    """Warm up until two units in a row agree within W.STEADY (at most
    W.WARM_MAX units, however long a unit takes), then run units until
    ``seconds`` have passed and at least ``min_units`` ran. Traced runs
    pair every untraced unit with a traced one, the traced unit first in
    every other pair so neither side always runs on the warmer process.
    Returns (warm-up, plain, traced, steady): each unit a list of
    OpResults, and whether the warm-up ended by the steadiness test."""
    warm, prev, steady = [], None, False
    while len(warm) < W.WARM_MAX and not steady:
        u = warm_unit()
        warm.append(u)
        wall = sum(r.wall for r in u if r.ok)
        steady = prev is not None and abs(wall - prev) <= W.STEADY * prev
        prev = wall
    plain, trc = Units(), Units()
    t0 = time.perf_counter()
    while len(plain) < min_units or time.perf_counter() - t0 < seconds:
        if traced and len(plain) % 2:
            trc.run(unit, True)
            plain.run(unit, False)
        else:
            plain.run(unit, False)
            if traced:
                trc.run(unit, True)
    return warm, plain, trc, steady


def _batch(units, fmt: str, what: str) -> list[float]:
    """Per unit, the sum over its operations of one format's wall time
    (``what="wall"``) or process-tree CPU (``what="cpu"``)."""
    out = []
    for u in units:
        ok = [r for r in u if r.ok]
        if ok:
            out.append(sum(getattr(r, fmt).wall if what == "wall" else getattr(r, fmt).cpu["total"]
                           for r in ok))
    return out


def _tally(run: Run, units) -> None:
    for u in units:
        for r in u:
            run.attempted += 1
            if not r.ok:
                run.failed += 1
                run.problems.extend(r.problems[:3])


def _end_to_end(run: Run, setup_s, setups, ingest_s, ratio, warm, steady, plain, rss) -> None:
    def med(xs):  # no operation succeeded: no figure, not a zero
        return median(xs) if xs else None

    run.metrics.update(
        setup_s=setup_s,
        ingest_s=ingest_s,
        bsi_bytes_ratio=ratio,
        bsi_batch_s=med(_batch(plain, "bsi", "wall")),
        normal_batch_s=med(_batch(plain, "normal", "wall")),
        bsi_cpu_s=med(_batch(plain, "bsi", "cpu")),
        normal_cpu_s=med(_batch(plain, "normal", "cpu")),
        peak_rss_mb=rss,
    )
    run.counts["batches"] = len(plain)
    run.info["warmup_walls"] = [sum(r.wall for r in u if r.ok) for u in warm]
    run.info["warmup_steady"] = steady
    run.info["setup_walls"] = setups
    run.info["bsi_batch_walls"] = _batch(plain, "bsi", "wall")
    run.info["normal_batch_walls"] = _batch(plain, "normal", "wall")


def _storage(run: Run, blobs: list[bytes], normal_rows: int) -> None:
    from repro.platform import storage as ST

    keys = ST.BSI_KEY_BYTES * len(blobs)
    run.metrics["storage.bsi_bytes"] = keys + sum(len(b) for b in blobs)
    run.metrics["storage.normal_bytes"] = ST.NORMAL_ROW_BYTES * normal_rows
    run.metrics["storage.bsi_lz4_bytes"] = keys + sum(ST.compressed_size(b) for b in blobs)


def _layers(run: Run, tracer: Tracer, counts: dict, plain, trc) -> None:
    for name, (span, _unit, scale) in SPAN_METRICS.items():
        run.metrics[name] = tracer.per_call(span) * scale
    run.metrics.update(counts)
    for fmt in ("bsi", "normal"):
        per_cell = tracer.per_call(f"adhoc.query_{fmt}")
        run.metrics[f"adhoc.{fmt}.cells_per_s"] = 1.0 / per_cell if per_cell else 0.0
    run.metrics["trace.overhead_s"] = median([t - p for t, p in zip(trc.walls, plain.walls)])
    run.metrics["trace.spans"] = len(tracer.spans)


def spark_workload(name: str, seed: int, seconds: float, traced: bool, src: str, workdir: str) -> Run:
    shape = W.SHAPES[name]
    tracer = Tracer() if traced else NULL
    run = Run(tracer=tracer if traced else None)
    t0 = time.perf_counter()
    spark = S.start(src, workdir)
    session_s = time.perf_counter() - t0
    try:
        setups = []
        for _ in range(W.SETUP_REPS):
            # identical inputs would otherwise be served from the last
            # set-up's cache instead of being cached again
            spark.catalog.clearCache()
            t = time.perf_counter()
            logs = W.spark_logs(shape, seed)
            fr = W.cache_rows(spark, logs)
            setups.append(time.perf_counter() - t)
        t = time.perf_counter()
        W.convert(spark, fr, logs, shape, tracer)
        ingest_s = time.perf_counter() - t
        blobs = [bytes(b) for b in fr.metric_bsi.select("value").toPandas()["value"]]
        ratio = W.bytes_ratio(sum(len(b) for b in blobs), len(blobs), len(logs.metric))
        parts = W.spark_parts(name, fr, logs, shape)
        meter = S.StageMeter(spark) if traced else None
        gate_args = (W.SCORE_KEYS, W.SCORE_VALUES)

        def unit(trace_on: bool):
            if trace_on:
                return [W.run_op(parts, gate_args, tracer, meter=meter)]
            return [W.run_op(parts, gate_args, NULL)]

        warm, plain, trc, steady = _loop(lambda: unit(False), unit, seconds, traced)
        _tally(run, [*warm, *plain, *trc])
        pids = [os.getpid()] + procfs.descendants(os.getpid())
        _end_to_end(run, session_s + median(setups), setups, ingest_s, ratio, warm, steady, plain,
                    procfs.peak_rss_mb([os.getpid()]))
        run.counts.update(setups=len(setups), warmup=len(warm))
        run.info.update(session_s=session_s, spark_processes=len(pids),
                        tree_peak_rss_mb=procfs.peak_rss_mb(pids))
        if traced:
            counts = layers.probe(
                tracer, users=logs.users, expose=logs.expose, metric=logs.metric,
                dim=logs.dim, n_segments=shape.n_segments, date=W.DATE, seed=seed,
            )
            _layers(run, tracer, counts, plain, trc)
            bsi_bytes = sum(
                W.blob_bytes(df, cols) for df, cols in (
                    (fr.expose_bsi, ["offset", "bucket"]), (fr.metric_bsi, ["value"]),
                    (fr.dim_bsi, ["value"])) if df is not None
            )
            samples = [u[0].bsi for u in trc if u[0].ok]
            for k in SPARK_METRICS:
                key = k.split(".", 1)[1]
                if key == "python_cpu_s":
                    vals = [s.cpu["python"] for s in samples]
                elif key == "shuffle_bytes_per_bsi_byte":
                    vals = [s.stages["shuffle_read_bytes"] / bsi_bytes for s in samples]
                else:
                    vals = [s.stages[key] for s in samples]
                run.metrics[k] = median(vals) if vals else None
            for kind in ("metric", "expose", "dimension"):
                d = tracer.durations(f"encode.{kind}_log_to_bsi")
                run.metrics[f"encode.{kind}_log_to_bsi.s"] = d[0] if d else 0.0
            rows = len(logs.metric) + len(logs.expose) + (len(logs.dim) if logs.dim is not None else 0)
            run.metrics["encode.rows_per_s"] = rows / run.metrics["ingest_s"]
            _storage(run, blobs, len(logs.metric))
    finally:
        run.info["killed_processes"] = len(S.stop(spark))
    return run


def adhoc_workload(seed: int, seconds: float, traced: bool) -> Run:
    tracer = Tracer() if traced else NULL
    run = Run(tracer=tracer if traced else None)
    setups, ingests, eng = [], [], None
    for _ in range(W.SETUP_REPS):
        eng = logs = None  # one store in memory at a time,
        gc.collect()  # freed before the next set-up is timed
        t = time.perf_counter()
        logs = W.adhoc_logs(seed)
        eng, ingest = W.adhoc_load(logs)
        setups.append(time.perf_counter() - t)
        ingests.append(ingest)
    blobs = [b.copy().serialize() for seg in eng.segments for b in seg.metric_bsi.values()]
    ratio = W.bytes_ratio(sum(len(b) for b in blobs), len(blobs), len(logs.metric))
    mix = W.query_mix(seed, logs)
    gate_args = (W.ADHOC_KEYS, W.ADHOC_VALUES)

    def unit(trace_on: bool, queries=mix):
        tr = tracer if trace_on else NULL
        out = []
        for q in queries:
            with tr.span("adhoc.query"):
                out.append(W.run_op(W.adhoc_parts(eng, q), gate_args, tr, cpu=W.process_cpu))
        return out

    # a traced run needs only enough pairs for the overhead figure
    passes = W.MIN_UNITS if traced else W.ADHOC_MIN_PASSES
    warm, plain, trc, steady = _loop(lambda: unit(False, mix[:20]), unit, seconds, traced, passes)
    _tally(run, [*warm, *plain, *trc])
    # ingest_s is the fastest store build: builds in one run differ by up
    # to 30% (host interference only slows them), so the median of three
    # is noisier than the minimum
    _end_to_end(run, median(setups), setups, min(ingests), ratio, warm, steady, plain,
                procfs.peak_rss_mb([os.getpid()]))
    run.counts.update(setups=len(setups), warmup=len(warm),
                      queries=sum(len(u) for u in plain))
    run.info["ingest_walls"] = ingests
    for fmt in ("bsi", "normal"):
        lat = [getattr(r, fmt).wall * 1e3 for u in plain for r in u if r.ok]
        for q in (50, 90):
            p = percentile(lat, q)
            if p is not None:
                run.info[f"{fmt}_query_p{q}_ms"] = p
        # per query shape, so no conclusion rests on the mix's weights
        by_shape = {}
        for u in plain:
            for q, r in zip(mix, u):
                if r.ok:
                    by_shape.setdefault(len(q.metric_ids), []).append(getattr(r, fmt).wall * 1e3)
        run.info[f"{fmt}_query_mean_ms_by_metrics"] = {k: sum(v) / len(v) for k, v in sorted(by_shape.items())}
    if traced:
        counts = layers.probe(
            tracer, users=logs.users, expose=logs.expose, metric=logs.metric, dim=None,
            n_segments=W.ADHOC_SEGMENTS, date=W.ADHOC_DATES[-1], seed=seed, engine=eng,
        )
        _layers(run, tracer, counts, plain, trc)
        # no Spark on this workload: its Spark-layer figures are zero
        for k in SPARK_METRICS:
            run.metrics[k] = 0.0
        for kind in ("metric", "expose", "dimension"):
            run.metrics[f"encode.{kind}_log_to_bsi.s"] = 0.0
        run.metrics["encode.rows_per_s"] = (len(logs.metric) + len(logs.expose)) / run.metrics["ingest_s"]
        _storage(run, blobs, len(logs.metric))
    return run
