"""The benchmark's own SparkSession and per-stage accounting.

The session mirrors the test configuration (64 shuffle partitions,
Arrow on, broadcast joins off, UI off) on ``local[nproc]``, with the
driver heap derived from ``/proc/meminfo`` the same way the tier-1
test command derives it. Every file Spark, the JVM and Python write
goes under the work directory passed in.
"""
from __future__ import annotations

import os
import shlex

from harness import procfs

SHUFFLE_PARTITIONS = 64


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def driver_memory() -> str:
    """Half of MemTotal in GiB, clamped to [2, 8] GiB."""
    g = procfs.mem_total_kb() // 2097152
    return f"{min(8, max(2, g))}g"


def start(src: str, workdir: str):
    """Launch the JVM and return a SparkSession. ``src`` goes on the
    Python workers' path; ``workdir`` takes Spark's local dir, the
    JVM's and Python's temp files and the SQL warehouse."""
    tmp = os.path.join(workdir, "tmp")
    local = os.path.join(workdir, "spark-local")
    for d in (tmp, local):
        os.makedirs(d, exist_ok=True)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    os.environ["TMPDIR"] = tmp
    # an inherited SPARK_LOCAL_DIRS would take precedence over spark.local.dir
    os.environ["SPARK_LOCAL_DIRS"] = local
    conf = {
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.local.dir": local,
        # hsperfdata would otherwise land in /tmp
        "spark.driver.extraJavaOptions": f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData",
    }
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [f"--master local[{nproc()}]", f"--driver-memory {driver_memory()}"]
        + [f"--conf {shlex.quote(f'{k}={v}')}" for k, v in conf.items()]
        + ["pyspark-shell"]
    )
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", os.path.join(workdir, "warehouse"))
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def stop(spark) -> list[int]:
    """Stop Spark, end the JVM and wait for every process it started.
    Returns the pids that had to be killed (normally none)."""
    from pyspark import SparkContext

    kids = procfs.descendants(os.getpid())
    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            # the gateway JVM exits when its stdin reaches EOF
            proc.stdin.close()
            proc.wait(timeout=60)
        SparkContext._gateway = None
        SparkContext._jvm = None
    return procfs.wait_gone(kids, timeout=30)


#: per-stage fields summed over an operation's stages: name -> (getter, scale)
_STAGE_SUMS = {
    "tasks": ("numCompleteTasks", 1),
    "executor_run_s": ("executorRunTime", 1e-3),
    "executor_cpu_s": ("executorCpuTime", 1e-9),
    "jvm_gc_s": ("jvmGcTime", 1e-3),
    "shuffle_read_bytes": ("shuffleReadBytes", 1),
    "shuffle_write_bytes": ("shuffleWriteBytes", 1),
}


def stage_totals(stages) -> dict[str, float]:
    """Sum the per-stage metrics of ``stages`` (objects with the
    ``v1.StageData`` getters); the peak execution memory is the max."""
    out = {k: 0.0 for k in _STAGE_SUMS}
    out["stages"] = 0
    out["peak_execution_memory_bytes"] = 0
    for st in stages:
        if st.numCompleteTasks() == 0:  # skipped: its output was reused
            continue
        out["stages"] += 1
        for k, (getter, scale) in _STAGE_SUMS.items():
            out[k] += getattr(st, getter)() * scale
        out["peak_execution_memory_bytes"] = max(
            out["peak_execution_memory_bytes"], st.peakExecutionMemory()
        )
    return out


class StageMeter:
    """Spark jobs, stages and stage metrics of one operation, read from
    the live status store (which works with the UI off) for the jobs
    run under a job group set for that operation."""

    def __init__(self, spark) -> None:
        self.sc = spark.sparkContext
        self._n = 0

    def run(self, fn):
        """``fn()`` under a fresh job group; returns (result, stats)."""
        group = f"perfbench-op-{self._n}"
        self._n += 1
        self.sc.setJobGroup(group, group)
        try:
            result = fn()
        finally:
            self.sc._jsc.clearJobGroup()
        return result, self._stats(group)

    def _stats(self, group: str) -> dict[str, float]:
        jsc = self.sc._jsc.sc()
        jsc.listenerBus().waitUntilEmpty(30_000)
        tracker = self.sc.statusTracker()
        jobs = tracker.getJobIdsForGroup(group)
        ids: set[int] = set()
        for j in jobs:
            info = tracker.getJobInfo(j)
            if info is not None:
                ids.update(info.stageIds)
        jvm, gw = self.sc._jvm, self.sc._gateway
        lst = jsc.statusStore().stageList(
            jvm.java.util.ArrayList(), False, False,
            gw.new_array(jvm.double, 0), jvm.java.util.ArrayList(),
        )
        stages = [st for i in range(lst.size()) if (st := lst.apply(i)).stageId() in ids]
        out = stage_totals(stages)
        out["jobs"] = len(jobs)
        return out
