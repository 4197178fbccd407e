"""Benchmark of the BSI metric platform.

    python3 perfbench/run.py --workload daily_batch --seed 1 --seconds 15 --trace 0

Run from the root of a checkout holding ``src/repro``. Workloads:
``daily_batch`` (Spark, ``local[nproc]``) and ``adhoc_mix`` (in-process
ad-hoc engine), as listed in BENCHMARK.json, and ``bucketed_1024``
(Spark), which runs by name only. Every metric is printed by
name and unit; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
The full record, with provenance, goes to
``.perfbench/result-<workload>-<seed>-<trace>.json`` and the spans of a
traced run to ``.perfbench/trace-<workload>-<seed>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

WORKLOADS = ("daily_batch", "bucketed_1024", "adhoc_mix")


def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _provenance(root: Path, args) -> dict:
    import numpy
    import pandas
    import pyarrow
    import pyspark

    from harness import procfs
    from harness import spark as S

    return {
        "git_sha": _git_sha(root),
        "nproc": S.nproc(),
        "mem_total_kb": procfs.mem_total_kb(),
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
        "spark_master": f"local[{S.nproc()}]" if args.workload != "adhoc_mix" else None,
        "shuffle_partitions": S.SHUFFLE_PARTITIONS if args.workload != "adhoc_mix" else None,
        "driver_memory": S.driver_memory() if args.workload != "adhoc_mix" else None,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {src / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = root / ".perfbench"
    run_dir = workdir / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)

    from harness import runner

    try:
        if args.workload == "adhoc_mix":
            run = runner.adhoc_workload(args.seed, args.seconds, bool(args.trace))
        else:
            run = runner.spark_workload(
                args.workload, args.seed, args.seconds, bool(args.trace), str(src), str(run_dir)
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = runner.PER_LAYER if args.trace else runner.END_TO_END
    metrics = {k: {"value": run.metrics[k], "unit": u} for k, u in units.items()}
    record = {
        "provenance": _provenance(root, args),
        "samples": run.counts,
        "info": run.info,
        "problems": run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    stem = f"{args.workload}-{args.seed}-{args.trace}"
    if run.tracer is not None:
        run.tracer.dump(workdir / f"trace-{args.workload}-{args.seed}.json")
    (workdir / f"result-{stem}.json").write_text(json.dumps(record, indent=1))

    for p in run.problems:
        print(f"FAILED: {p}", file=sys.stderr)
    print(f"provenance {json.dumps(record['provenance'])}")
    print(f"samples {json.dumps(run.counts)}")
    for k, v in run.info.items():
        print(f"{k:40s} {v}")
    for k, m in metrics.items():
        print(f"{k:40s} {m['value']} {m['unit']}")
    print(f"{'error_rate':40s} {run.failed / max(1, run.attempted)} fraction")
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
