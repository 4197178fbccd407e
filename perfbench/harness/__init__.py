"""Benchmark harness for the BSI metric platform.

Modules, bottom-up:

- :mod:`harness.stats` — percentiles guarded by the samples beyond them.
- :mod:`harness.spans` — in-memory span tracer with self-time.
- :mod:`harness.procfs` — process-tree CPU and peak RSS from ``/proc``.
- :mod:`harness.gate` — the BSI-vs-normal correctness diff.
- :mod:`harness.spark` — the benchmark's own SparkSession and per-stage
  accounting from the live status store.
- :mod:`harness.workloads` — input generation and the timed operations
  of ``daily_batch``, ``bucketed_1024`` and ``adhoc_mix``.
- :mod:`harness.layers` — per-layer probes for the traced run.
"""
