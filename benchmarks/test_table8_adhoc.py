"""Table 8 — ad-hoc query latency on the in-process engine (the
ClickHouse-cluster substitute): one experiment with 3 strategies, the
105 core metrics, one week; BSI method vs the normal expose-bitmap +
metric-scan method, both over the same cached per-segment store.

Paper (3 strategies x ~200M exposed users, 105 metrics, 1 week,
ClickHouse cluster, averaged over 10 runs):
    Normal 22.3 s / BSI 6.0 s (~3.7x)
"""
import pytest

from repro.core.evaluation import (
    table8_build, table8_check, table8_run_bsi, table8_run_normal,
)


@pytest.fixture(scope="module")
def workload():
    w = table8_build()
    table8_check(w)  # no latency for methods that disagree
    return w


@pytest.mark.benchmark(group="table8")
def test_table8_bsi(benchmark, workload):
    benchmark.extra_info.update(
        {"fmt": "bsi", "metrics": len(workload.metric_ids), "days": len(workload.dates)}
    )
    r = benchmark.pedantic(table8_run_bsi, args=(workload,), rounds=10, iterations=1, warmup_rounds=1)
    assert len(r) == 3 * len(workload.metric_ids) * len(workload.dates)


@pytest.mark.benchmark(group="table8")
def test_table8_normal(benchmark, workload):
    benchmark.extra_info.update(
        {"fmt": "normal", "metrics": len(workload.metric_ids), "days": len(workload.dates)}
    )
    r = benchmark.pedantic(table8_run_normal, args=(workload,), rounds=10, iterations=1, warmup_rounds=1)
    assert len(r) == 3 * len(workload.metric_ids) * len(workload.dates)
