from types import SimpleNamespace

from harness import runner
from harness import workloads as W
from harness.spark import stage_totals


def _stage(tasks, run_ms, cpu_ns, gc_ms, rd, wr, peak):
    return SimpleNamespace(
        numCompleteTasks=lambda: tasks, executorRunTime=lambda: run_ms,
        executorCpuTime=lambda: cpu_ns, jvmGcTime=lambda: gc_ms,
        shuffleReadBytes=lambda: rd, shuffleWriteBytes=lambda: wr,
        peakExecutionMemory=lambda: peak,
    )


def test_stage_totals_sum_and_skip():
    out = stage_totals([
        _stage(4, 1500, 2_000_000_000, 100, 10, 20, 300),
        _stage(0, 0, 0, 0, 0, 0, 999),  # skipped stage
        _stage(2, 500, 500_000_000, 0, 5, 0, 700),
    ])
    assert out == {
        "tasks": 6, "executor_run_s": 2.0, "executor_cpu_s": 2.5, "jvm_gc_s": 0.1,
        "shuffle_read_bytes": 15, "shuffle_write_bytes": 20, "stages": 2,
        "peak_execution_memory_bytes": 700,
    }


def test_query_mix_is_seeded_with_fixed_shapes():
    logs = W.Logs(None, None, None, None, [1, 2, 3], list(range(1, 106)), [], list(range(1, 8)))
    a, b, c = W.query_mix(5, logs), W.query_mix(5, logs), W.query_mix(6, logs)
    assert a == b and a != c
    assert len(a) >= 100
    assert sorted(q.cells for q in a) == sorted(q.cells for q in c)
    full = [q for q in a if q.cells == 3 * 105 * 7]
    assert len(full) == 1
    for q in a:
        assert q.dates == list(range(q.dates[0], q.dates[-1] + 1))
        assert len(set(q.metric_ids)) == len(q.metric_ids)


def test_spark_logs_depend_only_on_seed():
    shape = W.Shape(2_000, 4, 1, 2, 4, cuped_metrics=1, dimensions=True, n_buckets=16)
    a, b, c = W.spark_logs(shape, 1), W.spark_logs(shape, 1), W.spark_logs(shape, 2)
    assert a.metric.equals(b.metric) and a.expose.equals(b.expose)
    assert not a.metric.equals(c.metric)
    assert a.expose["bucket"].between(0, 15).all()
    assert sorted(a.metric["date"].unique()) == list(range(W.PRE_LO, W.PRE_HI + 1)) + [W.DATE]


class _Op:
    ok = True

    def __init__(self, wall):
        self.wall = wall


def test_warmup_runs_until_steady_however_long_a_unit_takes():
    walls = iter([15.0, 11.0, 11.5, 99.0])
    warm, plain, trc, steady = runner._loop(
        lambda: [_Op(next(walls))], lambda trace_on: [_Op(1.0)], 0, False)
    assert [u[0].wall for u in warm] == [15.0, 11.0, 11.5] and steady
    assert len(plain) == W.MIN_UNITS and not trc


def test_warmup_stops_at_warm_max_when_never_steady():
    walls = iter([10.0 * 2**i for i in range(W.WARM_MAX + 1)])
    warm, _, _, steady = runner._loop(
        lambda: [_Op(next(walls))], lambda trace_on: [_Op(1.0)], 0, False)
    assert len(warm) == W.WARM_MAX and not steady


def test_traced_pairs_alternate_which_side_runs_first():
    order = []

    def unit(trace_on):
        order.append(trace_on)
        return [_Op(1.0)]

    _, plain, trc, _ = runner._loop(lambda: [_Op(1.0)], unit, 0, True)
    assert order == [False, True, True, False]
    assert len(plain) == len(trc) == 2


def test_no_successful_operation_gives_no_figure():
    run = runner.Run()
    failed = [[W.OpResult(problems=["raised"])]]
    runner._end_to_end(run, 1.0, [1.0], 1.0, 0.2, failed, False, failed, 100.0)
    for k in ("bsi_batch_s", "normal_batch_s", "bsi_cpu_s", "normal_cpu_s"):
        assert run.metrics[k] is None
