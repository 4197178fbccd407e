"""Ad-hoc engine (§5.3): both query methods agree with each other,
with a pandas reference, and with the Spark BSI scorecard."""
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pytest

from repro.platform.adhoc import AdhocEngine
from tests.conftest import ALL_STRATEGIES, DATES, N_SEGMENTS, N_USERS


@pytest.fixture(scope="module")
def engine(world):
    return AdhocEngine.from_logs(
        users_pdf=world.users,
        metric_pdf=world.metric,
        expose_pdf=world.expose,
        n_segments=N_SEGMENTS,
        dates=DATES,
        workers=4,
    )


def _reference(world, strategy_ids, metric_ids, dates):
    rows = []
    for sid in strategy_ids:
        e = world.expose[world.expose.strategy_id == sid]
        for d in dates:
            exposed_units = e[e.first_expose_date <= d]["analysis_unit_id"]
            for mid in metric_ids:
                m = world.metric[
                    (world.metric.metric_id == mid) & (world.metric.date == d)
                ]
                v = m[m.analysis_unit_id.isin(exposed_units)]["value"].sum()
                rows.append((sid, mid, d, float(v), len(exposed_units)))
    return (
        pd.DataFrame(
            rows, columns=["strategy_id", "metric_id", "date", "value_sum", "exposed"]
        )
        .sort_values(["strategy_id", "metric_id", "date"])
        .reset_index(drop=True)
    )


def _sorted(pdf):
    return pdf.sort_values(["strategy_id", "metric_id", "date"]).reset_index(drop=True)


def test_bsi_matches_reference(world, engine):
    got = _sorted(
        engine.query_bsi(strategy_ids=[11, 21], metric_ids=[1, 2], dates=[1, 3, 5])
    )
    exp = _reference(world, [11, 21], [1, 2], [1, 3, 5])
    pd.testing.assert_frame_equal(got.astype("float64"), exp.astype("float64"))


def test_normal_matches_reference(world, engine):
    got = _sorted(
        engine.query_normal(strategy_ids=[12, 22], metric_ids=[2, 3], dates=[2, 4])
    )
    exp = _reference(world, [12, 22], [2, 3], [2, 4])
    pd.testing.assert_frame_equal(got.astype("float64"), exp.astype("float64"))


def test_bsi_equals_normal_full_grid(world, engine):
    kw = dict(strategy_ids=ALL_STRATEGIES, metric_ids=[1, 2, 3], dates=DATES)
    a = _sorted(engine.query_bsi(**kw))
    b = _sorted(engine.query_normal(**kw))
    pd.testing.assert_frame_equal(a.astype("float64"), b.astype("float64"))


def test_sequential_equals_parallel(world):
    seq = AdhocEngine.from_logs(
        users_pdf=world.users, metric_pdf=world.metric, expose_pdf=world.expose,
        n_segments=N_SEGMENTS, dates=DATES, workers=1,
    )
    par = AdhocEngine.from_logs(
        users_pdf=world.users, metric_pdf=world.metric, expose_pdf=world.expose,
        n_segments=N_SEGMENTS, dates=DATES, workers=8,
    )
    kw = dict(strategy_ids=[11], metric_ids=[3], dates=[5])
    pd.testing.assert_frame_equal(
        _sorted(seq.query_bsi(**kw)), _sorted(par.query_bsi(**kw))
    )


def test_matches_spark_scorecard(world, engine):
    from repro.core import scorecard as SC

    spark_res = SC.scorecard_bsi(
        world.expose_bsi, world.metric_bsi,
        strategy_ids=[11], metric_ids=[2], date=4,
    ).toPandas()
    adhoc_res = engine.query_bsi(strategy_ids=[11], metric_ids=[2], dates=[4])
    assert adhoc_res["value_sum"].sum() == spark_res["bucket_sum"].sum()
    assert adhoc_res["exposed"].sum() == spark_res["bucket_exposed"].sum()


# -- edge cases on a small hand-built store ---------------------------
BIG, SMALL = 70_000, 300  # segment 0 spans two container keys
EDGE_KW = dict(strategy_ids=[31, 32], metric_ids=[1, 2, 3, 9], dates=[1, 2])


@pytest.fixture(scope="module")
def edge():
    """Segment 0 has more than 65,536 positions, segment 1 is small.
    Strategy 32 is absent from segment 1; metric 2 has no rows in
    segment 1 on date 2; metric 9 has no rows at all; nobody is exposed
    before date 2; metric 3 holds values past 2**53, so value sums need
    exact Python-int accumulation."""
    rng = np.random.default_rng(5)
    n = BIG + SMALL
    users = pd.DataFrame({
        "analysis_unit_id": np.arange(1, n + 1),
        "engagement": rng.random(n),
        "segment_id": np.repeat([0, 1], [BIG, SMALL]),
    })
    metric = []
    for d in (1, 2):
        for mid, share in ((1, 0.3), (2, 0.2), (3, 0.05)):
            u = users[rng.random(n) < share]
            if mid == 2 and d == 2:
                u = u[u.segment_id == 0]
            vals = rng.integers(1, 100, len(u))
            if mid == 3:
                vals[:4] = [(1 << 53) + 1, (1 << 60) - 1, 1 << 60, (1 << 53) - 1]
            metric.append(pd.DataFrame({
                "date": d, "metric_id": mid, "analysis_unit_id": u.analysis_unit_id,
                "value": vals, "segment_id": u.segment_id,
            }))
    expose = []
    for sid, segs in ((31, [0, 1]), (32, [0])):
        u = users[users.segment_id.isin(segs) & (rng.random(n) < 0.4)]
        expose.append(pd.DataFrame({
            "strategy_id": sid, "analysis_unit_id": u.analysis_unit_id,
            "first_expose_date": rng.integers(2, 4, len(u)), "segment_id": u.segment_id,
        }))
    logs = SimpleNamespace(
        users=users, metric=pd.concat(metric, ignore_index=True),
        expose=pd.concat(expose, ignore_index=True),
    )
    engines = {
        w: AdhocEngine.from_logs(
            users_pdf=logs.users, metric_pdf=logs.metric, expose_pdf=logs.expose,
            n_segments=2, dates=[1, 2], workers=w,
        )
        for w in (1, 4)
    }
    return logs, engines


def test_edge_store_shape(edge):
    _, engines = edge
    eng = engines[1]
    assert eng.segments[0].n_positions == BIG > 1 << 16
    assert eng.value_dtype == object
    assert 32 not in eng.segments[1].expose_bsi
    assert (2, 2) not in eng.segments[1].metric_bsi


def test_edge_bsi_equals_normal_equals_reference(edge):
    logs, engines = edge
    exp = _reference(logs, **EDGE_KW)
    for eng in engines.values():
        a = _sorted(eng.query_bsi(**EDGE_KW))
        b = _sorted(eng.query_normal(**EDGE_KW))
        pd.testing.assert_frame_equal(a, b, check_exact=True)
        pd.testing.assert_frame_equal(
            a.astype("float64"), exp.astype("float64"), check_exact=True
        )
    assert (a.loc[a.date == 1, ["value_sum", "exposed"]] == 0).all().all()
    assert a.loc[(a.metric_id == 3) & (a.date == 2), "value_sum"].max() > 2**60


def test_edge_workers_agree(edge):
    _, engines = edge
    for q in ("query_bsi", "query_normal"):
        pd.testing.assert_frame_equal(
            getattr(engines[1], q)(**EDGE_KW), getattr(engines[4], q)(**EDGE_KW),
            check_exact=True,
        )


def test_metric_bsi_view_decodes_the_matrix(edge):
    _, engines = edge
    for seg in engines[1].segments:
        assert set(seg.metric_bsi) == set(seg.metric_rows)
        for key, b in seg.metric_bsi.items():
            vals = seg.metric_rows[key][1]
            assert b.sum() == sum(vals.tolist()) and b.count() == len(vals)
