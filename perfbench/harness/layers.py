"""Per-layer probes for the traced run.

Each probe times, from spans in this file, calls into one layer's
public functions on the workload's own generated data, restricted to
one segment (segment 0) so a probe costs a few seconds at most. The
per-segment kernels are timed whole and then replayed call by call
(deserialize / predicate / aggregate) through the BSI layer.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from harness.spans import Tracer
from harness.workloads import PREDICATES

from repro.bsi import containers as C
from repro.bsi.bitmap import RoaringBitmap
from repro.bsi.bsi import BSI
from repro.core import deepdive as DD
from repro.core import evaluation as EV
from repro.core import scorecard as SC
from repro.platform import encode, genlog
from repro.platform import hashing as H
from repro.platform.adhoc import AdhocEngine
from repro.platform.preagg import PreAggTree

SEGMENT = 0
N_BUCKETS = 1024
EQ_CONSTS = range(1, 65)  # bucket ids probed with eq_const
BUCKETED_ROWS = 2  # (strategy, metric) rows run through the bucketed kernel


def _positions(users: pd.DataFrame, n_segments: int) -> pd.Series:
    u = users.copy()
    u["segment_id"] = H.segment_of(u["analysis_unit_id"].to_numpy(), n_segments)
    return encode.encoding_pandas(u).set_index("analysis_unit_id")["position"]


def _container_kinds(bsis: list[BSI]) -> dict[str, int]:
    """Stored container kinds (roaring's array / bitset / run choice)."""
    kinds = {0: 0, 1: 0, 2: 0}
    for b in bsis:
        for s in b.slices:
            for c in s.compact()._c.values():
                kinds[RoaringBitmap._encode_container(c)[0]] += 1
    return {"array": kinds[0], "bitset": kinds[1], "run": kinds[2]}


def probe(
    tracer: Tracer,
    *,
    users: pd.DataFrame,
    expose: pd.DataFrame,
    metric: pd.DataFrame,
    dim: pd.DataFrame | None,
    n_segments: int,
    date: int,
    seed: int,
    engine: AdhocEngine | None = None,
) -> dict[str, float]:
    """Run every layer probe under ``tracer``; return the shape counts
    (the timings are read back from the tracer's spans)."""
    pos_of = _positions(users, n_segments)
    out: dict[str, float] = {}

    # -- bsi: build, serialize, shape, deserialize, densify ------------
    mseg = metric[metric["segment_id"] == SEGMENT]
    keys, arrays = [], []
    for (mid, d), g in mseg.groupby(["metric_id", "date"]):
        keys.append((int(mid), int(d)))
        arrays.append((pos_of.loc[g["analysis_unit_id"]].to_numpy(), g["value"].to_numpy()))
    with tracer.span("bsi.from_arrays", calls=len(arrays)):
        built = [BSI.from_arrays(p, v) for p, v in arrays]
    with tracer.span("bsi.serialize", calls=len(built)):
        blobs = [b.serialize() for b in built]
    out["bsi.slices.mean"] = float(np.mean([b.nslices() for b in built]))
    for kind, n in _container_kinds(built).items():
        out[f"bsi.containers.{kind}"] = n
    out["bsi.bytes"] = sum(len(b) for b in blobs)
    with tracer.span("bsi.deserialize", calls=len(blobs)):
        values = [BSI.deserialize(b) for b in blobs]
    with tracer.span("bsi.densify", calls=len(values)):
        for b in values:
            b.densify()
    value_of = dict(zip(keys, values))
    blob_of = dict(zip(keys, blobs))
    day_keys = [k for k in keys if k[1] == date]

    # -- expose side: offset and bucket BSIs per strategy --------------
    eseg = expose[expose["segment_id"] == SEGMENT]
    strategies = []
    for sid, g in eseg.groupby("strategy_id"):
        fed = g["first_expose_date"].to_numpy()
        mn = int(fed.min())
        pos = pos_of.loc[g["analysis_unit_id"]].to_numpy()
        bucket = H.bucket_of(g["randomization_unit_id"].to_numpy(), N_BUCKETS) + 1
        strategies.append((
            int(sid), mn,
            BSI.from_arrays(pos, fed - mn + 1).serialize(),
            BSI.from_arrays(pos, bucket).serialize(),
            g["analysis_unit_id"].to_numpy()[fed <= date],
        ))
    offsets = [BSI.deserialize(s[2]).densify() for s in strategies]
    with tracer.span("bsi.le_const", calls=len(offsets)):
        flts = [o.le_const(date - s[1] + 1) for o, s in zip(offsets, strategies)]
    bucket = BSI.deserialize(strategies[0][3]).densify()
    with tracer.span("bsi.eq_const", calls=len(EQ_CONSTS)):
        for k in EQ_CONSTS:
            bucket.eq_const(k)
    day_values = [value_of[k] for k in day_keys]
    pairs = [(v, f) for f in flts for v in day_values]
    with tracer.span("bsi.sum_filtered", calls=len(pairs)):
        for v, f in pairs:
            v.sum_filtered(f)

    # -- bitmap ---------------------------------------------------------
    slices = [s for v in day_values for s in v.slices]
    with tracer.span("bitmap.and", calls=len(flts) * len(slices)):
        ands = [f & s for f in flts for s in slices]
    with tracer.span("bitmap.or", calls=len(flts) * len(slices)):
        for f in flts:
            for s in slices:
                f | s
    with tracer.span("bitmap.cardinality", calls=len(ands)):
        for a in ands:
            a.cardinality()
    slice_blobs = [s.copy().serialize() for s in slices]
    with tracer.span("bitmap.deserialize", calls=len(slice_blobs)):
        for b in slice_blobs:
            RoaringBitmap.deserialize(b)
    day_rows = mseg[mseg["date"] == date]
    uid_lists = [g["analysis_unit_id"].to_numpy() for _, g in day_rows.groupby("metric_id")]
    exposed = [RoaringBitmap.from_array(s[4].astype(np.uint32)) for s in strategies]
    with tracer.span("bitmap.contains_array", calls=len(exposed) * len(uid_lists)):
        for bm in exposed:
            for uids in uid_lists:
                bm.contains_array(uids)

    # -- containers -----------------------------------------------------
    cpairs = [(fc, s._c[k]) for f in flts for k, fc in f._c.items() for s in slices if k in s._c]
    with tracer.span("containers.c_and", calls=len(cpairs)):
        for a, b in cpairs:
            C.c_and(a, b)
    with tracer.span("containers.c_or", calls=len(cpairs)):
        for a, b in cpairs:
            C.c_or(a, b)
    mats = []
    for v in day_values:
        for k in v.existence()._c:
            rows = [s._c[k] for s in v.slices if k in s._c and C.is_bitset(s._c[k])]
            if rows:
                mats.append(np.vstack(rows))
    with tracer.span("containers.popcount_rows", calls=len(mats)):
        for m in mats:
            C.popcount_rows(m)

    # -- bsi.add on the Table 5 A/B/C shapes ----------------------------
    abc = EV.table56_build(n_users=len(users), n_segments=n_segments, seed=seed)
    with tracer.span("bsi.add", calls=len(abc) * n_segments):
        for d in abc.values():
            EV.table6_run_bsi(d)

    # -- per-segment kernels --------------------------------------------
    left = pd.DataFrame({
        "strategy_id": [s[0] for s in strategies], "segment_id": SEGMENT,
        "min_expose_date": [s[1] for s in strategies], "offset": [s[2] for s in strategies],
    })
    right = pd.DataFrame({
        "segment_id": SEGMENT, "date": date, "metric_id": [k[0] for k in day_keys],
        "value": [blob_of[k] for k in day_keys],
    })
    with tracer.span("scorecard.cogroup"):
        SC._score_cogroup(left, right)
    with tracer.span("scorecard.cogroup.deserialize"):
        ms = [BSI.deserialize(b).densify() for b in right["value"]]
        offs = [BSI.deserialize(b).densify() for b in left["offset"]]
    with tracer.span("scorecard.cogroup.predicate"):
        fs = [o.le_const(date - mn + 1) for o, mn in zip(offs, left["min_expose_date"])]
    with tracer.span("scorecard.cogroup.aggregate"):
        for f in fs:
            f.cardinality()
            for m in ms:
                m.sum_filtered(f)

    rows = pd.DataFrame([
        {"strategy_id": s[0], "metric_id": k[0], "segment_id": SEGMENT, "date": date,
         "min_expose_date": s[1], "offset": s[2], "value": blob_of[k], "bucket": s[3]}
        for s in strategies for k in day_keys
    ][:BUCKETED_ROWS])
    with tracer.span("scorecard.bucketed", calls=len(rows)):
        cells = pd.concat(list(SC._score_rows_bucketed(N_BUCKETS)(iter([rows]))))
    out["scorecard.bucketed.useful_frac"] = len(cells) / (len(rows) * N_BUCKETS)

    # the pre-period: the days before the scored one of the metric that
    # has the most of them (the scored day alone when none has any)
    pre = [k for k in keys if k[1] < date]
    mid = max({k[0] for k in pre or keys}, key=lambda m: sum(k[0] == m for k in pre))
    days = sorted(k[1] for k in pre if k[0] == mid) or [date]
    with tracer.span("preexperiment.preperiod_sum"):
        day_bsis = {d: BSI.deserialize(blob_of[(mid, d)]) for d in days}
        PreAggTree(day_bsis, first_day=days[0], n_days=days[-1] - days[0] + 1).query(
            days[0], days[-1]
        ).serialize()

    if dim is None:
        dim = genlog.dimension_log_pandas(
            n_users=len(users), dates=[date], n_segments=n_segments, seed=seed
        )
    dseg = dim[(dim["segment_id"] == SEGMENT) & (dim["date"] == date)]
    dim_blobs = {
        name: BSI.from_arrays(pos_of.loc[g["analysis_unit_id"]].to_numpy(), g["value"].to_numpy()).serialize()
        for name, g in dseg.groupby("dimension_name")
    }
    with tracer.span("deepdive.dim_filter"):
        by_name = {n: BSI.deserialize(b) for n, b in dim_blobs.items()}
        acc = None
        for name, op, k in PREDICATES:
            bm = getattr(by_name[name], DD._OPS[op])(k)
            acc = bm if acc is None else acc & bm
        BSI.from_bitmap(acc).serialize()

    # -- platform.adhoc: the full grid on the workload's own data ------
    if engine is None:
        engine = AdhocEngine.from_logs(
            users_pdf=users, metric_pdf=metric[metric["date"] == date], expose_pdf=expose,
            n_segments=n_segments, dates=[date], workers=1,
        )
        dates = [date]
    else:
        dates = sorted(metric["date"].unique().tolist())
    q = dict(
        strategy_ids=sorted(expose["strategy_id"].unique().tolist()),
        metric_ids=sorted(metric.loc[metric["date"].isin(dates), "metric_id"].unique().tolist()),
        dates=dates,
    )
    n_cells = len(q["strategy_ids"]) * len(q["metric_ids"]) * len(dates)
    with tracer.span("adhoc.query_bsi", calls=n_cells):
        engine.query_bsi(**q)
    with tracer.span("adhoc.query_normal", calls=n_cells):
        engine.query_normal(**q)
    return out
