"""In-process ad-hoc query engine — the ClickHouse substitute (§5.3).

The paper's topology: every segment lives on one node of a ClickHouse
cluster; a query runs locally per segment, in parallel, over cached
hot data; BSI ops are built into the engine. Here the same topology is
one process: a per-segment in-memory store, a thread pool fanning a
query out over segments, and two query methods sharing the store:

- ``query_bsi``      — the paper's BSI method. The store keeps one
  :class:`~repro.bsi.slicematrix.SliceMatrix` per (segment, date):
  every metric's value slices as rows of one uint64 bit matrix, as wide
  as the segment's position universe. Per (segment, strategy, date) the
  expose-offset constant predicate gives a filter bitmap, and one
  popcount pass of the filter against the matrix yields every queried
  metric's value sum.
- ``query_normal``   — the paper's pre-BSI method (§6.3): per-day
  exposed-user bitmaps cached per strategy; scan the normal-format
  metric rows, membership-filter by the bitmap, aggregate.

Both answer "for strategies S x metrics M x dates D: exposed count and
value sum per (s, m, d)", the Table 8 workload shape, by filling one
S x D x M grid per segment; the grids are summed over segments and
returned as one DataFrame sorted by (strategy, metric, date).
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.bsi.bitmap import RoaringBitmap
from repro.bsi.bsi import BSI
from repro.bsi.slicematrix import SliceMatrix
from repro.platform import hashing as H
from repro.platform.encode import encoding_pandas


@dataclass
class _Segment:
    """One node's cache: BSI store + normal-format columnar store."""

    n_positions: int = 0
    # BSI store
    metric_matrix: dict[int, tuple[np.ndarray, SliceMatrix]] = field(
        default_factory=dict
    )  # date -> (sorted metric ids, their value BSIs in that order)
    expose_bsi: dict[int, tuple[int, BSI]] = field(default_factory=dict)  # sid -> (min_date, offset)
    # normal store
    metric_rows: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )  # (metric, date) -> (user_ids, values)
    expose_day_bitmaps: dict[tuple[int, int], RoaringBitmap] = field(
        default_factory=dict
    )  # (sid, date) -> bitmap of user ids exposed by that day

    @property
    def metric_bsi(self) -> dict[tuple[int, int], BSI]:
        """(metric, date) -> value BSI, decoded from the slice matrices
        on access (inspection and storage accounting, not queries)."""
        return {
            (int(mid), d): mat.bsi(j)
            for d, (mids, mat) in self.metric_matrix.items()
            for j, mid in enumerate(mids)
        }


def _axes(*ids: list[int]) -> tuple[np.ndarray, ...]:
    """Each id list as sorted unique int64: the result grid's axes."""
    return tuple(np.unique(np.asarray(x, dtype=np.int64)) for x in ids)


class AdhocEngine:
    """Per-segment cached store + segment-parallel query execution."""

    def __init__(self, n_segments: int, workers: int | None = None):
        # workers defaults to 1: a segment's BSI work is a few short
        # numpy passes per (strategy, date) and the normal method's many
        # smaller ones, so per-query threads only add pool start-up and
        # GIL contention (4 threads ran the 132-query benchmark mix ~3x
        # slower than 1 for both methods on a 4-core host). >1 is kept
        # for the paper's per-node-parallel topology and for tests.
        self.n_segments = n_segments
        self.segments = [_Segment() for _ in range(n_segments)]
        self.workers = workers or 1
        # value sums are exact: int64 while every sum provably fits,
        # Python ints (object) past that (see SliceMatrix)
        self.value_dtype = np.dtype(np.int64)

    # -- loading ------------------------------------------------------
    @classmethod
    def from_logs(
        cls,
        *,
        users_pdf: pd.DataFrame,
        metric_pdf: pd.DataFrame,
        expose_pdf: pd.DataFrame,
        n_segments: int,
        dates: list[int],
        workers: int | None = None,
    ) -> "AdhocEngine":
        """Build both stores from raw logs (same encoding the Spark
        pipeline uses, so results agree bit-for-bit)."""
        eng = cls(n_segments, workers)
        u = users_pdf.copy()
        if "segment_id" not in u.columns:
            u["segment_id"] = H.segment_of(u["analysis_unit_id"].to_numpy(), n_segments)
        enc = encoding_pandas(u)
        pos_of = enc.set_index("analysis_unit_id")["position"]
        for seg, n in enc.groupby("segment_id").size().items():
            eng.segments[int(seg)].n_positions = int(n)

        mp = metric_pdf[metric_pdf["date"].isin(dates)]
        mp = mp.assign(position=pos_of.loc[mp["analysis_unit_id"]].to_numpy())
        for (seg, d), day in mp.groupby(["segment_id", "date"]):
            s = eng.segments[int(seg)]
            mids, bsis = [], []
            for mid, grp in day.groupby("metric_id"):
                vals = grp["value"].to_numpy()
                s.metric_rows[(int(mid), int(d))] = (grp["analysis_unit_id"].to_numpy(), vals)
                mids.append(int(mid))
                bsis.append(BSI.from_arrays(grp["position"].to_numpy(), vals))
            # hot cached compute form (§5.3 keeps hot data resident)
            s.metric_matrix[int(d)] = (np.array(mids), SliceMatrix(bsis, s.n_positions))

        nslices = max(
            (m.nslices for s in eng.segments for _, m in s.metric_matrix.values()), default=0
        )
        # a (strategy, metric, date) sum is below n_users * 2**nslices
        if sum(s.n_positions for s in eng.segments).bit_length() + nslices > 63:
            eng.value_dtype = np.dtype(object)

        for (seg, sid), grp in expose_pdf.groupby(["segment_id", "strategy_id"]):
            s = eng.segments[int(seg)]
            fed = grp["first_expose_date"].to_numpy()
            min_date = int(fed.min())
            pos = pos_of.loc[grp["analysis_unit_id"].to_numpy()].to_numpy()
            s.expose_bsi[int(sid)] = (
                min_date,
                BSI.from_arrays(pos, fed - min_date + 1).densify(),
            )
            uids = grp["analysis_unit_id"].to_numpy()
            for d in dates:
                s.expose_day_bitmaps[(int(sid), int(d))] = RoaringBitmap.from_array(
                    uids[fed <= d].astype(np.uint32)
                )
        return eng

    # -- queries ------------------------------------------------------
    def _grid(self, sids, mids, days) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zeroed (value S x D x M, exposed S x D, present S x D)."""
        shape = (len(sids), len(days))
        return (
            np.zeros((*shape, len(mids)), dtype=self.value_dtype),
            np.zeros(shape, dtype=np.int64),
            np.zeros(shape, dtype=bool),
        )

    def _fan_out(self, per_segment, sids, mids, days) -> pd.DataFrame:
        """Sum the per-segment grids; one row per present (s, m, d)."""
        if self.workers <= 1:
            parts = [per_segment(i) for i in range(self.n_segments)]
        else:
            with ThreadPoolExecutor(max_workers=self.workers) as ex:
                parts = list(ex.map(per_segment, range(self.n_segments)))
        val, exposed, present = self._grid(sids, mids, days)
        for v, e, p in parts:
            val += v
            exposed += e
            present |= p
        shape = (len(sids), len(mids), len(days))
        keep = np.broadcast_to(present[:, None, :], shape)
        si, mi, di = np.indices(shape)
        return pd.DataFrame(
            {
                "strategy_id": sids[si[keep]],
                "metric_id": mids[mi[keep]],
                "date": days[di[keep]],
                "value_sum": val.transpose(0, 2, 1)[keep].astype(np.float64),
                "exposed": np.broadcast_to(exposed[:, None, :], shape)[keep],
            }
        )

    def query_bsi(
        self, *, strategy_ids: list[int], metric_ids: list[int], dates: list[int]
    ) -> pd.DataFrame:
        """BSI method: constant predicate on the offset BSI, then one
        popcount pass of that filter over the day's slice matrix."""
        sids, mids, days = _axes(strategy_ids, metric_ids, dates)

        def per_segment(i: int):
            s = self.segments[i]
            val, exposed, present = self._grid(sids, mids, days)
            # per date: the matrix, the grid columns it holds, their rows
            members = {}
            for b, d in enumerate(days.tolist()):
                if d in s.metric_matrix:
                    have, mat = s.metric_matrix[d]
                    j = np.minimum(np.searchsorted(have, mids), len(have) - 1)
                    hit = have[j] == mids
                    members[b] = (mat, np.flatnonzero(hit), j[hit])
            for a, sid in enumerate(sids.tolist()):
                if sid not in s.expose_bsi:
                    continue
                min_date, offset = s.expose_bsi[sid]
                present[a] = True
                for b, d in enumerate(days.tolist()):
                    flt = offset.le_const(d - min_date + 1)
                    exposed[a, b] = flt.cardinality()
                    if b in members:
                        mat, cols, j = members[b]
                        val[a, b, cols] = mat.sums(flt, j)
            return val, exposed, present

        return self._fan_out(per_segment, sids, mids, days)

    def query_normal(
        self, *, strategy_ids: list[int], metric_ids: list[int], dates: list[int]
    ) -> pd.DataFrame:
        """Normal method (§6.3): cached per-day exposed-user bitmaps;
        scan metric rows, membership-filter, aggregate."""
        sids, mids, days = _axes(strategy_ids, metric_ids, dates)

        def per_segment(i: int):
            s = self.segments[i]
            val, exposed, present = self._grid(sids, mids, days)
            for a, sid in enumerate(sids.tolist()):
                for b, d in enumerate(days.tolist()):
                    bm = s.expose_day_bitmaps.get((sid, d))
                    if bm is None:
                        continue
                    present[a, b] = True
                    exposed[a, b] = bm.cardinality()
                    for c, mid in enumerate(mids.tolist()):
                        rec = s.metric_rows.get((mid, d))
                        if rec is not None:
                            uids, vals = rec
                            val[a, b, c] = vals[bm.contains_array(uids)].sum(dtype=self.value_dtype)
            return val, exposed, present

        return self._fan_out(per_segment, sids, mids, days)
