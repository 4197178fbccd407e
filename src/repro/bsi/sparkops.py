"""Spark operators over BSI blobs (§5.2).

BSIs travel through DataFrames as serialized blobs in ``BinaryType``
columns (one row per segment × object, Table 2). The paper implements
its BSI ops inside Spark via JNI/SIMD; here they are scalar pandas
UDFs and ``applyInPandas`` reducers calling the numpy kernels in
:mod:`repro.bsi` — same layering, pure-Python substrate (DESIGN.md).

Naming: ``*_udf`` are column-level scalar pandas UDFs; ``grouped_*``
return applyInPandas-ready functions for aggregates over BSIs
(sumBSI / distinctPos, §4.1.3).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import functions as F
from pyspark.sql.types import BinaryType, DoubleType, LongType

from repro.bsi.bitmap import RoaringBitmap
from repro.bsi.bsi import BSI, sum_bsi


@F.pandas_udf(DoubleType())
def bsi_sum_udf(blob: pd.Series) -> pd.Series:
    """sum aggregate of a BSI blob column."""
    return blob.map(lambda b: float(BSI.deserialize(b).sum()))


@F.pandas_udf(LongType())
def bsi_count_udf(blob: pd.Series) -> pd.Series:
    """count (non-zero rows) of a BSI blob column."""
    return blob.map(lambda b: BSI.deserialize(b).count())


@F.pandas_udf(LongType())
def bitmap_card_udf(blob: pd.Series) -> pd.Series:
    """cardinality of a RoaringBitmap blob column."""
    return blob.map(lambda b: RoaringBitmap.deserialize(b).cardinality())


@F.pandas_udf(BinaryType())
def bsi_le_const_udf(blob: pd.Series, k: pd.Series) -> pd.Series:
    """(X <= k) per row: BSI blob + long threshold -> bitmap blob."""
    return pd.Series(
        [
            BSI.deserialize(b).le_const(int(kk)).serialize()
            for b, kk in zip(blob, k)
        ]
    )


@F.pandas_udf(DoubleType())
def bsi_sum_filtered_udf(blob: pd.Series, bm: pd.Series) -> pd.Series:
    """sum(X * filter) without materialising the product BSI."""
    return pd.Series(
        [
            float(BSI.deserialize(b).sum_filtered(RoaringBitmap.deserialize(m)))
            for b, m in zip(blob, bm)
        ]
    )


@F.pandas_udf(BinaryType())
def bsi_add_udf(a: pd.Series, b: pd.Series) -> pd.Series:
    """Row-wise BSI addition of two blob columns."""
    return pd.Series(
        [BSI.deserialize(x).add(BSI.deserialize(y)).serialize() for x, y in zip(a, b)]
    )


def grouped_sum_bsi(group_cols: list[str], blob_col: str):
    """applyInPandas function + schema computing sumBSI per group.

    Usage::

        fn, schema = grouped_sum_bsi(["segment_id", "metric_id"], "value")
        df.groupBy("segment_id", "metric_id").applyInPandas(fn, schema)
    """

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        acc = sum_bsi(BSI.deserialize(b) for b in pdf[blob_col])
        row = {c: [pdf.iloc[0][c]] for c in group_cols}
        row[blob_col] = [acc.serialize()]
        return pd.DataFrame(row)

    schema = ", ".join(
        [f"{c} long" for c in group_cols] + [f"{blob_col} binary"]
    )
    return fn, schema


def grouped_distinct_pos(group_cols: list[str], blob_col: str):
    """applyInPandas function + schema computing distinctPos per group
    (binary BSI of positions with a value in any input row)."""

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        acc = RoaringBitmap.empty()
        for b in pdf[blob_col]:
            acc = acc | BSI.deserialize(b).existence()
        row = {c: [pdf.iloc[0][c]] for c in group_cols}
        row[blob_col] = [BSI.from_bitmap(acc).serialize()]
        return pd.DataFrame(row)

    schema = ", ".join(
        [f"{c} long" for c in group_cols] + [f"{blob_col} binary"]
    )
    return fn, schema
