"""Correctness gate: the BSI result of an operation, diffed row by row
against the normal-format result of the same operation.

An empty result on either side is a failure too: a predicate-name typo
gives 0 rows on both sides, and two empty frames would "agree".
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def diff(
    bsi: pd.DataFrame,
    normal: pd.DataFrame,
    keys: list[str],
    values: list[str],
) -> list[str]:
    """Problems found between the two results; empty means they agree.

    Rows are matched on ``keys``; every column in ``values`` must be
    equal (floats within 1e-9 relative)."""
    problems = []
    if len(bsi) == 0 or len(normal) == 0:
        problems.append(f"empty result: bsi={len(bsi)} rows, normal={len(normal)} rows")
        return problems
    if len(bsi) != len(normal):
        problems.append(f"row count: bsi={len(bsi)} normal={len(normal)}")
    (kb, vb), (kn, vn) = _by_key(bsi, keys, values), _by_key(normal, keys, values)
    for name, k in (("bsi", kb), ("normal", kn)):
        dup = int(np.all(k[1:] == k[:-1], axis=1).sum())
        if dup:
            problems.append(f"{name}: {dup} duplicate keys")
    if kb.shape != kn.shape or (kb != kn).any():
        return problems + _unmatched(bsi, normal, keys, values)
    for i, v in enumerate(values):
        bad = ~np.isclose(vb[:, i], vn[:, i], rtol=1e-9, atol=0.0)
        if bad.any():
            problems.append(f"{int(bad.sum())} rows differ in {v}")
    return problems


def _by_key(df: pd.DataFrame, keys: list[str], values: list[str]):
    """Key and value arrays with rows sorted by key."""
    k = df[keys].to_numpy()
    order = np.lexsort(k.T[::-1])
    return k[order], df[values].to_numpy(dtype=np.float64)[order]


def _unmatched(bsi, normal, keys, values) -> list[str]:
    """Problems of two results whose keys differ: keys found on one side
    only, and values that differ on the keys both sides have."""
    problems = []
    m = bsi[keys + values].merge(
        normal[keys + values], on=keys, how="outer",
        suffixes=("_bsi", "_normal"), indicator=True,
    )
    only = m["_merge"].value_counts()
    for side, label in (("left_only", "bsi"), ("right_only", "normal")):
        if only.get(side, 0):
            problems.append(f"{only[side]} keys only in {label}")
    both = m[m["_merge"] == "both"]
    for v in values:
        a = both[f"{v}_bsi"].to_numpy(dtype=np.float64)
        b = both[f"{v}_normal"].to_numpy(dtype=np.float64)
        bad = ~np.isclose(a, b, rtol=1e-9, atol=0.0)
        if bad.any():
            problems.append(f"{int(bad.sum())} rows differ in {v}")
    return problems
