"""Percentiles for benchmark figures."""
from __future__ import annotations

import math

#: a percentile is reported only with at least this many samples above it
MIN_BEYOND = 10


def percentile(xs: list[float], q: float) -> float | None:
    """Nearest-rank ``q``-th percentile (0 < q < 100), or ``None`` when
    fewer than :data:`MIN_BEYOND` samples lie above it."""
    s = sorted(xs)
    rank = math.ceil(q / 100.0 * len(s))
    if rank < 1 or len(s) - rank < MIN_BEYOND:
        return None
    return s[rank - 1]
