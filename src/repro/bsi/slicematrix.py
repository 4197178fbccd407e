"""Slice matrix: many BSIs over one position universe, stacked as the
rows of one uint64 bit matrix — the batched filtered-sum kernel behind
the ad-hoc engine (§5.3).

Every non-empty slice of every BSI is one row. A row covers the whole
position universe as flat words: word ``w`` holds positions
``64*w .. 64*w + 63`` (bit ``i`` is position ``64*w + i``), i.e. the
bitset containers of all container keys laid end to end and trimmed to
``ceil(n_positions / 64)`` words. Position encoding (§3.4) makes a
segment's positions dense (0..n-1), so the width follows from the
segment's size and needs no setting.

A filter laid out on the same words then answers ``sum_filtered`` for
any set of member BSIs in one ``popcount_rows(M[rows] & f)`` pass plus
a slice-weighted reduction per member (the batched aggregation of
Lemire et al., "Roaring Bitmaps: Implementation of an Optimized
Software Library", SPE 2018).
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bsi import containers as C
from repro.bsi.bitmap import RoaringBitmap
from repro.bsi.bsi import BSI


def flat_words(bm: RoaringBitmap, n_words: int) -> np.ndarray:
    """``bm`` as ``n_words`` flat uint64 words; positions at or past
    ``64 * n_words`` are dropped."""
    out = np.zeros(n_words, dtype=np.uint64)
    for k, c in bm._c.items():
        lo = k * C.BITSET_WORDS
        n = min(C.BITSET_WORDS, n_words - lo)
        if n <= 0:
            continue
        if C.is_bitset(c):
            out[lo : lo + n] = c[:n]
        else:
            bits = np.zeros(64 * n, dtype=np.uint8)
            bits[c[c < 64 * n]] = 1
            out[lo : lo + n] = np.packbits(bits, bitorder="little").view(np.uint64)
    return out


def _last_position(bm: RoaringBitmap) -> int:
    """Largest position in a non-empty ``bm``."""
    k = max(bm._c)
    c = bm._c[k]
    if C.is_array(c):
        return (k << 16) + int(c[-1])
    w = int(np.flatnonzero(c)[-1])
    return (k << 16) + 64 * w + int(c[w]).bit_length() - 1


def _bitmap(words: np.ndarray) -> RoaringBitmap:
    """Inverse of :func:`flat_words` (canonical containers)."""
    out: dict[int, np.ndarray] = {}
    for k, lo in enumerate(range(0, len(words), C.BITSET_WORDS)):
        chunk = words[lo : lo + C.BITSET_WORDS]
        if chunk.any():
            b = np.zeros(C.BITSET_WORDS, dtype=np.uint64)
            b[: len(chunk)] = chunk
            out[k] = C.normalize(b)
    return RoaringBitmap(out)


class SliceMatrix:
    """A sequence of BSIs over positions ``0..n_positions-1``, stored as
    one bit matrix: row ``r`` is slice ``weights[r]`` of BSI ``j`` for
    ``bounds[j] <= r < bounds[j + 1]``."""

    __slots__ = ("words", "weights", "bounds", "n_positions", "nslices", "dtype")

    def __init__(self, bsis: Sequence[BSI], n_positions: int):
        n_words = -(-n_positions // 64)
        rows: list[np.ndarray] = []
        weights: list[int] = []
        bounds = [0]
        for b in bsis:
            for i, s in enumerate(b.slices):
                if not s:
                    continue
                if _last_position(s) >= n_positions:
                    raise ValueError(f"BSI has positions >= n_positions={n_positions}")
                rows.append(flat_words(s, n_words))
                weights.append(i)
            bounds.append(len(rows))
        self.words = np.vstack(rows) if rows else np.zeros((0, n_words), dtype=np.uint64)
        self.weights = np.array(weights, dtype=np.int64)
        self.bounds = np.array(bounds, dtype=np.int64)
        self.n_positions = n_positions
        # A member's filtered sum is below n_positions * 2**nslices: int64
        # holds it (and every partial sum of the reduction) while that
        # bound stays under 2**63; past it the sums are Python ints.
        self.nslices = int(self.weights.max()) + 1 if weights else 0
        self.dtype = np.dtype(
            np.int64 if n_positions.bit_length() + self.nslices <= 63 else object
        )

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def layout(self, bm: RoaringBitmap) -> np.ndarray:
        """``bm`` on this matrix's flat words."""
        return flat_words(bm, self.words.shape[1])

    def sums(self, flt: RoaringBitmap, members: np.ndarray | None = None) -> np.ndarray:
        """Exact ``sum_filtered(flt)`` of each member BSI (every BSI when
        ``members`` is None) in one popcount pass; ``self.dtype``."""
        if members is not None and np.array_equal(members, np.arange(len(self))):
            members = None
        if members is None:
            lo, hi = self.bounds[:-1], self.bounds[1:]
        else:
            members = np.asarray(members, dtype=np.int64)
            lo, hi = self.bounds[members], self.bounds[members + 1]
        n = hi - lo
        out = np.zeros(len(n), dtype=self.dtype)
        keep = n > 0
        if not flt or not keep.any():
            return out
        n = n[keep]
        first = np.cumsum(n) - n
        if members is None:
            m, w = self.words, self.weights
        else:
            rows = np.arange(int(n.sum())) + np.repeat(lo[keep] - first, n)
            m, w = self.words[rows], self.weights[rows]
        counts = C.popcount_rows(m & self.layout(flt)).astype(np.int64)
        if self.dtype == object:
            counts, w = counts.astype(object), w.astype(object)
        out[keep] = np.add.reduceat(counts << w, first)
        return out

    def bsi(self, j: int) -> BSI:
        """Decode member ``j`` back to a :class:`BSI` (canonical form)."""
        lo, hi = int(self.bounds[j]), int(self.bounds[j + 1])
        if lo == hi:
            return BSI()
        slices = [RoaringBitmap() for _ in range(int(self.weights[hi - 1]) + 1)]
        for r in range(lo, hi):
            slices[self.weights[r]] = _bitmap(self.words[r])
        return BSI(slices)
