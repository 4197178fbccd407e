"""Bit-sliced index (BSI) substrate built on a numpy roaring-bitmap.

Layering (bottom-up):

- :mod:`repro.bsi.containers` — roaring containers: sorted uint16
  array containers and 1024-word uint64 bitset containers, with the
  four bitmap ops dispatched per container pair.
- :mod:`repro.bsi.bitmap` — :class:`RoaringBitmap`, a dict of
  containers keyed by the high 16 bits of each 32-bit position.
- :mod:`repro.bsi.bsi` — :class:`BSI`, an ordered list of bit-slice
  bitmaps with the paper's arithmetic (§2.3), comparisons (Algs 1–3),
  aggregates (§4.1.3) and constant predicates.
- :mod:`repro.bsi.slicematrix` — :class:`SliceMatrix`, many BSIs over
  one position universe as one uint64 bit matrix: batched filtered sums
  in one popcount pass (the ad-hoc engine's resident form).
- :mod:`repro.bsi.sparkops` — Spark integration: BSIs as BinaryType
  columns, pandas UDFs and applyInPandas reducers.
"""
from repro.bsi.bitmap import RoaringBitmap
from repro.bsi.bsi import BSI

__all__ = ["RoaringBitmap", "BSI"]
