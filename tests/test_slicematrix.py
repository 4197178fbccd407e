"""SliceMatrix kernel vs the per-BSI ``sum_filtered`` loop it replaces:
exact (Python-int) equality on random BSIs, filters and member lists."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bsi.bitmap import RoaringBitmap
from repro.bsi.bsi import BSI
from repro.bsi.slicematrix import SliceMatrix

U64_MAX = (1 << 64) - 1

# 2**k - 1 / 2**k / 2**k + 1 edges, small values, and values past 2**53
# where a float accumulation would round
edge_values = st.integers(0, 63).flatmap(
    lambda k: st.sampled_from([(1 << k) - 1, 1 << k, min((1 << k) + 1, U64_MAX)])
)
values = st.one_of(edge_values, st.integers(0, 1000), st.integers(1 << 53, U64_MAX))


@st.composite
def bsi_in(draw, n: int) -> BSI:
    if draw(st.booleans()):
        # a dense run: bitset containers, random values of a drawn width
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        lo = draw(st.integers(0, n - 1))
        pos = np.arange(lo, min(n, lo + draw(st.integers(1, 6000))))
        shift = np.uint64(draw(st.integers(0, 63)))
        vals = rng.integers(0, U64_MAX, len(pos), dtype=np.uint64, endpoint=True) >> shift
        return BSI.from_arrays(pos, vals)
    d = draw(st.dictionaries(st.integers(0, n - 1), values, max_size=40))
    return BSI.from_arrays(list(d), list(d.values()))


@st.composite
def filter_in(draw, n: int) -> RoaringBitmap:
    kind = draw(st.sampled_from(["empty", "sparse", "dense"]))
    if kind == "empty":
        return RoaringBitmap()
    if kind == "sparse":
        # may reach past the universe: those positions hold no values
        return RoaringBitmap.from_array(sorted(draw(st.sets(st.integers(0, n + 200), max_size=80))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    return RoaringBitmap.from_array(np.flatnonzero(rng.random(n) < draw(st.floats(0.05, 1.0))))


@st.composite
def cases(draw):
    # one container key, or 2-3 keys with a tail that is rarely a multiple of 64
    n = draw(st.one_of(st.integers(1, 300), st.integers(65_537, 3 * 65_536)))
    bsis = draw(st.lists(bsi_in(n), min_size=1, max_size=4))
    if draw(st.booleans()):
        bsis.insert(draw(st.integers(0, len(bsis))), BSI())
    members = draw(st.lists(st.integers(0, len(bsis) - 1), max_size=6))
    return n, bsis, draw(filter_in(n)), members


def _ints(a) -> list[int]:
    return [int(x) for x in a]


@settings(max_examples=150, deadline=None)
@given(cases())
def test_sums_equal_sum_filtered(case):
    n, bsis, flt, members = case
    m = SliceMatrix(bsis, n)
    expect = [b.sum_filtered(flt) for b in bsis]
    assert _ints(m.sums(flt)) == expect
    assert _ints(m.sums(flt, np.array(members, dtype=np.int64))) == [expect[j] for j in members]
    # the matrix is the only store: it decodes back to the same BSIs
    for j, b in enumerate(bsis):
        assert m.bsi(j) == b
        assert m.bsi(j).serialize() == b.copy().serialize()


def test_width_is_the_universe():
    m = SliceMatrix([BSI.from_arrays([0, 65_536, 70_000], [1, 2, 3])], 70_001)
    assert m.words.shape == (2, -(-70_001 // 64))
    assert m.sums(RoaringBitmap.from_array([70_000]))[0] == 3


def test_int64_until_the_bound_then_exact_python_ints():
    n = 70_000  # bit_length 17
    pos = np.arange(0, n, 7)
    small = SliceMatrix([BSI.from_arrays(pos, np.full(len(pos), (1 << 46) - 1, np.uint64))], n)
    assert small.dtype == np.int64  # 17 + 46 slices = 63
    big_vals = np.full(len(pos), (1 << 62) + 1, dtype=np.uint64)
    big = SliceMatrix([BSI.from_arrays(pos, big_vals)], n)
    assert big.dtype == object
    flt = RoaringBitmap.from_array(pos)
    exact = len(pos) * ((1 << 62) + 1)
    (got,) = big.sums(flt)
    assert type(got) is int and got == exact == BSI.from_arrays(pos, big_vals).sum_filtered(flt)
    assert float(np.sum(big_vals.astype(np.float64))) != exact  # float would round


def test_empty_filter_empty_bsi_empty_matrix():
    b = BSI.from_arrays([1, 5], [3, 4])
    m = SliceMatrix([BSI(), b, BSI()], 10)
    assert _ints(m.sums(RoaringBitmap())) == [0, 0, 0]
    assert _ints(m.sums(RoaringBitmap.from_array([1, 5]))) == [0, 7, 0]
    assert m.bsi(0) == BSI() and m.bsi(1) == b
    none = SliceMatrix([], 0)
    assert len(none) == 0 and none.sums(RoaringBitmap.from_array([1])).shape == (0,)


def test_positions_past_the_universe_rejected():
    with pytest.raises(ValueError, match="n_positions"):
        SliceMatrix([BSI.from_arrays([64], [1])], 64)
