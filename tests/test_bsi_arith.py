"""BSI arithmetic vs a plain numpy/dict reference model.

The reference model is a python dict {position: value} with zeros
absent — exactly the paper's "zero means non-existing" convention.
"""
import numpy as np
import pytest

from repro.bsi.bsi import BSI


def ref(d):
    """dict -> BSI"""
    d = {p: v for p, v in d.items() if v != 0}
    if not d:
        return BSI.empty()
    pos = np.array(sorted(d), dtype=np.uint32)
    vals = np.array([d[p] for p in sorted(d)], dtype=np.uint64)
    return BSI.from_arrays(pos, vals)


def as_dict(b: BSI):
    pos, vals = b.to_arrays()
    return dict(zip(pos.tolist(), vals.tolist()))


def rand_dict(seed, n=500, vmax=1000, pmax=100_000):
    g = np.random.default_rng(seed)
    pos = np.unique(g.integers(0, pmax, n))
    vals = g.integers(0, vmax, len(pos))  # includes zeros -> dropped
    return {int(p): int(v) for p, v in zip(pos, vals) if v}


PAIRS = [
    ({}, {}),
    ({1: 5}, {}),
    ({1: 5}, {1: 7}),
    ({0: 1, 1: 1}, {0: 1, 2: 3}),
    ({i: i for i in range(1, 50)}, {i: 2 * i for i in range(25, 75)}),
    (rand_dict(0), rand_dict(1)),
    (rand_dict(2, vmax=10), rand_dict(3, vmax=100_000)),
    (rand_dict(4, n=5000, pmax=20_000), rand_dict(5, n=5000, pmax=20_000)),
]


@pytest.mark.parametrize("x,y", PAIRS, ids=range(len(PAIRS)))
def test_add(x, y):
    expect = {p: x.get(p, 0) + y.get(p, 0) for p in set(x) | set(y)}
    assert as_dict(ref(x).add(ref(y))) == expect


@pytest.mark.parametrize("x,y", PAIRS, ids=range(len(PAIRS)))
def test_subtract_where_defined(x, y):
    # subtraction is defined where X >= Y; build such a pair from x,y
    big = {p: x.get(p, 0) + y.get(p, 0) for p in set(x) | set(y)}
    expect = {p: big[p] - y.get(p, 0) for p in big}
    expect = {p: v for p, v in expect.items() if v != 0}
    assert as_dict(ref(big).subtract(ref(y))) == expect


@pytest.mark.parametrize("x,y", PAIRS, ids=range(len(PAIRS)))
def test_multiply_general(x, y):
    expect = {p: x[p] * y[p] for p in set(x) & set(y)}
    expect = {p: v for p, v in expect.items() if v != 0}
    assert as_dict(ref(x).multiply(ref(y))) == expect


@pytest.mark.parametrize("x,y", PAIRS, ids=range(len(PAIRS)))
def test_multiply_binary(x, y):
    bm = ref(y).existence()
    expect = {p: v for p, v in x.items() if p in y}
    assert as_dict(ref(x).multiply_binary(bm)) == expect


@pytest.mark.parametrize("x", [d for d, _ in PAIRS if d], ids=range(7))
@pytest.mark.parametrize("k", [1, 2, 7, 255, 256])
def test_add_const(x, k):
    expect = {p: v + k for p, v in x.items()}
    assert as_dict(ref(x).add_const(k)) == expect
    back = ref(x).add_const(k).add_const(-k)
    assert as_dict(back) == x


def test_shift_left():
    x = rand_dict(11)
    assert as_dict(ref(x).shift_left(3)) == {p: v * 8 for p, v in x.items()}


def test_roundtrip_from_to_arrays():
    x = rand_dict(12, vmax=1 << 40)
    assert as_dict(ref(x)) == x


def test_zero_values_dropped():
    b = BSI.from_arrays([1, 2, 3], [0, 5, 0])
    assert as_dict(b) == {2: 5}
    assert b.count() == 1


def test_duplicate_positions_rejected():
    with pytest.raises(ValueError):
        BSI.from_arrays([1, 1], [2, 3])


@pytest.mark.parametrize(
    "vals", [[-1], np.array([3, -2], dtype=np.int64), np.array([-(1 << 40)], dtype=np.int64)]
)
def test_negative_values_rejected(vals):
    with pytest.raises(ValueError, match="values"):
        BSI.from_arrays(np.arange(len(vals)), vals)


@pytest.mark.parametrize(
    "pos", [[(1 << 32) + 5], np.array([1, 1 << 32], dtype=np.uint64), [-1]]
)
def test_positions_outside_uint32_rejected(pos):
    with pytest.raises(ValueError, match="positions"):
        BSI.from_arrays(pos, np.ones(len(pos), dtype=np.uint64))


def test_boundary_inputs_accepted():
    b = BSI.from_arrays(np.array([0, (1 << 32) - 1], dtype=np.int64), [1, (1 << 64) - 1])
    assert as_dict(b) == {0: 1, (1 << 32) - 1: (1 << 64) - 1}
    assert BSI.from_arrays([], []).nslices() == 0


def test_serde_roundtrip():
    for d, _ in PAIRS:
        b = ref(d)
        b2 = BSI.deserialize(b.serialize())
        assert b == b2
        assert b.nbytes() == len(b.serialize())


def test_from_bitmap():
    bm = ref(rand_dict(13)).existence()
    b = BSI.from_bitmap(bm)
    assert set(as_dict(b).values()) <= {1}
    assert b.existence() == bm
