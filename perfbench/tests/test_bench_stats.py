from harness.stats import MIN_BEYOND, percentile


def test_percentile_needs_ten_samples_beyond():
    xs = list(range(1, 20))  # 19 samples: p50 rank 10, 9 above it
    assert percentile(xs, 50) is None
    xs = list(range(1, 21))  # 20 samples: p50 rank 10, 10 above it
    assert percentile(xs, 50) == 10


def test_p90_needs_a_hundred_samples():
    assert percentile(list(range(99)), 90) is None
    xs = list(range(1, 101))
    assert percentile(xs, 90) == 90
    assert len([x for x in xs if x > percentile(xs, 90)]) == MIN_BEYOND


def test_percentile_ignores_input_order():
    xs = [5.0, 1.0, 3.0] * 10
    assert percentile(xs, 50) == percentile(sorted(xs), 50) == 3.0
