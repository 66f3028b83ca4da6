"""Order statistics: the same quartile rule as the driver's acceptance test."""

import statistics

import pytest

import stats


def test_median_and_quartiles_follow_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
    assert stats.median(values) == 5.5
    assert stats.quartiles(values) == statistics.quantiles(values, n=4)
    q1, q2, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


def test_single_sample_has_no_spread():
    assert stats.quartiles([3.0]) == [3.0, 3.0, 3.0]
    assert stats.spread([3.0]) == 0.0
    assert stats.summarize([3.0]) == {"median": 3.0, "min": 3.0, "max": 3.0, "q1": 3.0,
                                      "q3": 3.0, "n": 1}


def test_quiet_quartile_takes_the_good_side_and_stays_inside_the_sample():
    rounds = [100.0, 101.0, 102.0, 103.0, 60.0]  # one round hit by interference
    assert stats.quiet_quartile(rounds, "higher") == 102.0
    assert stats.quiet_quartile([10.0, 10.5, 11.0, 11.5, 30.0], "lower") == 10.5
    # two or three rounds interpolate, never extrapolate past the best one
    assert stats.quiet_quartile([10.0, 20.0], "lower") == 12.5
    assert stats.quiet_quartile([10.0, 20.0], "higher") == 17.5
    assert stats.quiet_quartile([7.0], "lower") == 7.0


def test_percentile_interpolates_over_pooled_samples():
    run_a, run_b = [1.0, 3.0, 5.0], [2.0, 4.0]
    pooled = run_a + run_b
    assert stats.percentile(pooled, 0) == 1.0
    assert stats.percentile(pooled, 50) == 3.0
    assert stats.percentile(pooled, 100) == 5.0
    assert stats.percentile(pooled, 99) == pytest.approx(4.96)
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_geomean_and_worsening():
    assert stats.geomean([0.25, 4.0]) == pytest.approx(1.0)
    assert stats.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert stats.worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert stats.worsening(0.0, 0.0, "lower") == 0.0
