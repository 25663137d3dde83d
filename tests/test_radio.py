import random

import pytest

from cbrsim.radio import REFERENCE_DISTANCE, channel_gain


def test_gain_at_reference_distance():
    # Unit gain at the 1 m reference distance, whatever the exponent.
    assert REFERENCE_DISTANCE == 1.0
    for n in (2.0, 4.0):
        assert channel_gain(n, 1.0) == 1.0


def test_inverse_square_at_twice_reference():
    assert channel_gain(2.0, 2.0) == pytest.approx(0.25, rel=1e-12)


def test_fourth_power_at_ten_reference():
    assert channel_gain(4.0, 10.0) == pytest.approx(1e-4, rel=1e-12)


def test_received_power_hand_value_at_range_edge():
    # unit power, inverse-square, 250 m: 250^-2 = 1.6e-5
    assert channel_gain(2.0, 250.0) == pytest.approx(1.6e-5, rel=1e-12)


def test_received_power_distance_law():
    base = channel_gain(2.0, 100.0)
    assert channel_gain(2.0, 200.0) == pytest.approx(base / 4, rel=1e-12)


@pytest.mark.parametrize("n", [2.0, 3.0, 4.0])
def test_ratio_law_doubling_distance(n):
    for x in (1.0, 7.5, 125.0, 400.0):
        ratio = channel_gain(n, x) / channel_gain(n, 2 * x)
        assert ratio == pytest.approx(2.0**n, rel=1e-9)


def test_monotone_decay():
    gains = [channel_gain(3.0, x) for x in (1.0, 2.0, 5.0, 50.0, 500.0)]
    assert all(a > b for a, b in zip(gains, gains[1:]))


def test_below_reference_distance_rejected():
    with pytest.raises(ValueError):
        channel_gain(2.0, 0.5)


def test_fading_unit_mean_and_seeded():
    rng = random.Random("fading")
    draws = [channel_gain(2.0, 1.0, rng) for _ in range(20_000)]
    assert sum(draws) / len(draws) == pytest.approx(1.0, rel=0.05)
    rng2 = random.Random("fading")
    assert channel_gain(2.0, 1.0, rng2) == draws[0]
