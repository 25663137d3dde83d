import random

import pytest

from cbrsim.radio import REFERENCE_DISTANCE, ChannelModel, channel_gain, received_power


def test_gain_at_reference_distance():
    # Unit gain at the 1 m reference distance, whatever the exponent.
    assert REFERENCE_DISTANCE == 1.0
    for n in (2.0, 4.0):
        assert channel_gain(ChannelModel(path_loss_exponent=n), 1.0) == 1.0


def test_inverse_square_at_twice_reference():
    model = ChannelModel(path_loss_exponent=2.0)
    assert channel_gain(model, 2.0) == pytest.approx(0.25, rel=1e-12)


def test_fourth_power_at_ten_reference():
    model = ChannelModel(path_loss_exponent=4.0)
    assert channel_gain(model, 10.0) == pytest.approx(1e-4, rel=1e-12)


def test_received_power_hand_value_at_range_edge():
    # unit power, inverse-square, 250 m: 250^-2 = 1.6e-5
    model = ChannelModel(path_loss_exponent=2.0)
    assert received_power(model, 1.0, 250.0) == pytest.approx(1.6e-5, rel=1e-12)


def test_received_power_linearity_and_distance_law():
    model = ChannelModel(path_loss_exponent=2.0)
    base = received_power(model, 1.0, 100.0)
    assert received_power(model, 3.0, 100.0) == pytest.approx(3 * base, rel=1e-12)
    assert received_power(model, 1.0, 200.0) == pytest.approx(base / 4, rel=1e-12)


@pytest.mark.parametrize("n", [2.0, 3.0, 4.0])
def test_ratio_law_doubling_distance(n):
    model = ChannelModel(path_loss_exponent=n)
    for x in (1.0, 7.5, 125.0, 400.0):
        ratio = received_power(model, 1.0, x) / received_power(model, 1.0, 2 * x)
        assert ratio == pytest.approx(2.0**n, rel=1e-9)


def test_monotone_decay():
    model = ChannelModel(path_loss_exponent=3.0)
    gains = [channel_gain(model, x) for x in (1.0, 2.0, 5.0, 50.0, 500.0)]
    assert all(a > b for a, b in zip(gains, gains[1:]))


def test_below_reference_distance_rejected():
    model = ChannelModel()
    with pytest.raises(ValueError):
        channel_gain(model, 0.5)


def test_nonpositive_power_rejected():
    model = ChannelModel()
    with pytest.raises(ValueError):
        received_power(model, 0.0, 10.0)


def test_model_validation():
    with pytest.raises(ValueError):
        ChannelModel(path_loss_exponent=1.0)


def test_fading_unit_mean_and_seeded():
    model = ChannelModel(fading_enabled=True)
    rng = random.Random("fading")
    draws = [channel_gain(model, 1.0, rng) for _ in range(20_000)]
    assert sum(draws) / len(draws) == pytest.approx(1.0, rel=0.05)
    rng2 = random.Random("fading")
    assert channel_gain(model, 1.0, rng2) == draws[0]


def test_fading_requires_rng():
    model = ChannelModel(fading_enabled=True)
    with pytest.raises(ValueError):
        channel_gain(model, 2.0)
