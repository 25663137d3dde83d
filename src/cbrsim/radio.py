"""Propagation model: power-law channel gain.

Received power follows an inverse n-th power law beyond a close-in reference
distance, with unit gain there.  Antenna gains and wavelength would only scale
every power by one constant, and the mobility metric consumes only power
ratios, where such a constant cancels.  Connectivity itself is the
deterministic tx_range disc, which the engine tests; received power feeds the
mobility metric only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

REFERENCE_DISTANCE = 1.0  # m: the close-in distance d0 where the gain is 1


@dataclass(frozen=True)
class ChannelModel:
    """Power-law channel: gain = (x / d0)^-n, optional fading.

    With fading enabled, each evaluation multiplies in a unit-mean exponential
    draw (Rayleigh power gain) from the supplied generator.
    """

    path_loss_exponent: float = 2.0
    fading_enabled: bool = False

    def __post_init__(self) -> None:
        if not (2.0 <= self.path_loss_exponent <= 6.0):
            raise ValueError(
                f"path_loss_exponent must be in [2, 6], got {self.path_loss_exponent}"
            )


def channel_gain(
    model: ChannelModel, distance: float, rng: random.Random | None = None
) -> float:
    """Dimensionless channel gain at transmitter-receiver separation ``distance``.

    Valid only at or beyond the reference distance.
    """
    if distance < REFERENCE_DISTANCE:
        raise ValueError(
            f"distance {distance} below model validity (d0={REFERENCE_DISTANCE})"
        )
    gain = (distance / REFERENCE_DISTANCE) ** -model.path_loss_exponent
    if model.fading_enabled:
        if rng is None:
            raise ValueError("fading enabled but no rng supplied")
        gain *= rng.expovariate(1.0)
    return gain


def received_power(
    model: ChannelModel,
    tx_power: float,
    distance: float,
    rng: random.Random | None = None,
) -> float:
    """Received power for a transmission at ``tx_power`` over ``distance``."""
    if tx_power <= 0:
        raise ValueError(f"tx_power must be > 0, got {tx_power}")
    return tx_power * channel_gain(model, distance, rng)
