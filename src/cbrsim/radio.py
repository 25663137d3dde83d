"""Propagation model: power-law channel gain.

Received power follows an inverse n-th power law beyond a close-in reference
distance.  Antenna gains and wavelength are folded into the single
``reference_gain`` constant: the mobility metric consumes only power ratios,
where they cancel.  Connectivity itself is the deterministic tx_range disc,
which the engine tests; received power feeds the mobility metric only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class ChannelModel:
    """Power-law channel: gain = reference_gain * (x / d0)^-n, optional fading.

    With fading enabled, each evaluation multiplies in a unit-mean exponential
    draw (Rayleigh power gain) from the supplied generator.
    """

    reference_distance: float = 1.0
    reference_gain: float = 1.0
    path_loss_exponent: float = 2.0
    fading_enabled: bool = False

    def __post_init__(self) -> None:
        if self.reference_distance <= 0:
            raise ValueError(f"reference_distance must be > 0, got {self.reference_distance}")
        if not (0.0 < self.reference_gain <= 1.0):
            raise ValueError(f"reference_gain must be in (0, 1], got {self.reference_gain}")
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
    if distance < model.reference_distance:
        raise ValueError(
            f"distance {distance} below model validity (d0={model.reference_distance})"
        )
    gain = model.reference_gain * (distance / model.reference_distance) ** (
        -model.path_loss_exponent
    )
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
