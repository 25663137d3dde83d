"""Propagation model: power-law channel gain.

Received power follows an inverse n-th power law beyond a close-in reference
distance, with unit gain there.  Antenna gains and wavelength would only scale
every power by one constant, and the mobility metric consumes only power
ratios, where such a constant cancels.  Connectivity itself is the
deterministic tx_range disc, which the engine tests; received power feeds the
mobility metric only.  :class:`~cbrsim.config.ScenarioConfig` holds the
exponent n (and bounds it to [2, 6]) and the fading switch; the engine passes
a fading generator exactly when that switch is on.
"""

from __future__ import annotations

import random

REFERENCE_DISTANCE = 1.0  # m: the close-in distance d0 where the gain is 1


def channel_gain(
    path_loss_exponent: float,
    distance: float,
    fading_rng: random.Random | None = None,
) -> float:
    """Dimensionless channel gain (distance / d0)^-n.

    With ``fading_rng``, the gain is multiplied by a unit-mean exponential
    draw (Rayleigh power gain) from it.  Valid only at or beyond the
    reference distance.
    """
    if distance < REFERENCE_DISTANCE:
        raise ValueError(
            f"distance {distance} below model validity (d0={REFERENCE_DISTANCE})"
        )
    gain = (distance / REFERENCE_DISTANCE) ** -path_loss_exponent
    if fading_rng is not None:
        gain *= fading_rng.expovariate(1.0)
    return gain
