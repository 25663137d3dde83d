"""Walk through the signal-level building blocks.

Received power falls off as an inverse power of distance; the ratio of two
successive reception powers from the same neighbor tells you whether that
neighbor is approaching or receding; and the mean of squared ratios over a
whole neighborhood summarizes how much the local topology is churning.
"""

from cbrsim import aggregate_mobility, relative_mobility
from cbrsim.radio import channel_gain

N = 2.0  # path-loss exponent: inverse-square law

# At unit transmit power the received power equals the channel gain.
print("received power vs distance (unit transmit power, inverse-square law)")
for distance in (1, 10, 50, 125, 250):
    power = channel_gain(N, float(distance))
    print(f"  {distance:>4} m -> {power:.3e}")

print()
print("doubling the distance always divides power by 2^n:")
for n in (2.0, 3.0, 4.0):
    ratio = channel_gain(n, 100.0) / channel_gain(n, 200.0)
    print(f"  n={n:g}: ratio = {ratio:.6f} (expected {2**n:g})")

print()
print("relative mobility from successive hello receptions (dB):")
pairs = [
    ("approaching fast ", channel_gain(N, 240.0), channel_gain(N, 120.0)),
    ("approaching slow ", channel_gain(N, 130.0), channel_gain(N, 120.0)),
    ("holding distance ", channel_gain(N, 120.0), channel_gain(N, 120.0)),
    ("receding         ", channel_gain(N, 120.0), channel_gain(N, 200.0)),
]
samples = []
for label, old, new in pairs:
    value = relative_mobility(new, old)
    samples.append(value)
    print(f"  {label} {value:+8.2f}")

print()
print("aggregate mobility = variance about zero of those samples:")
print(f"  M = {aggregate_mobility(samples):.2f}  (a parked node scores 0)")
