"""Walk through the signal-level building blocks.

Received power falls off as an inverse power of distance; the ratio of two
successive reception powers from the same neighbor tells you whether that
neighbor is approaching or receding; and the mean of squared ratios over a
whole neighborhood summarizes how much the local topology is churning.
"""

from cbrsim import aggregate_mobility, received_power, relative_mobility

N = 2.0  # path-loss exponent: inverse-square law

print("received power vs distance (unit transmit power, inverse-square law)")
for distance in (1, 10, 50, 125, 250):
    power = received_power(N, 1.0, float(distance))
    print(f"  {distance:>4} m -> {power:.3e}")

print()
print("doubling the distance always divides power by 2^n:")
for n in (2.0, 3.0, 4.0):
    ratio = received_power(n, 1.0, 100.0) / received_power(n, 1.0, 200.0)
    print(f"  n={n:g}: ratio = {ratio:.6f} (expected {2**n:g})")

print()
print("relative mobility from successive hello receptions (dB):")
pairs = [
    ("approaching fast ", received_power(N, 1.0, 240.0), received_power(N, 1.0, 120.0)),
    ("approaching slow ", received_power(N, 1.0, 130.0), received_power(N, 1.0, 120.0)),
    ("holding distance ", received_power(N, 1.0, 120.0), received_power(N, 1.0, 120.0)),
    ("receding         ", received_power(N, 1.0, 120.0), received_power(N, 1.0, 200.0)),
]
samples = []
for label, old, new in pairs:
    value = relative_mobility(new, old)
    samples.append(value)
    print(f"  {label} {value:+8.2f}")

print()
print("aggregate mobility = variance about zero of those samples:")
print(f"  M = {aggregate_mobility(samples):.2f}  (a parked node scores 0)")
