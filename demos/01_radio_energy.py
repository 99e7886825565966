"""
The first-order radio energy model
==================================

Where the d^2 / d^4 amplifier crossover sits, what a transmission costs,
and why distance dominates the budget on long hops.
"""

from qempar import RadioParams, rx_energy, tx_energy

params = RadioParams()

# The crossover distance d0 falls out of the two amplifier constants:
# below it the open-space d^2 term applies, above it multi-path fading
# forces the much steeper d^4 term.
d0 = params.d0
print(f"amplifier threshold d0 = {d0:.6f} m")

# One 512-byte packet is 4096 bits. Receiving costs electronics energy
# only, so it is distance-independent.
bits = 4096
print(f"rx_energy({bits})        = {rx_energy(bits, params) * 1e6:10.3f} uJ")

# Transmission cost by distance. Watch the jump in slope once d > d0.
print(f"\n{'distance (m)':>12}  {'tx energy (uJ)':>14}  regime")
for d in (10, 20, 40, 80, d0, 88, 100, 150):
    regime = "d^2 open space" if d <= d0 else "d^4 multi-path"
    print(f"{d:12.3f}  {tx_energy(bits, d, params) * 1e6:14.3f}  {regime}")

# The model is continuous at the threshold: both amplifiers agree there.
below = tx_energy(bits, d0 * (1 - 1e-12), params)
above = tx_energy(bits, d0 * (1 + 1e-12), params)
print(f"\ncontinuity at d0: {below * 1e6:.6f} uJ vs {above * 1e6:.6f} uJ")

# A 40 m hop costs ~270 uJ to send and ~205 uJ to receive, so one
# fragment crossing 14 hops spends roughly 6.6 mJ of network energy.
hop = tx_energy(bits, 40.0, params) + rx_energy(bits, params)
print(f"one 40 m hop, both sides: {hop * 1e6:.3f} uJ;  14 hops: {14 * hop * 1e3:.3f} mJ")
