"""
Jump-intensity quantiles from discrete increments
=================================================

Observe a Levy process on a fixed time grid, tabulate the curvature of
its characteristic exponent from the empirical characteristic function on
a frequency grid, and invert that table into tail intensities and their
quantiles.

The model here is a unit-rate compound Poisson process with Exp(1) jump
sizes, chosen because everything is available in closed form: the tail
intensity is N(t) = e^{-t} for t > 0, so the right 0.5-quantile is
exactly log 2.
"""

import math

import numpy as np

from levyq import (
    FrequencyGrid,
    IncrementSampler,
    LevyModel,
    exponent_curvature,
    exponential_jumps,
    flat_top_kernel,
    psi2_from_increments,
    quantile_from_distribution,
    sample_increments,
    tail_estimates,
)

# --- the observed process --------------------------------------------------

jumps = exponential_jumps(intensity=1.0, rate=1.0)
model = LevyModel(sigma2=0.0, gamma=0.0, jumps=jumps)
print("model: compound Poisson, intensity 1, Exp(1) jump sizes")
print(f"total jump intensity: {jumps.total_mass}")

# n increments at spacing 0.5, drawn by compounding the Poisson count
sampler = IncrementSampler(model=model, delta=0.5,
                           method="exact-compound-poisson", seed=7)
sample = sample_increments(sampler, n=50_000)
print(f"observed {sample.values.size} increments, spacing {sample.delta}")

# --- curvature of the characteristic exponent ------------------------------

# the table holds estimates of psi''(u) = -int x^2 e^{iux} nu(dx) on the
# positive nodes of a grid covering the kernel band |u| <= 1/h; outside the
# trust region |phi_hat| >= (delta n)^{-1/2} they are exactly zero
h = 0.05
spectra = psi2_from_increments(sample, FrequencyGrid(cutoff=1.0 / h,
                                                     points=2 ** 13))
print(f"{spectra.trusted.sum()} of {spectra.grid.u.size} frequency nodes "
      "trusted")

u_nodes = spectra.grid.u
for u in (0.0, 2.0, 5.0):
    i = int(np.argmin(np.abs(u_nodes - u)))
    want = exponent_curvature(model, u_nodes[i])
    print(f"psi''({u_nodes[i]:6.3f}): estimate {spectra.psi2[i]:+.4f}, "
          f"exact {want:+.4f}")

# --- inversion at a fixed bandwidth -----------------------------------------

kernel = flat_top_kernel(0.5)
tail = tail_estimates(spectra, kernel, [h])[0]

print(f"\njump density at t = 0.7: estimate {tail.density(0.7):.4f}, "
      f"exact {math.exp(-0.7):.4f}")
print(f"tail intensity at t = 0.7: estimate {tail(0.7):.4f}, "
      f"exact {math.exp(-0.7):.4f}")

# --- generalized quantiles ---------------------------------------------------

# right 0.5-quantile: smallest t with at most 0.5 jumps larger than t
# per unit time; exact answer log 2
est = quantile_from_distribution(tail, tau=0.5, eta=0.02, side="+")
print(f"\nright 0.5-quantile: estimate {est.value:.4f}, "
      f"exact {math.log(2.0):.4f} (error {abs(est.value - math.log(2)):.4f})")

# the process has no negative jumps, so on the left side the tail never
# reaches 0.5 and the estimate clamps to the threshold eta
est_left = quantile_from_distribution(tail, tau=0.5, eta=0.02, side="-")
print(f"left 0.5-quantile: estimate {est_left.value:.4f}, "
      f"at_threshold = {est_left.at_threshold} (no negative jumps)")

# intensities concentrate near 0, so quantiles for tau above the total
# mass (here 1.0) do not exist; the estimator reports the threshold
est_big = quantile_from_distribution(tail, tau=10.0, eta=0.02, side="+")
print(f"tau = 10 exceeds the total intensity: estimate clamps to "
      f"eta = {est_big.value} with at_threshold = {est_big.at_threshold}")
