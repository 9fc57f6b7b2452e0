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
    ExponentialJumps,
    FrequencyGrid,
    LevyModel,
    TailInversion,
    exponent_curvature,
    flat_top_kernel,
    grid_points,
    psi2_from_increments,
    sample_increments,
    tail_quantiles,
)

# --- the observed process --------------------------------------------------

jumps = ExponentialJumps(intensity=1.0, rate=1.0)
model = LevyModel(sigma2=0.0, gamma=0.0, jumps=jumps)
print("model: compound Poisson, intensity 1, Exp(1) jump sizes")
print(f"total jump intensity: {jumps.intensity}")

# n increments at spacing 0.5, drawn by compounding the Poisson count
sample = sample_increments(model, 0.5, "exact-compound-poisson", seed=7,
                           n=50_000)
print(f"observed {sample.values.size} increments, spacing {sample.delta}")

# --- curvature of the characteristic exponent ------------------------------

# the table holds estimates of psi''(u) = -int x^2 e^{iux} nu(dx) on the
# positive nodes of a grid covering the kernel band |u| <= 1/h; outside the
# trust region |phi_hat| >= (delta n)^{-1/2} they are exactly zero.  The
# node count comes from the sizing rule: the grid's period must cover the
# tail nodes (out to x_max = 5) and the range of the sample six times over
h = 0.05
points = grid_points(1.0 / h, 5.0, np.ptp(sample.values))
spectra = psi2_from_increments(sample, FrequencyGrid(cutoff=1.0 / h,
                                                     points=points))
print(f"{spectra.trusted.sum()} of {spectra.grid.u.size} frequency nodes "
      f"trusted ({points} spectral points)")

u_nodes = spectra.grid.u
for u in (0.0, 2.0, 5.0):
    i = int(np.argmin(np.abs(u_nodes - u)))
    want = exponent_curvature(model, u_nodes[i])
    print(f"psi''({u_nodes[i]:6.3f}): estimate {spectra.psi2[i]:+.4f}, "
          f"exact {want:+.4f}")

# --- inversion at a fixed bandwidth -----------------------------------------

# the inversion of every table on this grid at bandwidth h: tail nodes out
# to x_max = 5, kernel profile fk(h u) and the plan of the inverse transform
inversion = TailInversion(spectra.grid, flat_top_kernel(0.5), [h], x_max=5.0)
table = inversion.table(spectra)

# the table holds nu_h and N_h at the tail nodes, side '+' in row 1 and
# bandwidth h in column 0; t = 0.7 is a node (to rounding)
density = np.interp(0.7, table.nodes, table.density[1, 0])
tail = np.interp(0.7, table.nodes, table.tail[1, 0])
print(f"\njump density at t = 0.7: estimate {density:.4f}, "
      f"exact {math.exp(-0.7):.4f}")
print(f"tail intensity at t = 0.7: estimate {tail:.4f}, "
      f"exact {math.exp(-0.7):.4f}")

# --- generalized quantiles ---------------------------------------------------

# right quantiles at levels 0.5 and 10, one pass over the table.  At 0.5:
# the smallest t with at most 0.5 jumps larger than t per unit time, exact
# answer log 2.  Intensities concentrate near 0, so quantiles for tau above
# the total mass (here 1.0) do not exist; the estimator reports the
# threshold eta
values, clamped = tail_quantiles(table, [0.5, 10.0], eta=0.02, side="+")
est = values[0, 0]
print(f"\nright 0.5-quantile: estimate {est:.4f}, "
      f"exact {math.log(2.0):.4f} (error {abs(est - math.log(2)):.4f})")

# the process has no negative jumps, so on the left side the tail never
# reaches 0.5 and the estimate clamps to the threshold eta
left, left_clamped = tail_quantiles(table, [0.5], eta=0.02, side="-")
print(f"left 0.5-quantile: estimate {left[0, 0]:.4f}, "
      f"at_threshold = {left_clamped[0, 0]} (no negative jumps)")

print(f"tau = 10 exceeds the total intensity: estimate clamps to "
      f"eta = {values[1, 0]} with at_threshold = {clamped[1, 0]}")
