"""Samplers for process increments over a fixed time spacing.

Two methods:

* ``exact-compound-poisson`` — draws the jump count and the Exp(rate) jump
  sizes exactly; requires exponential compound-Poisson jumps.
* ``inverse-cdf-from-characteristic-function`` — tabulates the increment
  density by FFT inversion of the closed-form characteristic function on a
  wide grid and samples by inverse transform; works for any model whose
  increment law is (absolutely) continuous, with an explicit atom split
  for driftless compound-Poisson models where the no-jump event has
  positive mass.

Convention: the sampled increment law has mean delta * (gamma + int x nu),
matching the plain sum form gamma*delta + sigma*sqrt(delta)*Z + sum J_i for
finite activity.  The characteristic-function route therefore tilts the
compensated exponent by +iu * int x nu.  Downstream curvature estimation is
exactly drift-invariant, so the convention never touches estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .increments import IncrementSample
from .models import (
    ExponentialJumps,
    LevyModel,
    characteristic_exponent,
    jump_mean,
    jump_second_moment,
)

__all__ = [
    "METHODS",
    "IncrementSampler",
    "sample_increments",
]

METHODS = (
    "exact-compound-poisson",
    "inverse-cdf-from-characteristic-function",
)

# most jumps one exact compound-Poisson draw holds (see the sampler)
_MAX_JUMPS = 10 ** 7

# inverse-CDF tabulation: grid size and half-width in standard deviations
_ICDF_POINTS = 2 ** 16
_ICDF_SPAN_SDS = 12.0


@dataclass(frozen=True)
class IncrementSampler:
    """Recipe for drawing i.i.d. increments: model, spacing, method, seed."""

    model: LevyModel
    delta: float
    method: str
    seed: int

    def __post_init__(self):
        if not self.delta > 0:
            raise InputError(f"time spacing must be positive, got {self.delta}")
        if self.method not in METHODS:
            raise InputError(
                f"unknown method {self.method!r}; choose one of {METHODS}"
            )


def sample_increments(sampler: IncrementSampler, n: int) -> IncrementSample:
    """Draw n independent increments; same sampler (and n) -> same bytes."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(sampler.seed)
    model = sampler.model
    delta = sampler.delta
    if sampler.method == "exact-compound-poisson":
        values = _sample_compound_poisson(rng, model, delta, n)
    else:
        values = _sample_inverse_cdf(rng, model, delta, n)
    return IncrementSample(values=values, delta=delta)


def _sample_compound_poisson(rng, model, delta, n):
    """n increments drawn exactly: jump counts, diffusion, jump sizes.

    All jump sizes are drawn in one array, and with their owner indices
    they take about 16 bytes a jump (peak RSS measured at 10^7 jumps).  A
    draw of more than _MAX_JUMPS = 10^7 jumps, about 160 MB, is refused
    once the counts are known, before any size is drawn.
    """
    jumps = model.jumps
    if not isinstance(jumps, ExponentialJumps):
        raise InputError(
            "exact-compound-poisson requires finite-activity jumps"
        )
    lam = jumps.intensity
    # fixed draw order (counts, diffusion, jump sizes) for reproducibility
    try:
        counts = rng.poisson(lam * delta, size=n)
    except ValueError as exc:
        raise InputError(
            f"cannot draw Poisson jump counts at intensity * increment_delta "
            f"= {lam * delta:.3g} ({exc})") from None
    total = int(counts.sum())
    if total > _MAX_JUMPS:
        raise InputError(
            f"{total} jumps in {n} increments (intensity * increment_delta "
            f"= {lam * delta:.3g}) exceed the cap of {_MAX_JUMPS} jumps per "
            "draw; lower the intensity, increment_delta or n")
    z = rng.standard_normal(n)
    sums = np.zeros(n)
    if total:
        sizes = rng.exponential(scale=1.0 / jumps.rate, size=total)
        owner = np.repeat(np.arange(n), counts)
        sums = np.bincount(owner, weights=sizes, minlength=n)
    return model.gamma * delta + math.sqrt(model.sigma2 * delta) * z + sums


def _sample_inverse_cdf(rng, model, delta, n):
    jumps = model.jumps
    m1 = jump_mean(jumps)
    mean = delta * (model.gamma + m1)
    var = delta * (model.sigma2 + jump_second_moment(jumps))
    if var == 0.0:
        return np.full(n, mean)
    half = _ICDF_SPAN_SDS * math.sqrt(var)
    M = _ICDF_POINTS
    x0 = mean - half
    dx = 2.0 * half / M
    x = x0 + dx * np.arange(M)
    u = 2.0 * math.pi * np.fft.fftfreq(M, d=dx)
    # cf of the mean-uncompensated increment law
    phi = np.exp(delta * (characteristic_exponent(model, u) + 1j * u * m1))

    atom_mass = 0.0
    atom_at = model.gamma * delta
    if isinstance(jumps, ExponentialJumps) and model.sigma2 == 0.0:
        # no-jump event has positive probability: split it off so the FFT
        # only has to represent the continuous remainder
        atom_mass = math.exp(-jumps.intensity * delta)
        phi = phi - atom_mass * np.exp(1j * u * atom_at)

    dens = np.fft.fft(phi * np.exp(-1j * u * x0)).real / (M * dx)
    dens = np.maximum(dens, 0.0)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * dx * (dens[1:] + dens[:-1]))])
    if cdf[-1] <= 0.0:
        raise InputError("characteristic function produced no usable density")
    cdf /= cdf[-1]

    qs = rng.random(n)
    out = np.empty(n)
    if atom_mass > 0.0:
        hit = qs < atom_mass
        out[hit] = atom_at
        rest = (qs[~hit] - atom_mass) / (1.0 - atom_mass)
        out[~hit] = np.interp(rest, cdf, x)
    else:
        out = np.interp(qs, cdf, x)
    return out
