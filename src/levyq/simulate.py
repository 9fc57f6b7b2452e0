"""Samplers for process increments over a fixed time spacing.

Two methods:

* ``exact-compound-poisson`` — draws the jump count and the Exp(rate) jump
  sizes exactly; requires exponential compound-Poisson jumps.
* ``inverse-cdf-from-characteristic-function`` — tabulates the increment
  density by FFT inversion of the closed-form characteristic function on a
  wide grid and samples by inverse transform; works for any model whose
  increment law is (absolutely) continuous, with an explicit atom split
  where the no-jump event has positive probability: no diffusion and a
  jump measure of finite mass (compound Poisson, or CGMY with Y < 0).

Convention: the sampled increment law has mean delta * (gamma + int x nu),
matching the plain sum form gamma*delta + sigma*sqrt(delta)*Z + sum J_i for
finite activity.  The characteristic-function route therefore tilts the
compensated exponent by +iu * int x nu.  Downstream curvature estimation is
exactly drift-invariant, so the convention never touches estimates.
"""

from __future__ import annotations

import math

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


def sample_increments(model: LevyModel, delta: float, method: str, seed: int,
                      n: int) -> IncrementSample:
    """Draw n independent increments over spacing delta by `method` (one of
    METHODS), from the generator seeded with `seed`; the same arguments give
    the same bytes."""
    if not delta > 0:
        raise InputError(f"time spacing must be positive, got {delta}")
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}; choose one of {METHODS}")
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    if method == "exact-compound-poisson":
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
    # without diffusion a finite jump mass leaves the no-jump event an atom
    # at gamma delta; the FFT then represents only the rest of the law,
    # whose variance about `mean` is at most var / (1 - atom_mass)
    atom_at = model.gamma * delta
    atom_mass, jump_mass = 0.0, 1.0
    if model.sigma2 == 0.0 and math.isfinite(jumps.mass):
        atom_mass = math.exp(-jumps.mass * delta)
        jump_mass = -math.expm1(-jumps.mass * delta)
    half = _ICDF_SPAN_SDS * math.sqrt(var / jump_mass)
    M = _ICDF_POINTS
    x0 = mean - half
    dx = 2.0 * half / M
    x = x0 + dx * np.arange(M)
    u = 2.0 * math.pi * np.fft.fftfreq(M, d=dx)
    # cf of the mean-uncompensated increment law
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        phi = np.exp(delta * (characteristic_exponent(model, u) + 1j * u * m1))
    if not np.all(np.isfinite(phi)):
        raise InputError(
            "the increments' characteristic function is not finite on the "
            "sampler's grid: the model's closed-form exponent overflows there")
    if atom_mass > 0.0:
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
        rest = (qs[~hit] - atom_mass) / jump_mass
        out[~hit] = np.interp(rest, cdf, x)
    else:
        out = np.interp(qs, cdf, x)
    return out
