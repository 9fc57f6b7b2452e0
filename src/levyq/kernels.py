"""Band-limited smoothing kernels described by their Fourier profile.

A kernel K is specified through fk(u) = (FK)(u), an even real profile
supported in [-1, 1] with fk(0) = 1.  Downstream code never needs K(x)
itself: the scaled kernel K_h = h^{-1} K(./h) enters every formula through
its spectrum fk(h u), so a kernel object is just the profile plus metadata.

The workhorse is the flat-top family: fk identically 1 on [-c, c], a C^2
quintic bridge down to 0 on c < |u| < 1, and 0 beyond.  Flatness at the
origin makes every spatial moment of K vanish, so one kernel serves all
smoothness classes without per-run order tuning.

`verify_order` certifies the moment conditions numerically.  Moments of K
are only conditionally convergent (x^l K(x) oscillates without decaying
once l exceeds the decay order), so the spatial quadrature uses a two-scale
Gaussian window 2 g_{2s} - g_s.  The pair cancels the window's first
absolute-moment bias exactly, which keeps the mass check unbiased even for
profiles with a kink at the origin (e.g. the triangle profile), while the
Gaussian tails make the truncation of the oscillatory moment integrands
negligible for any band-limited kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .numerics import FrequencyGrid, inverse_fourier

__all__ = [
    "SpectralKernel",
    "flat_top_kernel",
    "triangle_kernel",
    "OrderReport",
    "verify_order",
]


@dataclass(frozen=True)
class SpectralKernel:
    """A kernel represented by its Fourier profile.

    Attributes
    ----------
    fk : callable
        Even real profile with fk(0) = 1 and fk(u) = 0 for |u| >= 1.
        Must accept numpy arrays.
    declared_order : float
        Number of vanishing moments claimed by the construction; may be
        ``math.inf`` (flat-top), meaning "at least any requested order".
    flat_radius : float or None
        For the flat-top family, the radius c of the identically-1 plateau;
        None for other profiles.
    """

    fk: object
    declared_order: float
    flat_radius: float | None = None

    def __call__(self, u):
        return self.fk(u)


def flat_top_kernel(c: float = 0.5) -> SpectralKernel:
    """Flat-top kernel: plateau of radius c, quintic C^2 bridge to zero.

    The bridge is q(s) = 1 - s^3 (10 - 15 s + 6 s^2) with
    s = (|u| - c) / (1 - c), the quintic smoothstep reversed: q(0) = 1,
    q(1) = 0, and q', q'' vanish at both ends, so the full profile is C^2.
    """
    if not 0.0 < c < 1.0:
        raise InputError(f"flat radius must lie strictly in (0, 1), got {c}")

    def fk(u):
        a = np.abs(np.asarray(u, dtype=float))
        s = np.clip((a - c) / (1.0 - c), 0.0, 1.0)
        return 1.0 - s ** 3 * (10.0 - 15.0 * s + 6.0 * s ** 2)

    return SpectralKernel(fk=fk, declared_order=math.inf, flat_radius=c)


def triangle_kernel() -> SpectralKernel:
    """Triangle Fourier profile (the spatial kernel is the Fejer kernel).

    Mass is 1 but the second moment does not vanish; useful as a negative
    control for `verify_order`.
    """

    def fk(u):
        return np.clip(1.0 - np.abs(np.asarray(u, dtype=float)), 0.0, 1.0)

    return SpectralKernel(fk=fk, declared_order=1, flat_radius=None)


@dataclass(frozen=True)
class OrderReport:
    """Outcome of a numerical moment check.

    ``residuals[l]`` holds the signed windowed moment of x^l K for
    l = 1..p and, under key 0, the mass defect (integral of K) - 1.
    ``failures`` lists the l whose residual exceeded its tolerance.
    """

    residuals: dict
    tol: float
    mass_tol: float
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok


# Quadrature layout for verify_order.  The frequency grid must be dense
# enough that profiles with interior kinks integrate below mass_tol
# (trapezoid error at a kink scales like spacing^2); the spatial window
# half-width _VERIFY_XMAX covers 8 standard deviations of the wider
# Gaussian so tapered truncation is far below every tolerance.
_VERIFY_POINTS = 2 ** 16
_VERIFY_SCALE = 20.0
_VERIFY_XMAX = 320.0
_VERIFY_DX = 0.5


def _window(x: np.ndarray, s: float) -> np.ndarray:
    # Richardson pair of Gaussians: the |v|-moment of the window's Fourier
    # transform cancels between the two scales, so spectra with a kink at
    # the origin see no first-order smoothing bias.
    return 2.0 * np.exp(-0.125 * (x / s) ** 2) - np.exp(-0.5 * (x / s) ** 2)


def verify_order(kernel: SpectralKernel, p: int, tol: float = 1e-6,
                 mass_tol: float = 1e-8) -> OrderReport:
    """Numerically check that the first p moments of K vanish.

    Reconstructs K on a dense spatial grid by inverse Fourier transform of
    the profile, then evaluates the windowed moments int x^l K(x) w(x) dx
    for l = 0..p with the two-scale Gaussian window described in the module
    docstring.  Returns a per-moment report; `p = 0` checks only the mass.
    """
    if p < 0:
        raise InputError(f"moment order must be >= 0, got {p}")
    grid = FrequencyGrid(cutoff=1.0, points=_VERIFY_POINTS)
    x = np.arange(-_VERIFY_XMAX, _VERIFY_XMAX + 0.5 * _VERIFY_DX, _VERIFY_DX)
    K = inverse_fourier(kernel.fk, grid, x)
    w = _window(x, _VERIFY_SCALE)
    residuals = {}
    failures = []
    mass = float(np.trapezoid(K * w, x))
    residuals[0] = mass - 1.0
    if abs(residuals[0]) > mass_tol:
        failures.append(0)
    for l in range(1, p + 1):
        residuals[l] = float(np.trapezoid(x ** l * K * w, x))
        if abs(residuals[l]) > tol:
            failures.append(l)
    return OrderReport(residuals=residuals, tol=tol, mass_tol=mass_tol,
                       failures=tuple(failures))
