"""Band-limited smoothing kernels described by their Fourier profile.

A kernel K is specified through fk(u) = (FK)(u), an even real profile
supported in [-1, 1] with fk(0) = 1.  Downstream code never needs K(x)
itself: the scaled kernel K_h = h^{-1} K(./h) enters every formula through
its spectrum fk(h u), so a kernel object is just the profile plus metadata.

The workhorse is the flat-top family: fk identically 1 on [-c, c], a C^2
quintic bridge down to 0 on c < |u| < 1, and 0 beyond.  Flatness at the
origin makes every spatial moment of K vanish, so one kernel serves all
smoothness classes without per-run order tuning.  The test suite checks
these moment conditions numerically (tests/conftest.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "SpectralKernel",
    "flat_top_kernel",
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
