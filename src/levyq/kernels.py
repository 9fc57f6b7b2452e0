"""Band-limited smoothing kernels described by their Fourier profile.

A kernel K is specified through fk(u) = (FK)(u), an even real profile
supported in [-1, 1] with fk(0) = 1.  Downstream code never needs K(x)
itself: the scaled kernel K_h = h^{-1} K(./h) enters every formula through
its spectrum fk(h u), so a kernel is just its profile, a function of an
array of frequencies.

The workhorse is the flat-top family: fk identically 1 on [-c, c], a C^2
quintic bridge down to 0 on c < |u| < 1, and 0 beyond.  Flatness at the
origin makes every spatial moment of K vanish, so one kernel serves all
smoothness classes without per-run order tuning.  The test suite checks
these moment conditions numerically (tests/conftest.py).
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

__all__ = [
    "flat_top_kernel",
]


def flat_top_kernel(c: float = 0.5):
    """Flat-top kernel profile fk: plateau of radius c, quintic C^2 bridge
    to zero.

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

    return fk
