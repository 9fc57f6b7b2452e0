"""Shared numeric substrate.

Uniform symmetric frequency grids, the spectra table both observation
schemes hand to the inversion step, discrete inverse Fourier transforms of
band-limited spectra, and bracketed root finding.  Everything here is pure
and deterministic, with no adaptive quadrature; nor does any other module
use one (`models` is closed-form for both jump families).

Fourier convention: the forward transform of f is F(u) = int e^{iux} f(x) dx,
hence the inverse used throughout is (1/2pi) int e^{-iux} F(u) du.

Half-grid convention: every spectrum formed here transforms a real object
(option function, increment law, kernel, tail weight), so F(-u) = conj F(u).
Spectra are tabulated on the positive nodes u > 0 of a symmetric grid only,
the negative half is defined as the conjugate, each even integral is
2 int_{u > 0} (the grid weights carry the 2), and an inverse transform is
the real part of the half sum.

Inverse transforms: `inverse_fourier` has one path for every column
count, Gaussian gridding, a type-2 nonuniform FFT (Dutt & Rokhlin, SIAM J.
Sci. Comput. 1993; Greengard & Lee, SIAM Rev. 2004), within 1.9e-13 of
max|F| of the direct sum on random spectra.  It is a plan and its
application: the plan (`_GriddingPlan`) holds what the grid and targets
fix, the Gaussian weights of each distinct |x| and the FFT rows they read;
each application makes one real FFT set (of the modes' real and imaginary
parts), gathers once per distinct |x| and applies the sign of a target
after it, so mirrored spectra give mirrored values bit for bit.  A caller
inverting many spectra at one set of targets forms the plan once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import InputError, NoSolutionError

__all__ = [
    "FrequencyGrid",
    "Spectra",
    "inverse_fourier",
    "bracketed_root",
]


@dataclass(frozen=True)
class FrequencyGrid:
    """Positive half of a symmetric uniform grid on [-cutoff, cutoff].

    Parameters
    ----------
    cutoff : float
        Half-width of the frequency window (the reciprocal bandwidth 1/h
        when used for kernel-smoothed inversion).
    points : int
        Nodes of the whole symmetric grid, a power of two; `u` holds half.

    Notes
    -----
    The nodes are ``linspace(-cutoff, cutoff, points)`` and
    ``spacing * (points - 1)`` spans exactly ``[-cutoff, cutoff]``;
    quadrature weights are composite trapezoid.  The node count is even, so
    the nodes sit at ``(j + 1/2) * spacing`` (to rounding) and none is
    nearer to u = 0 than half a step, which suits spectra with a removable
    singularity at the origin.  `u` and `weights` keep the nodes u > 0,
    each weight doubled, so sum(weights * f) integrates an even f over the
    whole window.
    """

    cutoff: float
    points: int

    def __post_init__(self):
        if not self.cutoff > 0:
            raise InputError(f"cutoff must be positive, got {self.cutoff}")
        if not math.isfinite(2.0 * float(self.cutoff)):
            raise InputError(f"the frequency window 2 x cutoff is not finite "
                             f"(cutoff {self.cutoff:g})")
        if not (self.points >= 2 and self.points & (self.points - 1) == 0):
            raise InputError(f"points must be a power of two >= 2, got {self.points}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.cutoff / (self.points - 1)

    @property
    def u(self) -> np.ndarray:
        """The points / 2 positive nodes, increasing."""
        return np.linspace(-self.cutoff, self.cutoff,
                           self.points)[self.points // 2:]

    @property
    def weights(self) -> np.ndarray:
        """Weights of the positive nodes for an even integrand."""
        w = np.full(self.points // 2, 2.0 * self.spacing)
        w[-1] = self.spacing
        return w


@dataclass(frozen=True, eq=False)
class Spectra:
    """An estimated cf and exponent derivatives, tabulated on ``grid.u``.

    The one input of the inversion step, made by
    `options.compute_chain_spectra` from an option chain and by
    `increments.psi2_from_increments` from increments.  phi estimates
    e^{horizon psi} (horizon is the maturity T of the chain or the spacing
    delta of the increments); psi1 and psi2 estimate psi' and psi'' on the
    trusted nodes and are exactly 0 off them.  n_obs counts quotes or
    increments.  sup_norms and noise_scale are the quote-noise summary
    the bandwidth selector reads; an increments table has none (None).
    """

    grid: FrequencyGrid
    horizon: float
    n_obs: int
    phi: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray
    trusted: np.ndarray
    sup_norms: tuple | None = None
    noise_scale: float | None = None


# nodes per block of the factored phase sums: the deviation bound's phases
# e^{iut} and the empirical cf's e^{iuY} (`adaptive.sigma_tilde`,
# `increments._ecf_all`)
_BLOCK = 64
# Gaussian gridding of the inverse transform: grid points gathered on each
# side of a target, and the ratio of the FFT grid to the node count (chosen
# from the measured errors given in `inverse_fourier`)
_SPREAD = 16
_OVERSAMPLING = 2
# largest work array, in elements, that a pass over many threshold cells
# builds at once: the deviation bound takes its cells in chunks below it, so
# its memory does not grow with the levels, and the inverse transform
# gathers its targets in such chunks
_MAX_BATCH = 2 ** 15


def inverse_fourier(spectrum, grid: FrequencyGrid, targets) -> np.ndarray:
    """Inverse Fourier transform of band-limited Hermitian spectra.

    Evaluates (1/2pi) Re sum_j w_j e^{-i u_j x} g(u_j), the whole symmetric
    sum of g(-u) = conj g(u), at each target x from the positive nodes u_j
    and weights w_j of `grid`.  `spectrum` may be a callable of the node
    array or an array aligned with ``grid.u``, of shape (N,) or (N, B) with
    one spectrum per column.  Returns real values of shape (K,) or (K, B).

    The sum is a type-2 nonuniform FFT by Gaussian gridding (Dutt &
    Rokhlin, SIAM J. Sci. Comput. 1993; Greengard & Lee, SIAM Rev. 2004),
    whose cost hardly depends on N.  With the centred index k = j - N/2,
    u_j = c + k du for du = ``grid.spacing`` and c = u_0 + (N/2) du, so the
    half sum at x is e^{-icx} f(du x), where f(theta) = sum_k a_k
    e^{-ik theta} is a 2pi-periodic trigonometric sum and a_k = w_j g_j.  f
    is the convolution of h(y) = sum_k (a_k / G_k) e^{-iky} with the
    periodised Gaussian e^{-y^2 / (4 tau)}, whose Fourier coefficients are
    G_k = sqrt(tau / pi) e^{-k^2 tau}.  tau = pi _SPREAD / (N^2 r (r - 1/2)),
    r = _OVERSAMPLING (Greengard & Lee 2004), balances the Gaussian's
    truncation against the aliasing of the trapezoid sum below.

    One real FFT set serves every column and both signs.  The real parts p
    and imaginary parts q of the modes a_k / G_k are the rows of one
    (2, B, R) array, R = _OVERSAMPLING * N, and one rfft gives their FFTs P
    and Q, so h = P + iQ on the grid y_m = 2 pi m / R.  Only the rows the
    targets reach are kept, at most one period (rows -15 to 334 of 2,048
    for the tail nodes of the default chain's grid, 1,024 nodes on
    |u| <= 100, and of 16,384 at 8,192 nodes); as p and q are real, a row
    beyond R/2, or a negative one, is the conjugate of its Hermitian
    mirror.  The convolution at theta = du |x| is the trapezoid sum over
    the 2 * _SPREAD grid points nearest to it (the Gaussian is below e^{-37}
    beyond), wrapped periodically, so any phase is exact modulo 2 pi.  It
    is a sparse matrix, one row of weights in step order per distinct |x|,
    times the table of (Re P, Im P, Re Q, Im Q) of every column, taken
    _MAX_BATCH weights at a time so that its work arrays do not grow with
    the targets.

    The sign comes after the gather.  F_g(-x) = F_{conj g}(|x|), and the
    FFT of the modes of conj g is P - iQ, so a target takes h = P + iQ if
    x >= 0 and P - iQ if x < 0 (or x = -0.0), and its half sum is
    Re e^{-ic|x|} P +- Re e^{-ic|x|} iQ, both terms formed once per
    distinct |x|.  Every step commutes with negation (IEEE rounding is
    symmetric), so a mirrored spectrum conj g gives exactly mirrored
    values, F_{conj g}(-x) = F_g(x) bit for bit.  Every column and every
    |x| is summed on its own, so a column gives the same bits alone as in
    a batch, and a target the same bits alone as among others.

    Measured against the direct sum, the error is at most 1.9e-13 of
    max|F| on test_numerics.py's random data (its bound is 1e-12) and
    1.2e-13 over 3,000 draws of its property's domain, where du * |x| can
    reach 1,200 rad; 4.0e-15 of each column's max|F| on the default
    chain's 13 columns; 5.4e-15 on demo-direct's one column (5e4
    increments, h = 0.05) and 4.7e-15 on option pricing's.  Spread 12
    reaches 7.1e-12 at oversampling 2 and needs oversampling 3 (a larger
    FFT) to get back to 1.7e-13.  Targets must be one-dimensional, and a
    target x is refused unless x and du * x * (grid points) are finite.
    """
    x = np.atleast_1d(np.asarray(targets, dtype=float))
    if x.ndim != 1:
        raise InputError(f"targets must be one-dimensional, got shape "
                         f"{x.shape}")
    # the gather's grid position du |x| R / (2 pi) must be finite as well
    with np.errstate(over="ignore"):
        bad = np.flatnonzero(~np.isfinite(x * grid.spacing * grid.points))
    if bad.size:
        raise InputError(f"target {x[bad[0]]} (index {bad[0]}) is not "
                         "finite, or too large for the grid")
    u = grid.u
    g = spectrum(u) if callable(spectrum) else np.asarray(spectrum)
    if g.shape[:1] != u.shape or g.ndim > 2:
        raise InputError("spectrum array must match the grid nodes")
    out = _GriddingPlan(grid, x).apply(g.reshape(u.size, -1))
    return out if g.ndim == 2 else out[:, 0]


class _GriddingPlan:
    """The part of `inverse_fourier`'s sum that depends on the grid and the
    targets alone, for any spectrum: the scale w_j / G_k of the modes, the
    FFT rows the gather reads, one sparse row of Gaussian weights per
    distinct |x| (a CSR block per _MAX_BATCH weights), the phases and the
    signs.  `apply` sums an (N, B) spectrum with it: one real FFT set, the
    gather, then the sign of x."""

    def __init__(self, grid: FrequencyGrid, x: np.ndarray):
        m = grid.points // 2
        half, size = m // 2, _OVERSAMPLING * m
        tau = np.pi * _SPREAD / (m * m * _OVERSAMPLING * (_OVERSAMPLING - 0.5))
        k = np.arange(m) - half
        self.scale = grid.weights * np.exp(tau * k * k)
        self.norm = np.sqrt(np.pi / tau) / (2.0 * np.pi * size)
        # theta = du |x| in steps of the FFT grid, reduced modulo R; fmod is
        # exact, so the fractional step is that of the unreduced position
        distinct, self.where = np.unique(np.abs(x), return_inverse=True)
        pos = np.fmod(distinct * (grid.spacing * size / (2.0 * np.pi)), size)
        below = np.floor(pos)
        frac = pos - below
        first = below.astype(np.int32) - (_SPREAD - 1)
        # the rows lo .. lo + count - 1 that the gather reads, at most one
        # period; row r > R/2 (or r < 0) is the conjugate of row R - r (or -r)
        lo, hi = (first.min(), first.max()) if first.size else (0, 0)
        rows = (lo + np.arange(min(hi - lo + 2 * _SPREAD, size))) % size
        self.mirror = rows > size // 2
        self.rows = np.where(self.mirror, size - rows, rows)
        phase = (grid.u[0] + half * grid.spacing) * distinct
        self.cos, self.sin = np.cos(phase)[:, None], np.sin(phase)[:, None]
        # one sparse row of 2 _SPREAD Gaussian weights per distinct |x|, in
        # step order, _MAX_BATCH weights per block
        decay = (np.pi / size) ** 2 / tau   # (2 pi / R)^2 / (4 tau)
        steps = np.arange(2 * _SPREAD, dtype=np.int32)
        self.blocks = []
        for start in range(0, distinct.size, _MAX_BATCH // steps.size):
            part = slice(start, start + _MAX_BATCH // steps.size)
            weights = frac[part, None] - (steps - (_SPREAD - 1))
            weights *= weights
            weights *= -decay
            np.exp(weights, out=weights)
            cols = np.add.outer(first[part] - lo, steps)
            np.remainder(cols, size, out=cols)
            self.blocks.append((part, sparse.csr_array(
                (weights.ravel(), cols.ravel(),
                 np.arange(0, weights.size + 1, steps.size)),
                shape=(weights.shape[0], rows.size))))
        # h = P + iQ, or P - iQ (the FFT of the modes of conj g) where the
        # sign bit of x is set, so -0.0 mirrors 0.0 as well
        self.sign = np.where(np.signbit(x), -1.0, 1.0)[:, None]

    def apply(self, g) -> np.ndarray:
        """The half sums of the (N, B) spectrum g at the plan's targets."""
        m, columns = g.shape
        half, size = m // 2, _OVERSAMPLING * m
        # the real parts p and imaginary parts q of the coefficients
        # a_k / G_k = w_j g_j / G_k of h, at index k mod R
        modes = np.zeros((2, columns, size))
        for nodes, index in ((slice(half, None), slice(None, m - half)),
                             (slice(None, half), slice(size - half, None))):
            np.multiply(g[nodes].real.T, self.scale[nodes],
                        out=modes[0, :, index])
            np.multiply(g[nodes].imag.T, self.scale[nodes],
                        out=modes[1, :, index])
        # P and Q, rows 0..R/2 of the FFTs of p and q: h = P + iQ
        half_spectra = np.fft.rfft(modes)
        del modes
        table = np.empty((self.rows.size, 2, columns), dtype=complex)
        # (indices in range: "clip" lets take write into out unbuffered)
        np.take(half_spectra, self.rows, axis=2,
                out=table.transpose(1, 2, 0), mode="clip")
        del half_spectra
        np.conjugate(table, out=table, where=self.mirror[:, None, None])
        table = table.view(float).reshape(self.rows.size, 4 * columns)
        # the parts of the half sum even and odd in x, Re e^{-ic|x|} P and
        # Re e^{-ic|x|} iQ, at each distinct |x|: its Gaussian row times the
        # rows (Re P, Im P, Re Q, Im Q) of every column
        even, odd = np.empty((2, self.cos.size, columns))
        for part, gather in self.blocks:
            p, q = (gather @ table).reshape(-1, 2, columns, 2
                                            ).transpose(1, 3, 0, 2)
            cos, sin = self.cos[part], self.sin[part]
            even[part] = cos * p[0] + sin * p[1]
            odd[part] = sin * q[0] - cos * q[1]
        out = odd[self.where]
        out *= self.sign
        out += even[self.where]
        out *= self.norm
        return out


def bracketed_root(f, lo: float, hi: float, tol: float = 1e-8) -> float:
    """Bisection root of f on [lo, hi] down to interval width <= tol.

    Requires a sign change: f(lo) * f(hi) <= 0.
    """
    if not hi > lo:
        raise InputError("need lo < hi")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise NoSolutionError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if np.sign(fm) == np.sign(flo):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)
