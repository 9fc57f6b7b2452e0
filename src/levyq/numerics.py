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
max|F| of the direct sum on random spectra.  Each call makes one real FFT
set (of the modes' real and imaginary parts), keeps only the rows the
targets touch, and gathers once per distinct |x|; the sign of a target is
applied after the gather, so mirrored spectra give mirrored values bit for
bit.
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


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


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
    offset : bool
        If True, use a midpoint (half-step-shifted) grid.  Both layouts
        omit u = 0; the offset layout additionally keeps every node at
        least half a step away from it, which is convenient for spectra
        with a removable singularity at the origin.

    Notes
    -----
    With ``offset=False`` the nodes are ``linspace(-cutoff, cutoff, points)``
    and ``spacing * (points - 1)`` spans exactly ``[-cutoff, cutoff]``;
    quadrature weights are composite trapezoid.  With ``offset=True`` the
    nodes sit at cell midpoints ``(j + 1/2) * spacing`` for
    ``j = -points/2 .. points/2 - 1`` with ``spacing = 2 * cutoff / points``;
    weights are the midpoint rule, and the cell edges span the same window.
    `u` and `weights` keep the nodes u > 0, each weight doubled, so
    sum(weights * f) integrates an even f over the whole window.
    """

    cutoff: float
    points: int = 2 ** 14
    offset: bool = False

    def __post_init__(self):
        if not self.cutoff > 0:
            raise InputError(f"cutoff must be positive, got {self.cutoff}")
        if not math.isfinite(2.0 * float(self.cutoff)):
            raise InputError(f"the frequency window 2 x cutoff is not finite "
                             f"(cutoff {self.cutoff:g})")
        if not _is_power_of_two(self.points) or self.points < 2:
            raise InputError(f"points must be a power of two >= 2, got {self.points}")

    @property
    def spacing(self) -> float:
        if self.offset:
            return 2.0 * self.cutoff / self.points
        return 2.0 * self.cutoff / (self.points - 1)

    @property
    def u(self) -> np.ndarray:
        """The points / 2 positive nodes, increasing."""
        half = self.points // 2
        if self.offset:
            return (np.arange(half) + 0.5) * self.spacing
        return np.linspace(-self.cutoff, self.cutoff, self.points)[half:]

    @property
    def weights(self) -> np.ndarray:
        """Weights of the positive nodes for an even integrand."""
        w = np.full(self.points // 2, 2.0 * self.spacing)
        if not self.offset:
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
# largest work array, in elements, that a pass over many (level or threshold)
# cells builds at once: the quantile pass and the deviation bound take their
# cells in chunks below it, so their memory does not grow with the levels,
# and the inverse transform gathers its targets in such chunks
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
    out = _gridded_sum(g.reshape(u.size, -1), grid, x)
    return out if g.ndim == 2 else out[:, 0]


def _gridded_sum(g, grid: FrequencyGrid, x: np.ndarray) -> np.ndarray:
    """The half sums of the (N, B) spectrum g at the targets x: one real
    FFT set, one Gaussian gather per distinct |x|, then the sign of x."""
    m, columns = g.shape
    if not x.size:
        return np.empty((0, columns))
    half, size = m // 2, _OVERSAMPLING * m
    tau = np.pi * _SPREAD / (m * m * _OVERSAMPLING * (_OVERSAMPLING - 0.5))
    k = np.arange(m) - half
    scale = grid.weights * np.exp(tau * k * k)
    # the real parts p and imaginary parts q of the coefficients
    # a_k / G_k = w_j g_j / G_k of h, at index k mod R
    modes = np.zeros((2, columns, size))
    for nodes, index in ((slice(half, None), slice(None, m - half)),
                         (slice(None, half), slice(size - half, None))):
        np.multiply(g[nodes].real.T, scale[nodes], out=modes[0, :, index])
        np.multiply(g[nodes].imag.T, scale[nodes], out=modes[1, :, index])
    # P and Q, rows 0..R/2 of the FFTs of p and q: h = P + iQ
    half_spectra = np.fft.rfft(modes)
    del modes
    # theta = du |x| in steps of the FFT grid, reduced modulo R; fmod is
    # exact, so the fractional step is that of the unreduced position
    distinct, where = np.unique(np.abs(x), return_inverse=True)
    pos = np.fmod(distinct * (grid.spacing * size / (2.0 * np.pi)), size)
    below = np.floor(pos)
    frac = pos - below
    first = below.astype(np.int32) - (_SPREAD - 1)
    # the rows lo .. lo + count - 1 that the gather reads, at most one
    # period; row r > R/2 (or r < 0) is the conjugate of row R - r (or -r)
    lo = first.min()
    count = min(first.max() - lo + 2 * _SPREAD, size)
    rows = (lo + np.arange(count)) % size
    mirror = rows > size // 2
    table = np.empty((count, 2, columns), dtype=complex)
    # (the indices are in range; "clip" lets take write into out unbuffered)
    np.take(half_spectra, np.where(mirror, size - rows, rows), axis=2,
            out=table.transpose(1, 2, 0), mode="clip")
    del half_spectra
    np.conjugate(table, out=table, where=mirror[:, None, None])
    table = table.view(float).reshape(count, 4 * columns)
    # the parts of the half sum even and odd in x, Re e^{-ic|x|} P and
    # Re e^{-ic|x|} iQ, at each distinct |x|: one sparse row of 2 _SPREAD
    # Gaussian weights, in step order, times the rows (Re P, Im P, Re Q,
    # Im Q) of every column, _MAX_BATCH weights at a time
    phase = (grid.u[0] + half * grid.spacing) * distinct
    cos, sin = np.cos(phase)[:, None], np.sin(phase)[:, None]
    decay = (np.pi / size) ** 2 / tau   # (2 pi / R)^2 / (4 tau)
    steps = np.arange(2 * _SPREAD, dtype=np.int32)
    even, odd = np.empty((2, distinct.size, columns))
    for start in range(0, distinct.size, _MAX_BATCH // steps.size):
        part = slice(start, start + _MAX_BATCH // steps.size)
        weights = frac[part, None] - (steps - (_SPREAD - 1))
        weights *= weights
        weights *= -decay
        np.exp(weights, out=weights)
        cols = np.add.outer(first[part] - lo, steps)
        np.remainder(cols, size, out=cols)
        gather = sparse.csr_array(
            (weights.ravel(), cols.ravel(),
             np.arange(0, weights.size + 1, steps.size)),
            shape=(weights.shape[0], count))
        p, q = (gather @ table).reshape(-1, 2, columns, 2
                                        ).transpose(1, 3, 0, 2)
        even[part] = cos[part] * p[0] + sin[part] * p[1]
        odd[part] = sin[part] * q[0] - cos[part] * q[1]
    # the sign after the gather: h = P + iQ, or P - iQ (the FFT of the modes
    # of conj g) where the sign bit of x is set, so -0.0 mirrors 0.0 as well
    out = odd[where]
    out *= np.where(np.signbit(x), -1.0, 1.0)[:, None]
    out += even[where]
    out *= np.sqrt(np.pi / tau) / (2.0 * np.pi * size)
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
