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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


# nodes per block of the factored phase sum, and targets per chunk; a chunk's
# work array holds _CHUNK * (points / _BLOCK) * columns complex values
_BLOCK = 64
_CHUNK = 256


def inverse_fourier(spectrum, grid: FrequencyGrid, targets) -> np.ndarray:
    """Inverse Fourier transform of band-limited Hermitian spectra.

    Evaluates (1/2pi) Re sum_j w_j e^{-i u_j x} g(u_j), the whole symmetric
    sum of g(-u) = conj g(u), at each target x from the positive nodes u_j
    and weights w_j of `grid`.  `spectrum` may be a callable of the node
    array or an array aligned with ``grid.u``, of shape (N,) or (N, B) with
    one spectrum per column.  Returns real values of shape (K,) or (K, B).

    The uniform nodes are summed in blocks of _BLOCK, as in a blocked
    nonuniform DFT (Greengard & Lee, SIAM Rev. 2004): with block start u_a
    and in-block offset b * spacing, e^{-ix u_j} = e^{-ix u_a} e^{-ix b du}.
    Per target that takes _BLOCK + N/_BLOCK exponentials instead of N, and
    no targets x nodes phase matrix is formed.
    """
    x = np.atleast_1d(np.asarray(targets, dtype=float))
    u = grid.u
    g = spectrum(u) if callable(spectrum) else np.asarray(spectrum)
    if g.shape[:1] != u.shape or g.ndim > 2:
        raise InputError("spectrum array must match the grid nodes")
    block = min(_BLOCK, u.size)
    starts = u[::block]
    offsets = grid.spacing * np.arange(block)
    # (block, starts * columns): row b holds node a * block + b of every block
    wg = (grid.weights * g.T).T.reshape(starts.size, block, -1)
    wg = wg.transpose(1, 0, 2)
    columns = wg.shape[2]
    wg = wg.reshape(block, -1)
    out = np.empty((x.size, columns))
    for lo in range(0, x.size, _CHUNK):
        xs = x[lo : lo + _CHUNK, None]
        inner = np.exp(-1j * xs * offsets) @ wg
        inner = inner.reshape(xs.shape[0], starts.size, columns)
        outer = np.exp(-1j * xs * starts)
        out[lo : lo + _CHUNK] = (outer[:, None, :] @ inner)[:, 0, :].real
    out /= 2.0 * np.pi
    return out if g.ndim == 2 else out[:, 0]


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
