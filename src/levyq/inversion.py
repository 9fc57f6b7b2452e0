"""From curvature estimates to jump density, tail function, and quantiles.

The pipeline shared by both observation schemes:

1. Smooth the curvature estimate with a band-limited kernel at bandwidth h
   and invert:  F_h(x) = (1/2pi) int e^{-iux} psi2(u) fk(hu) du.  Either
   scheme hands over its estimate as one `numerics.Spectra` table, and
   `tail_estimates` inverts every bandwidth of it in one pass.
2. The density estimate is  nu_h(t) = -t^{-2} F_h(t)  for t != 0.
3. The tail function N_h(t) integrates the density outward:
       N_h(t) = int_t^{X}  nu_h(x) dx          (t > 0)
       N_h(t) = int_{-X}^t nu_h(x) dx          (t < 0),
   realized as one-sided spatial quadrature of x^{-2} F_h on a fixed
   composite grid (geometric near the origin where the integrand varies
   fastest, uniform further out where the Nyquist limit of the band-limited
   transform binds), truncated at X = x_max where the integrand is
   negligible for tempered models.  The grid starts at FIRST_TAIL_NODE,
   and N_h is defined for |t| from there to x_max only.
4. The tau-quantile is the paper's q = inf{t > 0 : N(t) <= tau} (a jump
   beyond q is expected once in 1/tau time units) applied to the smallest
   nonincreasing majorant of N_h: q = sup{t in [eta, x_max] : N_h(t) >= tau},
   the last crossing of tau, clamped to eta when N_h < tau throughout.
   `tail_quantiles` finds it for every level and bandwidth of one side in
   one pass; `quantile_from_distribution` is that pass for one cell.

The inversion's work arrays grow with bandwidths x (spectral points + 2 x
tail nodes); `tail_estimates` refuses more than _MAX_INVERSION of these
units before it allocates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import InputError, NumericalError
from .kernels import SpectralKernel
from .numerics import _MAX_BATCH, FrequencyGrid, Spectra, inverse_fourier

__all__ = [
    "DistributionEstimate",
    "QuantileEstimate",
    "X_MAX_DEFAULT",
    "FIRST_TAIL_NODE",
    "tail_nodes",
    "checked_tail_nodes",
    "tail_estimates",
    "tail_quantiles",
    "quantile_from_distribution",
]

X_MAX_DEFAULT = 5.0
# default spectral nodes of the grid a curvature estimate is tabulated on
SPECTRAL_POINTS = 2 ** 13
# composite spatial grid: geometric inner part, uniform outer part; no
# tail is tabulated below FIRST_TAIL_NODE, so no threshold eta may lie there
FIRST_TAIL_NODE = 0.004
_NODE_SPLIT = 0.5
_GEOM_POINTS = 640
_LINEAR_STEP = 0.01


@dataclass(frozen=True, eq=False)
class DistributionEstimate:
    """Tail function N_h (call it) and density nu_h (`density`) at one
    bandwidth from the tables density_pos[i] = nu_h(nodes[i]) and
    density_neg[i] = nu_h(-nodes[i]), nodes increasing to x_max = nodes[-1].

    The density is linear between nodes, so N_h(t) = int_t^{x_max} nu_h
    (mirrored for t < 0) is quadratic there, continuous, and exactly 0 at
    +-x_max.  N_h is defined on first node <= |t| <= x_max and 0 beyond.
    """

    nodes: np.ndarray
    density_pos: np.ndarray
    density_neg: np.ndarray
    bandwidth: float

    def __post_init__(self):
        tables = {}
        for sign, d in ((1, self.density_pos), (-1, self.density_neg)):
            seg = 0.5 * np.diff(self.nodes) * (d[1:] + d[:-1])
            tables[sign] = (d, np.concatenate([np.cumsum(seg[::-1])[::-1],
                                               [0.0]]))
        object.__setattr__(self, "_tables", tables)

    def density(self, t):
        """Tabulated density nu_h(t), linear between nodes."""
        d, _ = self._tables[1 if t > 0 else -1]
        return float(np.interp(abs(t), self.nodes, d))

    def _one_side(self, s, sign):
        nodes = self.nodes
        d, cum = self._tables[sign]
        out = np.empty(s.size)
        inside = s <= nodes[-1]
        out[~inside] = 0.0
        si = s[inside]
        if si.size:
            idx = np.searchsorted(nodes, si, side="left")
            idx = np.clip(idx, 1, nodes.size - 1)
            x_hi = nodes[idx]
            frac = (x_hi - si) / (x_hi - nodes[idx - 1])
            d_at = d[idx] + frac * (d[idx - 1] - d[idx])
            out[inside] = cum[idx] + 0.5 * (x_hi - si) * (d_at + d[idx])
        return out

    def __call__(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.all(np.abs(t_arr) >= self.nodes[0]):
            raise InputError(f"|t| must be at least the first tail node "
                             f"{self.nodes[0]:g}, got {t}")
        out = np.empty(t_arr.size)
        pos = t_arr > 0
        if pos.any():
            out[pos] = self._one_side(t_arr[pos], 1)
        if (~pos).any():
            out[~pos] = self._one_side(-t_arr[~pos], -1)
        return float(out[0]) if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class QuantileEstimate:
    """Location where the estimated tail function crosses level tau."""

    value: float
    at_threshold: bool


def tail_nodes(x_max: float = X_MAX_DEFAULT) -> np.ndarray:
    """Composite positive-axis quadrature nodes on [FIRST_TAIL_NODE, x_max].

    Geometric spacing up to _NODE_SPLIT resolves the x^{-2} weight near the
    origin; uniform _LINEAR_STEP spacing beyond keeps the oscillation of the
    band-limited transform resolved out to the truncation point.
    """
    if not x_max > _NODE_SPLIT:
        raise InputError(f"x_max must exceed {_NODE_SPLIT}, got {x_max}")
    inner = np.geomspace(FIRST_TAIL_NODE, _NODE_SPLIT, _GEOM_POINTS)
    outer = np.arange(_NODE_SPLIT, x_max + 0.5 * _LINEAR_STEP, _LINEAR_STEP)
    nodes = np.unique(np.concatenate([inner, outer]))
    # land exactly on x_max so the cumulative table starts at 0 there
    nodes[-1] = x_max
    return nodes


# largest inversion, in bandwidths x (spectral points + 2 x tail nodes).  Each
# such unit holds 33-42 bytes of work arrays through estimate_chain (n = 100,
# 2^12-2^15 points, x_max 5-40; tracemalloc) and 44 at x_max = 400, and
# 64 bytes when tail_estimates inverts one bandwidth (2^12-2^18 points), so
# the cap stands for about 0.5 GB.  The default grid asks for
# 13 x (8,192 + 2 x 1,091), about 135,000
_MAX_INVERSION = 2 ** 23


def _check_inversion_size(bandwidths: int, points: int, x_max: float) -> None:
    """Refuse to invert more than _MAX_INVERSION units, counted from the
    sizes alone, before anything is allocated."""
    nodes = _GEOM_POINTS + max(0, math.ceil((x_max - _NODE_SPLIT)
                                            / _LINEAR_STEP))
    size = bandwidths * (points + 2 * nodes)
    if size > _MAX_INVERSION:
        raise InputError(
            f"{bandwidths} bandwidths x ({points} spectral points + 2 x "
            f"{nodes} tail nodes) = {size} exceeds the inversion cap of "
            f"{_MAX_INVERSION}; use fewer spectral points, a larger L or a "
            "smaller x_max")


def checked_tail_nodes(grid: FrequencyGrid, x_max: float) -> np.ndarray:
    """tail_nodes(x_max), once the grid spacing is known to stay below
    pi / x_max, so the periodic images of F_h miss [-x_max, x_max]."""
    if not grid.spacing * x_max < math.pi:
        raise InputError(
            f"frequency spacing {grid.spacing:.3g} aliases the tail nodes "
            f"(needs < pi / x_max = {math.pi / x_max:.3g}); use more "
            f"spectral points for a window of {grid.cutoff:g}")
    return tail_nodes(x_max)


def tail_estimates(spectra: Spectra, kernel: SpectralKernel, bandwidths,
                   x_max: float = X_MAX_DEFAULT) -> list:
    """Tail-function estimates N_h for every bandwidth from one spectra table.

    Column j of the smoothed spectrum is spectra.psi2 * fk(h_j u) on the
    table's grid; a single inverse_fourier pass evaluates F_h at
    +-tail_nodes for all columns, and each column becomes one
    DistributionEstimate with its +- density tables.  The grid window
    should cover |u| < 1/h (the kernel's band): frequencies beyond
    ``grid.cutoff`` are not integrated.  The grid must not alias the tail
    nodes (`checked_tail_nodes`), and the inversion must stay within
    `_check_inversion_size`.
    """
    hs = np.atleast_1d(np.asarray(bandwidths, dtype=float))
    if hs.ndim != 1 or not hs.size or not np.all(hs > 0):
        raise InputError(f"bandwidths must be positive, got {bandwidths}")
    grid = spectra.grid
    _check_inversion_size(hs.size, grid.points, x_max)
    u = grid.u
    nodes = checked_tail_nodes(grid, x_max)
    columns = np.stack([spectra.psi2 * kernel.fk(h * u) for h in hs], axis=1)
    F = inverse_fourier(columns, grid, np.concatenate([-nodes[::-1], nodes]))
    if not np.all(np.isfinite(F)):
        raise NumericalError("inverse transform of the curvature is not finite")
    F_neg = F[nodes.size - 1 :: -1]   # F(-nodes[i])
    F_pos = F[nodes.size :]
    return [DistributionEstimate(
                nodes=nodes, density_pos=-F_pos[:, j] / (nodes * nodes),
                density_neg=-F_neg[:, j] / (nodes * nodes), bandwidth=float(h))
            for j, h in enumerate(hs)]


def tail_quantiles(dists, taus, eta: float, side: str) -> tuple:
    """The tau-quantiles q = sup{t in [eta, x_max] : N_h(+-t) >= tau} of
    tail tables on one node grid, for every level and table in one pass.

    On node interval i, in w = nodes[i+1] - t, N_h - tau = a w^2 + b w + c.
    The last interval whose maximum (end values and interior vertex)
    reaches tau holds q; N_h < tau at its right end, so q sits at the
    smallest positive root, taken from the numerically stable form.  If
    N_h < tau on all of [eta, x_max] the estimate clamps to eta with
    at_threshold=True.  eta may not lie below the first tail node.

    Returns (values, at_threshold), arrays of shape (levels, tables).  The
    coefficients that do not depend on tau are formed once per table; the
    levels are taken in chunks of at most _MAX_BATCH elements per work array
    (one level at a time where the tables alone hold more).
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    for tau in taus:
        if not tau > 0:
            raise InputError(f"tau must be positive, got {tau}")
    if side not in ("+", "-"):
        raise InputError(f"side must be '+' or '-', got {side!r}")
    nodes = dists[0].nodes
    if not all(np.array_equal(dist.nodes, nodes) for dist in dists[1:]):
        raise InputError("tail tables must share one node grid")
    if not eta >= nodes[0]:
        raise InputError(
            f"eta must be at least the first tail node {nodes[0]:g}, got {eta}")
    sign = 1 if side == "+" else -1
    d = np.stack([dist._tables[sign][0] for dist in dists])
    cum = np.stack([dist._tables[sign][1] for dist in dists])
    # intervals from the one holding eta, the first cut at eta; the left
    # end of a whole interval takes its table value, so c < 0 at k below
    first = int(np.searchsorted(nodes, eta, side="right")) - 1
    x_hi, step = nodes[first + 1:], np.diff(nodes[first:])
    width = np.minimum(step, x_hi - eta)
    a = 0.5 * (d[:, first:-1] - d[:, first + 1:]) / step
    b, cum_hi, cum_lo = d[:, first + 1:], cum[:, first + 1:], cum[:, first:-1]
    vertex = np.clip(np.divide(-b, 2.0 * a, out=np.zeros_like(b),
                               where=a < 0), 0.0, width)
    rise_vertex = (a * vertex + b) * vertex
    rise_left = (a * width + b) * width
    cut = width < step
    rows = np.arange(len(dists))
    values = np.empty((taus.size, len(dists)))
    clamped = np.empty((taus.size, len(dists)), dtype=bool)
    chunk = max(1, _MAX_BATCH // b.size)
    for lo in range(0, taus.size, chunk):
        tau = taus[lo : lo + chunk, None, None]
        c = cum_hi - tau
        left = np.where(cut, rise_left + c, cum_lo - tau)
        reach = np.maximum(np.maximum(c, left), rise_vertex + c) >= 0.0
        k = reach.shape[-1] - 1 - np.argmax(reach[..., ::-1], axis=-1)
        # in v = w / width, scaled to a largest coefficient of 1 so that the
        # discriminant neither overflows nor underflows.  w ** 2 is pow, not
        # w * w: the two round apart in about 1 case in 1,000, and the
        # frozen quantile outputs are pow's
        A = a[rows, k] * np.array([w ** 2 for w in width[k].flat]
                                  ).reshape(k.shape)
        B = b[rows, k] * width[k]
        C = np.take_along_axis(c, k[..., None], axis=-1)[..., 0]
        scale = np.maximum(np.maximum(np.abs(A), np.abs(B)), np.abs(C))
        with np.errstate(all="ignore"):  # np.where evaluates both branches
            A, B, C = A / scale, B / scale, C / scale
            root = np.sqrt(np.maximum(B * B - 4.0 * A * C, 0.0))
            v = np.where(B < 0, (root - B) / (2.0 * A),
                         np.where(B + root > 0, -2.0 * C / (B + root), 0.0))
        found = reach.any(axis=-1)
        values[lo : lo + chunk] = np.where(
            found, np.maximum(x_hi[k] - v * width[k], eta), eta)
        clamped[lo : lo + chunk] = ~found
    return values, clamped


def quantile_from_distribution(dist: DistributionEstimate, tau: float,
                               eta: float, side: str) -> QuantileEstimate:
    """The tau-quantile of one tail table: `tail_quantiles` at one level."""
    values, clamped = tail_quantiles([dist], [tau], eta, side)
    return QuantileEstimate(value=float(values[0, 0]),
                            at_threshold=bool(clamped[0, 0]))
