"""From curvature estimates to jump density, tail function, and quantiles.

The pipeline shared by both observation schemes:

1. Smooth the curvature estimate with a band-limited kernel at bandwidth h
   and invert:  F_h(x) = (1/2pi) int e^{-iux} psi2(u) fk(hu) du.
2. The density estimate is  nu_h(t) = -t^{-2} F_h(t)  for t != 0.
3. The tail function N_h(t) integrates the density outward:
       N_h(t) = int_t^{X}  nu_h(x) dx          (t > 0)
       N_h(t) = int_{-X}^t nu_h(x) dx          (t < 0),
   realized as one-sided spatial quadrature of x^{-2} F_h on a fixed
   composite grid (geometric near the origin where the integrand varies
   fastest, uniform further out where the Nyquist limit of the band-limited
   transform binds), truncated at X = x_max where the integrand is
   negligible for tempered models.
4. The tau-quantile is the paper's q = inf{t > 0 : N(t) <= tau} (a jump
   beyond q is expected once in 1/tau time units) applied to the smallest
   nonincreasing majorant of N_h: q = sup{t in [eta, x_max] : N_h(t) >= tau},
   the last crossing of tau, clamped to eta when N_h < tau throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, NumericalError
from .kernels import SpectralKernel
from .numerics import FrequencyGrid, inverse_fourier

__all__ = [
    "DistributionEstimate",
    "QuantileEstimate",
    "X_MAX_DEFAULT",
    "FIRST_TAIL_NODE",
    "density_from_psi2",
    "tail_nodes",
    "tail_estimates",
    "distribution_estimate",
    "quantile_from_distribution",
]

X_MAX_DEFAULT = 5.0
# spectral nodes used when inverting a curvature estimate
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
    +-x_max.  `transform` gives F_h(x) = -x^2 nu_h(x) below the first node.
    """

    nodes: np.ndarray
    density_pos: np.ndarray
    density_neg: np.ndarray
    bandwidth: float
    transform: Callable

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
            below = si < nodes[0]
            idx = np.clip(idx, 1, nodes.size - 1)
            x_hi = nodes[idx]
            frac = (x_hi - si) / (x_hi - nodes[idx - 1])
            d_at = d[idx] + frac * (d[idx - 1] - d[idx])
            vals = cum[idx] + 0.5 * (x_hi - si) * (d_at + d[idx])
            if np.any(below):
                vals[below] = cum[0] + np.array(
                    [self._fresh_piece(t, sign) for t in si[below]]
                )
            out[inside] = vals
        return out

    def _fresh_piece(self, t, sign):
        # rare path: t > 0 below the table; integrate [t, nodes[0]] directly
        xs = np.geomspace(t, self.nodes[0], 33)
        F = self.transform(sign * xs)
        return float(np.trapezoid(-F / (xs * xs), xs))

    def __call__(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t_arr == 0.0):
            raise InputError("tail estimate is undefined at t = 0")
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
    side: str
    tau: float
    bandwidth: float
    at_threshold: bool

    def __post_init__(self):
        if self.side not in ("+", "-"):
            raise InputError(f"side must be '+' or '-', got {self.side!r}")


def _spectral_grid(h: float, points: int = SPECTRAL_POINTS) -> FrequencyGrid:
    if not h > 0:
        raise InputError(f"bandwidth must be positive, got {h}")
    return FrequencyGrid(cutoff=1.0 / h, points=points)


def _real_part(values: np.ndarray) -> np.ndarray:
    """Real part of inverted values, one column per spectrum.

    The imaginary residual must vanish for Hermitian curvature input; a
    large residual or a value that is not finite raises.
    """
    if not np.all(np.isfinite(values)):
        raise NumericalError("inverse transform of the curvature is not finite")
    if values.size:
        scale = np.maximum(1.0, np.max(np.abs(values.real), axis=0))
        resid = np.max(np.abs(values.imag), axis=0)
        if np.any(resid > 1e-6 * scale):
            raise NumericalError(
                f"inverse transform has imaginary residual "
                f"{float(np.max(resid)):.3e}; curvature input is not Hermitian"
            )
    return values.real


def density_from_psi2(psi2, kernel: SpectralKernel, h: float, t,
                      points: int = SPECTRAL_POINTS):
    """Jump density estimate nu_h(t) = -t^{-2} F_h(t) at t != 0, where
    F_h(t) = (1/2pi) int e^{-iut} psi2(u) fk(hu) du."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr == 0.0):
        raise InputError("density estimate is undefined at t = 0")
    grid = _spectral_grid(h, points)
    spectrum = np.asarray(psi2(grid.u), dtype=complex) * kernel.fk(h * grid.u)
    F = _real_part(inverse_fourier(spectrum, grid, t_arr))
    out = -F / (t_arr * t_arr)
    return float(out[0]) if np.ndim(t) == 0 else out


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


def tail_estimates(psi2_values, grid: FrequencyGrid, kernel: SpectralKernel,
                   bandwidths, x_max: float = X_MAX_DEFAULT) -> list:
    """Tail-function estimates N_h for every bandwidth from one curvature table.

    `psi2_values` is the curvature estimate tabulated on ``grid.u``.  Column
    j of the smoothed spectrum is psi2 * fk(h_j u); a single inverse_fourier
    pass evaluates F_h at +-tail_nodes for all columns, and each column
    becomes one DistributionEstimate with its +- density tables.  The grid
    window should cover |u| < 1/h (the kernel's band): frequencies beyond
    ``grid.cutoff`` are not integrated.  The node spacing must stay below
    pi / x_max, or the periodic images of F_h alias into [-x_max, x_max].
    """
    hs = np.atleast_1d(np.asarray(bandwidths, dtype=float))
    if hs.ndim != 1 or not hs.size or not np.all(hs > 0):
        raise InputError(f"bandwidths must be positive, got {bandwidths}")
    u = grid.u
    psi2 = np.asarray(psi2_values, dtype=complex)
    if psi2.shape != u.shape:
        raise InputError("curvature table must match the grid nodes")
    if not grid.spacing * x_max < math.pi:
        raise InputError(
            f"frequency spacing {grid.spacing:.3g} aliases the tail nodes "
            f"(needs < pi / x_max = {math.pi / x_max:.3g}); use more "
            f"spectral points for a window of {grid.cutoff:g}")
    nodes = tail_nodes(x_max)
    columns = np.stack([psi2 * kernel.fk(h * u) for h in hs], axis=1)
    F = _real_part(inverse_fourier(columns, grid,
                                   np.concatenate([-nodes[::-1], nodes])))
    F_neg = F[nodes.size - 1 :: -1]   # F(-nodes[i])
    F_pos = F[nodes.size :]
    out = []
    for j, h in enumerate(hs):
        def transform(x, column=columns[:, j]):
            return _real_part(inverse_fourier(column, grid, x))

        out.append(DistributionEstimate(
            nodes=nodes, density_pos=-F_pos[:, j] / (nodes * nodes),
            density_neg=-F_neg[:, j] / (nodes * nodes), bandwidth=float(h),
            transform=transform))
    return out


def distribution_estimate(psi2, kernel: SpectralKernel, h: float,
                          x_max: float = X_MAX_DEFAULT,
                          points: int = SPECTRAL_POINTS) -> DistributionEstimate:
    """Tail-function estimate at one bandwidth: psi2 tabulated on the full
    band |u| <= 1/h, then tail_estimates."""
    grid = _spectral_grid(h, points)
    return tail_estimates(psi2(grid.u), grid, kernel, [h], x_max)[0]


def quantile_from_distribution(dist: DistributionEstimate, tau: float,
                               eta: float, side: str) -> QuantileEstimate:
    """The tau-quantile q = sup{t in [eta, x_max] : N_h(+-t) >= tau}.

    On node interval i, in w = nodes[i+1] - t, N_h - tau = a w^2 + b w + c.
    The last interval whose maximum (end values and interior vertex)
    reaches tau holds q; N_h < tau at its right end, so q sits at the
    smallest positive root, taken from the numerically stable form.  If
    N_h < tau on all of [eta, x_max] the estimate clamps to eta with
    at_threshold=True.  eta may not lie below the first tail node.
    """
    if not tau > 0:
        raise InputError(f"tau must be positive, got {tau}")
    if side not in ("+", "-"):
        raise InputError(f"side must be '+' or '-', got {side!r}")
    nodes = dist.nodes
    if not eta >= nodes[0]:
        raise InputError(
            f"eta must be at least the first tail node {nodes[0]:g}, got {eta}")
    d, cum = dist._tables[1 if side == "+" else -1]
    # intervals from the one holding eta, the first cut at eta; the left
    # end of a whole interval takes its table value, so c < 0 at k below
    first = int(np.searchsorted(nodes, eta, side="right")) - 1
    x_hi, step = nodes[first + 1:], np.diff(nodes[first:])
    width = np.minimum(step, x_hi - eta)
    a = 0.5 * (d[first:-1] - d[first + 1:]) / step
    b, c = d[first + 1:], cum[first + 1:] - tau
    vertex = np.clip(np.divide(-b, 2.0 * a, out=np.zeros_like(b),
                               where=a < 0), 0.0, width)
    left = np.where(width < step, (a * width + b) * width + c,
                    cum[first:-1] - tau)
    peak = np.maximum.reduce([c, left, (a * vertex + b) * vertex + c])
    reach = np.nonzero(peak >= 0.0)[0]
    if not reach.size:
        return QuantileEstimate(value=eta, side=side, tau=tau,
                                bandwidth=dist.bandwidth, at_threshold=True)
    k = reach[-1]
    # in v = w / width, scaled to a largest coefficient of 1 so that the
    # discriminant neither overflows nor underflows
    coef = np.array([a[k] * width[k] ** 2, b[k] * width[k], c[k]])
    A, B, C = (float(x) for x in coef / np.max(np.abs(coef)))
    root = math.sqrt(max(B * B - 4.0 * A * C, 0.0))
    if B < 0:
        v = (root - B) / (2.0 * A)
    else:
        v = -2.0 * C / (B + root) if B + root > 0 else 0.0
    return QuantileEstimate(value=max(float(x_hi[k] - v * width[k]), eta),
                            side=side, tau=tau, bandwidth=dist.bandwidth,
                            at_threshold=False)
