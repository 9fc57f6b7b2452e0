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
4. The tau-quantile of the tail function is the jump size t >= eta at which
   N_h crosses tau, located by a geometric scan plus bisection, clamped to
   the threshold eta when the tail never reaches tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .kernels import SpectralKernel
from .numerics import FrequencyGrid, bracketed_root, inverse_fourier

__all__ = [
    "DistributionEstimate",
    "QuantileEstimate",
    "X_MAX_DEFAULT",
    "density_from_psi2",
    "tail_nodes",
    "tail_estimates",
    "distribution_estimate",
    "quantile_from_distribution",
]

X_MAX_DEFAULT = 5.0
# spectral nodes used when inverting a curvature estimate
SPECTRAL_POINTS = 2 ** 13
# quantile search: geometric scan resolution and bisection tolerance
QUANTILE_GRID_POINTS = 400
QUANTILE_TOL = 1e-6
# composite spatial grid: geometric inner part, uniform outer part
_NODE_SPLIT = 0.5
_GEOM_LO = 0.004
_GEOM_POINTS = 640
_LINEAR_STEP = 0.01


@dataclass(frozen=True)
class DistributionEstimate:
    """Estimated tail function t != 0 -> intensity of jumps beyond t."""

    eval: object
    bandwidth: float
    kernel: SpectralKernel
    x_max: float = X_MAX_DEFAULT

    def __call__(self, t):
        return self.eval(t)


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
    """Composite positive-axis quadrature nodes on [_GEOM_LO, x_max].

    Geometric spacing up to _NODE_SPLIT resolves the x^{-2} weight near the
    origin; uniform _LINEAR_STEP spacing beyond keeps the oscillation of the
    band-limited transform resolved out to the truncation point.
    """
    if not x_max > _NODE_SPLIT:
        raise InputError(f"x_max must exceed {_NODE_SPLIT}, got {x_max}")
    inner = np.geomspace(_GEOM_LO, _NODE_SPLIT, _GEOM_POINTS)
    outer = np.arange(_NODE_SPLIT, x_max + 0.5 * _LINEAR_STEP, _LINEAR_STEP)
    nodes = np.unique(np.concatenate([inner, outer]))
    # land exactly on x_max so the cumulative table starts at 0 there
    nodes[-1] = x_max
    return nodes


def _tail_table(nodes: np.ndarray, F_on_nodes: np.ndarray):
    """Cumulative tail integrals of -x^{-2} F over [node_i, x_max].

    Returns (integrand, cumulative) where integrand_i = -F_i / node_i^2 and
    cumulative_i = int_{node_i}^{x_max} integrand dx by trapezoid.
    """
    d = -F_on_nodes / (nodes * nodes)
    seg = 0.5 * np.diff(nodes) * (d[1:] + d[:-1])
    cum = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    return d, cum


class _TailEvaluator:
    """Callable N_h(t) built from per-side node tables.

    Between nodes the integrand is interpolated linearly, so the evaluator
    is continuous, differentiable almost everywhere with derivative equal
    to minus the (interpolated) density, and exactly 0 at +-x_max.
    """

    def __init__(self, nodes, d_pos, cum_pos, d_neg, cum_neg, transform):
        self.nodes = nodes
        self.tables = {1: (d_pos, cum_pos), -1: (d_neg, cum_neg)}
        self._transform = transform  # F(x) for fresh nodes below the grid

    def density(self, t):
        """Tabulated density nu_h(t) = -t^{-2} F_h(t), linear between nodes."""
        d, _ = self.tables[1 if t > 0 else -1]
        return float(np.interp(abs(t), self.nodes, d))

    def _one_side(self, s, sign):
        nodes = self.nodes
        d, cum = self.tables[sign]
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
        # rare path: t below the table; integrate [t, nodes[0]] directly
        if not t > 0:
            raise InputError("tail evaluation needs t != 0")
        xs = np.geomspace(t, self.nodes[0], 33)
        F = self._transform(sign * xs)
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

        d_pos, cum_pos = _tail_table(nodes, F_pos[:, j])
        d_neg, cum_neg = _tail_table(nodes, F_neg[:, j])
        evaluator = _TailEvaluator(nodes, d_pos, cum_pos, d_neg, cum_neg,
                                   transform)
        out.append(DistributionEstimate(eval=evaluator, bandwidth=float(h),
                                        kernel=kernel, x_max=x_max))
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
    """Jump size t in [eta, x_max] where the tail function crosses tau.

    Scans a geometric grid for sign changes of N_h(+-t) - tau, refines each
    by bisection, and returns the candidate with the smallest residual
    |N_h - tau| (ties broken toward the smallest t).  If the curve never
    reaches tau the estimate clamps to eta with at_threshold=True.
    """
    if not tau > 0:
        raise InputError(f"tau must be positive, got {tau}")
    if not eta > 0:
        raise InputError(f"eta must be positive, got {eta}")
    if side not in ("+", "-"):
        raise InputError(f"side must be '+' or '-', got {side!r}")
    sign = 1.0 if side == "+" else -1.0
    x_max = dist.x_max

    def f(t):
        return float(dist.eval(sign * t)) - tau

    ts = np.geomspace(eta, x_max, QUANTILE_GRID_POINTS)
    vals = np.asarray(dist.eval(sign * ts), dtype=float) - tau
    crossings = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    candidates = [float(ts[i]) for i in np.nonzero(vals == 0.0)[0]]
    for i in crossings:
        candidates.append(bracketed_root(f, float(ts[i]), float(ts[i + 1]),
                                         tol=QUANTILE_TOL))
    if not candidates:
        if vals[0] < 0.0:
            # tail never reaches tau: clamp to the threshold
            return QuantileEstimate(value=eta, side=side, tau=tau,
                                    bandwidth=dist.bandwidth, at_threshold=True)
        # curve stays at or above tau on the whole scan: deterministic
        # fallback to the grid argmin (residual, then smallest t)
        best = int(np.lexsort((ts, np.abs(vals)))[0])
        return QuantileEstimate(value=float(ts[best]), side=side, tau=tau,
                                bandwidth=dist.bandwidth, at_threshold=False)
    resid = [abs(f(c)) for c in candidates]
    best = min(range(len(candidates)), key=lambda i: (resid[i], candidates[i]))
    return QuantileEstimate(value=candidates[best], side=side, tau=tau,
                            bandwidth=dist.bandwidth, at_threshold=False)
