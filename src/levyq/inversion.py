"""From curvature estimates to jump density, tail function, and quantiles.

The pipeline shared by both observation schemes:

1. Smooth the curvature estimate with a band-limited kernel at bandwidth h
   and invert:  F_h(x) = (1/2pi) int e^{-iux} psi2(u) fk(hu) du.  Either
   scheme hands over its estimate as one `numerics.Spectra` table.  A run
   forms one `TailInversion` (tail nodes, kernel rows fk(h_j u), the plan
   of the inverse transform) and inverts all bandwidths of each table
   with one application of the plan (`TailInversion.table`).
2. The density estimate is  nu_h(t) = -t^{-2} F_h(t)  for t != 0.
3. The tail function N_h(t) integrates the density outward:
       N_h(t) = int_t^{X}  nu_h(x) dx          (t > 0)
       N_h(t) = int_{-X}^t nu_h(x) dx          (t < 0),
   realized as one-sided spatial quadrature of x^{-2} F_h on a fixed
   composite grid (geometric near the origin where the integrand varies
   fastest, uniform further out where the Nyquist limit of the band-limited
   transform binds), truncated at X = x_max where the integrand is
   negligible for tempered models.  The grid starts at FIRST_TAIL_NODE,
   and N_h is defined for |t| from there to x_max only.  Steps 2 and 3
   give one `TailTable` of (side, bandwidth, node) arrays.
4. The tau-quantile is the paper's q = inf{t > 0 : N(t) <= tau} (a jump
   beyond q is expected once in 1/tau time units) applied to the smallest
   nonincreasing majorant of N_h: q = sup{t in [eta, x_max] : N_h(t) >= tau},
   the last crossing of tau, clamped to eta when N_h < tau throughout.
   `tail_quantiles` reads it off the table for every level, bandwidth and
   side, searching the suffix maxima of N_h over the node intervals.

The frequency grid is sized by one rule, `grid_points`: the smallest power
of two whose inverse-transform period is GRID_MARGIN times the reach of the
inverted function.  The inversion's work arrays grow with bandwidths x
(spectral points + 2 x tail nodes); `TailInversion` refuses more than
_MAX_INVERSION of these units before it allocates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError
from .numerics import FrequencyGrid, Spectra, _GriddingPlan

__all__ = [
    "TailInversion",
    "TailTable",
    "X_MAX_DEFAULT",
    "FIRST_TAIL_NODE",
    "GRID_MARGIN",
    "grid_points",
    "tail_nodes",
    "tail_quantiles",
]

X_MAX_DEFAULT = 5.0
# composite spatial grid: geometric inner part, uniform outer part; no
# tail is tabulated below FIRST_TAIL_NODE, so no threshold eta may lie there
FIRST_TAIL_NODE = 0.004
_NODE_SPLIT = 0.5
_GEOM_POINTS = 640
_LINEAR_STEP = 0.01


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
# such unit holds 27-39 bytes of work arrays through estimate_chain (n = 100,
# 2^12-2^15 points, x_max 5-400; tracemalloc), 61-64 bytes when one
# bandwidth is inverted at 2^15-2^18 points (the gather's fixed 0.7 MB of
# chunks makes it 162 at 2^12) and 77 at 16 points and x_max 20,000, so
# the cap stands for about 0.65 GB.  The default chain asks for
# 13 x (1,024 + 2 x 1,091), about 42,000 (`grid_points`)
_MAX_INVERSION = 2 ** 23
# most spectral points of any grid.  Peak traced bytes (tracemalloc) were
# 0.6-1.0 kB per spectral point in mc-table (10 replications) and
# estimate-chain at n = 100 (13 bandwidths; 2^12 to 2^15 points, the most
# at 2^12), 0.1 kB in demo-direct at 2^17 and 2^18 points, so 2^19 points
# stand for about 0.5 GB
_MAX_SPECTRAL_POINTS = 2 ** 19
# the sizing rule's margin: the period 2 pi / spacing of the inverse
# transform is at least GRID_MARGIN times the reach (see `grid_points`)
GRID_MARGIN = 6.0


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


def grid_points(cutoff: float, x_max: float, span: float = 0.0) -> int:
    """Spectral nodes for the window |u| <= cutoff: the smallest power of
    two N >= 16 whose spacing du = 2 cutoff / (N - 1) makes the period
    2 pi / du of the inverse transform at least GRID_MARGIN times the reach
    max(x_max, span).

    The discrete sum repeats F_h with that period, so each tail node sees
    images of F_h from a period away.  The reach is how far F_h extends:
    the tail nodes go out to x_max, and an estimate carries content across
    the extent of the data behind it, `span` (the log-strike range of a
    chain, the range of an increments sample: 22 for the direct benchmark,
    where the period must clear it and x_max alone would not do).

    Tolerance 1e-8.  Measured against 2^15 nodes (seed 1; CHANGES.md holds
    the table), the reported estimates (a chain's selected quantiles,
    demo-direct's fixed-h quantiles) moved by at most 2.1e-9 wherever the
    period was at least 6 reaches, and by up to 2.7e-8 (chain, n = 50) and
    4.7e-5 (increments) at 5.5 and 1.8 reaches.  GRID_MARGIN = 6 keeps them
    within the tolerance; the power of two puts the grid at 6 to 12
    reaches.  This holds where the curvature estimate is continuous inside
    the kernel band.  Where the trust mask of a noisy chain switches psi~''
    off and on inside it, the sum converges at first order, and no count
    up to 2^15 meets 1e-8: per-bandwidth quantiles of the default
    Monte Carlo design move by up to 5e-3 at the rule's 1,024 nodes and
    2e-4 at 8,192, its RMSE x 100 by 1.3e-3 and 3.2e-4.

    A window or reach that asks for more than _MAX_SPECTRAL_POINTS (or is
    not finite) is refused before anything is allocated.
    """
    reach = max(x_max, span)
    need = 1.0 + GRID_MARGIN * reach * cutoff / math.pi
    if not need <= _MAX_SPECTRAL_POINTS:
        raise InputError(
            f"a frequency window of {cutoff:g} with x_max = {x_max:g} (reach "
            f"{reach:g}) needs more than the cap of {_MAX_SPECTRAL_POINTS} "
            "spectral points; use a smaller window or x_max")
    points = 16
    while points < need:
        points *= 2
    return points


@dataclass(frozen=True, eq=False)
class TailTable:
    """Tail functions N_h of every bandwidth on one node grid.

    density[s, j, i] is nu_h(-nodes[i]) for s = 0 and nu_h(nodes[i]) for
    s = 1 at bandwidth bandwidths[j], nodes increasing to x_max =
    nodes[-1].  The density is linear between nodes, so N_h(t) =
    int_t^{x_max} nu_h (mirrored for t < 0) is quadratic there, continuous,
    and exactly 0 at +-x_max; tail[s, j, i] holds it at +-nodes[i], from one
    cumulative trapezoid sum along the node axis.
    """

    nodes: np.ndarray
    bandwidths: np.ndarray
    density: np.ndarray
    tail: np.ndarray = field(init=False)

    def __post_init__(self):
        nodes, d = self.nodes, self.density
        if d.shape != (2, self.bandwidths.size, nodes.size):
            raise InputError(f"density tables of shape {d.shape}, not 2 sides"
                             " x bandwidths x nodes")
        seg = 0.5 * np.diff(nodes) * (d[..., 1:] + d[..., :-1])
        tail = np.zeros(d.shape)
        tail[..., :-1] = np.cumsum(seg[..., ::-1], axis=-1)[..., ::-1]
        object.__setattr__(self, "tail", tail)


class TailInversion:
    """What the inversion of every spectra table on `grid` shares: the tail
    nodes, the kernel rows fk(h_j u) on the grid and the plan of the
    inverse transform at -+tail nodes.  `kernel` is a kernel profile fk
    (`kernels.flat_top_kernel`).  The window should cover |u| < 1/h
    (frequencies beyond ``grid.cutoff`` are not integrated); the grid
    spacing must stay below pi / x_max, so that the periodic images of F_h
    miss [-x_max, x_max], and the inversion within
    `_check_inversion_size`."""

    def __init__(self, grid: FrequencyGrid, kernel, bandwidths,
                 x_max: float):
        hs = np.atleast_1d(np.asarray(bandwidths, dtype=float))
        if hs.ndim != 1 or not hs.size or not np.all(hs > 0):
            raise InputError(f"bandwidths must be positive, got {bandwidths}")
        _check_inversion_size(hs.size, grid.points, x_max)
        if not grid.spacing * x_max < math.pi:
            raise InputError(
                f"frequency spacing {grid.spacing:.3g} aliases the tail nodes "
                f"(needs < pi / x_max = {math.pi / x_max:.3g}); use more "
                f"spectral points for a window of {grid.cutoff:g}")
        self.grid, self.bandwidths = grid, hs
        self.nodes = tail_nodes(x_max)
        self.kernel_rows = np.stack([kernel(h * grid.u) for h in hs])
        self._plan = _GriddingPlan(
            grid, np.concatenate([-self.nodes[::-1], self.nodes]))

    def table(self, spectra: Spectra) -> TailTable:
        """The tail table of every bandwidth from one spectra table: column
        j of the smoothed spectrum is spectra.psi2 * fk(h_j u)."""
        if spectra.grid != self.grid:
            raise InputError("spectra table on another frequency grid")
        F = self._plan.apply(spectra.psi2[:, None] * self.kernel_rows.T)
        if not np.all(np.isfinite(F)):
            raise NumericalError(
                "inverse transform of the curvature is not finite")
        size = self.nodes.size
        # F(-nodes[i]) and F(nodes[i]) per bandwidth
        density = -np.stack([F[size - 1 :: -1].T, F[size:].T]) / (
            self.nodes * self.nodes)
        return TailTable(nodes=self.nodes, bandwidths=self.bandwidths,
                         density=density)


def tail_quantiles(table: TailTable, taus, eta: float) -> tuple:
    """The tau-quantiles q = sup{t in [eta, x_max] : N_h(+-t) >= tau} of a
    tail table, for every level, side and bandwidth in one pass.

    On node interval i, in w = nodes[i+1] - t, N_h - tau = a w^2 + b w + c.
    The last interval whose maximum (end values and interior vertex)
    reaches tau holds q; N_h < tau at its right end, so q sits at the
    smallest positive root, taken from the numerically stable form.  If
    N_h < tau on all of [eta, x_max] the estimate clamps to eta with
    at_threshold=True.  eta may not lie below the first tail node.

    Returns (values, at_threshold, density) of shape (2 levels,
    bandwidths), a row per (tau, side) cell, tau outer and '-' first;
    density is nu_h of the cell's side at its quantile (`np.interp`).  The
    interval maxima do not depend on tau, and one binary search per (side,
    bandwidth) row in their suffix maxima finds every level's interval.
    The per-level test (peak >= 0) rounds apart from them within a few
    ulps, so a level that fails it there is scanned again interval by
    interval.  The work is sides x bandwidths x (nodes + levels).
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    for tau in taus:
        if not tau > 0:
            raise InputError(f"tau must be positive, got {tau}")
    nodes = table.nodes
    if not eta >= nodes[0]:
        raise InputError(
            f"eta must be at least the first tail node {nodes[0]:g}, got {eta}")
    # one row per (side, bandwidth), '-' rows first
    d, cum = (a.reshape(-1, nodes.size) for a in (table.density, table.tail))
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

    def peak(tau, j=slice(None), k=slice(None)):  # max of N_h - tau
        c = cum_hi[j, k] - tau
        left = np.where(cut[k], rise_left[j, k] + c, cum_lo[j, k] - tau)
        return np.maximum(np.maximum(c, left), rise_vertex[j, k] + c)

    # tau above an interval's maximum by 16 ulps of its terms fails there;
    # the negated suffix maxima rise along each row
    top = peak(0.0) + 16.0 * np.spacing(
        abs(cum_hi) + abs(cum_lo) + abs(rise_left) + abs(rise_vertex))
    rising = -np.maximum.accumulate(top[:, ::-1], axis=-1)[:, ::-1]
    k = np.stack([np.searchsorted(row, -taus, side="right")
                  for row in rising], axis=-1) - 1
    rows, tau = np.arange(d.shape[0]), taus[:, None]
    for i, j in np.argwhere((k >= 0) & ~(peak(tau, rows, k) >= 0.0)):
        # tau within rounding of the maximum of interval k: scan the row
        hits = np.nonzero(peak(taus[i], j) >= 0.0)[0]
        k[i, j] = hits[-1] if hits.size else -1
    # in v = w / width, scaled to a largest coefficient of 1 so that the
    # discriminant neither overflows nor underflows.  w ** 2 is pow, not
    # w * w: the two round apart in about 1 case in 1,000, and the
    # frozen quantile outputs are pow's
    A = a[rows, k] * np.array([w ** 2 for w in width[k].flat]
                              ).reshape(k.shape)
    B = b[rows, k] * width[k]
    C = cum_hi[rows, k] - tau
    scale = np.maximum(np.maximum(np.abs(A), np.abs(B)), np.abs(C))
    with np.errstate(all="ignore"):  # np.where evaluates both branches
        A, B, C = A / scale, B / scale, C / scale
        root = np.sqrt(np.maximum(B * B - 4.0 * A * C, 0.0))
        v = np.where(B < 0, (root - B) / (2.0 * A),
                     np.where(B + root > 0, -2.0 * C / (B + root), 0.0))
    values = np.where(k >= 0, np.maximum(x_hi[k] - v * width[k], eta), eta)
    density = np.stack([np.interp(q, nodes, row)
                        for q, row in zip(values.T, d)], axis=-1)
    return tuple(a.reshape(2 * taus.size, -1)
                 for a in (values, k < 0, density))
