from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest

from levyq.adaptive import _bound_terms, adaptive_quantile, sigma_tilde
from levyq.errors import InputError
from levyq.inversion import (X_MAX_DEFAULT, TailInversion, TailTable,
                             tail_quantiles)
from levyq.models import CGMYJumps, LevyModel, martingale_drift
from levyq.numerics import FrequencyGrid, Spectra, inverse_fourier
from levyq.options import (OptionChain, _check_knots, _curvature,
                           _group_transforms, _linear_table)

# spectral nodes of the grids tail_at and density_at tabulate on; the
# tolerances of the tests that use them were set at this count
SPECTRAL_POINTS = 2 ** 13

# Benchmark tempered-stable measure used across the test suite, together
# with the frozen ground-truth quantile magnitudes: exact roots of
# N(-q) = tau resp. N(q) = tau, cross-validated to 6 decimals by two
# independent oracles (adaptive quadrature of the intensity density, and
# the upper-incomplete-gamma closed form M^Y Gamma(-Y, M t) evaluated in
# 30-digit arithmetic).
BENCH = dict(C=1.0, G=5.0, M=8.0, Y=0.5)

TRUE_QUANTILES = {
    # tau: (left magnitude, right magnitude)
    0.5: (0.178525, 0.125468),
    1.0: (0.120155, 0.086676),
    1.5: (0.091451, 0.067233),
    2.0: (0.073700, 0.055022),
    2.5: (0.061466, 0.046493),
}

# The same ten cells as printed in the reference benchmark table (4
# decimals).  They scatter around the exact roots by up to ~1.4e-3 in both
# directions, so they are kept separate from the frozen truth above; see
# tests/test_acceptance.py for the full comparison.
PRINTED_QUANTILES = {
    0.5: (0.1778, 0.1241),
    1.0: (0.1201, 0.0868),
    1.5: (0.0929, 0.0665),
    2.0: (0.0726, 0.0563),
    2.5: (0.0624, 0.0461),
}


def hermitian_full_sum(g, grid, x):
    """Reference inverse transform of half-grid data: the direct complex sum
    (1/2pi) sum w e^{-iux} G over every node of the symmetric layout, where
    G is the Hermitian extension of g (G(-u) = conj g(u)) and w are the
    symmetric rule's weights, half of ``grid.weights``.  Forms the whole
    targets x nodes phase matrix; complex output, one column per column of
    g."""
    u = np.concatenate([-grid.u[::-1], grid.u])
    w = 0.5 * np.concatenate([grid.weights[::-1], grid.weights])
    g = np.asarray(g)
    full = np.concatenate([np.conj(g[::-1]), g])
    phase = np.exp(-1j * np.outer(np.atleast_1d(x), u)) * w
    return phase @ full / (2.0 * np.pi)


@dataclass(frozen=True)
class MidpointGrid:
    """A second uniform layout of the positive half grid, for the tests of
    the inverse transform and the empirical cf: nodes at the cell midpoints
    (j + 1/2) * spacing with spacing = 2 cutoff / points (FrequencyGrid's is
    2 cutoff / (points - 1)) and midpoint-rule weights.  It has the
    attributes those routines read, so a test on it fails where they lean
    on FrequencyGrid's spacing rule and not on the grid they are given."""

    cutoff: float
    points: int

    @property
    def spacing(self) -> float:
        return 2.0 * self.cutoff / self.points

    @property
    def u(self) -> np.ndarray:
        return (np.arange(self.points // 2) + 0.5) * self.spacing

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.points // 2, 2.0 * self.spacing)


def curvature_table(psi2, grid):
    """A spectra table that holds only a curvature: psi2 (a callable of the
    nodes, or an array on them) on ``grid.u``, every node trusted.  phi and
    psi1 are NaN, so a step that reads them fails loudly."""
    u = grid.u
    nan = np.full(u.shape, np.nan + 0j)
    values = np.asarray(psi2(u) if callable(psi2) else psi2, dtype=complex)
    return Spectra(grid=grid, horizon=1.0, n_obs=1, phi=nan, psi1=nan,
                   psi2=values, trusted=np.ones(u.shape, dtype=bool))


def weighted_transforms(breaks, ascending, u, ks):
    """All requested F_k of one interpolant table at the frequencies u (any
    sign, order or spacing): `_group_transforms` for that table alone."""
    return _group_transforms(breaks, [ascending], u, ks)[0]


def spline_spectra(xs, prices, maturity, u, noise_scale=0.0):
    """(phi~, trusted, psi~', psi~'') on an array of frequencies, from the
    interpolant of the quotes (xs, prices): what `compute_chain_spectra`
    tabulates on a grid, at any frequencies.

    trusted marks |phi~(u)| >= (1+|u|)^2 * noise_scale (and phi~ != 0);
    both derivative arrays are zeroed outside it.  The quotes are checked
    as a chain's are (positive maturity, strictly increasing knots, one
    price each, at least two)."""
    chain = OptionChain(maturity=maturity, rate=0.0, xs=xs, prices=prices,
                        noise_levels=np.zeros(np.shape(xs)))
    _check_knots(chain.xs)
    f = weighted_transforms(*_linear_table(chain.xs, chain.prices), u,
                            (0, 1, 2))
    return _curvature(u, f, maturity, noise_scale)


def interpolant_at(x, table):
    """The piecewise-linear option interpolant of a (breaks, ascending)
    table (`options._linear_table`'s form) at x: the straight line between
    its values at the breakpoints, zero outside them."""
    breaks, ascending = table
    last = ascending[0, -1] + ascending[1, -1] * (breaks[-1] - breaks[-2])
    values_at_breaks = np.append(ascending[0], last)
    return np.interp(x, breaks, values_at_breaks, left=0.0, right=0.0)


@dataclass(frozen=True, eq=False)
class TailOracle:
    """Tail function N_h (call it) and density nu_h (`density`) at one
    bandwidth, evaluated at any point from the tables density_pos[i] =
    nu_h(nodes[i]) and density_neg[i] = nu_h(-nodes[i]), nodes increasing
    to x_max = nodes[-1]: the point evaluator the quantile pass and the
    tail table are checked against.

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

    @classmethod
    def from_table(cls, table, j):
        """Bandwidth j of a TailTable."""
        return cls(nodes=table.nodes, density_pos=table.density[1, j],
                   density_neg=table.density[0, j],
                   bandwidth=float(table.bandwidths[j]))

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


def oracles(table):
    """One TailOracle per bandwidth of a TailTable."""
    return [TailOracle.from_table(table, j)
            for j in range(table.bandwidths.size)]


def as_table(dists):
    """The TailTable of oracles on one node grid."""
    return TailTable(
        nodes=dists[0].nodes,
        bandwidths=np.array([dist.bandwidth for dist in dists]),
        density=np.array([[dist.density_neg for dist in dists],
                          [dist.density_pos for dist in dists]]))


class Quantile(NamedTuple):
    value: float
    at_threshold: bool


def one_quantile(dist, tau, eta, side) -> Quantile:
    """The tau-quantile of one oracle's table: `tail_quantiles` at one
    level and one bandwidth, read on `side`."""
    values, clamped, _ = tail_quantiles(as_table([dist]), [tau], eta)
    row = int(side == "+")
    return Quantile(float(values[row, 0]), bool(clamped[row, 0]))


def select_one(bandwidths, quantiles, densities, sigmas, n, delta=0.1):
    """adaptive_quantile on one cell: (h, q, Selection), or the
    NoSolutionError of a cell whose every bandwidth was dropped."""
    selection = adaptive_quantile(bandwidths, quantiles, densities, sigmas,
                                  n, delta)
    return (*selection.pick(0), selection)


def sigma_at(spectra, kernel, h, q, x_max=X_MAX_DEFAULT):
    """sigma_tilde at one bandwidth h, from bound terms formed for h alone
    with the kernel profile `kernel`."""
    terms = _bound_terms(spectra, x_max, [h], kernel(h * spectra.grid.u)[None])
    return sigma_tilde(spectra, h, q, terms)


def tail_estimates(spectra, kernel, bandwidths, x_max=X_MAX_DEFAULT):
    """The tail table of every bandwidth from one spectra table: a
    `TailInversion` on the table's grid, applied once."""
    return TailInversion(spectra.grid, kernel, bandwidths, x_max).table(spectra)


def tail_at(psi2, kernel, h, x_max=X_MAX_DEFAULT, points=SPECTRAL_POINTS):
    """Tail-function estimate at one bandwidth: the curvature psi2 (a
    callable) tabulated on the full band |u| <= 1/h and inverted at h
    alone, as demo_direct inverts its table of increments."""
    grid = FrequencyGrid(1.0 / h, points)
    return TailOracle.from_table(
        tail_estimates(curvature_table(psi2, grid), kernel, [h], x_max), 0)


def density_at(psi2, kernel, h, t, points=SPECTRAL_POINTS):
    """Pointwise jump density estimate nu_h(t) = -t^{-2} F_h(t) at t != 0,
    F_h(t) = (1/2pi) int e^{-iut} psi2(u) fk(hu) du on the band |u| <= 1/h
    (the tail tables hold it only at the tail nodes)."""
    grid = FrequencyGrid(1.0 / h, points)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    spectrum = np.asarray(psi2(grid.u), dtype=complex) * kernel(h * grid.u)
    out = -inverse_fourier(spectrum, grid, t_arr) / (t_arr * t_arr)
    return float(out[0]) if np.ndim(t) == 0 else out


def triangle_kernel():
    """Triangle Fourier profile (the spatial kernel is the Fejer kernel).

    Mass is 1 but the second moment does not vanish; a negative control
    for `verify_order`.
    """

    def fk(u):
        return np.clip(1.0 - np.abs(np.asarray(u, dtype=float)), 0.0, 1.0)

    return fk


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


def verify_order(kernel, p: int, tol: float = 1e-6,
                 mass_tol: float = 1e-8) -> OrderReport:
    """Numerically check that the first p moments of K vanish, K the
    kernel of the profile `kernel`.

    Reconstructs K on a dense spatial grid by inverse Fourier transform of
    the profile, then evaluates the windowed moments int x^l K(x) w(x) dx
    for l = 0..p; `p = 0` checks only the mass.  Moments of K are only
    conditionally convergent (x^l K(x) oscillates without decaying once l
    exceeds the decay order), so the window is the two-scale Gaussian
    2 g_{2s} - g_s.  The pair cancels the window's first absolute-moment
    bias exactly, which keeps the mass check unbiased even for profiles
    with a kink at the origin (the triangle profile), while the Gaussian
    tails make the truncation of the oscillatory integrands negligible
    for any band-limited kernel.
    """
    if p < 0:
        raise InputError(f"moment order must be >= 0, got {p}")
    grid = FrequencyGrid(cutoff=1.0, points=_VERIFY_POINTS)
    x = np.arange(-_VERIFY_XMAX, _VERIFY_XMAX + 0.5 * _VERIFY_DX, _VERIFY_DX)
    K = inverse_fourier(kernel, grid, x)
    scaled = x / _VERIFY_SCALE
    w = 2.0 * np.exp(-0.125 * scaled ** 2) - np.exp(-0.5 * scaled ** 2)
    residuals = {0: float(np.trapezoid(K * w, x)) - 1.0}
    failures = [0] if abs(residuals[0]) > mass_tol else []
    for l in range(1, p + 1):
        residuals[l] = float(np.trapezoid(x ** l * K * w, x))
        if abs(residuals[l]) > tol:
            failures.append(l)
    return OrderReport(residuals=residuals, tol=tol, mass_tol=mass_tol,
                       failures=tuple(failures))


@pytest.fixture(scope="session")
def bench_jumps():
    return CGMYJumps(**BENCH)


@pytest.fixture(scope="session")
def bench_model(bench_jumps):
    sigma2 = 0.1 ** 2
    gamma = martingale_drift(sigma2, bench_jumps)
    return LevyModel(sigma2=sigma2, gamma=gamma, jumps=bench_jumps)


@pytest.fixture(scope="session")
def mc_table_default():
    """The full benchmark Monte Carlo run (200 replications, seed 0).

    Computed once per session (~3 minutes) and shared by the harness
    example test and the acceptance criteria that read individual cells.
    """
    from levyq.harness import ExperimentConfig, run_mc_table

    return run_mc_table(ExperimentConfig())


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Re-print the acceptance verdict lines after the test summary.

    Verdicts printed inside xfailed tests are swallowed by capture, so
    the acceptance module registers each line in a list we flush here.
    """
    import sys

    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "VERDICTS", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
