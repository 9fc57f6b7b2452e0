from dataclasses import dataclass

import numpy as np
import pytest

from levyq.errors import InputError
from levyq.inversion import X_MAX_DEFAULT, tail_estimates
from levyq.kernels import SpectralKernel
from levyq.models import CGMYJumps, LevyModel, martingale_drift
from levyq.numerics import FrequencyGrid, Spectra, inverse_fourier

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


def curvature_table(psi2, grid):
    """A spectra table that holds only a curvature: psi2 (a callable of the
    nodes, or an array on them) on ``grid.u``, every node trusted.  phi and
    psi1 are NaN, so a step that reads them fails loudly."""
    u = grid.u
    nan = np.full(u.shape, np.nan + 0j)
    values = np.asarray(psi2(u) if callable(psi2) else psi2, dtype=complex)
    return Spectra(grid=grid, horizon=1.0, n_obs=1, phi=nan, psi1=nan,
                   psi2=values, trusted=np.ones(u.shape, dtype=bool))


def interpolant_at(x, table):
    """The piecewise-linear option interpolant of a (breaks, ascending)
    table (`options._linear_table`'s form) at x: the straight line between
    its values at the breakpoints, zero outside them."""
    breaks, ascending = table
    last = ascending[0, -1] + ascending[1, -1] * (breaks[-1] - breaks[-2])
    values_at_breaks = np.append(ascending[0], last)
    return np.interp(x, breaks, values_at_breaks, left=0.0, right=0.0)


def tail_at(psi2, kernel, h, x_max=X_MAX_DEFAULT, points=SPECTRAL_POINTS):
    """Tail-function estimate at one bandwidth: the curvature psi2 (a
    callable) tabulated on the full band |u| <= 1/h and inverted by
    tail_estimates, the table demo_direct builds from increments."""
    grid = FrequencyGrid(1.0 / h, points)
    return tail_estimates(curvature_table(psi2, grid), kernel, [h], x_max)[0]


def density_at(psi2, kernel, h, t, points=SPECTRAL_POINTS):
    """Pointwise jump density estimate nu_h(t) = -t^{-2} F_h(t) at t != 0,
    F_h(t) = (1/2pi) int e^{-iut} psi2(u) fk(hu) du on the band |u| <= 1/h
    (the tail tables hold it only at the tail nodes)."""
    grid = FrequencyGrid(1.0 / h, points)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    spectrum = np.asarray(psi2(grid.u), dtype=complex) * kernel.fk(h * grid.u)
    out = -inverse_fourier(spectrum, grid, t_arr) / (t_arr * t_arr)
    return float(out[0]) if np.ndim(t) == 0 else out


def triangle_kernel() -> SpectralKernel:
    """Triangle Fourier profile (the spatial kernel is the Fejer kernel).

    Mass is 1 but the second moment does not vanish; a negative control
    for `verify_order`.
    """

    def fk(u):
        return np.clip(1.0 - np.abs(np.asarray(u, dtype=float)), 0.0, 1.0)

    return SpectralKernel(fk=fk, declared_order=1, flat_radius=None)


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


def verify_order(kernel: SpectralKernel, p: int, tol: float = 1e-6,
                 mass_tol: float = 1e-8) -> OrderReport:
    """Numerically check that the first p moments of K vanish.

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
    K = inverse_fourier(kernel.fk, grid, x)
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
